//! The bus-facing half of the OCP: slave register port, master DMA
//! port, and the interrupt line.
//!
//! Figure 3 splits the interface into "one \[part\] which is dependent on
//! the system bus, and one which is independent". The bus-dependent part
//! is the `SystemBus` implementation (AHB-like or AXI-like, in
//! `ouessant-sim`); this module is the independent part plus the two
//! attachment points:
//!
//! * [`RegSlavePort`] — exposes the shared [`RegsHandle`] register file
//!   as a bus slave (the "bus slave FSM" + configuration data
//!   multiplexer);
//! * [`DmaPort`] — the "bus master FSM": issues the burst transactions
//!   the controller requests after bank translation;
//! * [`IrqLine`] — the GPP interrupt wire driven on `eop`.

use std::cell::Cell;
use std::rc::Rc;

use ouessant_sim::bus::{
    Addr, BusError, BusSlave, Completion, MasterId, PortState, SlaveFault, TxnRequest,
};
use ouessant_sim::SystemBus;

use crate::regs::RegsHandle;

/// Size of the OCP's slave window in bytes (configuration registers at
/// `0x00..0x28` plus the read-only debug window at `0x40..0x50`).
pub const SLAVE_WINDOW_BYTES: u32 = 0x80;

/// The OCP's registers exposed as a bus slave.
///
/// Register accesses are single-cycle (no wait states): the register
/// file is on-chip, unlike the external SRAM.
#[derive(Debug, Clone)]
pub struct RegSlavePort {
    regs: RegsHandle,
}

impl RegSlavePort {
    /// Wraps a register-file handle.
    #[must_use]
    pub fn new(regs: RegsHandle) -> Self {
        Self { regs }
    }
}

impl BusSlave for RegSlavePort {
    fn name(&self) -> &str {
        "ocp.regs"
    }

    fn size(&self) -> u32 {
        SLAVE_WINDOW_BYTES
    }

    fn read_word(&mut self, offset: u32) -> Result<u32, SlaveFault> {
        self.regs
            .with(|r| r.bus_read(offset))
            .ok_or_else(|| SlaveFault {
                reason: format!("no OCP register at offset {offset:#x}"),
            })
    }

    fn write_word(&mut self, offset: u32, value: u32) -> Result<(), SlaveFault> {
        if self.regs.with_mut(|r| r.bus_write(offset, value)) {
            Ok(())
        } else {
            Err(SlaveFault {
                reason: format!("OCP register at offset {offset:#x} is not writable"),
            })
        }
    }
}

/// The interrupt wire from the OCP to the GPP.
///
/// Level-triggered: raised on `eop` when the IE bit is set, cleared by
/// the handler via [`IrqLine::clear`].
#[derive(Debug, Clone, Default)]
pub struct IrqLine {
    raised: Rc<Cell<bool>>,
}

impl IrqLine {
    /// A deasserted line.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Asserts the line.
    pub fn raise(&self) {
        self.raised.set(true);
    }

    /// Deasserts the line (interrupt acknowledged).
    pub fn clear(&self) {
        self.raised.set(false);
    }

    /// Whether the line is asserted.
    #[must_use]
    pub fn is_raised(&self) -> bool {
        self.raised.get()
    }
}

/// The bus-master FSM: one outstanding burst on behalf of the
/// controller.
#[derive(Debug, Clone, Copy)]
pub struct DmaPort {
    master: MasterId,
}

impl DmaPort {
    /// Wraps a master id registered on the system bus.
    #[must_use]
    pub fn new(master: MasterId) -> Self {
        Self { master }
    }

    /// The underlying master id.
    #[must_use]
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// Issues a burst read of `beats` words at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] (busy, unmapped, boundary, …).
    pub fn begin_read(
        &self,
        bus: &mut dyn SystemBus,
        addr: Addr,
        beats: u16,
    ) -> Result<(), BusError> {
        bus.try_begin(self.master, TxnRequest::read(addr, beats))
    }

    /// Issues a burst write of `data` at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`].
    pub fn begin_write(
        &self,
        bus: &mut dyn SystemBus,
        addr: Addr,
        data: Vec<u32>,
    ) -> Result<(), BusError> {
        bus.try_begin(self.master, TxnRequest::write(addr, data))
    }

    /// Whether a transaction is still in flight.
    #[must_use]
    pub fn is_pending(&self, bus: &dyn SystemBus) -> bool {
        bus.poll(self.master) == PortState::Pending
    }

    /// Retires a finished transaction, if any.
    pub fn take_completion(&self, bus: &mut dyn SystemBus) -> Option<Result<Completion, BusError>> {
        bus.take_completion(self.master)
    }

    /// The finished transaction [`DmaPort::take_completion`] would
    /// retire, left in place.
    #[must_use]
    pub fn peek_completion<'b>(
        &self,
        bus: &'b dyn SystemBus,
    ) -> Option<&'b Result<Completion, BusError>> {
        bus.peek_completion(self.master)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::{CTRL_IE, CTRL_S, REG_CTRL, REG_PROG_SIZE};
    use ouessant_sim::bus::{Bus, BusConfig};

    #[test]
    fn slave_port_reads_and_writes_registers() {
        let regs = RegsHandle::new();
        let mut port = RegSlavePort::new(regs.clone());
        port.write_word(REG_PROG_SIZE, 18).unwrap();
        assert_eq!(port.read_word(REG_PROG_SIZE).unwrap(), 18);
        regs.with(|r| assert_eq!(r.prog_size(), 18));
    }

    #[test]
    fn slave_port_faults_on_holes() {
        let mut port = RegSlavePort::new(RegsHandle::new());
        assert!(port.read_word(0x30).is_err());
        assert!(port.write_word(0x40, 1).is_err(), "debug window read-only");
    }

    #[test]
    fn slave_port_visible_through_bus() {
        let regs = RegsHandle::new();
        let mut bus = Bus::new(BusConfig::default());
        let cpu = bus.register_master();
        bus.add_slave(0x8000_0000, RegSlavePort::new(regs.clone()));
        bus.try_begin(
            cpu,
            TxnRequest::write_word(0x8000_0000 + REG_CTRL, CTRL_S | CTRL_IE),
        )
        .unwrap();
        bus.run_to_completion(cpu).unwrap();
        assert!(regs.with_mut(|r| r.take_start()));
        assert!(regs.with(|r| r.irq_enabled()));
    }

    #[test]
    fn irq_line_raise_clear() {
        let line = IrqLine::new();
        let observer = line.clone();
        assert!(!observer.is_raised());
        line.raise();
        assert!(observer.is_raised());
        observer.clear();
        assert!(!line.is_raised());
    }

    #[test]
    fn dma_port_round_trip() {
        use ouessant_sim::memory::{Sram, SramConfig};
        let mut bus = Bus::new(BusConfig::default());
        let m = bus.register_master();
        bus.add_slave(0, Sram::with_words(64, SramConfig::no_wait()));
        let dma = DmaPort::new(m);
        dma.begin_write(&mut bus, 0, vec![1, 2, 3]).unwrap();
        while dma.is_pending(&bus) {
            SystemBus::tick(&mut bus);
        }
        dma.take_completion(&mut bus).unwrap().unwrap();
        dma.begin_read(&mut bus, 0, 3).unwrap();
        while dma.is_pending(&bus) {
            SystemBus::tick(&mut bus);
        }
        let c = dma.take_completion(&mut bus).unwrap().unwrap();
        assert_eq!(c.data, vec![1, 2, 3]);
    }
}
