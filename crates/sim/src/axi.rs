//! An AXI4-like alternative system bus with independent read and write
//! channels.
//!
//! The paper's §VI lists "complete Zynq (AXI4) integration" as work in
//! progress; the Ouessant interface was designed so that only the
//! bus-specific FSMs need replacing. [`AxiBus`] is that other bus: unlike
//! the AHB-like [`crate::bus::Bus`], it has **separate read and write
//! channels** that operate concurrently, address/data channel handshakes
//! of two cycles, and bursts that are not split into sub-bursts (AXI4
//! supports up to 256 beats per burst).
//!
//! Both buses implement [`SystemBus`], so the Ouessant bus interface (in
//! the `ouessant` crate) runs unmodified on either — reproducing the
//! paper's portability claim as a compile-time fact.

use std::fmt;

use crate::bus::{
    Addr, BusError, BusSlave, BusStats, Completion, MasterId, PortState, TxnKind, TxnRequest,
};
use crate::clock::Cycle;

/// Object-safe façade over a system bus, implemented by the AHB-like
/// [`crate::bus::Bus`] and the AXI-like [`AxiBus`].
///
/// The Ouessant bus interface is written against this trait; porting the
/// OCP to a new interconnect means implementing `SystemBus` (the "bus
/// master FSM / bus slave FSM" box of the paper's Figure 3) plus its
/// [`NextEvent`](crate::event::NextEvent) horizon, nothing else. The
/// horizon lets a master waiting on its burst defer to the bus when
/// fast-forwarding.
pub trait SystemBus: crate::event::NextEvent {
    /// Registers a master and returns its id.
    fn register_master(&mut self, name: &str) -> MasterId;

    /// Maps a boxed slave at `base`.
    fn add_slave_boxed(&mut self, base: Addr, device: Box<dyn BusSlave>);

    /// Raises a bus request.
    ///
    /// # Errors
    ///
    /// See [`BusError`].
    fn try_begin(&mut self, master: MasterId, req: TxnRequest) -> Result<(), BusError>;

    /// Advances one clock cycle.
    fn tick(&mut self);

    /// Current simulation time.
    fn now(&self) -> Cycle;

    /// Samples a master port.
    fn poll(&self, master: MasterId) -> PortState;

    /// Retires a finished transaction.
    fn take_completion(&mut self, master: MasterId) -> Option<Result<Completion, BusError>>;

    /// The finished transaction [`SystemBus::take_completion`] would
    /// retire next, left in place.
    fn peek_completion(&self, master: MasterId) -> Option<&Result<Completion, BusError>>;

    /// Un-timed read for test setup / inspection.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Unaligned`], [`BusError::Unmapped`] or a
    /// slave fault.
    fn debug_read(&mut self, addr: Addr) -> Result<u32, BusError>;

    /// Un-timed write for test setup.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Unaligned`], [`BusError::Unmapped`] or a
    /// slave fault.
    fn debug_write(&mut self, addr: Addr, value: u32) -> Result<(), BusError>;

    /// Aggregate statistics.
    fn stats(&self) -> BusStats;
}

impl SystemBus for crate::bus::Bus {
    fn register_master(&mut self, name: &str) -> MasterId {
        crate::bus::Bus::register_master(self, name)
    }

    fn add_slave_boxed(&mut self, base: Addr, device: Box<dyn BusSlave>) {
        crate::bus::Bus::add_slave(self, base, BoxedSlave(device));
    }

    fn try_begin(&mut self, master: MasterId, req: TxnRequest) -> Result<(), BusError> {
        crate::bus::Bus::try_begin(self, master, req)
    }

    fn tick(&mut self) {
        crate::bus::Bus::tick(self);
    }

    fn now(&self) -> Cycle {
        crate::bus::Bus::now(self)
    }

    fn poll(&self, master: MasterId) -> PortState {
        crate::bus::Bus::poll(self, master)
    }

    fn take_completion(&mut self, master: MasterId) -> Option<Result<Completion, BusError>> {
        crate::bus::Bus::take_completion(self, master)
    }

    fn peek_completion(&self, master: MasterId) -> Option<&Result<Completion, BusError>> {
        crate::bus::Bus::peek_completion(self, master)
    }

    fn debug_read(&mut self, addr: Addr) -> Result<u32, BusError> {
        crate::bus::Bus::debug_read(self, addr)
    }

    fn debug_write(&mut self, addr: Addr, value: u32) -> Result<(), BusError> {
        crate::bus::Bus::debug_write(self, addr, value)
    }

    fn stats(&self) -> BusStats {
        crate::bus::Bus::stats(self)
    }
}

/// Adapter letting a `Box<dyn BusSlave>` satisfy `impl BusSlave`.
struct BoxedSlave(Box<dyn BusSlave>);

impl BusSlave for BoxedSlave {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn size(&self) -> u32 {
        self.0.size()
    }
    fn read_word(&mut self, offset: u32) -> Result<u32, crate::bus::SlaveFault> {
        self.0.read_word(offset)
    }
    fn write_word(&mut self, offset: u32, value: u32) -> Result<(), crate::bus::SlaveFault> {
        self.0.write_word(offset, value)
    }
    fn read_words(
        &mut self,
        offset: u32,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), crate::bus::SlaveFault> {
        self.0.read_words(offset, count, out)
    }
    fn write_words(
        &mut self,
        offset: u32,
        data: &[u32],
    ) -> Result<(), (usize, crate::bus::SlaveFault)> {
        self.0.write_words(offset, data)
    }
    fn first_access_wait_states(&self) -> u32 {
        self.0.first_access_wait_states()
    }
    fn sequential_wait_states(&self) -> u32 {
        self.0.sequential_wait_states()
    }
    fn fault_free(&self) -> bool {
        self.0.fault_free()
    }
}

/// AXI bus parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiConfig {
    /// Cycles consumed by the address-channel handshake before the first
    /// beat (ARVALID/ARREADY or AWVALID/AWREADY plus one pipeline stage).
    pub channel_setup_cycles: u32,
}

impl Default for AxiConfig {
    fn default() -> Self {
        Self {
            channel_setup_cycles: 2,
        }
    }
}

#[derive(Debug)]
struct Slot {
    req: TxnRequest,
    beats_done: u16,
    read_data: Vec<u32>,
    issued_at: Cycle,
    slave_idx: usize,
}

#[derive(Debug)]
struct ChannelActive {
    master: usize,
    setup_left: u32,
    wait_left: u32,
}

/// One direction (read or write) of the AXI interconnect.
#[derive(Debug, Default)]
struct Channel {
    slots: Vec<Option<Slot>>,
    active: Option<ChannelActive>,
    beats: u64,
    grants: u64,
}

struct SlaveEntry {
    base: Addr,
    size: u32,
    device: Box<dyn BusSlave>,
}

impl fmt::Debug for SlaveEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlaveEntry")
            .field("base", &format_args!("{:#010x}", self.base))
            .field("size", &self.size)
            .field("device", &self.device.name())
            .finish()
    }
}

/// The AXI-like bus: independent, concurrently active read and write
/// channels.
///
/// # Examples
///
/// A read and a write proceeding in the same cycles:
///
/// ```
/// use ouessant_sim::axi::{AxiBus, AxiConfig, SystemBus};
/// use ouessant_sim::bus::TxnRequest;
/// use ouessant_sim::memory::{Sram, SramConfig};
///
/// let mut bus = AxiBus::new(AxiConfig::default());
/// let m = bus.register_master("dma");
/// bus.add_slave_boxed(0, Box::new(Sram::with_words(256, SramConfig::no_wait())));
///
/// bus.try_begin(m, TxnRequest::write(0x00, vec![7; 16]))?;
/// bus.try_begin(m, TxnRequest::read(0x80, 16))?; // concurrent: other channel
/// while bus.poll(m).is_pending() {
///     bus.tick();
/// }
/// # Ok::<(), ouessant_sim::bus::BusError>(())
/// ```
#[derive(Debug)]
pub struct AxiBus {
    config: AxiConfig,
    now: Cycle,
    master_names: Vec<String>,
    read: Channel,
    write: Channel,
    completions: Vec<Vec<Result<Completion, BusError>>>,
    slaves: Vec<SlaveEntry>,
    stats: BusStats,
}

impl AxiBus {
    /// Creates an empty AXI bus.
    #[must_use]
    pub fn new(config: AxiConfig) -> Self {
        Self {
            config,
            now: Cycle::ZERO,
            master_names: Vec::new(),
            read: Channel::default(),
            write: Channel::default(),
            completions: Vec::new(),
            slaves: Vec::new(),
            stats: BusStats::default(),
        }
    }

    fn decode(&self, addr: Addr) -> Result<usize, BusError> {
        self.slaves
            .iter()
            .position(|s| addr >= s.base && u64::from(addr) < s.base as u64 + s.size as u64)
            .ok_or(BusError::Unmapped { addr })
    }

    /// The slave index and offset of a debug access to `addr`, which
    /// must be word-aligned.
    fn debug_decode(&self, addr: Addr) -> Result<(usize, u32), BusError> {
        if !addr.is_multiple_of(4) {
            return Err(BusError::Unaligned { addr });
        }
        let idx = self.decode(addr)?;
        Ok((idx, addr - self.slaves[idx].base))
    }

    fn validate(&self, req: &TxnRequest) -> Result<usize, BusError> {
        if !req.addr().is_multiple_of(4) {
            return Err(BusError::Unaligned { addr: req.addr() });
        }
        if req.beats() == 0 {
            return Err(BusError::EmptyBurst);
        }
        let idx = self.decode(req.addr())?;
        let s = &self.slaves[idx];
        if u64::from(req.addr()) + u64::from(req.beats()) * 4 > s.base as u64 + s.size as u64 {
            return Err(BusError::CrossesSlaveBoundary {
                addr: req.addr(),
                beats: req.beats(),
            });
        }
        Ok(idx)
    }

    fn tick_channel(
        now: Cycle,
        kind: TxnKind,
        channel: &mut Channel,
        slaves: &mut [SlaveEntry],
        completions: &mut [Vec<Result<Completion, BusError>>],
        stats: &mut BusStats,
    ) {
        if channel.active.is_none() {
            if let Some(master) = channel.slots.iter().position(Option::is_some) {
                channel.grants += 1;
                stats.grants += 1;
                channel.active = Some(ChannelActive {
                    master,
                    setup_left: 0,       // setup counted below via config at issue
                    wait_left: u32::MAX, // sentinel: initialize on first processing tick
                });
                let slot = channel.slots[master].as_ref().expect("present");
                let first_ws = slaves[slot.slave_idx].device.first_access_wait_states();
                let active = channel.active.as_mut().expect("just set");
                active.wait_left = first_ws;
                // The grant itself costs this cycle; setup follows.
                return;
            }
            return;
        }
        let active = channel.active.as_mut().expect("checked");
        if active.setup_left > 0 {
            active.setup_left -= 1;
            return;
        }
        if active.wait_left > 0 {
            active.wait_left -= 1;
            return;
        }
        // Complete one beat.
        let master = active.master;
        let slot = channel.slots[master].as_mut().expect("active slot");
        let beat_addr = slot.req.addr() + u32::from(slot.beats_done) * 4;
        let entry = &mut slaves[slot.slave_idx];
        let offset = beat_addr - entry.base;
        let fault = match kind {
            TxnKind::Read => match entry.device.read_word(offset) {
                Ok(v) => {
                    slot.read_data.push(v);
                    None
                }
                Err(e) => Some(e),
            },
            TxnKind::Write => {
                let value = slot.req.write_data()[slot.beats_done as usize];
                entry.device.write_word(offset, value).err()
            }
        };
        channel.beats += 1;
        stats.beats += 1;
        slot.beats_done += 1;

        if let Some(fault) = fault {
            channel.slots[master] = None;
            channel.active = None;
            completions[master].push(Err(BusError::Fault(fault)));
            return;
        }
        if slot.beats_done == slot.req.beats() {
            let slot = channel.slots[master].take().expect("present");
            channel.active = None;
            completions[master].push(Ok(Completion {
                kind,
                addr: slot.req.addr(),
                data: slot.read_data,
                issued_at: slot.issued_at,
                completed_at: now,
                cycles: now.count() - slot.issued_at.count(),
            }));
        } else {
            active.wait_left = slaves[channel.slots[master].as_ref().expect("present").slave_idx]
                .device
                .sequential_wait_states();
        }
    }

    /// Per-channel beat counts `(read, write)`, for tests.
    #[must_use]
    pub fn channel_beats(&self) -> (u64, u64) {
        (self.read.beats, self.write.beats)
    }
}

impl crate::event::NextEvent for AxiBus {
    /// `Some(1)` while either channel is active or any master has a
    /// transaction queued on either channel; `None` when both channels
    /// are drained — idle ticks only advance `now` and the cycle
    /// counter (pending completions are inert until a master collects
    /// them).
    fn horizon(&self) -> Option<Cycle> {
        let busy = self.read.active.is_some()
            || self.write.active.is_some()
            || self.read.slots.iter().any(Option::is_some)
            || self.write.slots.iter().any(Option::is_some);
        if busy {
            Some(Cycle::new(1))
        } else {
            None
        }
    }

    /// Idle ticks in O(1). A busy bus is advanced through at most its
    /// event tick (its owner leaps to
    /// [`observed_horizon`](crate::event::observed_horizon)), which
    /// replays as a real tick.
    fn advance(&mut self, cycles: Cycle) {
        if self.horizon().is_some() {
            for _ in 0..cycles.count() {
                SystemBus::tick(self);
            }
        } else {
            self.now += cycles;
            self.stats.cycles += cycles.count();
        }
    }
}

impl SystemBus for AxiBus {
    fn register_master(&mut self, name: &str) -> MasterId {
        self.master_names.push(name.to_string());
        self.read.slots.push(None);
        self.write.slots.push(None);
        self.completions.push(Vec::new());
        MasterId::from_index(self.master_names.len() - 1)
    }

    fn add_slave_boxed(&mut self, base: Addr, device: Box<dyn BusSlave>) {
        assert_eq!(base % 4, 0, "slave base must be word-aligned");
        let size = device.size();
        assert!(size > 0, "slave window must be non-empty");
        let end = base as u64 + size as u64;
        for s in &self.slaves {
            let s_end = s.base as u64 + s.size as u64;
            assert!(
                end <= s.base as u64 || s_end <= base as u64,
                "slave window overlaps {}",
                s.device.name()
            );
        }
        self.slaves.push(SlaveEntry { base, size, device });
    }

    fn try_begin(&mut self, master: MasterId, req: TxnRequest) -> Result<(), BusError> {
        let m = master.index();
        if m >= self.master_names.len() {
            return Err(BusError::UnknownMaster);
        }
        let channel = match req.kind() {
            TxnKind::Read => &mut self.read,
            TxnKind::Write => &mut self.write,
        };
        if channel.slots[m].is_some() {
            return Err(BusError::Busy);
        }
        let slave_idx = self.validate(&req)?;
        let channel = match req.kind() {
            TxnKind::Read => &mut self.read,
            TxnKind::Write => &mut self.write,
        };
        channel.slots[m] = Some(Slot {
            read_data: Vec::with_capacity(if req.kind() == TxnKind::Read {
                req.beats() as usize
            } else {
                0
            }),
            req,
            beats_done: 0,
            issued_at: self.now,
            slave_idx,
        });
        // Channel setup cost is charged on grant.
        if let Some(active) = channel.active.as_mut() {
            let _ = active; // another master owns the channel; nothing to do
        }
        Ok(())
    }

    fn tick(&mut self) {
        self.now = self.now.next();
        self.stats.cycles += 1;
        // Charge the channel-setup cycles by injecting them at grant
        // time: a freshly granted active entry gets setup_left set here.
        let setup = self.config.channel_setup_cycles;
        let pre_read_active = self.read.active.is_none();
        let pre_write_active = self.write.active.is_none();
        Self::tick_channel(
            self.now,
            TxnKind::Read,
            &mut self.read,
            &mut self.slaves,
            &mut self.completions,
            &mut self.stats,
        );
        Self::tick_channel(
            self.now,
            TxnKind::Write,
            &mut self.write,
            &mut self.slaves,
            &mut self.completions,
            &mut self.stats,
        );
        if pre_read_active {
            if let Some(a) = self.read.active.as_mut() {
                a.setup_left = setup;
            }
        }
        if pre_write_active {
            if let Some(a) = self.write.active.as_mut() {
                a.setup_left = setup;
            }
        }
        if self.read.active.is_some() || self.write.active.is_some() {
            self.stats.busy_cycles += 1;
        }
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn poll(&self, master: MasterId) -> PortState {
        let m = master.index();
        if !self.completions[m].is_empty() {
            PortState::Complete
        } else if self.read.slots[m].is_some() || self.write.slots[m].is_some() {
            PortState::Pending
        } else {
            PortState::Idle
        }
    }

    fn take_completion(&mut self, master: MasterId) -> Option<Result<Completion, BusError>> {
        let m = master.index();
        if self.completions[m].is_empty() {
            None
        } else {
            Some(self.completions[m].remove(0))
        }
    }

    fn peek_completion(&self, master: MasterId) -> Option<&Result<Completion, BusError>> {
        self.completions[master.index()].first()
    }

    fn debug_read(&mut self, addr: Addr) -> Result<u32, BusError> {
        let (idx, offset) = self.debug_decode(addr)?;
        self.slaves[idx]
            .device
            .read_word(offset)
            .map_err(BusError::Fault)
    }

    fn debug_write(&mut self, addr: Addr, value: u32) -> Result<(), BusError> {
        let (idx, offset) = self.debug_decode(addr)?;
        self.slaves[idx]
            .device
            .write_word(offset, value)
            .map_err(BusError::Fault)
    }

    fn stats(&self) -> BusStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Sram, SramConfig};

    fn axi_with_sram() -> (AxiBus, MasterId) {
        let mut bus = AxiBus::new(AxiConfig::default());
        let m = bus.register_master("dma");
        bus.add_slave_boxed(0, Box::new(Sram::with_words(1024, SramConfig::no_wait())));
        (bus, m)
    }

    fn run_until_idle(bus: &mut AxiBus, m: MasterId) {
        let mut fuel = 100_000;
        while bus.poll(m).is_pending() {
            bus.tick();
            fuel -= 1;
            assert!(fuel > 0);
        }
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut bus, m) = axi_with_sram();
        bus.try_begin(m, TxnRequest::write(0x10, vec![1, 2, 3]))
            .unwrap();
        run_until_idle(&mut bus, m);
        bus.take_completion(m).unwrap().unwrap();
        bus.try_begin(m, TxnRequest::read(0x10, 3)).unwrap();
        run_until_idle(&mut bus, m);
        let c = bus.take_completion(m).unwrap().unwrap();
        assert_eq!(c.data, vec![1, 2, 3]);
    }

    #[test]
    fn read_and_write_channels_overlap() {
        let (mut bus, m) = axi_with_sram();
        for i in 0..64u32 {
            bus.debug_write(0x400 + i * 4, i).unwrap();
        }
        bus.try_begin(m, TxnRequest::write(0x000, vec![9; 64]))
            .unwrap();
        bus.try_begin(m, TxnRequest::read(0x400, 64)).unwrap();
        run_until_idle(&mut bus, m);
        let total = bus.now().count();
        // 64 beats each; channels run concurrently, so total is far less
        // than a serialized 128+ beats.
        assert!(total < 100, "channels should overlap, took {total}");
        let (r, w) = bus.channel_beats();
        assert_eq!((r, w), (64, 64));
    }

    #[test]
    fn long_burst_not_split() {
        let (mut bus, m) = axi_with_sram();
        bus.try_begin(m, TxnRequest::read(0, 256)).unwrap();
        run_until_idle(&mut bus, m);
        bus.take_completion(m).unwrap().unwrap();
        // One grant for 256 beats (no sub-burst splitting).
        assert_eq!(bus.stats().grants, 1);
    }

    #[test]
    fn per_channel_busy_rejected() {
        let (mut bus, m) = axi_with_sram();
        bus.try_begin(m, TxnRequest::read(0, 4)).unwrap();
        assert_eq!(
            bus.try_begin(m, TxnRequest::read(0, 4)),
            Err(BusError::Busy)
        );
        // But a write is a different channel:
        assert!(bus.try_begin(m, TxnRequest::write(0, vec![1])).is_ok());
    }

    #[test]
    fn unaligned_debug_access_is_rejected() {
        let (mut bus, _) = axi_with_sram();
        bus.debug_write(0x100, 0xAAAA).unwrap();
        let unaligned = BusError::Unaligned { addr: 0x103 };
        assert_eq!(bus.debug_write(0x103, 0xBBBB), Err(unaligned.clone()));
        assert_eq!(bus.debug_read(0x103), Err(unaligned));
        assert_eq!(
            bus.debug_read(0x100),
            Ok(0xAAAA),
            "the word below is intact"
        );
    }

    #[test]
    fn validation_mirrors_ahb() {
        let (mut bus, m) = axi_with_sram();
        assert_eq!(
            bus.try_begin(m, TxnRequest::read_word(2)),
            Err(BusError::Unaligned { addr: 2 })
        );
        assert_eq!(
            bus.try_begin(m, TxnRequest::read(0, 0)),
            Err(BusError::EmptyBurst)
        );
        assert_eq!(
            bus.try_begin(m, TxnRequest::read_word(0x9000_0000)),
            Err(BusError::Unmapped { addr: 0x9000_0000 })
        );
    }

    #[test]
    fn system_bus_trait_object_works_for_both() {
        fn exercise(bus: &mut dyn SystemBus) {
            let m = bus.register_master("m");
            bus.add_slave_boxed(0, Box::new(Sram::with_words(64, SramConfig::no_wait())));
            bus.try_begin(m, TxnRequest::write_word(0, 5)).unwrap();
            let mut fuel = 1000;
            while bus.poll(m).is_pending() {
                bus.tick();
                fuel -= 1;
                assert!(fuel > 0);
            }
            bus.take_completion(m).unwrap().unwrap();
            assert_eq!(bus.debug_read(0).unwrap(), 5);
        }
        exercise(&mut crate::bus::Bus::new(crate::bus::BusConfig::default()));
        exercise(&mut AxiBus::new(AxiConfig::default()));
    }
}
