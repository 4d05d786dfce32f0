//! Processor-free (standalone) operation.
//!
//! §VI: "Standalone operation is also studied, to provide control for
//! processor-free designs." In that mode there is no GPP at all: the
//! microcode sits in an internal ROM, the bank registers are strapped at
//! configuration time, and the OCP (re)starts itself — a streaming
//! data-mover/accelerator pipeline with no software anywhere.
//!
//! [`StandaloneSystem`] assembles exactly that: bus + memory + one OCP,
//! no CPU master, program preloaded, optional auto-restart for
//! continuous frame processing.

use ouessant::controller::ExecError;
use ouessant::ocp::{Ocp, OcpConfig};
use ouessant_isa::Program;
use ouessant_rac::rac::Rac;
use ouessant_sim::bus::{Addr, Bus, BusConfig};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::SystemBus;

use crate::soc::SocError;

/// A processor-free Ouessant system.
///
/// # Examples
///
/// A self-restarting pipe that keeps copying a buffer, with no CPU in
/// the design:
///
/// ```
/// use ouessant_isa::assemble;
/// use ouessant_rac::passthrough::PassthroughRac;
/// use ouessant_soc::standalone::StandaloneSystem;
///
/// let program = assemble("mvtc BANK1,0,DMA8,FIFO0\nexecs 8\nmvfc BANK2,0,DMA8,FIFO0\neop")?;
/// let mut sys = StandaloneSystem::new(
///     Box::new(PassthroughRac::new(0)),
///     &program,
///     &[(1, 0x4000_1000), (2, 0x4000_2000)],
/// );
/// sys.load_words(0x4000_1000, &[10, 20, 30, 40, 50, 60, 70, 80])?;
/// let cycles = sys.run_once(100_000)?;
/// assert!(cycles > 8);
/// assert_eq!(sys.read_words(0x4000_2000, 2)?, vec![10, 20]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StandaloneSystem {
    bus: Bus,
    ocp: Ocp,
    runs: u64,
}

impl StandaloneSystem {
    /// RAM base of the standalone system.
    pub const RAM_BASE: Addr = 0x4000_0000;
    /// OCP register window (present for debug taps even without a CPU).
    pub const OCP_BASE: Addr = 0x8000_0000;

    /// Builds the system: the microcode is burned into the controller's
    /// program store and the bank registers are strapped to `banks`.
    #[must_use]
    pub fn new(rac: Box<dyn Rac>, program: &Program, banks: &[(u8, Addr)]) -> Self {
        let mut bus = Bus::new(BusConfig::default());
        bus.add_slave(
            Self::RAM_BASE,
            Sram::with_words(1 << 16, SramConfig::default()),
        );
        let mut ocp = Ocp::attach(&mut bus, Self::OCP_BASE, rac, OcpConfig::default());
        ocp.preload_program(&program.to_words());
        for &(bank, base) in banks {
            ocp.regs()
                .set_bank(bank, base)
                .expect("bank strap values validated by caller");
        }
        ocp.regs()
            .set_prog_size(u32::try_from(program.len()).expect("at most 1024 instructions"))
            .expect("program length validated by Program");
        Self { bus, ocp, runs: 0 }
    }

    /// Un-timed memory load (data arriving from a non-CPU source, e.g.
    /// an ADC front end writing into the SRAM).
    ///
    /// # Errors
    ///
    /// Propagates bus mapping faults.
    pub fn load_words(&mut self, addr: Addr, words: &[u32]) -> Result<(), SocError> {
        self.bus
            .debug_write_words(addr, words)
            .map_err(SocError::Bus)
    }

    /// Un-timed memory read.
    ///
    /// # Errors
    ///
    /// Propagates bus mapping faults.
    pub fn read_words(&mut self, addr: Addr, count: usize) -> Result<Vec<u32>, SocError> {
        let mut words = Vec::with_capacity(count);
        self.bus
            .debug_read_words(addr, count, &mut words)
            .map_err(SocError::Bus)?;
        Ok(words)
    }

    /// Arms the start strap and runs one program to completion,
    /// returning the cycles consumed.
    ///
    /// # Errors
    ///
    /// [`SocError::Ocp`] on a controller fault, [`SocError::Timeout`]
    /// past `max_cycles`.
    pub fn run_once(&mut self, max_cycles: u64) -> Result<u64, SocError> {
        self.ocp.regs().start();
        let mut cycles = 0u64;
        while !self.ocp.regs().done() {
            self.ocp.tick(&mut self.bus);
            SystemBus::tick(&mut self.bus);
            cycles += 1;
            if cycles > max_cycles {
                return Err(SocError::Timeout { budget: max_cycles });
            }
            if let Some(f) = self.ocp.fault() {
                return Err(SocError::Ocp(f.clone()));
            }
        }
        self.runs += 1;
        Ok(cycles)
    }

    /// Completed program runs.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The controller fault, if any.
    #[must_use]
    pub fn fault(&self) -> Option<&ExecError> {
        self.ocp.fault()
    }

    /// The OCP, for stats inspection.
    #[must_use]
    pub fn ocp(&self) -> &Ocp {
        &self.ocp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouessant_isa::assemble;
    use ouessant_rac::passthrough::PassthroughRac;

    fn copy_program() -> Program {
        assemble("mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK2,0,DMA16,FIFO0\neop").unwrap()
    }

    #[test]
    fn runs_without_any_cpu_master() {
        let mut sys = StandaloneSystem::new(
            Box::new(PassthroughRac::new(0)),
            &copy_program(),
            &[(1, 0x4000_1000), (2, 0x4000_2000)],
        );
        let input: Vec<u32> = (100..116).collect();
        sys.load_words(0x4000_1000, &input).unwrap();
        sys.run_once(100_000).unwrap();
        assert_eq!(sys.read_words(0x4000_2000, 16).unwrap(), input);
    }

    #[test]
    fn no_program_fetch_from_memory() {
        // The program was preloaded and bank 0 is never configured: a
        // microcode fetch would fail to translate bank 0 and fault the
        // run, so a run that succeeds fetched nothing over the bus.
        let mut sys = StandaloneSystem::new(
            Box::new(PassthroughRac::new(0)),
            &copy_program(),
            &[(1, 0x4000_1000), (2, 0x4000_2000)],
        );
        sys.load_words(0x4000_1000, &[1; 16]).unwrap();
        sys.run_once(100_000).unwrap();
    }

    #[test]
    fn continuous_restart() {
        let mut sys = StandaloneSystem::new(
            Box::new(PassthroughRac::new(0)),
            &copy_program(),
            &[(1, 0x4000_1000), (2, 0x4000_2000)],
        );
        sys.load_words(0x4000_1000, &[7; 16]).unwrap();
        for _ in 0..5 {
            sys.run_once(100_000).unwrap();
        }
        assert_eq!(sys.runs(), 5);
        assert_eq!(sys.ocp().stats().runs_completed, 5);
    }

    #[test]
    fn standalone_is_faster_than_fetching() {
        // Same offload with and without the bank-0 program fetch.
        let mut standalone = StandaloneSystem::new(
            Box::new(PassthroughRac::new(0)),
            &copy_program(),
            &[(1, 0x4000_1000), (2, 0x4000_2000)],
        );
        standalone.load_words(0x4000_1000, &[3; 16]).unwrap();
        let alone = standalone.run_once(100_000).unwrap();

        use crate::soc::{Soc, SocConfig};
        let mut soc = Soc::new(Box::new(PassthroughRac::new(0)), SocConfig::default());
        let ram = soc.config().ram_base;
        soc.load_words(ram, &copy_program().to_words()).unwrap();
        soc.load_words(ram + 0x1000, &[3; 16]).unwrap();
        soc.configure(
            &[(0, ram), (1, ram + 0x1000), (2, ram + 0x2000)],
            copy_program().len() as u32,
        )
        .unwrap();
        let fetched = soc.start_and_wait(100_000).unwrap().run_cycles;

        assert!(
            alone < fetched,
            "preloaded program skips the fetch: {alone} vs {fetched}"
        );
    }
}
