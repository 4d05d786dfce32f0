//! The assembled SoC: CPU master + SRAM + OCP on the system bus.
//!
//! This is the reproduction of the paper's evaluation platform: a Leon3
//! CPU and an Ouessant coprocessor sharing an AHB bus with external
//! SRAM, everything clocked at 50 MHz. The CPU is modeled as a bus
//! master driving the OCP's registers (configuration, start, polling)
//! plus the [`crate::cpu::CostModel`] for its software kernels.

use std::error::Error;
use std::fmt;

use ouessant::controller::ExecError;
use ouessant::ocp::{Ocp, OcpConfig};
use ouessant_rac::rac::Rac;
use ouessant_sim::bus::{Addr, Bus, BusConfig, BusError, PortState, TxnRequest};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::{Cycle, MasterId, Polls, SystemBus};

/// How the CPU learns that the OCP finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionMode {
    /// The CPU reads the control register every `interval` cycles and
    /// checks the D bit (costs bus bandwidth — visible as contention).
    Polling {
        /// Cycles between status reads.
        interval: u64,
    },
    /// The CPU sleeps until the OCP raises its interrupt line (the IE
    /// bit is set; the paper's measurements use "interrupt mode").
    #[default]
    Interrupt,
}

/// Static SoC parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocConfig {
    /// Bus parameters.
    pub bus: BusConfig,
    /// SRAM timing.
    pub sram: SramConfig,
    /// SRAM size in 32-bit words.
    pub sram_words: usize,
    /// SRAM base address.
    pub ram_base: Addr,
    /// OCP register-window base address.
    pub ocp_base: Addr,
    /// OCP parameters (FIFO depth).
    pub ocp: OcpConfig,
    /// Completion signalling.
    pub completion: CompletionMode,
    /// Event-horizon fast-forwarding in [`Soc::start_and_wait`]: leap
    /// over cycles during which neither the OCP nor the bus can change
    /// observable state (RAC compute latency, `wait`/`rcfg`
    /// countdowns, a DMA transfer through its completion). Bit-exact with
    /// cycle-by-cycle stepping; disable to
    /// cross-check or to single-step under a debugger.
    pub fast_forward: bool,
}

impl Default for SocConfig {
    fn default() -> Self {
        Self {
            bus: BusConfig::default(),
            sram: SramConfig::default(),
            sram_words: 1 << 16, // 256 KiB, ample for every experiment
            ram_base: 0x4000_0000,
            ocp_base: 0x8000_0000,
            ocp: OcpConfig::default(),
            completion: CompletionMode::Interrupt,
            fast_forward: true,
        }
    }
}

/// Errors from full-system runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocError {
    /// The OCP controller faulted.
    Ocp(ExecError),
    /// A CPU bus access failed.
    Bus(BusError),
    /// The offload did not finish within the cycle budget.
    Timeout {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::Ocp(e) => write!(f, "coprocessor fault: {e}"),
            SocError::Bus(e) => write!(f, "cpu bus access failed: {e}"),
            SocError::Timeout { budget } => {
                write!(f, "offload did not complete within {budget} cycles")
            }
        }
    }
}

impl Error for SocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SocError::Ocp(e) => Some(e),
            SocError::Bus(e) => Some(e),
            SocError::Timeout { .. } => None,
        }
    }
}

impl From<BusError> for SocError {
    fn from(e: BusError) -> Self {
        SocError::Bus(e)
    }
}

/// Cycle accounting of one offload, at machine level (the OS overhead
/// is charged by [`crate::driver::OuessantDevice`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OffloadReport {
    /// Cycles the CPU spent writing configuration registers and the
    /// start bit.
    pub config_cycles: u64,
    /// Cycles from the start write to the CPU observing completion.
    pub run_cycles: u64,
    /// Data words the OCP moved.
    pub words_transferred: u64,
    /// Status polls the CPU issued (polling mode only).
    pub polls: u64,
}

impl OffloadReport {
    /// Total machine cycles of the offload (configuration + run).
    #[must_use]
    pub fn machine_cycles(&self) -> u64 {
        self.config_cycles + self.run_cycles
    }
}

/// The full system.
#[derive(Debug)]
pub struct Soc {
    bus: Bus,
    cpu: MasterId,
    ocp: Ocp,
    config: SocConfig,
    /// Loop iterations of the last [`Soc::start_and_wait`]: its leaps
    /// and ticks.
    iterations: u64,
}

impl Soc {
    /// Builds the SoC around `rac`.
    #[must_use]
    pub fn new(rac: Box<dyn Rac>, config: SocConfig) -> Self {
        let mut bus = Bus::new(config.bus);
        let cpu = bus.register_master();
        bus.add_slave(
            config.ram_base,
            Sram::with_words(config.sram_words, config.sram),
        );
        let ocp = Ocp::attach(&mut bus, config.ocp_base, rac, config.ocp);
        if matches!(config.completion, CompletionMode::Interrupt) {
            ocp.regs().set_irq_enabled(true);
        }
        Self {
            bus,
            cpu,
            ocp,
            config,
            iterations: 0,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The OCP (register handle, stats, fault inspection).
    #[must_use]
    pub fn ocp(&self) -> &Ocp {
        &self.ocp
    }

    /// The bus (statistics).
    #[must_use]
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Un-timed bulk load into RAM (standing in for data that is already
    /// resident, e.g. written by a previous pipeline stage).
    ///
    /// # Errors
    ///
    /// Propagates bus mapping faults.
    pub fn load_words(&mut self, addr: Addr, words: &[u32]) -> Result<(), SocError> {
        Ok(self.bus.debug_write_words(addr, words)?)
    }

    /// Un-timed bulk read from RAM.
    ///
    /// # Errors
    ///
    /// Propagates bus mapping faults.
    pub fn read_words(&mut self, addr: Addr, count: usize) -> Result<Vec<u32>, SocError> {
        let mut words = Vec::with_capacity(count);
        self.bus.debug_read_words(addr, count, &mut words)?;
        Ok(words)
    }

    fn tick_system(&mut self) {
        self.ocp.tick(&mut self.bus);
        SystemBus::tick(&mut self.bus);
    }

    /// Runs the system to its next event: one leap over the ticks in
    /// front of it, at most `limit`, with `polls` inside (see
    /// [`Ocp::leap`]), when fast-forward is on and the next tick is not
    /// itself an event, else one tick. A leap ends on the tick of any
    /// bus event but a poll the window takes, so the CPU reads its port
    /// after it as after a tick, on the cycle stepping would. Returns
    /// the cycles run.
    fn advance(&mut self, limit: u64, polls: Option<&mut Polls>) -> u64 {
        let leapt = if self.config.fast_forward {
            self.ocp.leap(&mut self.bus, limit, polls)
        } else {
            0
        };
        if leapt > 0 {
            return leapt;
        }
        self.tick_system();
        1
    }

    /// A timed single-word CPU write (register programming).
    ///
    /// # Errors
    ///
    /// Propagates bus errors.
    pub fn cpu_write(&mut self, addr: Addr, value: u32) -> Result<u64, SocError> {
        self.bus
            .try_begin(self.cpu, TxnRequest::write_word(addr, value))?;
        let cycles = self.cpu_wait();
        self.bus
            .take_completion(self.cpu)
            .expect("completion present")?;
        Ok(cycles)
    }

    /// A timed single-word CPU read.
    ///
    /// # Errors
    ///
    /// Propagates bus errors.
    pub fn cpu_read(&mut self, addr: Addr) -> Result<(u32, u64), SocError> {
        self.bus.try_begin(self.cpu, TxnRequest::read_word(addr))?;
        let cycles = self.cpu_wait();
        let c = self
            .bus
            .take_completion(self.cpu)
            .expect("completion present")?;
        Ok((c.data[0], cycles))
    }

    /// Runs the system until the CPU's access completes, returning the
    /// cycles it took.
    fn cpu_wait(&mut self) -> u64 {
        let mut cycles = 0;
        while self.bus.poll(self.cpu) == PortState::Pending {
            cycles += self.advance(u64::MAX, None);
        }
        cycles
    }

    /// Programs the OCP (banks + program size) through timed register
    /// writes, exactly as the driver would.
    ///
    /// # Errors
    ///
    /// Propagates bus errors.
    pub fn configure(&mut self, banks: &[(u8, Addr)], prog_size: u32) -> Result<u64, SocError> {
        let mut cycles = 0;
        for &(bank, base) in banks {
            cycles += self.cpu_write(
                self.config.ocp_base + ouessant::regs::REG_BANK0 + 4 * u32::from(bank),
                base,
            )?;
        }
        cycles += self.cpu_write(
            self.config.ocp_base + ouessant::regs::REG_PROG_SIZE,
            prog_size,
        )?;
        Ok(cycles)
    }

    /// Writes the start bit and runs the system until the CPU observes
    /// completion, returning the cycle accounting.
    ///
    /// # Errors
    ///
    /// [`SocError::Ocp`] if the controller faults, [`SocError::Timeout`]
    /// if `max_cycles` elapse first.
    pub fn start_and_wait(&mut self, max_cycles: u64) -> Result<OffloadReport, SocError> {
        let ie = matches!(self.config.completion, CompletionMode::Interrupt);
        let ctrl = self.config.ocp_base + ouessant::regs::REG_CTRL;
        let ctrl_value = ouessant::regs::CTRL_S | if ie { ouessant::regs::CTRL_IE } else { 0 };
        let config_cycles = self.cpu_write(ctrl, ctrl_value)?;

        // A polling CPU reads CTRL `interval` cycles after the start
        // write, then `interval` cycles after it sees each read complete
        // (one at the least: it looks at a completion on its own cycle).
        let mut polls = match self.config.completion {
            CompletionMode::Polling { interval } => {
                let every = interval.max(1);
                Some(Polls {
                    master: self.cpu,
                    addr: ctrl,
                    every,
                    next: Some(self.bus.now() + Cycle::new(every)),
                    stop: false,
                    taken: 0,
                })
            }
            CompletionMode::Interrupt => None,
        };
        let mut run_cycles = 0u64;
        // Reads the CPU saw complete itself; windows take the others.
        let mut seen = 0u64;
        self.iterations = 0;
        loop {
            self.iterations += 1;
            if let Some(p) = &mut polls {
                // Only `eop` sets D, and it ends every window, so a read
                // inside one finds D clear and the window takes it. Once
                // D is set, a read ends the window: the CPU looks at it.
                p.stop = self.ocp.regs().done();
            }
            run_cycles += self.advance(max_cycles - run_cycles, polls.as_mut());
            if run_cycles > max_cycles {
                return Err(SocError::Timeout { budget: max_cycles });
            }
            if let Some(fault) = self.ocp.fault() {
                return Err(SocError::Ocp(fault.clone()));
            }
            let Some(p) = &mut polls else {
                if self.ocp.irq().is_raised() {
                    // Interrupt handler: acknowledge, then read CTRL.
                    self.ocp.poll_completion();
                    let (ctrl, ack_cycles) = self.cpu_read(ctrl)?;
                    run_cycles += ack_cycles;
                    debug_assert!(ctrl & ouessant::regs::CTRL_D != 0);
                    break;
                }
                continue;
            };
            // A polling CPU learns of the end from a read's CTRL.D, not
            // from the OCP's completion flag: consume the flag at once,
            // or the OCP's horizon single-steps for it.
            self.ocp.poll_completion();
            match self.bus.poll(self.cpu) {
                PortState::Complete => {
                    let c = self
                        .bus
                        .take_completion(self.cpu)
                        .expect("completion present")?;
                    seen += 1;
                    if c.data[0] & ouessant::regs::CTRL_D != 0 {
                        break;
                    }
                    p.next = Some(self.bus.now() + Cycle::new(p.every));
                }
                PortState::Idle if p.next.is_some_and(|at| at <= self.bus.now()) => {
                    self.bus.try_begin(self.cpu, TxnRequest::read_word(ctrl))?;
                    p.next = None;
                }
                _ => {}
            }
        }

        // The CPU has seen the run finish: consume the completion so the
        // OCP's horizon stops single-stepping for it in the next run.
        self.ocp.poll_completion();
        Ok(OffloadReport {
            config_cycles,
            run_cycles,
            words_transferred: self.ocp.stats().words_transferred,
            polls: seen + polls.map_or(0, |p| p.taken),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouessant_isa::assemble;
    use ouessant_rac::passthrough::PassthroughRac;

    fn setup(completion: CompletionMode) -> (Soc, u32, u32, u32) {
        let config = SocConfig {
            completion,
            ..SocConfig::default()
        };
        let mut soc = Soc::new(Box::new(PassthroughRac::new(0)), config);
        let ram = soc.config().ram_base;
        let prog_at = ram;
        let in_at = ram + 0x1000;
        let out_at = ram + 0x2000;
        let program =
            assemble("mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK2,0,DMA16,FIFO0\neop").unwrap();
        soc.load_words(prog_at, &program.to_words()).unwrap();
        let input: Vec<u32> = (0..16).map(|i| 0xF00D_0000 + i).collect();
        soc.load_words(in_at, &input).unwrap();
        soc.configure(
            &[(0, prog_at), (1, in_at), (2, out_at)],
            program.len() as u32,
        )
        .unwrap();
        (soc, prog_at, in_at, out_at)
    }

    #[test]
    fn interrupt_mode_offload() {
        let (mut soc, _, _, out_at) = setup(CompletionMode::Interrupt);
        let report = soc.start_and_wait(100_000).unwrap();
        assert_eq!(report.words_transferred, 32);
        assert_eq!(report.polls, 0);
        assert!(report.run_cycles > 32, "transfers take real time");
        let out = soc.read_words(out_at, 16).unwrap();
        assert_eq!(out[0], 0xF00D_0000);
        assert_eq!(out[15], 0xF00D_000F);
    }

    #[test]
    fn polling_mode_offload() {
        let (mut soc, _, _, out_at) = setup(CompletionMode::Polling { interval: 50 });
        let report = soc.start_and_wait(100_000).unwrap();
        assert!(report.polls >= 1, "at least the final poll");
        let out = soc.read_words(out_at, 16).unwrap();
        assert_eq!(out[7], 0xF00D_0007);
    }

    #[test]
    fn polling_creates_bus_contention() {
        let (mut soc, ..) = setup(CompletionMode::Polling { interval: 10 });
        soc.start_and_wait(100_000).unwrap();
        assert!(
            soc.bus().stats().contention_cycles > 0,
            "aggressive polling must contend with OCP DMA"
        );
    }

    #[test]
    fn timeout_reported() {
        // Program whose RAC never finishes (passthrough started for more
        // words than provided).
        let config = SocConfig::default();
        let mut soc = Soc::new(Box::new(PassthroughRac::new(0)), config);
        let ram = soc.config().ram_base;
        let program = assemble("execs 4\neop").unwrap(); // wants 4 words, gets none
        soc.load_words(ram, &program.to_words()).unwrap();
        soc.configure(&[(0, ram)], program.len() as u32).unwrap();
        assert_eq!(
            soc.start_and_wait(5_000),
            Err(SocError::Timeout { budget: 5_000 })
        );
    }

    #[test]
    fn ocp_fault_surfaces() {
        let config = SocConfig::default();
        let mut soc = Soc::new(Box::new(PassthroughRac::new(0)), config);
        let ram = soc.config().ram_base;
        // Bank 3 never configured.
        let program = assemble("mvtc BANK3,0,DMA8,FIFO0\neop").unwrap();
        soc.load_words(ram, &program.to_words()).unwrap();
        soc.configure(&[(0, ram)], program.len() as u32).unwrap();
        match soc.start_and_wait(100_000) {
            Err(SocError::Ocp(_)) => {}
            other => panic!("expected OCP fault, got {other:?}"),
        }
    }

    #[test]
    fn config_cycles_are_counted() {
        let (soc, ..) = setup(CompletionMode::Interrupt);
        // configure() already ran in setup; run a fresh one to observe.
        drop(soc);
        let config = SocConfig::default();
        let mut soc = Soc::new(Box::new(PassthroughRac::new(0)), config);
        let cycles = soc
            .configure(
                &[(0, soc.config().ram_base), (1, soc.config().ram_base + 64)],
                4,
            )
            .unwrap();
        // 3 register writes, each a single-beat bus transaction.
        assert!(cycles >= 9, "three timed writes, got {cycles}");
    }

    #[test]
    fn fast_forward_matches_cycle_stepping() {
        use ouessant_isa::{Program, ProgramBuilder};
        use ouessant_rac::dft::DftRac;
        use ouessant_rac::slot::ReconfigurableSlot;

        // One DMA16 sub-burst each way around a `wait`.
        let passthrough =
            assemble("mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nwait 200\nmvfc BANK2,0,DMA16,FIFO0\neop")
                .unwrap();
        // The Table I DFT program: 512 words each way in DMA64
        // transfers of four sub-bursts each, behind a program load of
        // two sub-bursts.
        let dft = ProgramBuilder::new()
            .transfer_to_coprocessor(1, 0, 512, 64, 0)
            .unwrap()
            .execs_op(0)
            .transfer_from_coprocessor(2, 0, 512, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        // Swap the DPR slot to its inactive configuration (the x3
        // scaler) for one transfer, then back: two bitstream loads.
        let dpr = assemble(
            "rcfg 1\nmvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK2,0,DMA16,FIFO0\nrcfg 0\neop",
        )
        .unwrap();
        // Ablation A1's shortest and longest bursts: 512 words each way
        // through the passthrough in DMA8 and DMA256 transfers.
        let transfer = |burst: u16| {
            ProgramBuilder::new()
                .transfer_to_coprocessor(1, 0, 512, burst, 0)
                .unwrap()
                .execs_op(512)
                .transfer_from_coprocessor(2, 0, 512, burst, 0)
                .unwrap()
                .eop()
                .finish()
                .unwrap()
        };
        let (dma8, dma256) = (transfer(8), transfer(256));
        // (name, program, words per direction, back-to-back runs)
        let cases: [(&str, &Program, usize, u32); 6] = [
            ("passthrough", &passthrough, 16, 1),
            ("dft256", &dft, 512, 1),
            ("passthrough_delay5", &passthrough, 16, 2),
            ("dpr_swap", &dpr, 16, 1),
            ("dma8", &dma8, 512, 1),
            ("dma256", &dma256, 512, 1),
        ];
        for (name, program, words, runs) in cases {
            for sram in [
                SramConfig::no_wait(),
                SramConfig::default(),
                SramConfig {
                    first_access_wait_states: 7,
                    sequential_wait_states: 7,
                },
            ] {
                for completion in [
                    CompletionMode::Interrupt,
                    CompletionMode::Polling { interval: 0 },
                    CompletionMode::Polling { interval: 1 },
                    CompletionMode::Polling { interval: 50 },
                    // Ablation A2's two polling periods.
                    CompletionMode::Polling { interval: 16 },
                    CompletionMode::Polling { interval: 1024 },
                    // Periods prime to every sub-burst's length, so the
                    // reads inside a window land on each of its phases.
                    CompletionMode::Polling { interval: 2 },
                    CompletionMode::Polling { interval: 3 },
                    CompletionMode::Polling { interval: 5 },
                    CompletionMode::Polling { interval: 7 },
                ] {
                    let run = |fast_forward: bool, max_cycles: u64| {
                        let config = SocConfig {
                            sram,
                            completion,
                            fast_forward,
                            ..SocConfig::default()
                        };
                        let rac: Box<dyn Rac> = match name {
                            "dft256" => Box::new(DftRac::new(256)),
                            "passthrough_delay5" => Box::new(PassthroughRac::new(5)),
                            "dpr_swap" => Box::new(
                                ReconfigurableSlot::new()
                                    .with_config(Box::new(PassthroughRac::new(0)), 4_000)
                                    .with_config(Box::new(PassthroughRac::scaling(3, 0)), 8_000),
                            ),
                            _ => Box::new(PassthroughRac::new(0)),
                        };
                        let mut soc = Soc::new(rac, config);
                        let ram = soc.config().ram_base;
                        soc.load_words(ram, &program.to_words()).unwrap();
                        let mut per_run = Vec::new();
                        for r in 0..runs {
                            let input: Vec<u32> = (0..words as u32)
                                .map(|i| 0xBEEF_0000 + (r << 12) + i)
                                .collect();
                            soc.load_words(ram + 0x1000, &input).unwrap();
                            soc.configure(
                                &[(0, ram), (1, ram + 0x1000), (2, ram + 0x2000)],
                                program.len() as u32,
                            )
                            .unwrap();
                            let report = soc.start_and_wait(max_cycles);
                            let failed = report.is_err();
                            per_run.push((report, soc.read_words(ram + 0x2000, words).unwrap()));
                            if failed {
                                break;
                            }
                        }
                        (per_run, soc.bus().stats(), soc.ocp().stats())
                    };
                    // A leap that breaks the bus's contract panics inside
                    // it (a debug build checks that the contended loop
                    // ends): name the case.
                    let fast = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run(true, 1_000_000)
                    }))
                    .unwrap_or_else(|_| panic!("leapt {name}, {sram:?}, {completion:?}"));
                    let slow = run(false, 1_000_000);
                    assert_eq!(
                        fast, slow,
                        "fast-forward must be bit-exact ({name}, {sram:?}, {completion:?})"
                    );
                    assert!(
                        slow.0.iter().all(|(report, _)| report.is_ok()),
                        "{name} ran"
                    );
                    // Budgets that end on or next to the tick the CPU
                    // observes completion, and a sample of those that
                    // end inside a leap (the `wait`, and at polling-16
                    // the windows that hold both the OCP's bursts and
                    // the CPU's reads): both modes must time out, or
                    // finish, on the identical cycle.
                    let stride = match (name, completion) {
                        ("passthrough", _) => Some(16),
                        ("dft256" | "dma8", CompletionMode::Polling { interval: 16 }) => Some(29),
                        _ => None,
                    };
                    if let Some(stride) = stride.filter(|_| sram == SramConfig::default()) {
                        let stepped = slow.0[0].0.as_ref().unwrap().run_cycles;
                        let mut outcomes = (false, false);
                        let inside = (1..stepped - 3).step_by(stride);
                        for max_cycles in inside.chain(stepped - 3..=stepped + 1) {
                            let fast = run(true, max_cycles);
                            let slow = run(false, max_cycles);
                            assert_eq!(
                                fast, slow,
                                "fast-forward must time out identically \
                                 ({name}, {completion:?}, budget {max_cycles})"
                            );
                            match slow.0[0].0 {
                                Ok(_) => outcomes.0 = true,
                                Err(SocError::Timeout { .. }) => outcomes.1 = true,
                                Err(ref e) => panic!("unexpected {e}"),
                            }
                        }
                        assert_eq!(outcomes, (true, true), "{completion:?}: both outcomes");
                    }
                    if name == "dpr_swap" {
                        let out = &fast.0[0].1;
                        assert_eq!(out[1], (0xBEEF_0001u32).wrapping_mul(3), "x3 config ran");
                    }
                }
            }
        }
    }

    /// The loop iterations (leaps and ticks) of one `start_and_wait`,
    /// which no build setting moves, pinned as measured with each run's
    /// cycles: ablation A2's DFT offload under each completion mode,
    /// and ablation A1's shortest and longest bursts (512 words each
    /// way through the passthrough in DMA8 and DMA256 transfers) with
    /// an interrupt and polling every 16 cycles. Polls inside windows
    /// took A2's polling-16 from 413 iterations to its count here.
    #[test]
    fn an_offload_s_loop_iterations_are_pinned() {
        use ouessant_isa::{Program, ProgramBuilder};
        use ouessant_rac::dft::DftRac;

        let offload = |burst: u16, op: u16| {
            ProgramBuilder::new()
                .transfer_to_coprocessor(1, 0, 512, burst, 0)
                .unwrap()
                .execs_op(op)
                .transfer_from_coprocessor(2, 0, 512, burst, 0)
                .unwrap()
                .eop()
                .finish()
                .unwrap()
        };
        let (dft, dma8, dma256) = (offload(64, 0), offload(8, 512), offload(256, 512));
        let dft_rac = || -> Box<dyn Rac> { Box::new(DftRac::new(256)) };
        let pipe = || -> Box<dyn Rac> { Box::new(PassthroughRac::new(0)) };
        let interrupt = CompletionMode::Interrupt;
        let polling = |interval| CompletionMode::Polling { interval };
        type Case<'a> = (
            &'a str,
            &'a Program,
            fn() -> Box<dyn Rac>,
            CompletionMode,
            u64,
            u64,
        );
        let cases: [Case<'_>; 7] = [
            ("A2 DFT", &dft, dft_rac, interrupt, 3916, 6),
            ("A2 DFT", &dft, dft_rac, polling(16), 4078, 7),
            ("A2 DFT", &dft, dft_rac, polling(1024), 4108, 7),
            ("A1 DMA8", &dma8, pipe, interrupt, 2745, 6),
            ("A1 DMA8", &dma8, pipe, polling(16), 3144, 7),
            ("A1 DMA256", &dma256, pipe, interrupt, 1889, 6),
            ("A1 DMA256", &dma256, pipe, polling(16), 2084, 7),
        ];
        for (name, program, rac, completion, run_cycles, iterations) in cases {
            let config = SocConfig {
                completion,
                ..SocConfig::default()
            };
            let mut soc = Soc::new(rac(), config);
            let ram = soc.config().ram_base;
            soc.load_words(ram, &program.to_words()).unwrap();
            soc.configure(
                &[(0, ram), (1, ram + 0x1000), (2, ram + 0x2000)],
                program.len() as u32,
            )
            .unwrap();
            let report = soc.start_and_wait(1_000_000).unwrap();
            assert_eq!(
                (report.run_cycles, soc.iterations),
                (run_cycles, iterations),
                "{name}, {completion:?}"
            );
        }
    }

    #[test]
    fn cpu_read_round_trips() {
        let config = SocConfig::default();
        let mut soc = Soc::new(Box::new(PassthroughRac::new(0)), config);
        let ram = soc.config().ram_base;
        soc.load_words(ram + 0x100, &[0x5EED]).unwrap();
        let (value, cycles) = soc.cpu_read(ram + 0x100).unwrap();
        assert_eq!(value, 0x5EED);
        assert!(cycles >= 3);
    }
}
