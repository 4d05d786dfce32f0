//! Pool workers: one OCP each, fixed-function or DPR-reconfigurable.
//!
//! A worker wraps an [`Ocp`] together with its *capability table* — the
//! job kinds it can serve. For a fixed-function worker that table has
//! one entry; for a reconfigurable worker entry `i` is DPR
//! configuration `i` of its [`ReconfigurableSlot`], and serving a
//! non-loaded kind prepends an `rcfg` to the job's microcode so the
//! bitstream swap is charged inside the job's own service time.
//!
//! That placement is the swap-safety argument: `rcfg` only ever
//! executes at the *head* of a program on a worker the dispatcher just
//! observed idle, so a swap can never touch a configuration with a job
//! in flight. Admission makes the farm the only issuer of `rcfg`: it
//! refuses custom microcode that holds one (or a `halt`, which would
//! end a run without the D bit the farm waits for), so the worker's
//! host-side mirror of its loaded configuration stays exact.
//!
//! ## Fault containment
//!
//! A worker's controller can die mid-job — a bus slave error on a DMA
//! burst, a poisoned bitstream during an `rcfg`, a decode fault in
//! hostile microcode, or an injected chaos fault. The paper's OCP is
//! built so that such a death never takes the host down; this module
//! carries that isolation into the pool with two state machines per
//! worker, each one enum, so no two fields can disagree.
//!
//! Its *duty* says what the controller is doing:
//!
//! ```text
//!   Idle ──launch──► Running ──eop, or an abort that lands at once──► Idle
//!   Idle, Running ──fault, or an abort still draining──► Recovering
//!   Recovering ──Ocp::try_recover succeeds──► Idle
//!   Idle, Running ──fault, fail-fast──► Held   (left faulted for postmortem)
//! ```
//!
//! Its *breaker* says whether the dispatcher may use it:
//!
//! ```text
//!   Healthy, Degraded ──fault──► Degraded, or Quarantined once the
//!                                faults in the window reach the threshold
//!   Degraded on probation ──fault──► Quarantined
//!   Quarantined ──fault──► Quarantined   (cooldown unchanged)
//!   Quarantined ──cooldown over, recovery done──► Degraded on probation
//!   Degraded ──a window without faults──► Healthy
//! ```
//!
//! Every fault is classified into a structured [`WorkerFaultKind`] and
//! counted against a faults-in-window circuit breaker; tripping it
//! quarantines the worker (permanently, unless a cooldown is
//! configured). A fault while quarantined is counted but leaves the
//! quarantine and its cooldown as they are. Recovery drains the dead
//! job's DMA, resets the controller FSM, the RAC and both FIFOs — so no
//! word of the dead job can ever leak into the next one — and, for a
//! DPR worker, leaves the slot back in configuration 0 (a bitstream
//! load after a fault is never trusted).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

use ouessant::controller::ControllerStats;
use ouessant::{ExecError, Ocp, OcpConfig};
use ouessant_isa::{Instruction, ProgAddr, Program, ProgramBuilder};
use ouessant_rac::dft::DftRac;
use ouessant_rac::idct::IdctRac;
use ouessant_rac::passthrough::PassthroughRac;
use ouessant_rac::rac::Rac;
use ouessant_rac::slot::ReconfigurableSlot;
use ouessant_sim::bus::{Bus, BusError};
use ouessant_sim::{BusWindow, Horizon, Instant, Strided, WindowIssue};
use ouessant_soc::alloc::Region;

use crate::farm::FaultConfig;
use crate::job::JobKind;
use crate::queue::PendingJob;

/// The microcode bank map every farm job uses.
pub(crate) const PROG_BANK: u8 = 0;
pub(crate) const INPUT_BANK: u8 = 1;
pub(crate) const OUTPUT_BANK: u8 = 2;
/// DMA burst length for payload transfers.
const CHUNK: u16 = 64;

/// A worker fault, classified by the seam it came through.
///
/// Replaces the old stringly-typed `Worker::fault() -> Option<String>`:
/// the farm's retry/quarantine machinery and the [`JobOutcome`] records
/// need to *match* on the fault, not parse it.
///
/// [`JobOutcome`]: crate::job::JobOutcome
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFaultKind {
    /// The controller FSM stopped on a microcode or integration fault
    /// (bad decode, pc overrun, bank translation, injected chaos).
    Controller(ExecError),
    /// The system bus faulted one of the worker's DMA bursts.
    Bus(BusError),
    /// A DPR bitstream load died mid-`rcfg`, leaving the slot in a dead
    /// configuration (recovery reloads configuration 0).
    PoisonedBitstream {
        /// The configuration slot whose load failed.
        slot: u16,
    },
    /// The worker's watchdog bit: the job made no observable progress
    /// for a whole cycle budget (wedged handshake, stalled RAC, or a
    /// runaway data-dependent loop) and was aborted.
    Hang {
        /// The exhausted no-progress budget, in cycles.
        budget: u64,
    },
}

impl WorkerFaultKind {
    /// Classifies a controller error by the seam it came through.
    pub(crate) fn classify(error: &ExecError) -> Self {
        match error {
            ExecError::Bus(e) => WorkerFaultKind::Bus(e.clone()),
            ExecError::Reconfig { slot, .. } => WorkerFaultKind::PoisonedBitstream { slot: *slot },
            ExecError::Hang { budget } => WorkerFaultKind::Hang { budget: *budget },
            other => WorkerFaultKind::Controller(other.clone()),
        }
    }
}

impl fmt::Display for WorkerFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerFaultKind::Controller(e) => write!(f, "controller fault: {e}"),
            WorkerFaultKind::Bus(e) => write!(f, "bus fault on DMA burst: {e}"),
            WorkerFaultKind::PoisonedBitstream { slot } => {
                write!(f, "poisoned bitstream for configuration {slot}")
            }
            WorkerFaultKind::Hang { budget } => {
                write!(
                    f,
                    "hang: watchdog bit after {budget} cycles without progress"
                )
            }
        }
    }
}

impl std::error::Error for WorkerFaultKind {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkerFaultKind::Controller(e) => Some(e),
            WorkerFaultKind::Bus(e) => Some(e),
            _ => None,
        }
    }
}

/// A worker's health, as seen by the scheduler and the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// No faults inside the circuit-breaker window.
    Healthy,
    /// Faulted recently (or fresh out of quarantine, on probation) but
    /// still schedulable.
    Degraded,
    /// The circuit breaker is open: not schedulable until the cooldown
    /// expires — forever, if no cooldown is configured.
    Quarantined,
}

impl fmt::Display for WorkerHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerHealth::Healthy => f.write_str("healthy"),
            WorkerHealth::Degraded => f.write_str("degraded"),
            WorkerHealth::Quarantined => f.write_str("quarantined"),
        }
    }
}

/// The shared-memory regions leased to one in-flight job.
///
/// Non-`Copy`, like [`Region`] itself: the farm moves the lease into
/// the [`ActiveJob`] and back out at completion, so a stale duplicate
/// can never reach the allocator.
#[derive(Debug)]
pub(crate) struct JobRegions {
    pub prog: Region,
    pub input: Region,
    pub output: Region,
}

/// Builds one job's microcode: an `rcfg` of slot `rcfg` when the job
/// runs on a configuration other than the loaded one, input transfer,
/// execute, output transfer, `eop`.
pub(crate) fn build_program(kind: JobKind, input_words: u32, rcfg: Option<usize>) -> Program {
    let mut b = ProgramBuilder::new();
    if let Some(slot) = rcfg {
        b = b.rcfg(u16::try_from(slot).expect("config index fits rcfg operand"));
    }
    b = b
        .transfer_to_coprocessor(INPUT_BANK, 0, input_words, CHUNK, 0)
        .expect("admission bounds payload to the offset field");
    b = match kind {
        // Block kernels size themselves; streaming copies are told the
        // word count through the exec op field.
        JobKind::Idct | JobKind::Dft { .. } => b.execs(),
        JobKind::Copy { .. } => {
            b.execs_op(u16::try_from(input_words).expect("admission bounds payload to u16"))
        }
    };
    b = b
        .transfer_from_coprocessor(OUTPUT_BANK, 0, kind.output_words(input_words), CHUNK, 0)
        .expect("admission bounds payload to the offset field");
    b.eop()
        .finish()
        .expect("farm programs are structurally valid")
}

/// Adapts verified client microcode to the worker it will run on: as
/// it is, borrowed, on the loaded configuration; serving it on another
/// prepends an `rcfg` of slot `rcfg`, which shifts every instruction
/// index by one, so `djnz` branch targets are rebased to match.
///
/// Admission guarantees the headroom: custom programs are capped one
/// instruction below [`MAX_PROGRAM_LEN`], so both the prepend and the
/// `target + 1` rebase stay in range.
///
/// [`MAX_PROGRAM_LEN`]: ouessant_isa::operands::MAX_PROGRAM_LEN
pub(crate) fn adapt_custom_program(program: &Program, rcfg: Option<usize>) -> Cow<'_, Program> {
    let Some(slot) = rcfg else {
        return Cow::Borrowed(program);
    };
    let mut insns = Vec::with_capacity(program.len() + 1);
    insns.push(Instruction::Rcfg {
        slot: u16::try_from(slot).expect("config index fits rcfg operand"),
    });
    for insn in program.iter() {
        insns.push(match *insn {
            Instruction::Djnz { counter, target } => Instruction::Djnz {
                counter,
                target: ProgAddr::new(target.value() + 1)
                    .expect("admission reserves headroom for the rcfg prepend"),
            },
            other => other,
        });
    }
    Cow::Owned(Program::new(insns).expect("one instruction of headroom was reserved at admission"))
}

/// The RAC instance serving one capability.
fn rac_for(kind: JobKind) -> Box<dyn Rac> {
    match kind {
        JobKind::Idct => Box::new(IdctRac::new()),
        JobKind::Dft { points } => Box::new(DftRac::new(points)),
        JobKind::Copy { scale } => Box::new(PassthroughRac::scaling(scale, 0)),
    }
}

/// Bookkeeping for the job currently on a worker.
///
/// The whole [`PendingJob`] rides along (not just its identity): a
/// fault mid-run hands it back to the farm for re-enqueue, so the
/// input payload and custom microcode must survive the attempt.
#[derive(Debug)]
pub(crate) struct ActiveJob {
    pub job: PendingJob,
    pub started_at: u64,
    pub swapped: bool,
    pub regions: JobRegions,
    pub output_words: u32,
    pub contention_at_start: u64,
}

/// What a worker's controller is doing (see the module doc's diagram).
#[derive(Debug)]
enum Duty {
    /// No job on it; the breaker decides whether it may take one.
    Idle,
    /// Serving a job.
    Running(ActiveJob),
    /// Draining an absorbed fault, or an abort a DMA burst held up:
    /// unschedulable until [`Ocp::try_recover`] succeeds.
    Recovering,
    /// Fail-fast mode: the fault was absorbed and the controller is
    /// left in its faulted state for postmortem.
    Held,
}

/// A worker's circuit breaker (see the module doc's diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// No faults inside the window.
    Healthy,
    /// Faulted at `since`, or fresh out of quarantine then: a clean
    /// window from `since` restores `Healthy`. On probation one more
    /// fault trips the breaker at once.
    Degraded { since: u64, probation: bool },
    /// Not schedulable until the cooldown lifts it at `until` — never,
    /// if `None`.
    Quarantined { until: Option<u64> },
}

/// One pool member: an OCP plus its capability table and health state.
#[derive(Debug)]
pub struct Worker {
    name: String,
    pub(crate) ocp: Ocp,
    caps: Vec<JobKind>,
    /// Full bitstream-load cost per capability (0 for fixed-function).
    swap_cycles: Vec<u64>,
    /// Host-side mirror of the loaded configuration index. Accurate
    /// because this worker is the only issuer of `rcfg` on its slot
    /// (admission refuses client microcode holding one).
    loaded: usize,
    /// Swaps this worker's dispatches paid for; unlike the slot's own
    /// count, reloads of the loaded configuration are not in it.
    swaps: u64,
    /// The summed spans of the jobs that have left this worker (see
    /// [`Worker::take_job`]).
    served_span: u64,
    duty: Duty,
    breaker: Breaker,
    /// Cycle stamps of faults inside the circuit-breaker window (empty
    /// unless `Degraded`).
    recent_faults: VecDeque<u64>,
    faults_total: u64,
    quarantines_total: u64,
}

impl Worker {
    fn base_state(name: String, ocp: Ocp, caps: Vec<JobKind>, swap_cycles: Vec<u64>) -> Self {
        Self {
            name,
            ocp,
            caps,
            swap_cycles,
            loaded: 0,
            swaps: 0,
            served_span: 0,
            duty: Duty::Idle,
            breaker: Breaker::Healthy,
            recent_faults: VecDeque::new(),
            faults_total: 0,
            quarantines_total: 0,
        }
    }

    /// Attaches a fixed-function worker for `kind` at `base`.
    pub(crate) fn fixed(bus: &mut Bus, base: u32, kind: JobKind, fifo_depth: usize) -> Self {
        let ocp = Ocp::attach(bus, base, rac_for(kind), OcpConfig { fifo_depth });
        ocp.regs().set_irq_enabled(true);
        Self::base_state(format!("{kind}@{base:#010x}"), ocp, vec![kind], vec![0])
    }

    /// Attaches a DPR worker at `base` whose slot holds one
    /// configuration per `(kind, bitstream_bytes)` pair; configuration
    /// 0 is loaded initially.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or repeats a kind (the capability
    /// table must be unambiguous).
    pub(crate) fn reconfigurable(
        bus: &mut Bus,
        base: u32,
        configs: &[(JobKind, u64)],
        fifo_depth: usize,
    ) -> Self {
        assert!(
            !configs.is_empty(),
            "a DPR worker needs at least one configuration"
        );
        let mut slot = ReconfigurableSlot::new();
        let mut caps = Vec::with_capacity(configs.len());
        for &(kind, bytes) in configs {
            assert!(
                !caps.contains(&kind),
                "duplicate DPR configuration for {kind}"
            );
            slot = slot.with_config(rac_for(kind), bytes);
            caps.push(kind);
        }
        let swap_cycles = (0..caps.len())
            .map(|i| slot.reconfig_cycles(i).expect("configuration just added"))
            .collect();
        let ocp = Ocp::attach(bus, base, Box::new(slot), OcpConfig { fifo_depth });
        ocp.regs().set_irq_enabled(true);
        Self::base_state(format!("dpr@{base:#010x}"), ocp, caps, swap_cycles)
    }

    /// The worker's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kinds this worker can serve (index = DPR configuration).
    #[must_use]
    pub fn caps(&self) -> &[JobKind] {
        &self.caps
    }

    /// Whether the worker has no job on it this cycle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        !matches!(self.duty, Duty::Running(_))
    }

    /// The job on this worker, if one is running.
    pub(crate) fn active(&self) -> Option<&ActiveJob> {
        match &self.duty {
            Duty::Running(job) => Some(job),
            Duty::Idle | Duty::Recovering | Duty::Held => None,
        }
    }

    /// Whether the dispatcher may place a job on this worker: its duty
    /// is `Idle` (no job, no fault draining or held) and its breaker is
    /// not quarantined.
    #[must_use]
    pub fn is_dispatchable(&self) -> bool {
        matches!(self.duty, Duty::Idle) && !matches!(self.breaker, Breaker::Quarantined { .. })
    }

    /// The worker's current health state.
    #[must_use]
    pub fn health(&self) -> WorkerHealth {
        match self.breaker {
            Breaker::Healthy => WorkerHealth::Healthy,
            Breaker::Degraded { .. } => WorkerHealth::Degraded,
            Breaker::Quarantined { .. } => WorkerHealth::Quarantined,
        }
    }

    /// Total faults this worker has suffered.
    #[must_use]
    pub fn faults_total(&self) -> u64 {
        self.faults_total
    }

    /// Times the circuit breaker has quarantined this worker.
    #[must_use]
    pub fn quarantines_total(&self) -> u64 {
        self.quarantines_total
    }

    /// Quarantined with no cooldown: this worker will never serve
    /// again.
    #[must_use]
    pub fn is_permanently_dead(&self) -> bool {
        self.breaker == Breaker::Quarantined { until: None }
    }

    /// The controller fault the farm has not absorbed yet, classified
    /// by seam (see [`Worker::absorb_fault`]).
    pub(crate) fn unabsorbed_fault(&self) -> Option<WorkerFaultKind> {
        match self.duty {
            Duty::Idle | Duty::Running(_) => self.fault(),
            Duty::Recovering | Duty::Held => None,
        }
    }

    /// Jobs completed on this worker: the runs its controller ended
    /// with `eop`. The farm collects each on the tick it retires.
    #[must_use]
    pub fn jobs_served(&self) -> u64 {
        self.ocp.stats().runs_completed
    }

    /// Bitstream swaps this worker has paid for.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Cycles this worker spent with a job on it up to cycle `now`:
    /// the spans of the jobs that left it, plus the one in flight.
    pub(crate) fn busy_cycles(&self, now: u64) -> u64 {
        self.served_span + self.active().map_or(0, |a| now - a.started_at)
    }

    /// The full bitstream-load cost per capability (0 for
    /// fixed-function).
    pub(crate) fn swap_cycles(&self) -> &[u64] {
        &self.swap_cycles
    }

    /// The loaded capability index.
    #[must_use]
    pub fn loaded_config(&self) -> usize {
        self.loaded
    }

    /// Cumulative statistics of this worker's OCP controller (transfer,
    /// program-load, RAC-wait and active cycles, words, instructions).
    #[must_use]
    pub fn controller_stats(&self) -> ControllerStats {
        self.ocp.stats()
    }

    /// Places `job` on this (dispatchable) worker: writes microcode and
    /// payload into the leased regions, programs the bank registers and
    /// pulls the start bit. The job's first cycle is the *next* `tick`.
    ///
    /// `program` is the encoded microcode the farm built with
    /// [`build_program`] (or adapted with [`adapt_custom_program`]) for
    /// this worker's current `loaded_config`; the farm sizes the
    /// program region from it.
    pub(crate) fn launch(
        &mut self,
        bus: &mut Bus,
        now: u64,
        job: PendingJob,
        program: &[u32],
        target: usize,
        regions: JobRegions,
    ) {
        debug_assert!(self.is_dispatchable(), "launch on an unavailable worker");
        debug_assert_eq!(self.caps[target], job.kind, "dispatcher matched capability");
        let swapped = target != self.loaded;
        if swapped {
            self.loaded = target;
            self.swaps += 1;
        }

        // Host setup: microcode and payload land in shared memory via
        // untimed debug writes — the timed cost of the host's own bus
        // traffic is the OS/driver model's concern (ouessant-soc), not
        // the pool's.
        bus.debug_write_words(regions.prog.base(), program)
            .expect("program region is mapped SRAM");
        bus.debug_write_words(regions.input.base(), &job.input)
            .expect("input region is mapped SRAM");
        let regs = self.ocp.regs();
        regs.set_bank(PROG_BANK, regions.prog.base())
            .expect("allocator regions are word-aligned");
        regs.set_bank(INPUT_BANK, regions.input.base())
            .expect("allocator regions are word-aligned");
        regs.set_bank(OUTPUT_BANK, regions.output.base())
            .expect("allocator regions are word-aligned");
        regs.set_prog_size(u32::try_from(program.len()).expect("at most 1024 instructions"))
            .expect("program length is validated");
        regs.start();

        let output_words = job.kind.output_words(job.input_words);
        self.duty = Duty::Running(ActiveJob {
            started_at: now,
            swapped,
            regions,
            output_words,
            contention_at_start: bus.master_stats(self.ocp.bus_master()).contention_cycles,
            job,
        });
    }

    /// The run of transfers this worker's OCP can issue inside the
    /// next fast-forward window (see [`Ocp::window_issue`]); `None`
    /// while the worker single-steps anyway (recovering, or holding a
    /// fault the farm has not absorbed).
    pub(crate) fn window_issue<'a>(
        &'a self,
        bus: &'a Bus,
        chain: bool,
    ) -> Option<(WindowIssue, impl Iterator<Item = Strided> + 'a)> {
        if matches!(self.duty, Duty::Recovering) || self.ocp.fault().is_some() {
            return None;
        }
        self.ocp.window_issue(bus, chain)
    }

    /// The earliest future tick, seen from cycle `now`, at which this
    /// worker's observable state can change. Combines the OCP's horizon on the shared `bus` in
    /// the farm's `window` (which reaches the tick after the bus's next
    /// event while the worker's own DMA burst is in flight, or when the
    /// window issues one) with the worker's health timers, which
    /// single-stepping advances in [`Worker::advance_health`]:
    ///
    /// * a recovering worker retries [`Ocp::try_recover`] every tick,
    ///   and a fault the farm has not absorbed yet (one injected
    ///   between ticks) is handled on the next, so both single-step;
    /// * a timed quarantine lifts when the post-tick cycle reaches its
    ///   `until`;
    /// * a degraded worker heals when the post-tick cycle reaches
    ///   `since + fault_window`.
    pub(crate) fn horizon_at(
        &self,
        now: Instant,
        cfg: &FaultConfig,
        bus: &Bus,
        window: &BusWindow,
    ) -> Horizon {
        if matches!(self.duty, Duty::Recovering) || self.unabsorbed_fault().is_some() {
            return Horizon::NEXT_TICK;
        }
        let timer = match self.breaker {
            Breaker::Quarantined { until } => until,
            Breaker::Degraded { since, .. } => Some(since.saturating_add(cfg.fault_window)),
            Breaker::Healthy => None,
        };
        let lift = timer.map_or(Horizon::QUIESCENT, |at| {
            Horizon::ending_at(Instant::new(at), now)
        });
        self.ocp.horizon_on(bus, window).min(lift)
    }

    /// Takes the job off the worker at cycle `now`, closing its span:
    /// the worker was busy with it from `started_at` to `now`. The
    /// completion and fault paths take it after the bus tick that ends
    /// the job's last cycle, a deadline abort before the workers tick,
    /// so in all three `now − started_at` counts the cycles it held the
    /// worker.
    pub(crate) fn take_job(&mut self, now: u64) -> Option<ActiveJob> {
        match std::mem::replace(&mut self.duty, Duty::Idle) {
            Duty::Running(done) => {
                self.served_span += now - done.started_at;
                Some(done)
            }
            other => {
                self.duty = other;
                None
            }
        }
    }

    /// The controller fault that killed this worker, if any, classified
    /// by seam. The structured [`ExecError`] behind it is available via
    /// [`Ocp::fault`] on the worker's OCP inside the crate.
    #[must_use]
    pub fn fault(&self) -> Option<WorkerFaultKind> {
        self.ocp.fault().map(WorkerFaultKind::classify)
    }

    /// Whether the controller FSM is wedged (frozen by the silent-hang
    /// chaos seam) — surfaced in stall diagnostics.
    #[must_use]
    pub fn is_wedged(&self) -> bool {
        self.ocp.is_wedged()
    }

    /// Host-side cancel of the in-flight job at cycle `now` (deadline
    /// enforcement): takes the job off the worker and drives
    /// [`Ocp::abort`]. Not a
    /// *worker* fault — the circuit breaker is untouched; a healthy
    /// worker aborted for a late job goes straight back into service.
    ///
    /// If the abort cannot finish immediately (a DMA burst is still in
    /// flight) the worker drains it through the normal recovery path
    /// and is unschedulable until [`Worker::advance_health`] completes
    /// it.
    pub(crate) fn abort_active(&mut self, bus: &mut Bus, now: u64) -> Option<ActiveJob> {
        let done = self.take_job(now)?;
        if self.ocp.abort(bus) {
            // Clean immediate abort: the RAC slot was reset to
            // configuration 0, mirror it.
            self.loaded = 0;
        } else {
            self.duty = Duty::Recovering;
        }
        Some(done)
    }

    /// Counts one fault against the circuit breaker at cycle `now`.
    ///
    /// Returns `true` when this fault trips the breaker (the worker
    /// just entered quarantine). A fault during probation re-opens the
    /// breaker immediately; one while quarantined changes nothing but
    /// the count.
    fn record_fault(&mut self, now: u64, cfg: &FaultConfig) -> bool {
        self.faults_total += 1;
        let on_probation = match self.breaker {
            Breaker::Quarantined { .. } => return false,
            Breaker::Degraded { probation, .. } => probation,
            Breaker::Healthy => false,
        };
        let window_start = now.saturating_sub(cfg.fault_window);
        self.recent_faults.retain(|&at| at >= window_start);
        self.recent_faults.push_back(now);
        let in_window = u32::try_from(self.recent_faults.len()).unwrap_or(u32::MAX);
        let tripped = on_probation || in_window >= cfg.quarantine_threshold;
        self.breaker = if tripped {
            self.recent_faults.clear();
            self.quarantines_total += 1;
            Breaker::Quarantined {
                until: cfg.quarantine_cooldown.map(|c| now + c),
            }
        } else {
            Breaker::Degraded {
                since: now,
                probation: false,
            }
        };
        tripped
    }

    /// Absorbs the controller's fault at cycle `now`, its dead job
    /// already taken off, and counts it. Failing fast, the worker is
    /// held in its faulted state for postmortem and the breaker is left
    /// alone; otherwise the fault is counted against the breaker and
    /// recovery starts, leaving the worker unschedulable until
    /// [`Ocp::try_recover`] succeeds (DMA burst retired, FSM, RAC and
    /// FIFOs reset). Returns whether the breaker tripped.
    pub(crate) fn absorb_fault(&mut self, now: u64, cfg: &FaultConfig) -> bool {
        debug_assert!(self.active().is_none(), "the dead job is taken off first");
        if cfg.fail_fast {
            self.faults_total += 1;
            self.duty = Duty::Held;
            return false;
        }
        self.duty = Duty::Recovering;
        self.record_fault(now, cfg)
    }

    /// One health-state step at cycle `now`: finish a pending recovery,
    /// lift an expired quarantine into probation, and restore `Healthy`
    /// after a clean window.
    pub(crate) fn advance_health(&mut self, bus: &mut Bus, now: u64, cfg: &FaultConfig) {
        if matches!(self.duty, Duty::Recovering) && self.ocp.try_recover(bus) {
            self.duty = Duty::Idle;
            // Recovery resets the RAC slot; a DPR worker is back in
            // configuration 0 and the host mirror must follow.
            self.loaded = 0;
        }
        if let Breaker::Quarantined { until: Some(until) } = self.breaker {
            // A quarantine lifts only once the drain is done.
            if now >= until && !matches!(self.duty, Duty::Recovering) {
                self.breaker = Breaker::Degraded {
                    since: now,
                    probation: true,
                };
            }
        }
        if let Breaker::Degraded { since, .. } = self.breaker {
            if now.saturating_sub(since) >= cfg.fault_window {
                self.breaker = Breaker::Healthy;
                self.recent_faults.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouessant_sim::bus::BusConfig;

    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// A fault recorded at this cycle.
        Fault(u64),
        /// A health step at this cycle.
        Advance(u64),
    }
    use Step::{Advance, Fault};

    /// Every breaker transition, from a fresh idle worker: the steps
    /// taken, and the breaker and quarantine count they leave.
    #[test]
    fn breaker_transitions() {
        let timed = FaultConfig {
            fault_window: 100,
            quarantine_threshold: 2,
            quarantine_cooldown: Some(1_000),
            ..FaultConfig::default()
        };
        let permanent = FaultConfig {
            quarantine_cooldown: None,
            ..timed
        };
        let degraded = |since, probation| Breaker::Degraded { since, probation };
        let quarantined = |until| Breaker::Quarantined { until };
        let tripped: &[Step] = &[Fault(10), Fault(20)];
        let on_probation: &[Step] = &[Fault(10), Fault(20), Advance(1_020)];
        let table: [(&str, &FaultConfig, Vec<Step>, Breaker, u64); 11] = [
            (
                "a fault below the threshold degrades",
                &timed,
                vec![Fault(10)],
                degraded(10, false),
                0,
            ),
            (
                "faults in the window reaching the threshold quarantine",
                &timed,
                tripped.to_vec(),
                quarantined(Some(1_020)),
                1,
            ),
            (
                "a fault past the window starts the count over",
                &timed,
                vec![Fault(10), Fault(200)],
                degraded(200, false),
                0,
            ),
            (
                "the quarantine holds until its cooldown ends",
                &timed,
                [tripped, &[Advance(1_019)]].concat(),
                quarantined(Some(1_020)),
                1,
            ),
            (
                "the cooldown lifts it to probation",
                &timed,
                on_probation.to_vec(),
                degraded(1_020, true),
                1,
            ),
            (
                "a fault on probation trips the breaker at once",
                &timed,
                [on_probation, &[Fault(1_030)]].concat(),
                quarantined(Some(2_030)),
                2,
            ),
            (
                "a window short of clean keeps it degraded",
                &timed,
                vec![Fault(10), Advance(109)],
                degraded(10, false),
                0,
            ),
            (
                "a clean window heals",
                &timed,
                vec![Fault(10), Advance(110)],
                Breaker::Healthy,
                0,
            ),
            (
                "a clean window on probation heals",
                &timed,
                [on_probation, &[Advance(1_120)]].concat(),
                Breaker::Healthy,
                1,
            ),
            (
                "without a cooldown the quarantine is permanent",
                &permanent,
                [tripped, &[Advance(u64::MAX)]].concat(),
                quarantined(None),
                1,
            ),
            (
                "a fault while quarantined keeps the quarantine and its cooldown",
                &timed,
                [tripped, &[Fault(30)]].concat(),
                quarantined(Some(1_020)),
                1,
            ),
        ];
        for (name, cfg, steps, breaker, quarantines) in table {
            let mut bus = Bus::new(BusConfig::default());
            let mut worker = Worker::fixed(&mut bus, 0x8000_0000, JobKind::Copy { scale: 3 }, 64);
            let (mut faults, mut trips) = (0, 0);
            for step in steps {
                match step {
                    Fault(at) => {
                        faults += 1;
                        trips += u64::from(worker.record_fault(at, cfg));
                    }
                    Advance(at) => worker.advance_health(&mut bus, at, cfg),
                }
            }
            assert_eq!(worker.breaker, breaker, "{name}");
            assert_eq!(worker.quarantines_total(), quarantines, "{name}");
            assert_eq!(trips, quarantines, "{name}: a trip is reported once");
            assert_eq!(worker.faults_total(), faults, "{name}");
            let quarantined = matches!(breaker, Breaker::Quarantined { .. });
            assert_eq!(worker.is_dispatchable(), !quarantined, "{name}");
            assert_eq!(
                worker.is_permanently_dead(),
                breaker == Breaker::Quarantined { until: None },
                "{name}"
            );
            assert_eq!(
                worker.recent_faults.is_empty(),
                !matches!(
                    breaker,
                    Breaker::Degraded {
                        probation: false,
                        ..
                    }
                ),
                "{name}: fault stamps are kept only while they can trip the breaker"
            );
        }
    }
}
