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
//! in flight.
//!
//! ## Fault containment
//!
//! A worker's controller can die mid-job — a bus slave error on a DMA
//! burst, a poisoned bitstream during an `rcfg`, a decode fault in
//! hostile microcode, or an injected chaos fault. The paper's OCP is
//! built so that such a death never takes the host down; this module
//! carries that isolation into the pool with a per-worker health state
//! machine:
//!
//! ```text
//!   Healthy ──fault──► Degraded ──breaker trips──► Quarantined
//!      ▲                   │  ▲                        │
//!      └──window clean─────┘  └──cooldown (probation)──┘
//! ```
//!
//! Every fault is classified into a structured [`WorkerFaultKind`] and
//! counted against a faults-in-window circuit breaker; tripping it
//! quarantines the worker (permanently, unless a cooldown is
//! configured). Recovery drains the dead job's DMA, resets the
//! controller FSM, the RAC and both FIFOs — so no word of the dead job
//! can ever leak into the next one — and, for a DPR worker, leaves the
//! slot back in configuration 0 (a bitstream load after a fault is
//! never trusted).

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
use ouessant_sim::bus::{Bus, BusError, TxnShape};
use ouessant_sim::{BusWindow, Horizon, Instant, WindowIssue};
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

/// Builds one job's microcode: optional `rcfg`, input transfer,
/// execute, output transfer, `eop`.
pub(crate) fn build_program(
    kind: JobKind,
    input_words: u32,
    target_config: usize,
    loaded_config: usize,
) -> Program {
    let mut b = ProgramBuilder::new();
    if target_config != loaded_config {
        b = b.rcfg(u16::try_from(target_config).expect("config index fits rcfg operand"));
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

/// Adapts verified client microcode to the worker it will run on:
/// serving it on a configuration other than the loaded one prepends an
/// `rcfg`, which shifts every instruction index by one, so `djnz`
/// branch targets are rebased to match.
///
/// Admission guarantees the headroom: custom programs are capped one
/// instruction below [`MAX_PROGRAM_LEN`], so both the prepend and the
/// `target + 1` rebase stay in range.
///
/// [`MAX_PROGRAM_LEN`]: ouessant_isa::operands::MAX_PROGRAM_LEN
pub(crate) fn adapt_custom_program(
    program: &Program,
    target_config: usize,
    loaded_config: usize,
) -> Program {
    if target_config == loaded_config {
        return program.clone();
    }
    let mut insns = Vec::with_capacity(program.len() + 1);
    insns.push(Instruction::Rcfg {
        slot: u16::try_from(target_config).expect("config index fits rcfg operand"),
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
    Program::new(insns).expect("one instruction of headroom was reserved at admission")
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

/// One pool member: an OCP plus its capability table and health state.
#[derive(Debug)]
pub struct Worker {
    name: String,
    pub(crate) ocp: Ocp,
    caps: Vec<JobKind>,
    /// Full bitstream-load cost per capability (0 for fixed-function).
    swap_cycles: Vec<u64>,
    /// Host-side mirror of the loaded configuration index. Accurate
    /// because this worker is the only issuer of `rcfg` on its slot.
    loaded: usize,
    pub(crate) active: Option<ActiveJob>,
    jobs_served: u64,
    swaps: u64,
    /// The summed spans of the jobs that have left this worker (see
    /// [`Worker::take_job`]).
    served_span: u64,
    // ── health / fault containment ──
    health: WorkerHealth,
    /// Cycle stamps of faults inside the circuit-breaker window.
    recent_faults: VecDeque<u64>,
    /// When the current quarantine lifts, if ever.
    quarantine_until: Option<u64>,
    /// Fresh out of quarantine: one more fault re-opens the breaker
    /// immediately.
    probation: bool,
    /// When the worker last entered `Degraded` (fault or probation);
    /// a clean window from here restores `Healthy`.
    degraded_since: u64,
    /// Worker is draining its DMA/RAC after a fault and cannot serve.
    recovering: bool,
    /// The current fault has been harvested by the farm (guards
    /// double-processing while the controller is still `Faulted`).
    fault_acknowledged: bool,
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
            active: None,
            jobs_served: 0,
            swaps: 0,
            served_span: 0,
            health: WorkerHealth::Healthy,
            recent_faults: VecDeque::new(),
            quarantine_until: None,
            probation: false,
            degraded_since: 0,
            recovering: false,
            fault_acknowledged: false,
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
        self.active.is_none()
    }

    /// Whether the dispatcher may place a job on this worker: idle,
    /// not draining a fault, and not quarantined.
    #[must_use]
    pub fn is_dispatchable(&self) -> bool {
        self.active.is_none() && !self.recovering && self.health != WorkerHealth::Quarantined
    }

    /// The worker's current health state.
    #[must_use]
    pub fn health(&self) -> WorkerHealth {
        self.health
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
        self.health == WorkerHealth::Quarantined && self.quarantine_until.is_none()
    }

    /// Whether the farm already harvested the current fault.
    #[must_use]
    pub(crate) fn fault_acknowledged(&self) -> bool {
        self.fault_acknowledged
    }

    /// Jobs completed on this worker.
    #[must_use]
    pub fn jobs_served(&self) -> u64 {
        self.jobs_served
    }

    /// Bitstream swaps this worker has paid for.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Cycles this worker spent with a job on it up to cycle `now`:
    /// the spans of the jobs that left it, plus the one in flight.
    pub(crate) fn busy_cycles(&self, now: u64) -> u64 {
        self.served_span + self.active.as_ref().map_or(0, |a| now - a.started_at)
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
    /// `program` is the microcode the farm built with [`build_program`]
    /// for this worker's current `loaded_config` (the farm sizes the
    /// program region from it, so it is built exactly once).
    pub(crate) fn launch(
        &mut self,
        bus: &mut Bus,
        now: u64,
        job: PendingJob,
        program: &Program,
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
        bus.debug_write_words(regions.prog.base(), &program.to_words())
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
        self.active = Some(ActiveJob {
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
    ) -> Option<(WindowIssue, impl Iterator<Item = TxnShape> + 'a)> {
        if self.recovering || self.ocp.fault().is_some() {
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
    /// * a timed quarantine lifts when the post-tick cycle reaches
    ///   `quarantine_until`;
    /// * a degraded worker heals when the post-tick cycle reaches
    ///   `degraded_since + fault_window`.
    pub(crate) fn horizon_at(
        &self,
        now: Instant,
        cfg: &FaultConfig,
        bus: &Bus,
        window: &BusWindow,
    ) -> Horizon {
        if self.recovering || (self.ocp.fault().is_some() && !self.fault_acknowledged) {
            return Horizon::NEXT_TICK;
        }
        let timer = match self.health {
            WorkerHealth::Quarantined => self.quarantine_until,
            WorkerHealth::Degraded => Some(self.degraded_since.saturating_add(cfg.fault_window)),
            WorkerHealth::Healthy => None,
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
        let done = self.active.take()?;
        self.served_span += now - done.started_at;
        Some(done)
    }

    /// Takes a completed job off the worker at cycle `now` and counts
    /// it as served.
    pub(crate) fn note_completion(&mut self, now: u64) -> Option<ActiveJob> {
        let done = self.take_job(now)?;
        self.jobs_served += 1;
        Some(done)
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
            self.begin_recovery();
        }
        Some(done)
    }

    /// Counts one fault against the circuit breaker at cycle `now`.
    ///
    /// Returns `true` when this fault trips the breaker (the worker
    /// just entered quarantine). A fault during probation re-opens the
    /// breaker immediately.
    pub(crate) fn record_fault(&mut self, now: u64, cfg: &FaultConfig) -> bool {
        self.faults_total += 1;
        let window_start = now.saturating_sub(cfg.fault_window);
        while self
            .recent_faults
            .front()
            .is_some_and(|&at| at < window_start)
        {
            self.recent_faults.pop_front();
        }
        self.recent_faults.push_back(now);
        let in_window = u32::try_from(self.recent_faults.len()).unwrap_or(u32::MAX);
        let tripped = self.probation || in_window >= cfg.quarantine_threshold;
        if tripped {
            self.health = WorkerHealth::Quarantined;
            self.quarantine_until = cfg.quarantine_cooldown.map(|c| now + c);
            self.probation = false;
            self.recent_faults.clear();
            self.quarantines_total += 1;
        } else {
            self.health = WorkerHealth::Degraded;
            self.degraded_since = now;
        }
        tripped
    }

    /// Starts draining the fault: the worker is unschedulable until
    /// [`Ocp::try_recover`] succeeds (DMA burst retired, FSM, RAC and
    /// FIFOs reset).
    pub(crate) fn begin_recovery(&mut self) {
        self.recovering = true;
        self.fault_acknowledged = true;
    }

    /// Counts the fault and marks it harvested without touching the
    /// breaker or recovering (fail-fast mode: the controller is left
    /// in its faulted state for postmortem).
    pub(crate) fn acknowledge_fault(&mut self) {
        self.faults_total += 1;
        self.fault_acknowledged = true;
    }

    /// One health-state step at cycle `now`: finish a pending recovery,
    /// lift an expired quarantine into probation, and restore `Healthy`
    /// after a clean window.
    pub(crate) fn advance_health(&mut self, bus: &mut Bus, now: u64, cfg: &FaultConfig) {
        if self.recovering && self.ocp.try_recover(bus) {
            self.recovering = false;
            self.fault_acknowledged = false;
            // Recovery resets the RAC slot; a DPR worker is back in
            // configuration 0 and the host mirror must follow.
            self.loaded = 0;
        }
        if self.health == WorkerHealth::Quarantined
            && !self.recovering
            && self.quarantine_until.is_some_and(|until| now >= until)
        {
            self.health = WorkerHealth::Degraded;
            self.quarantine_until = None;
            self.probation = true;
            self.degraded_since = now;
        }
        if self.health == WorkerHealth::Degraded
            && now.saturating_sub(self.degraded_since) >= cfg.fault_window
        {
            self.health = WorkerHealth::Healthy;
            self.probation = false;
            self.recent_faults.clear();
        }
    }
}
