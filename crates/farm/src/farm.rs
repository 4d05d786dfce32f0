//! The farm: a pool of OCP workers serving a job queue in simulated
//! time.
//!
//! ## Fault tolerance
//!
//! The farm survives worker deaths. When a controller faults mid-job —
//! organically or through an armed [`FaultPlan`] — the farm classifies
//! the fault, frees the dead job's shared-memory leases, counts the
//! fault against the worker's circuit breaker, starts draining the
//! worker's DMA, and parks the job for a bounded-backoff retry on a
//! *different* worker where one exists. Only when the retry budget is
//! exhausted, or no live worker can serve the kind, does a job end as
//! [`JobOutcome::FailedPermanent`] — and it still gets a record, so
//! the books always balance:
//! `admitted = completed + failed + deadline-missed + shed`.
//!
//! Legacy abort-on-fault behaviour survives behind
//! [`FaultConfig::fail_fast`] for tests that want a fault loud.
//!
//! ## Liveness
//!
//! Crashes are loud; hangs are silent. The liveness layer
//! ([`LivenessConfig`]) covers the quiet failure modes:
//!
//! * **watchdogs** — every launched job arms a no-progress watchdog on
//!   its worker ([`LivenessConfig::default_cycles_budget`]); a wedged
//!   handshake or runaway loop surfaces as [`WorkerFaultKind::Hang`]
//!   and rides the same retry/quarantine machinery as a crash;
//! * **deadlines** — with [`LivenessConfig::early_drop`] on, queued
//!   and parked jobs that can no longer meet their deadline are
//!   dropped before they waste a worker, and in-flight jobs past
//!   their deadline are host-aborted ([`JobOutcome::DeadlineMissed`]);
//! * **shedding** — past [`LivenessConfig::shed_watermark`] the queue
//!   refuses below-floor work ([`SubmitError::ShedOverload`]) and a
//!   full queue lets priority work evict the youngest low-class job
//!   ([`JobOutcome::ShedOverload`]).
//!
//! Watchdog expiries and deadline events register as event horizons,
//! so fast-forward leaps stay bit-exact with single-stepping.
//!
//! [`JobOutcome::FailedPermanent`]: crate::job::JobOutcome::FailedPermanent
//! [`JobOutcome::DeadlineMissed`]: crate::job::JobOutcome::DeadlineMissed
//! [`JobOutcome::ShedOverload`]: crate::job::JobOutcome::ShedOverload

use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use ouessant::{ExecError, Ocp};
use ouessant_isa::{operands::MAX_PROGRAM_LEN, Instruction};
use ouessant_sim::bus::{Bus, BusConfig, BusStats, MasterId};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::{BusWindow, Cycle, Horizon, Instant, SystemBus};
use ouessant_soc::alloc::{AllocError, BankAllocator};
use ouessant_verify::{verify, VerifyConfig};

use crate::chaos::{ChaosStats, FaultPlan};
use crate::job::{FailReason, JobId, JobKind, JobOutcome, JobRecord, JobSpec};
use crate::policy::{Assignment, SchedPolicy, WorkerView};
use crate::queue::{PendingJob, SubmitError, SubmitQueue};
use crate::stats::{FarmReport, LatencyStats, Ledger, WorkerReport};
use crate::worker::{
    adapt_custom_program, build_program, JobRegions, Worker, WorkerFaultKind, WorkerHealth,
};

/// Fault-handling policy: retry budget, circuit breaker, quarantine.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Dispatch attempts a job may consume before it fails permanently.
    pub max_attempts: u32,
    /// Base backoff before a bounced job re-enters the queue; attempt
    /// `n` waits `n * retry_backoff` cycles (linear backoff).
    pub retry_backoff: u64,
    /// Width of the faults-in-window circuit breaker, in cycles. Also
    /// the clean-streak length that promotes `Degraded` back to
    /// `Healthy`.
    pub fault_window: u64,
    /// Faults within one window that trip the breaker and quarantine
    /// the worker.
    pub quarantine_threshold: u32,
    /// Cycles a quarantine lasts, from the fault that tripped it,
    /// before the worker is re-admitted on probation (one more fault
    /// re-quarantines instantly). A fault during the quarantine
    /// neither ends nor extends it. `None` makes every quarantine
    /// permanent.
    pub quarantine_cooldown: Option<u64>,
    /// Restore the pre-fault-tolerance behaviour: the first worker
    /// fault aborts [`Farm::run_until_idle`] with
    /// [`FarmError::WorkerFault`] (the job still fails cleanly and its
    /// leases are still freed — nothing leaks even when failing fast).
    pub fail_fast: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            retry_backoff: 1_000,
            fault_window: 50_000,
            quarantine_threshold: 3,
            quarantine_cooldown: Some(200_000),
            fail_fast: false,
        }
    }
}

/// Liveness policy: hang watchdogs, deadline enforcement, overload
/// shedding. The default disables all three, preserving the legacy
/// behaviour bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct LivenessConfig {
    /// Watchdog budget armed on every launched job: the longest window
    /// without observable progress (a retired instruction or a
    /// transferred word) a job is allowed before its worker's watchdog
    /// aborts it with [`WorkerFaultKind::Hang`]. `None` leaves jobs
    /// unwatched. The budget must absorb the longest legitimate
    /// progress-free window a job can sit in — a worst-case DPR
    /// bitstream load plus the accelerator's compute latency — or
    /// healthy jobs will be shot.
    pub default_cycles_budget: Option<u64>,
    /// Deadline enforcement: each tick, drop queued/parked jobs that
    /// can no longer meet their deadline (submission deadline minus
    /// the kind's core-latency estimate has passed) and host-abort
    /// in-flight jobs already past it. Off by default — without it,
    /// deadlines are bookkeeping only (late completions are counted,
    /// never interfered with).
    pub early_drop: bool,
    /// Queue depth at which admission starts shedding below-floor
    /// work with [`SubmitError::ShedOverload`]; also enables
    /// full-queue priority eviction. `None` disables shedding (a full
    /// queue bounces everything with `QueueFull`).
    pub shed_watermark: Option<usize>,
    /// Minimum priority still admitted past the watermark.
    pub shed_floor: u8,
}

/// Static farm parameters.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Submission-queue capacity (jobs).
    pub queue_capacity: usize,
    /// Base address of the shared job memory.
    pub shared_base: u32,
    /// Size of the shared job memory, in 32-bit words.
    pub shared_words: u32,
    /// FIFO depth of every worker OCP; also the admission ceiling on
    /// payload length (a job's whole payload is streamed into the RAC
    /// input FIFO before `execs`).
    pub fifo_depth: usize,
    /// Bus timing parameters.
    pub bus: BusConfig,
    /// Wait states of the shared memory.
    pub sram: SramConfig,
    /// Fault-handling policy.
    pub faults: FaultConfig,
    /// Liveness policy (watchdogs, deadlines, shedding).
    pub liveness: LivenessConfig,
    /// Event-horizon fast-forward: [`Farm::run_until_idle`] skips
    /// provably-idle windows in O(1) instead of ticking through them.
    /// Bit-exact with single-stepping (same records, reports, fault
    /// timeline and RNG stream); disable only to cross-check that
    /// claim or to trace every cycle.
    pub fast_forward: bool,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            shared_base: 0x4000_0000,
            shared_words: 64 * 1024,
            fifo_depth: 1024,
            bus: BusConfig::default(),
            sram: SramConfig::default(),
            faults: FaultConfig::default(),
            liveness: LivenessConfig::default(),
            fast_forward: true,
        }
    }
}

/// One worker's health at the moment a farm stalled — the per-worker
/// payload of [`FarmError::Stalled`], so the error itself says whether
/// the pool ran out of fuel or out of workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The worker's display name.
    pub name: String,
    /// Circuit-breaker health.
    pub health: WorkerHealth,
    /// Whether a job was on the worker.
    pub busy: bool,
    /// Whether the controller FSM was wedged (silent hang with no
    /// watchdog armed — the job will never finish on its own).
    pub wedged: bool,
}

/// A fatal pool condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmError {
    /// `run_until_idle` ran out of fuel with work still pending.
    Stalled {
        /// Cycles simulated before giving up.
        cycles: u64,
        /// Jobs still queued or parked for retry.
        queued: usize,
        /// Jobs still on workers.
        in_flight: usize,
        /// Per-worker health at the stall, distinguishing an
        /// out-of-fuel stall (live workers, just not enough cycles)
        /// from a dead pool (every worker quarantined or wedged).
        workers: Vec<WorkerSnapshot>,
        /// The parked job that has waited longest, as `(id, ready_at)`.
        oldest_parked: Option<(JobId, u64)>,
    },
    /// A worker's controller faulted while [`FaultConfig::fail_fast`]
    /// was set (with fault tolerance on — the default — worker faults
    /// are absorbed and never surface as errors).
    WorkerFault {
        /// Pool index of the dead worker.
        worker: usize,
        /// The classified fault.
        fault: WorkerFaultKind,
    },
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::Stalled {
                cycles,
                queued,
                in_flight,
                workers,
                oldest_parked,
            } => {
                let dead = !workers.is_empty()
                    && workers
                        .iter()
                        .all(|w| w.health == WorkerHealth::Quarantined || w.wedged);
                write!(
                    f,
                    "farm stalled after {cycles} cycles ({queued} queued, {in_flight} in \
                     flight): {}",
                    if dead {
                        "pool dead — every worker quarantined or wedged"
                    } else {
                        "out of fuel with live workers"
                    }
                )?;
                for w in workers {
                    write!(
                        f,
                        "; {} {}{}{}",
                        w.name,
                        w.health,
                        if w.busy { " busy" } else { "" },
                        if w.wedged { " WEDGED" } else { "" }
                    )?;
                }
                if let Some((id, ready_at)) = oldest_parked {
                    write!(
                        f,
                        "; oldest parked job #{} retries at cycle {ready_at}",
                        id.0
                    )?;
                }
                Ok(())
            }
            FarmError::WorkerFault { worker, fault } => {
                write!(f, "worker {worker} faulted: {fault}")
            }
        }
    }
}

impl Error for FarmError {}

/// Where worker register windows are mapped.
const OCP_BASE: u32 = 0x8000_0000;
/// Spacing between worker register windows.
const OCP_STRIDE: u32 = 0x1_0000;

/// What a completed run leaves for its job's record.
#[derive(Debug, Default)]
struct Served {
    swapped: bool,
    contention_cycles: u64,
    output: Vec<u32>,
}

/// A fault-bounced job waiting out its retry backoff.
#[derive(Debug)]
struct ParkedJob {
    job: PendingJob,
    ready_at: u64,
}

/// The words of one job's three leases: program, input, output.
type LeaseShape = [u32; 3];

/// What the last dispatch round that placed nothing ran into.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum EpochEnd {
    /// Nothing recorded yet.
    #[default]
    Unrecorded,
    /// The policy passed.
    Pass,
    /// The policy picked, and the lease failed (an alloc stall).
    Stall,
}

/// The dispatch epoch at which the last dispatch round placed nothing:
/// the queue's membership version plus every worker's `(dispatchable,
/// loaded config)`, and what ended the round.
///
/// By the [`SchedPolicy::pick`] contract a pass depends on nothing
/// else, so while the epoch is unchanged dispatch would pass again and
/// can be skipped outright. A stall also depends on the allocator, so
/// a stall record also keeps its free list and, per picked pair, the
/// lease shape that failed on it. While both hold, every pick the
/// policy makes of a remembered pair fails its lease again: dispatch
/// still runs, but a leap can run it for each cycle without building a
/// program or ticking a worker.
#[derive(Debug, Default)]
struct IdleEpoch {
    end: EpochEnd,
    queue_version: u64,
    workers: Vec<(bool, usize)>,
    /// A stall's free list.
    free: Vec<(u32, u32)>,
    /// A stall's failed lease shape of each pair picked on it.
    shapes: Vec<(Assignment, LeaseShape)>,
}

impl IdleEpoch {
    /// Whether the queue and the workers are as recorded.
    fn holds(&self, queue: &SubmitQueue, workers: &[Worker]) -> bool {
        self.queue_version == queue.version()
            && self.workers.len() == workers.len()
            && self
                .workers
                .iter()
                .zip(workers)
                .all(|(&key, w)| key == Self::worker_key(w))
    }

    /// Whether the policy is known to place nothing right now.
    fn passes(&self, queue: &SubmitQueue, workers: &[Worker]) -> bool {
        self.end == EpochEnd::Pass && self.holds(queue, workers)
    }

    /// Whether the recorded stall holds: the queue, the workers and the
    /// allocator's free list are as they were when it was recorded.
    fn stalls(&self, queue: &SubmitQueue, workers: &[Worker], alloc: &BankAllocator) -> bool {
        self.end == EpochEnd::Stall
            && self.holds(queue, workers)
            && self.free == alloc.free_extents()
    }

    /// The failed lease shape of `pick` in the recorded stall.
    fn shape_of(&self, pick: Assignment) -> Option<LeaseShape> {
        self.shapes
            .iter()
            .find_map(|&(p, shape)| (p == pick).then_some(shape))
    }

    /// Records that the policy just passed on the current epoch.
    fn record_pass(&mut self, queue: &SubmitQueue, workers: &[Worker]) {
        self.set(EpochEnd::Pass, queue, workers);
    }

    /// Records that `pick`'s lease of `shape` just failed on `alloc`:
    /// one more pair of a stall that still holds, or a new stall.
    fn record_stall(
        &mut self,
        queue: &SubmitQueue,
        workers: &[Worker],
        alloc: &BankAllocator,
        pick: Assignment,
        shape: LeaseShape,
    ) {
        if !self.stalls(queue, workers, alloc) {
            self.set(EpochEnd::Stall, queue, workers);
            self.free.clear();
            self.free.extend_from_slice(alloc.free_extents());
            self.shapes.clear();
        }
        if self.shape_of(pick).is_none() {
            self.shapes.push((pick, shape));
        }
    }

    /// Records the current epoch, ended by `end`.
    fn set(&mut self, end: EpochEnd, queue: &SubmitQueue, workers: &[Worker]) {
        self.end = end;
        self.queue_version = queue.version();
        self.workers.clear();
        self.workers.extend(workers.iter().map(Self::worker_key));
    }

    /// The part of a worker's state a policy's pass may depend on.
    fn worker_key(w: &Worker) -> (bool, usize) {
        (w.is_dispatchable(), w.loaded_config())
    }
}

/// A multi-OCP serving pool on one shared bus.
///
/// Construction order matters to arbitration: the host master is
/// registered first (highest fixed priority, as a CPU would be), then
/// one DMA master per added worker.
///
/// # Examples
///
/// ```
/// use ouessant_farm::{Farm, FarmConfig, FifoPolicy, JobKind, JobSpec};
///
/// let mut farm = Farm::new(FarmConfig::default(), Box::new(FifoPolicy::new()));
/// farm.add_worker(JobKind::Idct);
/// let id = farm.submit(JobSpec::new(JobKind::Idct, vec![0; 64]))?;
/// farm.run_until_idle(100_000)?;
/// let record = &farm.records()[0];
/// assert_eq!(record.id, id);
/// assert_eq!(record.output, vec![0; 64]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Farm {
    bus: Bus,
    workers: Vec<Worker>,
    queue: SubmitQueue,
    alloc: BankAllocator,
    policy: Box<dyn SchedPolicy>,
    config: FarmConfig,
    /// Finished-job records not yet taken.
    completed: Vec<JobRecord>,
    /// Jobs admitted so far; the next admission's id.
    next_id: u64,
    /// The cumulative books behind every report count.
    ledger: Ledger,
    /// Fault-bounced jobs waiting out their retry backoff.
    parked: Vec<ParkedJob>,
    /// Armed chaos campaign, if any.
    chaos: Option<FaultPlan>,
    /// Set by a fault under `fail_fast`; `run_until_idle` converts it
    /// into an `Err` at the end of the tick.
    fault_abort: Option<(usize, WorkerFaultKind)>,
    /// The last dispatch epoch on which the policy placed nothing.
    idle_epoch: IdleEpoch,
    /// Reusable injection buffer for the chaos plan.
    injection_scratch: Vec<crate::chaos::Injection>,
    /// The built-in programs dispatch has built, encoded, by job kind,
    /// input words and the `rcfg` slot they start with (none on the
    /// loaded configuration): each is built once per farm.
    programs: HashMap<(JobKind, u32, Option<usize>), Vec<u32>>,
}

impl fmt::Debug for Farm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Farm")
            .field("policy", &self.policy.name())
            .field("workers", &self.workers.len())
            .field("queued", &self.queue.len())
            .field("parked", &self.parked.len())
            .field("completed", &self.completed.len())
            .finish_non_exhaustive()
    }
}

impl Farm {
    /// An empty pool (no workers yet) scheduling with `policy`.
    #[must_use]
    pub fn new(config: FarmConfig, policy: Box<dyn SchedPolicy>) -> Self {
        let mut bus = Bus::new(config.bus);
        let _host = bus.register_master();
        bus.add_slave(
            config.shared_base,
            Sram::with_words(config.shared_words as usize, config.sram),
        );
        let alloc = BankAllocator::new(config.shared_base, config.shared_words);
        let mut queue = SubmitQueue::new(config.queue_capacity);
        queue.set_overload_policy(config.liveness.shed_watermark, config.liveness.shed_floor);
        Self {
            bus,
            workers: Vec::new(),
            queue,
            alloc,
            policy,
            config,
            completed: Vec::new(),
            next_id: 0,
            ledger: Ledger::default(),
            parked: Vec::new(),
            chaos: None,
            fault_abort: None,
            idle_epoch: IdleEpoch::default(),
            injection_scratch: Vec::new(),
            programs: HashMap::new(),
        }
    }

    /// Where the next worker's register window is mapped.
    fn next_ocp_base(&self) -> u32 {
        let index = u32::try_from(self.workers.len()).expect("a worker index fits u32");
        OCP_BASE + index * OCP_STRIDE
    }

    /// Adds a fixed-function worker for `kind`; returns its pool index.
    pub fn add_worker(&mut self, kind: JobKind) -> usize {
        let base = self.next_ocp_base();
        self.workers.push(Worker::fixed(
            &mut self.bus,
            base,
            kind,
            self.config.fifo_depth,
        ));
        self.workers.len() - 1
    }

    /// Adds a DPR worker whose slot holds one configuration per
    /// `(kind, bitstream_bytes)` pair; returns its pool index.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or repeats a kind.
    pub fn add_dpr_worker(&mut self, configs: &[(JobKind, u64)]) -> usize {
        let base = self.next_ocp_base();
        self.workers.push(Worker::reconfigurable(
            &mut self.bus,
            base,
            configs,
            self.config.fifo_depth,
        ));
        self.workers.len() - 1
    }

    /// Arms a seeded chaos campaign: from the next tick on, `plan`
    /// rolls its per-seam dice every cycle (see [`FaultPlan`]).
    pub fn arm_chaos(&mut self, plan: FaultPlan) {
        self.chaos = Some(plan);
    }

    /// What the armed chaos campaign has injected so far (`None` when
    /// no campaign is armed).
    #[must_use]
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(FaultPlan::stats)
    }

    /// Forces `error` onto worker `worker`'s controller, exactly as a
    /// chaos campaign would — the deterministic single-shot seam for
    /// tests that need one specific fault at one specific moment.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn inject_worker_fault(&mut self, worker: usize, error: ExecError) {
        self.workers[worker].ocp.inject_fault(error);
    }

    /// Freezes worker `worker`'s controller FSM mid-handshake, exactly
    /// as the chaos wedge seam would — the deterministic single-shot
    /// hang for tests that need one at one specific moment. Only a
    /// watchdog or a deadline abort gets the worker back.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn inject_worker_wedge(&mut self, worker: usize) {
        self.workers[worker].ocp.inject_wedge();
    }

    /// Holds worker `worker`'s RAC busy for `cycles` extra cycles,
    /// exactly as the chaos slow-RAC seam would.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn inject_worker_rac_stall(&mut self, worker: usize, cycles: u64) {
        self.workers[worker].ocp.inject_rac_stall(cycles);
    }

    /// The workers in the pool.
    #[must_use]
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// The scheduling policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.bus.now().count()
    }

    /// Jobs waiting in the queue (excluding parked retries).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Fault-bounced jobs waiting out their retry backoff.
    #[must_use]
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Jobs currently on workers.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_idle()).count()
    }

    /// Finished jobs not yet taken, whatever their outcome, in finish
    /// order.
    #[must_use]
    pub fn records(&self) -> &[JobRecord] {
        &self.completed
    }

    /// Drains the finished-job records. The [`report`](Farm::report)'s
    /// counts are cumulative and stay as they are; its latency
    /// distributions cover only the records still held, so they start
    /// over.
    pub fn take_records(&mut self) -> Vec<JobRecord> {
        std::mem::take(&mut self.completed)
    }

    /// Aggregate statistics of the shared bus (cycles, busy cycles,
    /// grants, beats, contention).
    #[must_use]
    pub fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// Cycles dispatch was blocked on shared-memory pressure.
    #[must_use]
    pub fn alloc_stalls(&self) -> u64 {
        self.ledger.alloc_stalls
    }

    /// Jobs dropped or aborted for hopeless deadlines so far.
    #[must_use]
    pub fn deadline_drops(&self) -> u64 {
        self.ledger.deadline_missed
    }

    /// Words of shared job memory currently leased (0 at idle — the
    /// invariant the chaos tests pin).
    #[must_use]
    pub fn leased_words(&self) -> u32 {
        self.alloc.stats().words_in_use
    }

    /// Submits a job.
    ///
    /// Jobs carrying custom microcode ([`JobSpec::with_microcode`]) are
    /// run through the `ouessant-verify` static analyzer against the
    /// farm's job memory map before they can take a queue slot:
    /// programs with error-severity diagnostics (out-of-bounds
    /// transfers, unjoined launches, DMA races, …) are bounced with
    /// [`SubmitError::RejectedMicrocode`]. Programs holding `rcfg` or
    /// `halt` are bounced with [`SubmitError::ReservedInstruction`]:
    /// the farm owns each worker's DPR slot, and waits for the D bit
    /// only `eop` sets. So one hostile or buggy client can never corrupt
    /// another job's shared-memory regions or output, or wedge a
    /// worker.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] is the backpressure signal — or,
    /// with an overload policy configured
    /// ([`LivenessConfig::shed_watermark`]),
    /// [`SubmitError::ShedOverload`] once the queue is past its
    /// watermark and the job is below the priority floor. A
    /// high-priority submission into a *full* queue may instead evict
    /// the youngest lowest-class queued job, which is recorded as
    /// [`JobOutcome::ShedOverload`].
    /// The other variants reject malformed or unserviceable jobs at
    /// admission (see [`SubmitError`]).
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.admit(spec).inspect_err(|e| self.ledger.reject(e))
    }

    /// Verifies and queues `spec`, recording any evictions it causes.
    fn admit(&mut self, spec: JobSpec) -> Result<JobId, SubmitError> {
        if let Some(program) = &spec.microcode {
            // One instruction of headroom: serving the job on a DPR
            // worker prepends an `rcfg` (see `adapt_custom_program`).
            let limit = MAX_PROGRAM_LEN - 1;
            if program.len() > limit {
                return Err(SubmitError::MicrocodeTooLong {
                    len: program.len(),
                    limit,
                });
            }
            // The farm is the only issuer of `rcfg` (its mirror of each
            // worker's loaded configuration relies on it), and a run
            // must end in `eop`: a halted controller is idle without
            // the D bit, so neither completion nor a watchdog frees
            // its worker.
            if let Some((index, &instruction)) = program
                .iter()
                .enumerate()
                .find(|(_, insn)| matches!(insn, Instruction::Rcfg { .. } | Instruction::Halt))
            {
                return Err(SubmitError::ReservedInstruction { index, instruction });
            }
            let input_words = u32::try_from(spec.input.len()).unwrap_or(u32::MAX);
            let config = VerifyConfig::job_map(
                u32::try_from(program.len() + 1).expect("checked against the limit above"),
                input_words,
                spec.kind.output_words(input_words),
            )
            .with_fifo_depth(u32::try_from(self.config.fifo_depth).unwrap_or(u32::MAX));
            let analysis = verify(program, &config);
            if analysis.has_errors() {
                return Err(SubmitError::RejectedMicrocode {
                    diagnostics: analysis,
                });
            }
        }
        // Admission asks for a *live* capable worker: a kind whose only
        // workers died permanently is rejected up front rather than
        // admitted into a queue it can never leave.
        let serviceable = serviceable(&self.workers, spec.kind, None);
        let payload_limit = u32::try_from(self.config.fifo_depth).unwrap_or(u32::MAX);
        let id = JobId(self.next_id);
        let now = self.now();
        let admitted = self
            .queue
            .submit(id, spec, now, payload_limit, serviceable)?;
        self.next_id += 1;
        // A priority admission into a full queue may have evicted a
        // low-class job: record the eviction so the books still
        // balance (`admitted = completed + failed + missed + shed`).
        for job in self.queue.take_shed() {
            self.finish(job, 0, now, JobOutcome::ShedOverload, None);
        }
        Ok(admitted)
    }

    /// Advances the pool one clock cycle: unpark due retries, sweep
    /// liveness (deadline drops and aborts), dispatch, every worker,
    /// the chaos plan (if armed), the bus, completion collection,
    /// fault handling, health transitions.
    pub fn tick(&mut self) {
        self.step(None);
    }

    /// [`Farm::tick`], whose dispatch takes `picked` as the policy's
    /// first pick when a leap already made it.
    fn step(&mut self, picked: Option<Assignment>) {
        let now = self.now();
        self.unpark_ready(now);
        self.sweep_liveness(now);
        self.dispatch(picked);
        for w in &mut self.workers {
            w.ocp.tick(&mut self.bus);
        }
        // A one-cycle window, rolled after the workers tick (so no
        // controller is at a pickup) and landed at once.
        let work_pending = self.work_pending();
        if self.roll_chaos(now..now + 1, None, work_pending).is_some() {
            FaultPlan::apply(&mut self.workers, &self.injection_scratch);
        }
        self.bus.tick();
        self.collect_completions();
        self.settle_faults();
    }

    /// Rolls the armed chaos plan's dice over the cycles `window` into
    /// the injection scratch (see [`FaultPlan::fast_forward`]), `issuer`
    /// being the master the window issues for. Returns the cycles the
    /// plan lets pass, or `None` when no plan is armed; the scratch is
    /// left empty then.
    fn roll_chaos(
        &mut self,
        window: std::ops::Range<u64>,
        issuer: Option<MasterId>,
        work_pending: bool,
    ) -> Option<u64> {
        self.injection_scratch.clear();
        let plan = self.chaos.as_mut()?;
        Some(plan.fast_forward(
            window,
            &self.workers,
            &self.bus,
            issuer,
            &mut self.alloc,
            work_pending,
            &mut self.injection_scratch,
            |_, _| true,
        ))
    }

    /// The back half of a tick, after the bus: faults are handled, then
    /// every worker's health moves to the post-tick cycle.
    fn settle_faults(&mut self) {
        self.handle_faults();
        let now = self.now();
        for w in &mut self.workers {
            w.advance_health(&mut self.bus, now, &self.config.faults);
        }
    }

    /// Ticks until the queue and retry park are empty and every worker
    /// is idle (an armed chaos plan must also have released any
    /// shared-memory squat, so the lease ledger is provably empty at
    /// return).
    ///
    /// Returns the number of cycles simulated by this call.
    ///
    /// Worker faults do **not** abort the run: the farm quarantines,
    /// reschedules and keeps serving, and jobs the farm gave up on are
    /// reported through their [`JobRecord`]'s
    /// [`outcome`](JobRecord::outcome) — unless
    /// [`FaultConfig::fail_fast`] restores the legacy abort.
    ///
    /// # Errors
    ///
    /// [`FarmError::Stalled`] after `fuel` cycles with work pending,
    /// [`FarmError::WorkerFault`] on the first fault in fail-fast mode.
    pub fn run_until_idle(&mut self, fuel: u64) -> Result<u64, FarmError> {
        let wall_start = std::time::Instant::now();
        let result = self.run_until_idle_inner(fuel);
        self.ledger.host_wall += wall_start.elapsed();
        result
    }

    fn run_until_idle_inner(&mut self, fuel: u64) -> Result<u64, FarmError> {
        let start = self.now();
        loop {
            let squatting = self.chaos.as_ref().is_some_and(FaultPlan::holding_squat);
            if !self.work_pending() && !squatting {
                break;
            }
            if self.now() - start >= fuel {
                // Give the ledger back its squat before reporting, so a
                // stalled farm still leaks nothing.
                if let Some(plan) = self.chaos.as_mut() {
                    plan.release_squat(&mut self.alloc);
                }
                return Err(self.stalled_error(self.now() - start));
            }
            if self.config.fast_forward {
                // A leap of N cycles consumes N fuel, so `Stalled`
                // fires at exactly the cycle single-stepping would
                // reach: leaps are clamped to the fuel remaining.
                self.leap_or_tick(start, fuel);
            } else {
                self.tick();
            }
            if let Some((worker, fault)) = self.fault_abort.take() {
                return Err(FarmError::WorkerFault { worker, fault });
            }
        }
        Ok(self.now() - start)
    }

    /// The earliest future tick at which any observable farm state can
    /// change. The minimum over:
    ///
    /// * dispatch — pending work plus a dispatchable worker means the
    ///   very next tick may launch a job (or charge an alloc stall),
    ///   unless the policy already passed on the current dispatch
    ///   epoch, or the epoch's recorded stall still holds (see
    ///   [`IdleEpoch`]): then no tick of the window launches, and the
    ///   leap runs each cycle's stalled dispatch itself. The third
    ///   value says which (`true` for a stall window);
    /// * every worker's OCP and health-timer horizon (a worker waiting
    ///   on its DMA burst defers to the bus, and an armed watchdog's
    ///   expiry rides the OCP horizon, so a hang inside a skipped
    ///   window fires at the identical cycle in both modes);
    /// * every parked retry's unpark tick, the first whose pre-tick
    ///   cycle reaches its `ready_at`;
    /// * with [`LivenessConfig::early_drop`] on, the drop tick of the
    ///   queue's earliest hopeless threshold and of every parked
    ///   deadline's, and every in-flight deadline's abort tick: the
    ///   first whose pre-tick cycle passes it;
    /// * an armed chaos squat's release tick, the first whose pre-tick
    ///   cycle reaches it (bounds the leap so `run_until_idle` observes
    ///   the release at the exact cycle single-stepping would, and
    ///   terminates then);
    /// * the tick after the shared bus's next event. Everything that
    ///   reads a port or a fault ticks before the bus (the back half of
    ///   [`Farm::tick`] reads only OCP flags, and a recovering worker
    ///   single-steps), so a completion joins the window before its
    ///   pickup (see [`Horizon::observed`]).
    ///
    /// The bus side is planned once, as a [`BusWindow`] every worker
    /// reads: a worker may issue a run of transfers inside the window,
    /// and the bus's next event is then the run's last completion.
    /// Chained issues (after a pickup, `Fetch` or `Decode` of the
    /// worker's own), and so runs, are left out while chaos is armed,
    /// because a window's dice follow each worker's state after its
    /// first tick and a chain changes it later. The run is planned last,
    /// as far as every other term reaches: a window that may chain has
    /// an idle bus, so no other worker's horizon reads it.
    fn idle_horizon(&self) -> (Horizon, BusWindow, bool) {
        let stalled = self.may_dispatch();
        if stalled
            && !self
                .idle_epoch
                .stalls(&self.queue, &self.workers, &self.alloc)
        {
            return (Horizon::NEXT_TICK, BusWindow::default(), false);
        }
        let now = self.bus.now();
        let (mut window, later) = BusWindow::plan(&self.bus, self.chaos.is_none(), |chain| {
            self.workers
                .iter()
                .filter_map(move |w| w.window_issue(&self.bus, chain))
        });
        let issuer = window.issuer();
        let is_issuer = |w: &Worker| Some(w.ocp.bus_master()) == issuer;
        let mut h = Horizon::QUIESCENT;
        for w in self.workers.iter().filter(|w| !is_issuer(w)) {
            h = h.min(w.horizon_at(now, &self.config.faults, &self.bus, &window));
        }
        let reaching = |at| Horizon::starting_at(Instant::new(at), now);
        let passing = |at| Horizon::starting_after(Instant::new(at), now);
        for p in &self.parked {
            h = h.min(reaching(p.ready_at));
        }
        if self.config.liveness.early_drop {
            for threshold in self
                .parked
                .iter()
                .filter_map(|p| p.job.hopeless_after())
                .chain(self.queue.earliest_hopeless())
            {
                h = h.min(passing(threshold));
            }
            for w in &self.workers {
                if let Some(d) = w.active().and_then(|a| a.job.deadline) {
                    h = h.min(passing(d));
                }
            }
        }
        if let Some(release_at) = self.chaos.as_ref().and_then(FaultPlan::squat_release_at) {
            h = h.min(reaching(release_at));
        }
        if let Some(w) = self.workers.iter().find(|w| is_issuer(w)) {
            if let Some(later) = later {
                Ocp::extend_run(&self.bus, &mut window, h, later);
            }
            h = h.min(w.horizon_at(now, &self.config.faults, &self.bus, &window));
        }
        (h.min(Horizon::observed(window.event())), window, stalled)
    }

    /// One fast-forward step: leap over the provably-pure window in
    /// front of `now`, or fall back to a single [`Farm::tick`] when the
    /// window is empty.
    ///
    /// A DMA burst may complete on the window's last cycle; its worker
    /// picks it up on the next window's first cycle, inside that leap.
    /// A worker the window issues for begins its run of bursts inside
    /// the leap too: the other workers advance over the whole leap,
    /// then the run replays (see [`BusWindow::leap`]): its first burst
    /// and a burst the leap cuts alone, so each of those requests meets
    /// the bus on its own cycle, and the bursts between in one step.
    /// With chaos armed, the
    /// plan lists the window's armed dice once, from each worker's
    /// state after that first cycle, and rolls the list for every cycle
    /// of the window (identical RNG stream to single-stepping); the
    /// leap stops at the first cycle that injects, the injections land
    /// there, and the fault machinery runs exactly as it would have in
    /// that tick. In a stall window each cycle's dispatch runs in front
    /// of its dice (see [`Farm::roll_stall_window`]).
    fn leap_or_tick(&mut self, start: u64, fuel: u64) {
        let now = self.now();
        let remaining = fuel - (now - start);
        let (horizon, window, stalled) = self.idle_horizon();
        let bound = horizon.leap_bound(remaining);
        if bound == 0 {
            self.tick();
            return;
        }
        // Frozen for the whole window: queue/park/in-flight membership
        // only changes at events, which the horizon excludes.
        let work_pending = self.work_pending();
        let (leap, picked) = if stalled {
            self.roll_stall_window(now..now + bound, window.issuer(), work_pending)
        } else {
            let leap = self.roll_chaos(now..now + bound, window.issuer(), work_pending);
            (leap.unwrap_or(bound), None)
        };
        debug_assert!(leap <= bound, "leap within the pure window");
        debug_assert!(leap > 0 || picked.is_some(), "an empty leap steps its pick");
        if leap > 0 {
            window.leap(&mut self.bus, leap, |bus, who, from, ticks| {
                for w in &mut self.workers {
                    w.ocp.advance(who, from, Cycle::new(ticks), bus);
                }
            });
            self.ledger.skipped_cycles += leap;
        }
        if !self.injection_scratch.is_empty() {
            // The dice hit at the last leaped cycle: land the faults
            // and run the back half of that tick (no OCP finishes
            // inside a pure window, so collection is skipped).
            FaultPlan::apply(&mut self.workers, &self.injection_scratch);
            self.settle_faults();
        }
        if picked.is_some() {
            // The window ended in front of a pick no lease shape is
            // remembered for: that cycle steps, with the pick the
            // policy already made for it. It is inside the pure window
            // (`leap < bound <= remaining`), so its fuel is there.
            self.step(picked);
        }
    }

    /// Rolls a window in which every cycle's dispatch stalls (see
    /// [`IdleEpoch`]): each cycle asks the policy for its pick with the
    /// cycle's `now`, retries the pick's remembered failed lease and
    /// charges the stall, then rolls the chaos dice, in tick order.
    /// Returns the cycles consumed and, when the window ended in front
    /// of a pick with no remembered shape, that pick.
    ///
    /// The window also ends after a cycle whose chaos squat took
    /// memory, since the next lease would meet another free list. The
    /// injections land in the scratch, as for [`Farm::roll_chaos`].
    fn roll_stall_window(
        &mut self,
        cycles: std::ops::Range<u64>,
        issuer: Option<MasterId>,
        work_pending: bool,
    ) -> (u64, Option<Assignment>) {
        self.injection_scratch.clear();
        let views = worker_views(&self.workers);
        let (policy, queue, epoch) = (&mut self.policy, &self.queue, &self.idle_epoch);
        let stalls = &mut self.ledger.alloc_stalls;
        let mut seen = self.alloc.stats();
        let mut picked = None;
        let dispatch = |now, alloc: &mut BankAllocator| {
            // A squat took memory on the previous cycle. A remembered
            // shape fails again on the free list it failed on; that it
            // fails on a smaller one too follows only from how
            // first-fit places leases, which the leap does not rely on.
            if alloc.stats() != seen {
                return false;
            }
            let pick = policy
                .pick(now, queue, &views)
                .expect("a policy that picked on this epoch picks again (SchedPolicy::pick)");
            let Some(shape) = epoch.shape_of(pick) else {
                picked = Some(pick);
                return false;
            };
            assert!(
                lease_regions(alloc, shape).is_none(),
                "a lease that failed on this free list succeeded on it"
            );
            *stalls += 1;
            seen = alloc.stats();
            true
        };
        let start = cycles.start;
        let leap = match self.chaos.as_mut() {
            Some(plan) => plan.fast_forward(
                cycles,
                &self.workers,
                &self.bus,
                issuer,
                &mut self.alloc,
                work_pending,
                &mut self.injection_scratch,
                dispatch,
            ),
            None => {
                let mut dispatch = dispatch;
                let end = cycles.end;
                cycles
                    .into_iter()
                    .find(|&now| !dispatch(now, &mut self.alloc))
                    .unwrap_or(end)
                    - start
            }
        };
        (leap, picked)
    }

    /// Simulated cycles covered by fast-forward leaps so far.
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.ledger.skipped_cycles
    }

    /// Builds the aggregate serving report: counts from the ledger and
    /// the workers, distributions from the records still held (see
    /// [`FarmReport`]).
    #[must_use]
    pub fn report(&self) -> FarmReport {
        let total_cycles = self.now();
        let workers: Vec<WorkerReport> = self
            .workers
            .iter()
            .map(|w| {
                let stats = self.bus.master_stats(w.ocp.bus_master());
                let busy_cycles = w.busy_cycles(total_cycles);
                WorkerReport {
                    name: w.name().to_string(),
                    jobs: w.jobs_served(),
                    swaps: w.swaps(),
                    busy_cycles,
                    utilization: if total_cycles == 0 {
                        0.0
                    } else {
                        busy_cycles as f64 / total_cycles as f64
                    },
                    bus_grants: stats.grants,
                    bus_beats: stats.beats,
                    contention_cycles: stats.contention_cycles,
                    health: w.health(),
                    faults: w.faults_total(),
                    quarantines: w.quarantines_total(),
                }
            })
            .collect();
        // Distributions describe served work: the other outcomes carry
        // no meaningful timings.
        let done: Vec<&JobRecord> = self
            .completed
            .iter()
            .filter(|r| r.outcome.is_completed())
            .collect();
        let distribution = |f: fn(&JobRecord) -> u64| {
            LatencyStats::from_samples(done.iter().map(|r| f(r)).collect())
        };
        let ledger = &self.ledger;
        let mut per_kind: Vec<(String, u64)> = ledger
            .per_kind
            .iter()
            .map(|(kind, n)| (kind.to_string(), *n))
            .collect();
        per_kind.sort();
        let wall = ledger.host_wall.as_secs_f64();
        let jobs_completed = workers.iter().map(|w| w.jobs).sum::<u64>();
        FarmReport {
            policy: self.policy.name().to_string(),
            total_cycles,
            jobs_admitted: self.next_id,
            jobs_completed,
            jobs_failed_permanent: ledger.failed_permanent,
            jobs_deadline_missed: ledger.deadline_missed,
            jobs_shed: ledger.shed,
            worker_faults: workers.iter().map(|w| w.faults).sum(),
            retries: ledger.retries,
            quarantines: workers.iter().map(|w| w.quarantines).sum(),
            hangs_detected: ledger.hangs_detected,
            aborts: ledger.aborts,
            rejected_full: ledger.rejected_full,
            rejected_shed: ledger.rejected_shed,
            rejected_invalid: ledger.rejected_invalid,
            rejected_unsafe: ledger.rejected_unsafe,
            queue_peak_depth: self.queue.peak_depth(),
            queue_wait: distribution(JobRecord::queue_wait),
            service: distribution(JobRecord::service_cycles),
            latency: distribution(JobRecord::latency),
            throughput_jobs_per_mcycle: if total_cycles == 0 {
                0.0
            } else {
                jobs_completed as f64 * 1.0e6 / total_cycles as f64
            },
            swaps: workers.iter().map(|w| w.swaps).sum(),
            deadline_misses: ledger.late,
            contention_cycles: ledger.contention_cycles,
            per_kind,
            alloc: self.alloc.stats(),
            workers,
            skipped_cycles: ledger.skipped_cycles,
            host_wall_seconds: wall,
            cycles_per_second: if wall == 0.0 {
                0.0
            } else {
                total_cycles as f64 / wall
            },
        }
    }

    /// Whether a dispatch round now could place a job or charge an
    /// alloc stall: work is queued, some worker is dispatchable, and
    /// the policy has not already passed on this dispatch epoch. A
    /// recorded stall does not stop dispatch; it lets a leap run it
    /// (see [`Farm::idle_horizon`]).
    fn may_dispatch(&self) -> bool {
        !self.queue.is_empty()
            && self.workers.iter().any(Worker::is_dispatchable)
            && !self.idle_epoch.passes(&self.queue, &self.workers)
    }

    /// One scheduling round: asks the policy for assignments until it
    /// passes or shared memory runs out.
    ///
    /// Runs every tick but is event-driven: a pass is remembered
    /// against the dispatch epoch ([`IdleEpoch`]), and until the queue
    /// membership, a worker's availability or a loaded configuration
    /// changes the round returns before building any policy view. An
    /// alloc stall is a pick, not a pass: the next tick retries (and
    /// counts another stall). It is recorded as the epoch's stall, with
    /// the free list and the pick's failed lease shape, so that a leap
    /// can retry it each cycle without a tick (see
    /// [`Farm::idle_horizon`]). `picked` is a first pick the policy
    /// already made for this cycle, in a leap that ended in front of it.
    fn dispatch(&mut self, mut picked: Option<Assignment>) {
        if !self.may_dispatch() {
            debug_assert!(picked.is_none(), "a pick carried past its epoch");
            return;
        }
        let now = self.now();
        loop {
            let views = worker_views(&self.workers);
            let pick = picked
                .take()
                .or_else(|| self.policy.pick(now, &self.queue, &views));
            let Some(pick) = pick else {
                self.idle_epoch.record_pass(&self.queue, &self.workers);
                break;
            };
            let worker = &self.workers[pick.worker_index];
            assert!(
                worker.is_dispatchable(),
                "policy {} assigned a job to unavailable worker {}",
                self.policy.name(),
                pick.worker_index
            );
            let job = self.queue.get(pick.job).unwrap_or_else(|| {
                panic!(
                    "policy {} named a job that is not queued",
                    self.policy.name()
                )
            });
            assert!(
                job.allows_worker(pick.worker_index),
                "policy {} put a retry back on the worker that faulted it",
                self.policy.name()
            );
            let job_kind = job.kind;
            let target = worker
                .caps()
                .iter()
                .position(|&k| k == job_kind)
                .unwrap_or_else(|| {
                    panic!(
                        "policy {} sent a {job_kind} job to incapable worker {}",
                        self.policy.name(),
                        pick.worker_index
                    )
                });
            let input_words = job.input_words;
            let rcfg = (target != worker.loaded_config()).then_some(target);
            let program: Cow<'_, [u32]> = match &job.microcode {
                Some(custom) => Cow::Owned(adapt_custom_program(custom, rcfg).to_words()),
                None => Cow::Borrowed(
                    self.programs
                        .entry((job_kind, input_words, rcfg))
                        .or_insert_with(|| build_program(job_kind, input_words, rcfg).to_words()),
                ),
            };
            let shape = [
                u32::try_from(program.len()).expect("at most 1024 instructions"),
                input_words,
                job_kind.output_words(input_words),
            ];
            let Some(regions) = lease_regions(&mut self.alloc, shape) else {
                // Memory pressure: leave the job queued; retry next cycle.
                self.ledger.alloc_stalls += 1;
                self.idle_epoch
                    .record_stall(&self.queue, &self.workers, &self.alloc, pick, shape);
                break;
            };
            let job = self.queue.take(pick.job);
            let worker = &mut self.workers[pick.worker_index];
            worker.launch(&mut self.bus, now, job, &program, target, regions);
            // Arm (or disarm) the hang watchdog for this job. The budget
            // must absorb a worst-case DPR bitstream load — `rcfg` is a
            // legitimate progress-free window the watchdog cannot see
            // inside.
            match self.config.liveness.default_cycles_budget {
                Some(budget) => worker.ocp.arm_watchdog(budget),
                None => worker.ocp.disarm_watchdog(),
            }
        }
    }

    /// The enriched out-of-fuel error: per-worker health plus the
    /// longest-parked job, so the caller can tell "needed more fuel"
    /// from "the pool is dead".
    fn stalled_error(&self, cycles: u64) -> FarmError {
        FarmError::Stalled {
            cycles,
            queued: self.queue.len() + self.parked.len(),
            in_flight: self.in_flight(),
            workers: self
                .workers
                .iter()
                .map(|w| WorkerSnapshot {
                    name: w.name().to_string(),
                    health: w.health(),
                    busy: !w.is_idle(),
                    wedged: w.is_wedged(),
                })
                .collect(),
            oldest_parked: self
                .parked
                .iter()
                .min_by_key(|p| p.ready_at)
                .map(|p| (p.job.id, p.ready_at)),
        }
    }

    /// Returns a job's three shared-memory leases to the allocator.
    fn free_leases(&mut self, regions: JobRegions) {
        for region in [regions.prog, regions.input, regions.output] {
            self.alloc.free(region).expect("regions leased at dispatch");
        }
    }

    /// Whether any job is queued, parked for retry or in flight.
    fn work_pending(&self) -> bool {
        !self.queue.is_empty()
            || !self.parked.is_empty()
            || self.workers.iter().any(|w| !w.is_idle())
    }

    /// Harvests finished jobs: reads back outputs, frees regions and
    /// finishes the jobs.
    fn collect_completions(&mut self) {
        let now = self.now();
        for wi in 0..self.workers.len() {
            if !self.workers[wi].ocp.poll_completion() {
                continue;
            }
            let done = self.workers[wi]
                .take_job(now)
                .expect("completion event implies an active job");
            let mut output = Vec::with_capacity(done.output_words as usize);
            self.bus
                .debug_read_words(
                    done.regions.output.base(),
                    done.output_words as usize,
                    &mut output,
                )
                .expect("output region is mapped SRAM");
            let contention_now = self
                .bus
                .master_stats(self.workers[wi].ocp.bus_master())
                .contention_cycles;
            self.free_leases(done.regions);
            let outcome = JobOutcome::Completed {
                attempts: done.job.attempts + 1,
            };
            let served = Served {
                swapped: done.swapped,
                contention_cycles: contention_now - done.contention_at_start,
                output,
            };
            self.finish(done.job, wi, done.started_at, outcome, Some(served));
        }
    }

    /// Absorbs every newly faulted worker: classify, free the dead
    /// job's leases (the pre-fault-tolerance code leaked them on
    /// abort), punish the breaker, start recovery, and park the job
    /// for retry or fail it permanently.
    fn handle_faults(&mut self) {
        let now = self.now();
        for wi in 0..self.workers.len() {
            let Some(kind) = self.workers[wi].unabsorbed_fault() else {
                // No fault, or one still draining that was absorbed.
                continue;
            };
            if matches!(kind, WorkerFaultKind::Hang { .. }) {
                // The watchdog bit: the abort it forces (drain, reset,
                // breaker, retry) is the crash path below — only the
                // ledger differs.
                self.ledger.hangs_detected += 1;
                self.ledger.aborts += 1;
            }
            let dead_job = self.workers[wi].take_job(now).map(|done| {
                // The leak fix: a dead job's leases go back to the
                // allocator the moment the fault is absorbed, exactly
                // as a completion would return them.
                self.free_leases(done.regions);
                done.job
            });
            let tripped = self.workers[wi].absorb_fault(now, &self.config.faults);
            if self.config.faults.fail_fast {
                if let Some(mut job) = dead_job {
                    job.attempts += 1;
                    self.fail_job(job, wi, now, FailReason::Fault(kind.clone()));
                }
                // First fault wins; later ones this tick are dropped on
                // the floor of an already-aborting run.
                self.fault_abort.get_or_insert((wi, kind));
                continue;
            }

            if tripped && self.workers[wi].is_permanently_dead() {
                self.reap_hopeless_jobs(now);
            }

            let Some(mut job) = dead_job else {
                // The fault landed between jobs (e.g. injected right at
                // a completion edge): health bookkeeping only.
                continue;
            };
            job.attempts += 1;
            if job.attempts >= self.config.faults.max_attempts {
                self.fail_job(job, wi, now, FailReason::Fault(kind));
            } else if !serviceable(&self.workers, job.kind, None) {
                self.fail_job(job, wi, now, FailReason::NoServiceableWorker);
            } else {
                // Prefer a different worker; if this one is the only
                // survivor, allow it again (better a same-worker retry
                // than a lost job).
                job.avoid_worker = serviceable(&self.workers, job.kind, Some(wi)).then_some(wi);
                let ready_at = now + self.config.faults.retry_backoff * u64::from(job.attempts);
                self.parked.push(ParkedJob { job, ready_at });
                self.ledger.retries += 1;
            }
        }
    }

    /// Moves parked jobs whose backoff expired back into the queue
    /// (re-checking serviceability: the pool may have shrunk while
    /// they waited).
    fn unpark_ready(&mut self, now: u64) {
        let ready: Vec<ParkedJob> = self.parked.extract_if(.., |p| p.ready_at <= now).collect();
        for ParkedJob { mut job, .. } in ready {
            if !serviceable(&self.workers, job.kind, None) {
                let last_worker = job.avoid_worker.unwrap_or(0);
                self.fail_job(job, last_worker, now, FailReason::NoServiceableWorker);
                continue;
            }
            job.avoid_worker = job
                .avoid_worker
                .filter(|&avoid| serviceable(&self.workers, job.kind, Some(avoid)));
            self.queue.requeue(job);
        }
    }

    /// Deadline enforcement, run each tick before dispatch when
    /// [`LivenessConfig::early_drop`] is on:
    ///
    /// * queued and parked jobs that can no longer meet their deadline
    ///   (even dispatched right now, by the kind's core-latency
    ///   estimate) are dropped as [`JobOutcome::DeadlineMissed`]
    ///   before they waste a worker;
    /// * in-flight jobs already past their deadline are host-aborted:
    ///   the worker drains its DMA, resets, and goes straight back
    ///   into service — a deadline abort is not a worker fault, so
    ///   the circuit breaker is untouched.
    fn sweep_liveness(&mut self, now: u64) {
        if !self.config.liveness.early_drop {
            return;
        }
        // The queue indexes its earliest hopeless threshold, so the
        // O(queue) reap only runs on ticks where it removes something.
        if self.queue.earliest_hopeless().is_some_and(|t| now > t) {
            for job in self.queue.reap(|job| deadline_hopeless(job, now)) {
                self.drop_deadline_missed(job, 0, now);
            }
        }
        let hopeless: Vec<ParkedJob> = self
            .parked
            .extract_if(.., |p| deadline_hopeless(&p.job, now))
            .collect();
        for ParkedJob { job, .. } in hopeless {
            let worker = job.avoid_worker.unwrap_or(0);
            self.drop_deadline_missed(job, worker, now);
        }
        for wi in 0..self.workers.len() {
            let overdue = self.workers[wi]
                .active()
                .and_then(|a| a.job.deadline)
                .is_some_and(|d| now > d);
            if !overdue || self.workers[wi].ocp.fault().is_some() {
                // A faulted worker's job is the fault path's to settle.
                continue;
            }
            let Some(done) = self.workers[wi].abort_active(&mut self.bus, now) else {
                continue;
            };
            self.ledger.aborts += 1;
            self.free_leases(done.regions);
            let mut job = done.job;
            job.attempts += 1;
            self.drop_deadline_missed(job, wi, done.started_at);
        }
    }

    /// Records a deadline miss: the job was dropped or aborted, never
    /// finished.
    fn drop_deadline_missed(&mut self, job: PendingJob, worker: usize, started_at: u64) {
        let outcome = JobOutcome::DeadlineMissed {
            attempts: job.attempts,
        };
        self.finish(job, worker, started_at, outcome, None);
    }

    /// Fails every queued and parked job whose kind lost its last
    /// live worker — recorded, not stranded.
    fn reap_hopeless_jobs(&mut self, now: u64) {
        let workers = &self.workers;
        let dead = self.queue.reap(|job| !serviceable(workers, job.kind, None));
        let stranded: Vec<ParkedJob> = self
            .parked
            .extract_if(.., |p| !serviceable(workers, p.job.kind, None))
            .collect();
        for job in dead {
            self.fail_job(job, 0, now, FailReason::NoServiceableWorker);
        }
        for ParkedJob { job, .. } in stranded {
            let last_worker = job.avoid_worker.unwrap_or(0);
            self.fail_job(job, last_worker, now, FailReason::NoServiceableWorker);
        }
    }

    /// Records a permanent failure (zero service time — a faulted
    /// worker's output is never trusted).
    fn fail_job(&mut self, job: PendingJob, worker: usize, now: u64, reason: FailReason) {
        let outcome = JobOutcome::FailedPermanent {
            attempts: job.attempts,
            reason,
        };
        self.finish(job, worker, now, outcome, None);
    }

    /// The one place a job ends: builds its record, finished now, and
    /// enters the outcome in the ledger. `served` carries what a
    /// completed run leaves behind; every other outcome has no output.
    fn finish(
        &mut self,
        job: PendingJob,
        worker: usize,
        started_at: u64,
        outcome: JobOutcome,
        served: Option<Served>,
    ) {
        let Served {
            swapped,
            contention_cycles,
            output,
        } = served.unwrap_or_default();
        let record = JobRecord {
            id: job.id,
            kind: job.kind,
            worker,
            outcome,
            submitted_at: job.submitted_at,
            started_at,
            completed_at: self.now(),
            swapped,
            contention_cycles,
            deadline: job.deadline,
            output,
        };
        self.ledger.finish(&record);
        self.completed.push(record);
    }
}

/// Whether a worker of `workers` other than `except` that is not
/// permanently dead can serve `kind` (quarantined-with-cooldown workers
/// count: they will be back).
fn serviceable(workers: &[Worker], kind: JobKind, except: Option<usize>) -> bool {
    workers
        .iter()
        .enumerate()
        .any(|(i, w)| Some(i) != except && !w.is_permanently_dead() && w.caps().contains(&kind))
}

/// Every worker as its policy sees it.
fn worker_views(workers: &[Worker]) -> Vec<WorkerView<'_>> {
    workers
        .iter()
        .enumerate()
        .map(|(i, w)| WorkerView {
            index: i,
            // "Idle" to a policy means *can take a job now*:
            // recovering and quarantined workers are busy.
            idle: w.is_dispatchable(),
            caps: w.caps(),
            loaded: w.loaded_config(),
            swap_costs: w.swap_cycles(),
        })
        .collect()
}

/// Leases the three regions of one job of `shape` from `alloc`,
/// unwinding on partial failure.
fn lease_regions(alloc: &mut BankAllocator, shape: LeaseShape) -> Option<JobRegions> {
    let [prog, input, output] = shape;
    let prog = alloc.alloc(prog).ok()?;
    let input = match alloc.alloc(input) {
        Ok(r) => r,
        Err(AllocError::OutOfMemory { .. }) => {
            alloc.free(prog).expect("just leased");
            return None;
        }
        Err(e) => unreachable!("validated request: {e}"),
    };
    let output = match alloc.alloc(output) {
        Ok(r) => r,
        Err(AllocError::OutOfMemory { .. }) => {
            alloc.free(prog).expect("just leased");
            alloc.free(input).expect("just leased");
            return None;
        }
        Err(e) => unreachable!("validated request: {e}"),
    };
    Some(JobRegions {
        prog,
        input,
        output,
    })
}

/// Whether `job` can no longer meet its deadline even if dispatched
/// this very tick — by the kind's (optimistic, core-latency-only)
/// service estimate. Optimism is deliberate: a hopeful job is given
/// the benefit of the doubt and only dropped once the math is
/// unarguable.
fn deadline_hopeless(job: &PendingJob, now: u64) -> bool {
    job.hopeless_after().is_some_and(|t| now > t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, Injection};
    use crate::policy::FifoPolicy;
    use ouessant_isa::assemble;
    use ouessant_sim::XorShift64;

    const COPY3: JobKind = JobKind::Copy { scale: 3 };

    /// Two copy workers and an IDCT worker serving a copy whose first
    /// transfer waits `wait` cycles, a built-in copy and an IDCT job.
    fn skewed_pool(wait: u16, chaos: Option<ChaosConfig>) -> Farm {
        let mut farm = Farm::new(FarmConfig::default(), Box::new(FifoPolicy::new()));
        farm.add_worker(COPY3);
        farm.add_worker(COPY3);
        farm.add_worker(JobKind::Idct);
        if let Some(config) = chaos {
            farm.arm_chaos(FaultPlan::new(config));
        }
        let mut rng = XorShift64::new(u64::from(wait) + 1);
        let mut words = |n: usize| rng.vec_u32(n).iter().map(|w| w % 2048).collect();
        let delayed = assemble(&format!(
            "wait {wait}\nmvtc BANK1,0,DMA16,FIFO0\nmvtc BANK1,16,DMA16,FIFO0\nexecs 32\n\
             mvfc BANK2,0,DMA16,FIFO0\nmvfc BANK2,16,DMA16,FIFO0\neop"
        ))
        .expect("valid microcode");
        for spec in [
            JobSpec::new(COPY3, words(32)).with_microcode(delayed),
            JobSpec::new(COPY3, words(32)),
            JobSpec::new(JobKind::Idct, words(64)),
        ] {
            farm.submit(spec).expect("admitted");
        }
        farm
    }

    /// The window issues each worker could make, first-tick only unless
    /// `chain`.
    fn candidates(farm: &Farm, chain: bool) -> Vec<(usize, u64)> {
        farm.workers
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.window_issue(&farm.bus, chain).map(|(c, _)| (i, c.prefix)))
            .collect()
    }

    #[test]
    fn at_most_one_transfer_issues_per_window() {
        let (mut ties, mut bounded) = (0, 0);
        for wait in 0..48 {
            let mut farm = skewed_pool(wait, None);
            while farm.in_flight() > 0 || farm.queue_len() > 0 {
                let first_tick = candidates(&farm, false);
                let (h, window, _) = farm.idle_horizon();
                if first_tick.len() >= 2 {
                    // Two first-tick issuers: neither issues, so the
                    // window is the one tick that issues both.
                    assert_eq!((h, window.issuer()), (Horizon::NEXT_TICK, None));
                    ties += 1;
                } else if let [(issuer, 0)] = first_tick[..] {
                    let chains = candidates(&farm, true);
                    for &(other, prefix) in chains.iter().filter(|c| c.0 != issuer) {
                        // The issue is the first tick's; a worker that
                        // gets to its own `Execute` later ends the
                        // window in front of it.
                        let issuer = farm.workers[issuer].ocp.bus_master();
                        assert_eq!(window.issuer(), Some(issuer));
                        assert!(h.ticks().is_some_and(|h| h <= prefix + 1), "{other}: {h:?}");
                        bounded += 1;
                    }
                }
                farm.tick();
            }
        }
        assert!(
            ties > 0,
            "no two workers reached a transfer's Execute together"
        );
        assert!(bounded > 0, "no second issuer bounded a window");
    }

    #[test]
    fn with_chaos_armed_only_first_tick_issues_leap_and_roll_the_burst_dice() {
        // Armed, but with dice that never roll: only the plan's rules
        // are under test here.
        let quiet = ChaosConfig {
            controller_one_in: 0,
            bus_one_in: 0,
            bitstream_one_in: 0,
            alloc_one_in: 0,
            wedge_one_in: 0,
            slow_one_in: 0,
            ..ChaosConfig::new(1)
        };
        let certain = ChaosConfig {
            controller_one_in: 1,
            bus_one_in: 1,
            wedge_one_in: 1,
            slow_one_in: 1,
            slow_stall: 1,
            ..quiet.clone()
        };
        let mut issues = 0;
        let mut farm = skewed_pool(0, Some(quiet));
        while farm.in_flight() > 0 || farm.queue_len() > 0 {
            let (_, window, _) = farm.idle_horizon();
            let issue = window.issuer().and_then(|m| window.issue_of(m));
            assert_eq!(
                issue.map_or(0, |i| i.prefix),
                0,
                "a chained issue under chaos"
            );
            if let Some(issuer) = window.issuer() {
                issues += 1;
                let w = farm
                    .workers
                    .iter()
                    .position(|w| w.ocp.bus_master() == issuer)
                    .expect("the issuer is a worker");
                // Every armed die hits at once: the issuer rolls its
                // burst's bus and wedge dice, not `Execute`'s.
                let roll = |issuer| {
                    let mut out = Vec::new();
                    let now = farm.now();
                    FaultPlan::new(certain.clone()).fast_forward(
                        now..now + 1,
                        &farm.workers,
                        &farm.bus,
                        issuer,
                        &mut BankAllocator::new(0, 1024),
                        false,
                        &mut out,
                        |_, _| true,
                    );
                    out.into_iter()
                        .filter(|inj| match *inj {
                            Injection::Bus { worker }
                            | Injection::Controller { worker }
                            | Injection::Wedge { worker } => worker == w,
                            _ => false,
                        })
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    roll(Some(issuer)),
                    [Injection::Bus { worker: w }, Injection::Wedge { worker: w }]
                );
                assert_eq!(roll(None), [Injection::Controller { worker: w }]);
            }
            farm.tick();
        }
        assert!(issues > 0, "no window issued a transfer");
    }
}
