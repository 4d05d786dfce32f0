//! Pluggable scheduling policies.
//!
//! A policy sees the [`SubmitQueue`] and a snapshot of every worker, and
//! names one `(job, worker)` pairing at a time; the farm calls
//! [`SchedPolicy::pick`] repeatedly until the policy passes. A pass is
//! remembered: the farm does not ask again until the queue's
//! membership, a worker's availability or a loaded DPR configuration
//! changes (see the contract on [`SchedPolicy::pick`]).
//!
//! The queue keeps one lane per job kind, in queue order (priority
//! class, then insertion), and answers per kind:
//! [`SubmitQueue::first_for`] gives the oldest job of some kinds that a
//! worker may take, and [`SubmitQueue::first_runnable`] the oldest job
//! that some idle worker can take. A pick costs the workers times the
//! kinds they serve, plus the retries it skips that avoid a worker, not
//! the queue's depth (only [`DprAffinityPolicy`]'s patience pass walks
//! the lanes, and only while some job is over patience). An
//! [`Assignment`] names its job by [`PendingJob::key`]. Three policies
//! ship with the crate:
//!
//! * [`FifoPolicy`] — serve in queue order on the first capable idle
//!   worker;
//! * [`RoundRobinPolicy`] — rotate across workers to spread load;
//! * [`DprAffinityPolicy`] — batch jobs onto workers whose loaded DPR
//!   configuration already matches, amortizing bitstream-swap cost,
//!   with a patience bound so no kind starves.
//!
//! All policies honor [`PendingJob::allows_worker`]: a retried job is
//! never placed back on the worker whose fault bounced it (unless that
//! worker is the only one left, in which case the farm clears the
//! constraint before requeueing).

use crate::job::JobKind;
use crate::queue::{PendingJob, QueueKey, SubmitQueue};

/// A scheduler's snapshot of one worker.
#[derive(Debug, Clone, Copy)]
pub struct WorkerView<'a> {
    /// The worker's pool index.
    pub index: usize,
    /// Whether the worker can accept a job this cycle.
    pub idle: bool,
    /// The kinds this worker can serve; index `i` is DPR configuration
    /// `i` (a fixed-function worker has exactly one entry).
    pub caps: &'a [JobKind],
    /// The capability index currently loaded in the fabric.
    pub loaded: usize,
    /// The full bitstream load of capability `i`, in cycles. What
    /// serving a kind costs is [`WorkerView::swap_cost_for`]: nothing
    /// when it is loaded, this load otherwise.
    pub swap_costs: &'a [u64],
}

impl WorkerView<'_> {
    /// The capability index serving `kind`, if any.
    #[must_use]
    pub fn supports(&self, kind: JobKind) -> Option<usize> {
        self.caps.iter().position(|&c| c == kind)
    }

    /// The swap cost this worker would pay to serve `kind` (`None` if
    /// it cannot).
    #[must_use]
    pub fn swap_cost_for(&self, kind: JobKind) -> Option<u64> {
        let idx = self.supports(kind)?;
        Some(if idx == self.loaded {
            0
        } else {
            self.swap_costs[idx]
        })
    }

    /// The kind the loaded configuration serves.
    #[must_use]
    pub fn loaded_kind(&self) -> JobKind {
        self.caps[self.loaded]
    }
}

/// One scheduling decision: run the queued job `job` on worker
/// `worker_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The job, by the [`PendingJob::key`] it has in the queue shown to
    /// the policy.
    pub job: QueueKey,
    /// Index into the worker pool.
    pub worker_index: usize,
}

/// A scheduling policy.
///
/// Implementations must be deterministic: the farm is a cycle-level
/// simulation and every run must replay identically.
pub trait SchedPolicy {
    /// The policy's display name (reports, traces).
    fn name(&self) -> &str;

    /// Names one dispatch, or `None` to pass this cycle.
    ///
    /// The policy sees the queue through its per-kind queries
    /// ([`SubmitQueue::first_for`], [`SubmitQueue::first_runnable`],
    /// [`SubmitQueue::oldest_submission`]) and every worker through a
    /// [`WorkerView`]. The [`Assignment`] it returns names a queued job
    /// by its [`PendingJob::key`] and a worker by its pool index.
    ///
    /// Called repeatedly within a cycle: after each accepted
    /// assignment the farm re-invokes `pick` with the dispatched job
    /// removed and the chosen worker busy, so policies never see stale
    /// state.
    ///
    /// # Contract
    ///
    /// `None` must mean exactly "no pair of an `idle` worker and a
    /// queued job exists such that the job
    /// [allows](PendingJob::allows_worker) the worker and the worker
    /// [supports](WorkerView::supports) its kind". Whether a pick
    /// exists may therefore depend only on `queue` and `workers` —
    /// never on `now`, on swap costs or on the policy's own state.
    /// Those may only steer *which* pair is picked (as
    /// [`DprAffinityPolicy`]'s patience does). The farm relies on this:
    /// after a pass it skips dispatch, and lets fast-forward leap, until
    /// the queue membership, a worker's `idle` flag or a loaded
    /// configuration changes.
    fn pick(
        &mut self,
        now: u64,
        queue: &SubmitQueue,
        workers: &[WorkerView<'_>],
    ) -> Option<Assignment>;
}

/// Serve in strict queue order: the oldest job that has *some* idle
/// capable worker runs first (a job whose kind has no idle worker is
/// skipped, so heterogeneous pools don't head-of-line block).
#[derive(Debug, Default)]
pub struct FifoPolicy;

impl FifoPolicy {
    /// A FIFO policy.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl SchedPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "fifo"
    }

    fn pick(
        &mut self,
        _now: u64,
        queue: &SubmitQueue,
        workers: &[WorkerView<'_>],
    ) -> Option<Assignment> {
        let job = queue.first_runnable(workers, |_| true)?;
        let w = workers
            .iter()
            .find(|w| w.idle && job.allows_worker(w.index) && w.supports(job.kind).is_some())
            .expect("a runnable job has a worker");
        Some(Assignment {
            job: job.key(),
            worker_index: w.index,
        })
    }
}

/// Rotate across workers: each idle worker in turn takes the oldest job
/// it can serve. Spreads a homogeneous load evenly over the pool.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl RoundRobinPolicy {
    /// A round-robin policy starting at worker 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedPolicy for RoundRobinPolicy {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn pick(
        &mut self,
        _now: u64,
        queue: &SubmitQueue,
        workers: &[WorkerView<'_>],
    ) -> Option<Assignment> {
        if workers.is_empty() {
            return None;
        }
        for off in 0..workers.len() {
            let w = &workers[(self.cursor + off) % workers.len()];
            if !w.idle {
                continue;
            }
            if let Some(job) = queue.first_for(w.caps, w.index) {
                self.cursor = (w.index + 1) % workers.len();
                return Some(Assignment {
                    job: job.key(),
                    worker_index: w.index,
                });
            }
        }
        None
    }
}

/// DPR-aware batching: a worker preferentially serves jobs matching the
/// configuration already loaded in its fabric, swapping only when no
/// same-kind work remains — so a run of same-kind jobs pays one
/// bitstream load instead of one per job.
///
/// Starvation guard: a job older than `patience` cycles is served at
/// the next opportunity even if that forces a swap, so a continuous
/// stream of one kind cannot starve the others indefinitely. Patience
/// only reorders: whenever any runnable pair exists, the last resort
/// (swap for the oldest runnable job) finds one, so the policy passes
/// on exactly the states the other policies pass on.
#[derive(Debug)]
pub struct DprAffinityPolicy {
    patience: u64,
}

impl DprAffinityPolicy {
    /// Affinity scheduling with the default patience (8192 cycles —
    /// a few bitstream loads at the paper's ICAP rate).
    #[must_use]
    pub fn new() -> Self {
        Self { patience: 8192 }
    }

    /// Affinity scheduling that force-serves any job older than
    /// `patience` cycles.
    #[must_use]
    pub fn with_patience(patience: u64) -> Self {
        Self { patience }
    }

    /// Whether a job submitted at `submitted_at` is over patience.
    fn overdue(&self, now: u64, submitted_at: u64) -> bool {
        now.saturating_sub(submitted_at) > self.patience
    }
}

impl Default for DprAffinityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// `job` on the idle worker allowed to take it that pays the cheapest
/// load, the lowest index among equals.
fn cheapest(job: &PendingJob, workers: &[WorkerView<'_>]) -> Assignment {
    let (_, worker_index) = workers
        .iter()
        .filter(|w| w.idle && job.allows_worker(w.index))
        .filter_map(|w| w.swap_cost_for(job.kind).map(|c| (c, w.index)))
        .min()
        .expect("a runnable job has a worker");
    Assignment {
        job: job.key(),
        worker_index,
    }
}

impl SchedPolicy for DprAffinityPolicy {
    fn name(&self) -> &str {
        "dpr-affinity"
    }

    fn pick(
        &mut self,
        now: u64,
        queue: &SubmitQueue,
        workers: &[WorkerView<'_>],
    ) -> Option<Assignment> {
        // 1. Starvation guard: the oldest over-patience job runs now,
        //    on the cheapest idle worker that can take it. The lanes
        //    are walked for it only when some job is over patience.
        if queue
            .oldest_submission()
            .is_some_and(|t| self.overdue(now, t))
        {
            if let Some(job) =
                queue.first_runnable(workers, |job| self.overdue(now, job.submitted_at))
            {
                return Some(cheapest(job, workers));
            }
        }
        // 2. Affinity: an idle worker takes the oldest job matching its
        //    loaded configuration (zero swap).
        for w in workers.iter().filter(|w| w.idle) {
            if let Some(job) = queue.first_for(&[w.loaded_kind()], w.index) {
                return Some(Assignment {
                    job: job.key(),
                    worker_index: w.index,
                });
            }
        }
        // 3. No affine work anywhere: swap for the oldest runnable job,
        //    paying the cheapest load available.
        let job = queue.first_runnable(workers, |_| true)?;
        Some(cheapest(job, workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobSpec};

    const IDCT: JobKind = JobKind::Idct;
    const DFT: JobKind = JobKind::Dft { points: 64 };

    /// The linear picks the lane queries replaced, each a walk of the
    /// whole queue in order: the reference the policies are checked
    /// against.
    mod oracle {
        use super::super::{Assignment, WorkerView};
        use crate::queue::PendingJob;

        fn runnable_on(job: &PendingJob, w: &WorkerView<'_>) -> bool {
            w.idle && job.allows_worker(w.index) && w.supports(job.kind).is_some()
        }

        fn cheapest(job: &PendingJob, workers: &[WorkerView<'_>]) -> Option<Assignment> {
            let (_, worker_index) = workers
                .iter()
                .filter(|w| w.idle && job.allows_worker(w.index))
                .filter_map(|w| w.swap_cost_for(job.kind).map(|c| (c, w.index)))
                .min()?;
            Some(Assignment {
                job: job.key(),
                worker_index,
            })
        }

        pub(super) fn fifo(
            queue: &[&PendingJob],
            workers: &[WorkerView<'_>],
        ) -> Option<Assignment> {
            queue.iter().find_map(|job| {
                let w = workers.iter().find(|w| runnable_on(job, w))?;
                Some(Assignment {
                    job: job.key(),
                    worker_index: w.index,
                })
            })
        }

        pub(super) fn round_robin(
            cursor: &mut usize,
            queue: &[&PendingJob],
            workers: &[WorkerView<'_>],
        ) -> Option<Assignment> {
            for off in 0..workers.len() {
                let w = &workers[(*cursor + off) % workers.len()];
                if !w.idle {
                    continue;
                }
                if let Some(job) = queue.iter().find(|job| runnable_on(job, w)) {
                    *cursor = (w.index + 1) % workers.len();
                    return Some(Assignment {
                        job: job.key(),
                        worker_index: w.index,
                    });
                }
            }
            None
        }

        pub(super) fn dpr_affinity(
            patience: u64,
            now: u64,
            queue: &[&PendingJob],
            workers: &[WorkerView<'_>],
        ) -> Option<Assignment> {
            let overdue = queue
                .iter()
                .filter(|job| now.saturating_sub(job.submitted_at) > patience);
            if let Some(pick) = overdue.into_iter().find_map(|job| cheapest(job, workers)) {
                return Some(pick);
            }
            for w in workers.iter().filter(|w| w.idle) {
                if let Some(job) = queue
                    .iter()
                    .find(|job| job.allows_worker(w.index) && job.kind == w.loaded_kind())
                {
                    return Some(Assignment {
                        job: job.key(),
                        worker_index: w.index,
                    });
                }
            }
            queue.iter().find_map(|job| cheapest(job, workers))
        }
    }

    /// Admits a job of `kind` with `priority` at cycle `at`.
    fn submit(queue: &mut SubmitQueue, id: u64, kind: JobKind, at: u64, priority: u8) {
        let words = kind.required_input_words().unwrap_or(8) as usize;
        let spec = JobSpec::new(kind, vec![0; words]).with_priority(priority);
        // Refusals (a full queue, shedding) are part of the draw.
        let _ = queue.submit(JobId(id), spec, at, 4096, true);
    }

    /// A queue of `(kind, submitted_at)` jobs, ids in order.
    fn queue_of(jobs: &[(JobKind, u64)]) -> SubmitQueue {
        let mut queue = SubmitQueue::new(16);
        for (id, &(kind, at)) in (0..).zip(jobs) {
            submit(&mut queue, id, kind, at, 0);
        }
        queue
    }

    /// The id of the job `pick` names.
    fn picked_id(queue: &SubmitQueue, pick: Assignment) -> u64 {
        queue.get(pick.job).expect("a queued job").id.0
    }

    #[test]
    fn fifo_respects_arrival_order_and_capability() {
        let queue = queue_of(&[(DFT, 0), (IDCT, 1)]);
        let idct_caps = [IDCT];
        let costs = [0u64];
        // Only an IDCT worker is idle: the DFT head is skipped.
        let workers = [WorkerView {
            index: 0,
            idle: true,
            caps: &idct_caps,
            loaded: 0,
            swap_costs: &costs,
        }];
        let pick = FifoPolicy::new().pick(2, &queue, &workers).unwrap();
        assert_eq!(picked_id(&queue, pick), 1);
        assert_eq!(pick.worker_index, 0);
    }

    #[test]
    fn round_robin_rotates_workers() {
        let queue = queue_of(&[(IDCT, 0), (IDCT, 0)]);
        let caps = [IDCT];
        let costs = [0u64];
        let workers: Vec<WorkerView<'_>> = (0..2)
            .map(|i| WorkerView {
                index: i,
                idle: true,
                caps: &caps,
                loaded: 0,
                swap_costs: &costs,
            })
            .collect();
        let mut rr = RoundRobinPolicy::new();
        let first = rr.pick(0, &queue, &workers).unwrap();
        let second = rr.pick(0, &queue, &workers).unwrap();
        assert_eq!(first.worker_index, 0);
        assert_eq!(second.worker_index, 1, "cursor advanced");
    }

    #[test]
    fn affinity_prefers_loaded_kind_over_older_job() {
        let queue = queue_of(&[(DFT, 0), (IDCT, 5)]);
        let caps = [IDCT, DFT];
        let costs = [10_000u64, 10_000];
        let workers = [WorkerView {
            index: 0,
            idle: true,
            caps: &caps,
            loaded: 0, // IDCT loaded
            swap_costs: &costs,
        }];
        let pick = DprAffinityPolicy::new().pick(10, &queue, &workers).unwrap();
        assert_eq!(
            picked_id(&queue, pick),
            1,
            "newer IDCT batched before older DFT"
        );
    }

    #[test]
    fn affinity_swaps_when_no_affine_work_left() {
        let queue = queue_of(&[(DFT, 0)]);
        let caps = [IDCT, DFT];
        let costs = [10_000u64, 10_000];
        let workers = [WorkerView {
            index: 0,
            idle: true,
            caps: &caps,
            loaded: 0,
            swap_costs: &costs,
        }];
        let pick = DprAffinityPolicy::new().pick(10, &queue, &workers).unwrap();
        assert_eq!(picked_id(&queue, pick), 0);
    }

    #[test]
    fn policies_honor_avoid_worker() {
        let mut queue = queue_of(&[(IDCT, 0)]);
        let mut bounced = queue.take(queue.in_order()[0].key());
        bounced.avoid_worker = Some(0);
        queue.requeue(bounced);
        let caps = [IDCT];
        let costs = [0u64];
        let workers: Vec<WorkerView<'_>> = (0..2)
            .map(|i| WorkerView {
                index: i,
                idle: true,
                caps: &caps,
                loaded: 0,
                swap_costs: &costs,
            })
            .collect();
        // All three policies must route the retry around worker 0.
        let fifo = FifoPolicy::new().pick(0, &queue, &workers).unwrap();
        assert_eq!(fifo.worker_index, 1);
        let rr = RoundRobinPolicy::new().pick(0, &queue, &workers).unwrap();
        assert_eq!(rr.worker_index, 1);
        let aff = DprAffinityPolicy::new().pick(0, &queue, &workers).unwrap();
        assert_eq!(aff.worker_index, 1);
        // With only the faulted worker available, the job waits.
        assert!(FifoPolicy::new().pick(0, &queue, &workers[..1]).is_none());
    }

    #[test]
    fn affinity_patience_overrides_batching() {
        // An old DFT job plus endless fresh IDCT work: patience forces
        // the DFT through.
        let queue = queue_of(&[(DFT, 0), (IDCT, 990)]);
        let caps = [IDCT, DFT];
        let costs = [10_000u64, 10_000];
        let workers = [WorkerView {
            index: 0,
            idle: true,
            caps: &caps,
            loaded: 0,
            swap_costs: &costs,
        }];
        let pick = DprAffinityPolicy::with_patience(100)
            .pick(1_000, &queue, &workers)
            .unwrap();
        assert_eq!(picked_id(&queue, pick), 0, "over-patience job served first");
    }

    /// The [`SchedPolicy::pick`] contract the farm's dispatch memo
    /// rests on, over seeded random queues and pools: every policy
    /// passes exactly when no (idle, allowed, capable) pair exists,
    /// whatever `now`, its patience or its own state, and every pick it
    /// makes is such a pair. Each pick, and round-robin's cursor, also
    /// equals the linear oracle's. The queues are built through the
    /// queue's own operations: admissions in three priority classes
    /// (some refused or shed by overload), retries that avoid a worker,
    /// reaps and dispatches.
    #[test]
    fn policies_pass_exactly_when_no_runnable_pair_exists() {
        use ouessant_sim::rng::XorShift64;

        const KINDS: [JobKind; 4] = [
            IDCT,
            DFT,
            JobKind::Copy { scale: 3 },
            JobKind::Dft { points: 1024 },
        ];
        let mut rng = XorShift64::new(0x0E55_A417);
        let mut round_robin = RoundRobinPolicy::new();
        let mut oracle_cursor = 0;
        let (mut passes, mut picks, mut shed) = (0, 0, 0);
        for _ in 0..4_000 {
            let n_workers = rng.gen_range_u32(1..6) as usize;
            let pool: Vec<(Vec<JobKind>, Vec<u64>, usize, bool)> = (0..n_workers)
                .map(|_| {
                    let n_caps = rng.gen_range_u32(1..3) as usize;
                    let first = rng.gen_range_u32(0..4) as usize;
                    let caps: Vec<JobKind> = (0..n_caps).map(|c| KINDS[(first + c) % 4]).collect();
                    let costs = caps.iter().map(|_| rng.gen_range_u64(0..20_000)).collect();
                    let loaded = rng.gen_range_u32(0..n_caps as u32) as usize;
                    (caps, costs, loaded, rng.gen_range_u32(0..3) != 0)
                })
                .collect();
            let workers: Vec<WorkerView<'_>> = pool
                .iter()
                .enumerate()
                .map(|(index, (caps, costs, loaded, idle))| WorkerView {
                    index,
                    idle: *idle,
                    caps,
                    loaded: *loaded,
                    swap_costs: costs,
                })
                .collect();
            let capacity = rng.gen_range_u32(1..8);
            let mut queue = SubmitQueue::new(capacity as usize);
            if rng.gen_bool() {
                let watermark = rng.gen_range_u32(0..capacity + 1) as usize;
                queue.set_overload_policy(Some(watermark), rng.gen_range_u32(0..3) as u8);
            }
            for id in 0..u64::from(rng.gen_range_u32(0..12)) {
                let jobs = queue.in_order();
                let key = (!jobs.is_empty())
                    .then(|| jobs[rng.gen_range_u32(0..jobs.len() as u32) as usize].key());
                match (rng.gen_range_u32(0..8), key) {
                    (0 | 1, Some(key)) => {
                        // A worker fault bounces a job back.
                        let mut job = queue.take(key);
                        job.attempts += 1;
                        job.avoid_worker = (rng.gen_range_u32(0..4) != 0)
                            .then(|| rng.gen_range_u32(0..n_workers as u32) as usize);
                        queue.requeue(job);
                    }
                    (2, Some(key)) => {
                        queue.take(key);
                    }
                    (3, Some(_)) => {
                        let (m, r) = (rng.gen_range_u64(2..5), rng.gen_range_u64(0..2));
                        queue.reap(|job| job.id.0 % m == r);
                    }
                    _ => {
                        let kind = KINDS[rng.gen_range_u32(0..4) as usize];
                        let at = rng.gen_range_u64(0..50_000);
                        submit(&mut queue, id, kind, at, rng.gen_range_u32(0..3) as u8);
                    }
                }
            }
            shed += queue.take_shed().len();
            let in_order = queue.in_order();
            let runnable = |a: Assignment| {
                let job = queue.get(a.job).expect("a pick names a queued job");
                let w = &workers[a.worker_index];
                w.idle && job.allows_worker(w.index) && w.supports(job.kind).is_some()
            };
            let exists = in_order.iter().any(|job| {
                workers
                    .iter()
                    .any(|w| w.idle && job.allows_worker(w.index) && w.supports(job.kind).is_some())
            });
            let patience = rng.gen_range_u64(0..20_000);
            for now in [0, rng.gen_range_u64(0..100_000), u64::MAX / 2] {
                let verdicts = [
                    (
                        FifoPolicy::new().pick(now, &queue, &workers),
                        oracle::fifo(&in_order, &workers),
                    ),
                    (
                        round_robin.pick(now, &queue, &workers),
                        oracle::round_robin(&mut oracle_cursor, &in_order, &workers),
                    ),
                    (
                        DprAffinityPolicy::with_patience(patience).pick(now, &queue, &workers),
                        oracle::dpr_affinity(patience, now, &in_order, &workers),
                    ),
                ];
                for (policy, (verdict, want)) in ["fifo", "round-robin", "dpr-affinity"]
                    .into_iter()
                    .zip(verdicts)
                {
                    assert_eq!(
                        verdict.is_some(),
                        exists,
                        "{policy} at now={now}: pick {verdict:?} on queue {in_order:?}"
                    );
                    if let Some(a) = verdict {
                        assert!(runnable(a), "{policy} picked an unrunnable pair {a:?}");
                    }
                    assert_eq!(
                        verdict, want,
                        "{policy} at now={now} differs from the linear pick on queue {in_order:?}"
                    );
                }
                assert_eq!(round_robin.cursor, oracle_cursor, "round-robin's cursor");
            }
            if exists {
                picks += 1;
            } else {
                passes += 1;
            }
        }
        // The generator must cover both verdicts well.
        assert!(
            passes > 500 && picks > 500 && shed > 0,
            "{passes} passes, {picks} picks, {shed} shed"
        );
    }
}
