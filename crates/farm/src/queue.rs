//! The bounded submission queue: admission control and backpressure.
//!
//! The farm front-end accepts jobs into a fixed-capacity queue. A full
//! queue rejects with [`SubmitError::QueueFull`] — the caller's signal
//! to back off — and malformed payloads are rejected *before* they
//! consume a slot, so one bad client cannot poison the pool.

use std::cmp::Reverse;
use std::collections::{BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;

use ouessant_isa::{Instruction, Program};
use ouessant_verify::Analysis;

use crate::job::{JobId, JobKind, JobSpec};
use crate::policy::WorkerView;

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — back off and resubmit later.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The payload length does not match the kind's contract
    /// (e.g. an IDCT job must carry exactly 64 words).
    BadPayload {
        /// The offending kind.
        kind: JobKind,
        /// Words the kind requires.
        expected: u32,
        /// Words actually supplied.
        got: u32,
    },
    /// The payload is empty.
    EmptyPayload,
    /// The payload exceeds what any worker's FIFOs can buffer.
    PayloadTooLarge {
        /// Words supplied.
        got: u32,
        /// The configured ceiling.
        limit: u32,
    },
    /// No worker in the pool can ever serve this kind.
    NoCapableWorker {
        /// The unserviceable kind.
        kind: JobKind,
    },
    /// The job's custom microcode failed static verification.
    ///
    /// Carries the full analysis so the client can see *why*: every
    /// diagnostic names the offending instruction index, a severity and
    /// a fix-it hint.
    RejectedMicrocode {
        /// The analyzer's verdict (at least one error-severity
        /// diagnostic).
        diagnostics: Analysis,
    },
    /// The job's custom microcode leaves no headroom for the `rcfg`
    /// the farm prepends when serving it on a reconfigurable worker.
    MicrocodeTooLong {
        /// Instructions supplied.
        len: usize,
        /// Instructions admissible.
        limit: usize,
    },
    /// The job's custom microcode holds an instruction only the farm
    /// may issue: `rcfg` (the farm owns each worker's DPR slot and
    /// prepends its own) or `halt` (a run must end in the `eop` whose
    /// D bit the farm waits for).
    ReservedInstruction {
        /// Index of the first such instruction.
        index: usize,
        /// The instruction.
        instruction: Instruction,
    },
    /// Overload shedding: the queue is past its load-shedding
    /// watermark and the job's priority class is below the floor, so
    /// admission is refused to keep headroom for important work.
    /// Back off, or resubmit with a higher priority.
    ShedOverload {
        /// Jobs queued at the moment of rejection.
        queued: usize,
        /// The configured shedding watermark.
        watermark: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} jobs)")
            }
            SubmitError::BadPayload {
                kind,
                expected,
                got,
            } => write!(f, "{kind} jobs need exactly {expected} words, got {got}"),
            SubmitError::EmptyPayload => f.write_str("empty payload"),
            SubmitError::PayloadTooLarge { got, limit } => {
                write!(
                    f,
                    "payload of {got} words exceeds the {limit}-word FIFO limit"
                )
            }
            SubmitError::NoCapableWorker { kind } => {
                write!(f, "no worker in the pool can serve {kind} jobs")
            }
            SubmitError::RejectedMicrocode { diagnostics } => write!(
                f,
                "custom microcode rejected by the static analyzer ({} error(s)): {diagnostics}",
                diagnostics.error_count()
            ),
            SubmitError::MicrocodeTooLong { len, limit } => write!(
                f,
                "custom microcode has {len} instructions, more than the {limit} the farm \
                 can place (one slot is reserved for a DPR `rcfg` prepend)"
            ),
            SubmitError::ReservedInstruction { index, instruction } => write!(
                f,
                "custom microcode holds `{instruction}` at instruction {index}; only the farm \
                 issues it"
            ),
            SubmitError::ShedOverload { queued, watermark } => write!(
                f,
                "overloaded: {queued} jobs queued (shedding watermark {watermark}), \
                 low-priority admission refused"
            ),
        }
    }
}

impl Error for SubmitError {}

/// A job sitting in the queue, visible to scheduling policies.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// The job's identity.
    pub id: JobId,
    /// The accelerator kind it needs.
    pub kind: JobKind,
    /// Payload length in words.
    pub input_words: u32,
    /// Cycle it was admitted.
    pub submitted_at: u64,
    /// Client-assigned priority (0 = normal).
    pub priority: u8,
    /// Absolute-cycle deadline, if any.
    pub deadline: Option<u64>,
    /// Dispatch attempts already consumed by this job (0 on first
    /// admission; bumped each time a worker fault hands it back).
    pub attempts: u32,
    /// A worker this job must not be placed on again — the one whose
    /// fault bounced it here. `None` once no alternative exists.
    pub avoid_worker: Option<usize>,
    /// The payload itself (consumed at dispatch).
    pub(crate) input: Vec<u32>,
    /// Verified custom microcode, if the client supplied any.
    pub(crate) microcode: Option<Program>,
    /// Place in queue order, set at each insertion.
    order: Order,
}

/// A place in queue order: priority class first (higher first), then
/// insertion sequence. Unique among queued jobs.
type Order = (Reverse<u8>, u64);

impl PendingJob {
    /// Whether the scheduler may place this job on worker `index`.
    #[must_use]
    pub fn allows_worker(&self, index: usize) -> bool {
        self.avoid_worker != Some(index)
    }

    /// This job's name in the queue, for an
    /// [`Assignment`](crate::policy::Assignment). It names the job only
    /// while the job is queued: a requeued job gets a new one.
    #[must_use]
    pub fn key(&self) -> QueueKey {
        QueueKey {
            kind: self.kind,
            order: self.order,
        }
    }

    /// The last cycle at which this job could still meet its deadline
    /// if dispatched, by the kind's (optimistic, core-latency-only)
    /// service estimate; `None` without a deadline. Past it the job is
    /// hopeless.
    #[must_use]
    pub(crate) fn hopeless_after(&self) -> Option<u64> {
        self.deadline
            .map(|d| d.saturating_sub(self.kind.core_latency_estimate()))
    }
}

/// A queued job's name: the lane it waits in (its kind) and its place
/// in queue order. Get one from [`PendingJob::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueKey {
    kind: JobKind,
    order: Order,
}

/// The queued jobs of one kind, sorted by [`Order`].
#[derive(Debug)]
struct Lane {
    kind: JobKind,
    jobs: VecDeque<PendingJob>,
}

impl Lane {
    fn position(&self, order: Order) -> Option<usize> {
        self.jobs.binary_search_by_key(&order, |j| j.order).ok()
    }
}

/// A bounded, priority-ordered queue of admitted jobs.
///
/// Queue order is priority class (higher first), stable by insertion
/// within a class: an all-default-priority workload is a pure FIFO. A
/// requeued retry is inserted anew, behind its class. The queue keeps
/// one *lane* per job kind, each sorted in queue order, so a policy
/// asks per kind instead of walking every job:
/// [`SubmitQueue::first_for`] answers "the oldest job of these kinds
/// this worker may take" from the lane heads, and
/// [`SubmitQueue::first_runnable`] answers "the oldest job some idle
/// worker can take" with one walk of the workers per lane. A policy
/// names its pick by [`PendingJob::key`], which the queue finds by
/// binary search in the job's lane. Lanes are kept once made: admission
/// needs a capable worker, so there are at most as many as the pool
/// has distinct capabilities.
///
/// With an overload policy configured
/// ([`SubmitQueue::set_overload_policy`]) the queue degrades
/// gracefully instead of bouncing everything at capacity: past the
/// watermark, below-floor submissions are refused with
/// [`SubmitError::ShedOverload`], and a *full* queue lets a
/// higher-priority submission evict the youngest lowest-class queued
/// job (never a retry) — the farm drains the evictions and records
/// them.
///
/// Every membership change (admission, requeue, eviction, dispatch,
/// reap) bumps a version number, and the queue indexes its jobs'
/// deadline-drop thresholds and submission cycles, so the farm can tell
/// in O(1) whether anything changed since its last dispatch round and
/// when the next deadline drop is due.
#[derive(Debug)]
pub struct SubmitQueue {
    lanes: Vec<Lane>,
    /// Jobs queued over all lanes.
    len: usize,
    capacity: usize,
    /// Load-shedding watermark (`None` = shedding disabled).
    shed_watermark: Option<usize>,
    /// Minimum priority class admitted past the watermark.
    shed_floor: u8,
    /// Jobs evicted by higher-priority submissions, awaiting pickup.
    shed_out: Vec<PendingJob>,
    /// High-water mark of the queue depth.
    peak_depth: usize,
    /// Membership version, bumped on every insertion and removal.
    version: u64,
    /// Insertions so far: the next insertion's sequence number.
    inserted: u64,
    /// `(hopeless_after, order)` of every queued job with a deadline.
    hopeless: BTreeSet<(u64, Order)>,
    /// `(submitted_at, order)` of every queued job.
    submitted: BTreeSet<(u64, Order)>,
}

impl SubmitQueue {
    /// An empty queue admitting at most `capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        Self {
            lanes: Vec::new(),
            len: 0,
            capacity,
            shed_watermark: None,
            shed_floor: 1,
            shed_out: Vec::new(),
            peak_depth: 0,
            version: 0,
            inserted: 0,
            hopeless: BTreeSet::new(),
            submitted: BTreeSet::new(),
        }
    }

    /// Configures graceful overload degradation: past `watermark`
    /// queued jobs, submissions with priority below `floor` are
    /// refused with [`SubmitError::ShedOverload`], and a full queue
    /// may evict a strictly-lower-priority queued job in favor of a
    /// new one. `None` disables shedding (the default): the queue then
    /// answers plain [`SubmitError::QueueFull`] at capacity.
    pub fn set_overload_policy(&mut self, watermark: Option<usize>, floor: u8) {
        self.shed_watermark = watermark;
        self.shed_floor = floor;
    }

    /// Jobs currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of the queue depth.
    #[must_use]
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// The membership version: bumped by every admission, requeue,
    /// eviction, dispatch and reap that changes which jobs are queued,
    /// never by anything else. Equal versions mean an identical queue.
    #[must_use]
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The earliest cycle after which some queued job is hopeless (the
    /// minimum [`PendingJob::hopeless_after`]); `None` when no queued
    /// job carries a deadline. Kept in an index updated on every
    /// insertion and removal.
    #[must_use]
    pub(crate) fn earliest_hopeless(&self) -> Option<u64> {
        self.hopeless.first().map(|&(t, _)| t)
    }

    /// The earliest [`PendingJob::submitted_at`] among the queued jobs,
    /// `None` when the queue is empty.
    #[must_use]
    pub fn oldest_submission(&self) -> Option<u64> {
        self.submitted.first().map(|&(t, _)| t)
    }

    /// The queued job `key` names, if it is still queued.
    #[must_use]
    pub(crate) fn get(&self, key: QueueKey) -> Option<&PendingJob> {
        let lane = self.lane(key.kind)?;
        lane.position(key.order).map(|i| &lane.jobs[i])
    }

    /// The first job in queue order whose kind is one of `kinds` and
    /// that [allows](PendingJob::allows_worker) worker `worker`: the
    /// head of each kind's lane, past any retries that avoid `worker`.
    #[must_use]
    pub fn first_for(&self, kinds: &[JobKind], worker: usize) -> Option<&PendingJob> {
        kinds
            .iter()
            .filter_map(|&kind| {
                let lane = self.lane(kind)?;
                lane.jobs.iter().find(|job| job.allows_worker(worker))
            })
            .min_by_key(|job| job.order)
    }

    /// The first job in queue order that passes `admit` and that some
    /// worker of `workers` can take now: one that is
    /// [idle](WorkerView::idle), [supports](WorkerView::supports) the
    /// job's kind and is [allowed](PendingJob::allows_worker) by it.
    /// Each lane walks the workers once; the walk down a lane stops at
    /// its first admitted job, unless a lone capable idle worker is
    /// avoided by the jobs in front of it.
    pub fn first_runnable(
        &self,
        workers: &[WorkerView<'_>],
        admit: impl Fn(&PendingJob) -> bool,
    ) -> Option<&PendingJob> {
        self.lanes
            .iter()
            .filter_map(|lane| {
                let mut capable = workers
                    .iter()
                    .filter(|w| w.idle && w.supports(lane.kind).is_some());
                let first = capable.next()?.index;
                // Two capable workers cannot both be avoided.
                let lone = capable.next().is_none();
                lane.jobs
                    .iter()
                    .find(|job| (!lone || job.allows_worker(first)) && admit(job))
            })
            .min_by_key(|job| job.order)
    }

    /// The lane of `kind`, if one was ever made.
    fn lane(&self, kind: JobKind) -> Option<&Lane> {
        self.lanes.iter().find(|lane| lane.kind == kind)
    }

    /// Validates and admits `spec` at cycle `now`.
    ///
    /// `payload_limit` is the farm-wide FIFO buffering ceiling;
    /// `serviceable` tells the queue whether any worker can ever run
    /// the kind (checked at admission so hopeless jobs fail fast).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]; rejected submissions leave the queue
    /// untouched.
    pub fn submit(
        &mut self,
        id: JobId,
        spec: JobSpec,
        now: u64,
        payload_limit: u32,
        serviceable: bool,
    ) -> Result<JobId, SubmitError> {
        let got = u32::try_from(spec.input.len()).unwrap_or(u32::MAX);
        if got == 0 {
            return Err(SubmitError::EmptyPayload);
        }
        if let Some(expected) = spec.kind.required_input_words() {
            if got != expected {
                return Err(SubmitError::BadPayload {
                    kind: spec.kind,
                    expected,
                    got,
                });
            }
        }
        if got > payload_limit {
            return Err(SubmitError::PayloadTooLarge {
                got,
                limit: payload_limit,
            });
        }
        if !serviceable {
            return Err(SubmitError::NoCapableWorker { kind: spec.kind });
        }
        if let Some(watermark) = self.shed_watermark {
            if self.len >= watermark && spec.priority < self.shed_floor {
                return Err(SubmitError::ShedOverload {
                    queued: self.len,
                    watermark,
                });
            }
        }
        if self.len >= self.capacity {
            // Overload mode: a higher-priority submission may displace
            // the youngest strictly-lower-class queued job (retries
            // are immune — a displaced retry would turn one worker
            // fault into a lost job).
            let victim = self
                .shed_watermark
                .and_then(|_| self.shed_victim(spec.priority));
            match victim {
                Some(key) => {
                    let evicted = self.take(key);
                    self.shed_out.push(evicted);
                }
                None => {
                    return Err(SubmitError::QueueFull {
                        capacity: self.capacity,
                    });
                }
            }
        }
        self.insert(PendingJob {
            id,
            kind: spec.kind,
            input_words: got,
            submitted_at: now,
            priority: spec.priority,
            deadline: spec.deadline,
            attempts: 0,
            avoid_worker: None,
            input: spec.input,
            microcode: spec.microcode,
            order: (Reverse(0), 0),
        });
        Ok(id)
    }

    /// The youngest queued job of the lowest class below `priority`
    /// that is not a retry: the last such job in queue order. Each lane
    /// ends in its lowest classes, so each walks back only over the
    /// jobs below `priority`.
    fn shed_victim(&self, priority: u8) -> Option<QueueKey> {
        self.lanes
            .iter()
            .filter_map(|lane| {
                lane.jobs
                    .iter()
                    .rev()
                    .take_while(|j| j.priority < priority)
                    .find(|j| j.attempts == 0)
            })
            .max_by_key(|job| job.order)
            .map(PendingJob::key)
    }

    /// Inserts `job` behind every queued job of its class or higher: it
    /// gets the next sequence number, and its lane stays sorted.
    fn insert(&mut self, mut job: PendingJob) {
        job.order = (Reverse(job.priority), self.inserted);
        self.inserted += 1;
        if let Some(t) = job.hopeless_after() {
            self.hopeless.insert((t, job.order));
        }
        self.submitted.insert((job.submitted_at, job.order));
        let lane = match self.lanes.iter().position(|lane| lane.kind == job.kind) {
            Some(i) => &mut self.lanes[i],
            None => {
                self.lanes.push(Lane {
                    kind: job.kind,
                    jobs: VecDeque::new(),
                });
                self.lanes.last_mut().expect("just pushed")
            }
        };
        let at = lane.jobs.partition_point(|j| j.order < job.order);
        lane.jobs.insert(at, job);
        self.len += 1;
        self.peak_depth = self.peak_depth.max(self.len);
        self.version += 1;
    }

    /// Drops a job that left its lane from the count and the indexes.
    fn unindex(&mut self, job: &PendingJob) {
        if let Some(t) = job.hopeless_after() {
            self.hopeless.remove(&(t, job.order));
        }
        self.submitted.remove(&(job.submitted_at, job.order));
        self.len -= 1;
    }

    /// Puts a fault-bounced job back in line for another attempt (in
    /// its priority class, like any insertion).
    ///
    /// Bypasses capacity: a retry is not a new admission, and bouncing
    /// an already-admitted job because fresh submissions filled the
    /// queue would turn one worker fault into a lost job. As a result
    /// `peak_depth` may briefly exceed `capacity` under heavy faulting.
    pub(crate) fn requeue(&mut self, job: PendingJob) {
        self.insert(job);
    }

    /// Drains the jobs evicted by overload shedding since the last
    /// call, for the farm to record as
    /// [`JobOutcome::ShedOverload`](crate::job::JobOutcome::ShedOverload).
    pub(crate) fn take_shed(&mut self) -> Vec<PendingJob> {
        std::mem::take(&mut self.shed_out)
    }

    /// Moves every job matching `reap` out of the queue, in queue
    /// order, keeping the survivors' order (one rotation through each
    /// lane: no clones, no reallocation). The farm reaps jobs that can
    /// no longer meet their deadline, and jobs whose kind lost its last
    /// live worker; it records each reaped job. Bumps the version once
    /// if anything was reaped.
    pub(crate) fn reap(&mut self, reap: impl Fn(&PendingJob) -> bool) -> Vec<PendingJob> {
        let mut dead = Vec::new();
        for lane in &mut self.lanes {
            for _ in 0..lane.jobs.len() {
                let job = lane.jobs.pop_front().expect("rotating a counted deque");
                if reap(&job) {
                    dead.push(job);
                } else {
                    lane.jobs.push_back(job);
                }
            }
        }
        if !dead.is_empty() {
            dead.sort_unstable_by_key(|job| job.order);
            for job in &dead {
                self.unindex(job);
            }
            self.version += 1;
        }
        dead
    }

    /// Removes and returns the job `key` names (dispatch).
    ///
    /// # Panics
    ///
    /// Panics if no queued job has `key`: policies must name jobs of
    /// the queue they were shown.
    pub fn take(&mut self, key: QueueKey) -> PendingJob {
        let lane = self
            .lanes
            .iter_mut()
            .find(|lane| lane.kind == key.kind)
            .expect("policy named a kind with no queued job");
        let at = lane
            .position(key.order)
            .expect("policy named a job that is not queued");
        let job = lane.jobs.remove(at).expect("position is in range");
        self.unindex(&job);
        self.version += 1;
        job
    }

    /// Every queued job, in queue order.
    #[cfg(test)]
    pub(crate) fn in_order(&self) -> Vec<&PendingJob> {
        let mut jobs: Vec<&PendingJob> = self.lanes.iter().flat_map(|lane| &lane.jobs).collect();
        jobs.sort_unstable_by_key(|job| job.order);
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idct_spec() -> JobSpec {
        JobSpec::new(JobKind::Idct, vec![0; 64])
    }

    #[test]
    fn admits_until_capacity_then_rejects() {
        let mut q = SubmitQueue::new(2);
        q.submit(JobId(0), idct_spec(), 0, 1024, true).unwrap();
        q.submit(JobId(1), idct_spec(), 0, 1024, true).unwrap();
        assert_eq!(
            q.submit(JobId(2), idct_spec(), 0, 1024, true),
            Err(SubmitError::QueueFull { capacity: 2 })
        );
        assert_eq!(q.peak_depth(), 2);
    }

    #[test]
    fn validates_payload_contracts() {
        let mut q = SubmitQueue::new(4);
        let bad = JobSpec::new(JobKind::Idct, vec![0; 63]);
        assert!(matches!(
            q.submit(JobId(0), bad, 0, 1024, true),
            Err(SubmitError::BadPayload {
                expected: 64,
                got: 63,
                ..
            })
        ));
        let empty = JobSpec::new(JobKind::Copy { scale: 1 }, vec![]);
        assert_eq!(
            q.submit(JobId(1), empty, 0, 1024, true),
            Err(SubmitError::EmptyPayload)
        );
        let huge = JobSpec::new(JobKind::Copy { scale: 1 }, vec![0; 2048]);
        assert_eq!(
            q.submit(JobId(2), huge, 0, 1024, true),
            Err(SubmitError::PayloadTooLarge {
                got: 2048,
                limit: 1024
            })
        );
        let fine = JobSpec::new(JobKind::Copy { scale: 1 }, vec![0; 8]);
        assert_eq!(
            q.submit(JobId(3), fine, 0, 1024, false),
            Err(SubmitError::NoCapableWorker {
                kind: JobKind::Copy { scale: 1 }
            })
        );
        assert!(q.is_empty(), "rejects consume no slot");
    }

    #[test]
    fn take_removes_mid_queue() {
        let mut q = SubmitQueue::new(4);
        for i in 0..3 {
            q.submit(JobId(i), idct_spec(), i, 1024, true).unwrap();
        }
        let taken = q.take(q.in_order()[1].key());
        assert_eq!(taken.id, JobId(1));
        let left: Vec<u64> = q.in_order().iter().map(|j| j.id.0).collect();
        assert_eq!(left, vec![0, 2]);
    }

    #[test]
    fn priority_classes_order_the_queue() {
        let mut q = SubmitQueue::new(8);
        for (i, prio) in [(0u64, 0u8), (1, 2), (2, 1), (3, 2), (4, 0)] {
            q.submit(JobId(i), idct_spec().with_priority(prio), i, 1024, true)
                .unwrap();
        }
        let order: Vec<u64> = q.in_order().iter().map(|j| j.id.0).collect();
        // Descending by class, stable by arrival within a class.
        assert_eq!(order, vec![1, 3, 2, 0, 4]);
    }

    #[test]
    fn shed_watermark_refuses_low_priority_only() {
        let mut q = SubmitQueue::new(8);
        q.set_overload_policy(Some(2), 1);
        q.submit(JobId(0), idct_spec(), 0, 1024, true).unwrap();
        q.submit(JobId(1), idct_spec(), 0, 1024, true).unwrap();
        // Past the watermark: priority 0 is below the floor.
        assert_eq!(
            q.submit(JobId(2), idct_spec(), 0, 1024, true),
            Err(SubmitError::ShedOverload {
                queued: 2,
                watermark: 2
            })
        );
        // At-or-above the floor still gets in until true capacity.
        q.submit(JobId(3), idct_spec().with_priority(1), 0, 1024, true)
            .unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn full_queue_evicts_youngest_lowest_class_for_priority_work() {
        let mut q = SubmitQueue::new(3);
        q.set_overload_policy(Some(2), 0);
        q.submit(JobId(0), idct_spec(), 0, 1024, true).unwrap();
        q.submit(JobId(1), idct_spec(), 1, 1024, true).unwrap();
        q.submit(JobId(2), idct_spec(), 2, 1024, true).unwrap();
        // Full queue + higher-priority submission: the youngest
        // priority-0 job (id 2) is displaced.
        q.submit(JobId(3), idct_spec().with_priority(2), 3, 1024, true)
            .unwrap();
        let shed = q.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, JobId(2));
        let order: Vec<u64> = q.in_order().iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![3, 0, 1]);
        // A submission with nothing strictly below it displaces
        // nothing (eviction needs a strictly-lower class).
        assert_eq!(
            q.submit(JobId(4), idct_spec(), 4, 1024, true),
            Err(SubmitError::QueueFull { capacity: 3 })
        );
        // Without an overload policy a full queue never evicts.
        let mut plain = SubmitQueue::new(1);
        plain.submit(JobId(0), idct_spec(), 0, 1024, true).unwrap();
        assert_eq!(
            plain.submit(JobId(1), idct_spec().with_priority(7), 0, 1024, true),
            Err(SubmitError::QueueFull { capacity: 1 })
        );
        assert!(plain.take_shed().is_empty());
    }

    #[test]
    fn reap_removes_matching_jobs() {
        let mut q = SubmitQueue::new(8);
        for i in 0..4u64 {
            let spec = idct_spec().with_deadline(100 + i);
            q.submit(JobId(i), spec, 0, 1024, true).unwrap();
        }
        let dead = q.reap(|j| j.deadline.is_some_and(|d| d < 102));
        let dead_ids: Vec<u64> = dead.iter().map(|j| j.id.0).collect();
        assert_eq!(dead_ids, vec![0, 1]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn version_and_deadline_index_follow_membership() {
        let mut q = SubmitQueue::new(3);
        q.set_overload_policy(Some(3), 0);
        assert_eq!((q.version(), q.earliest_hopeless()), (0, None));
        // IDCT's core-latency estimate is 64 cycles.
        q.submit(JobId(0), idct_spec().with_deadline(1_000), 0, 1024, true)
            .unwrap();
        q.submit(JobId(1), idct_spec().with_deadline(500), 0, 1024, true)
            .unwrap();
        q.submit(JobId(2), idct_spec(), 0, 1024, true).unwrap();
        assert_eq!((q.version(), q.earliest_hopeless()), (3, Some(436)));

        // Rejections leave the version alone.
        assert!(q.submit(JobId(3), idct_spec(), 0, 1024, true).is_err());
        assert_eq!(q.version(), 3);

        // A shed eviction and its admission are two changes.
        q.submit(JobId(4), idct_spec().with_priority(1), 0, 1024, true)
            .unwrap();
        assert_eq!(q.take_shed()[0].id, JobId(2));
        assert_eq!(q.version(), 5);

        // Reaps that remove nothing are not changes.
        assert!(q.reap(|_| false).is_empty());
        assert_eq!(q.version(), 5);

        // Removing the earliest deadline moves the index to the next.
        let dead = q.reap(|j| j.id == JobId(1));
        assert_eq!(dead[0].id, JobId(1));
        assert_eq!((q.version(), q.earliest_hopeless()), (6, Some(936)));

        let taken = q.take(q.in_order()[1].key());
        assert_eq!(taken.id, JobId(0));
        assert_eq!((q.version(), q.earliest_hopeless()), (7, None));

        q.requeue(taken);
        assert_eq!((q.version(), q.earliest_hopeless()), (8, Some(936)));
        assert_eq!(q.reap(|_| true).len(), 2);
        assert_eq!((q.version(), q.len()), (9, 0));
    }
}
