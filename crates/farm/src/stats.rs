//! Pool statistics: per-job distributions and the aggregate
//! [`FarmReport`].

use std::fmt;
use std::time::Duration;

use ouessant_soc::alloc::AllocStats;

use crate::job::{JobKind, JobOutcome, JobRecord};
use crate::queue::SubmitError;
use crate::worker::WorkerHealth;

/// Distribution summary of a cycle-count sample set (nearest-rank
/// percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean, rounded down.
    pub mean: u64,
    /// 50th percentile.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl LatencyStats {
    /// Summarizes `samples` (order irrelevant; empty yields zeros).
    #[must_use]
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        let rank = |p: usize| -> u64 {
            // Nearest-rank: ceil(p/100 * n), 1-based.
            let r = (p * samples.len()).div_ceil(100).max(1);
            samples[r - 1]
        };
        Self {
            count,
            min: samples[0],
            max: samples[samples.len() - 1],
            mean: u64::try_from(sum / u128::from(count)).expect("a mean of u64 samples is a u64"),
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
        }
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min {:>6}  p50 {:>6}  p95 {:>6}  p99 {:>6}  max {:>6}  mean {:>6}",
            self.min, self.p50, self.p95, self.p99, self.max, self.mean
        )
    }
}

/// One worker's share of the pool report.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Display name (kind and base address).
    pub name: String,
    /// Jobs completed.
    pub jobs: u64,
    /// Bitstream swaps paid.
    pub swaps: u64,
    /// Cycles with a job on the worker: the sum, over its jobs, of the
    /// span from dispatch to the cycle the job left it (completed,
    /// faulted or aborted), the job still in flight counted up to the
    /// report.
    pub busy_cycles: u64,
    /// `busy_cycles / total_cycles`.
    pub utilization: f64,
    /// Bus grants won by the worker's DMA master.
    pub bus_grants: u64,
    /// Data beats moved by the worker's DMA master.
    pub bus_beats: u64,
    /// Cycles the worker's DMA master lost arbitration.
    pub contention_cycles: u64,
    /// Health state at report time.
    pub health: WorkerHealth,
    /// Faults this worker suffered (organic or injected).
    pub faults: u64,
    /// Times the circuit breaker quarantined this worker.
    pub quarantines: u64,
}

/// The pool-level serving report.
///
/// Every count is cumulative since [`Farm::new`](crate::Farm::new):
/// [`Farm::take_records`](crate::Farm::take_records) does not reset
/// it. The three distributions ([`queue_wait`](Self::queue_wait),
/// [`service`](Self::service), [`latency`](Self::latency)) cover the
/// completed jobs whose records the farm still holds.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Scheduling policy that produced this run.
    pub policy: String,
    /// Simulated cycles elapsed.
    pub total_cycles: u64,
    /// Jobs admitted into the queue.
    ///
    /// At idle the books balance: `jobs_admitted = jobs_completed +
    /// jobs_failed_permanent + jobs_deadline_missed + jobs_shed`
    /// (rejected submissions never consume a queue slot and are
    /// counted separately).
    pub jobs_admitted: u64,
    /// Jobs completed: the sum of the workers' runs ended with `eop`
    /// ([`WorkerReport::jobs`]).
    pub jobs_completed: u64,
    /// Admitted jobs the farm gave up on (retry budget exhausted or no
    /// serviceable worker left).
    pub jobs_failed_permanent: u64,
    /// Admitted jobs dropped or aborted because their deadline became
    /// unmeetable (`JobOutcome::DeadlineMissed`).
    pub jobs_deadline_missed: u64,
    /// Admitted jobs evicted from a full queue by higher-priority
    /// admissions (`JobOutcome::ShedOverload`).
    pub jobs_shed: u64,
    /// Worker faults absorbed (organic or injected): the sum of the
    /// workers' [`faults`](WorkerReport::faults).
    pub worker_faults: u64,
    /// Fault-bounced jobs re-enqueued for another attempt.
    pub retries: u64,
    /// Circuit-breaker trips across the pool: the sum of the workers'
    /// [`quarantines`](WorkerReport::quarantines).
    pub quarantines: u64,
    /// Watchdog firings (no-progress budgets exhausted on workers).
    pub hangs_detected: u64,
    /// Workers yanked back from a hung or overdue job (watchdog plus
    /// host-side deadline aborts).
    pub aborts: u64,
    /// Submissions bounced with `QueueFull`.
    pub rejected_full: u64,
    /// Submissions refused past the overload watermark
    /// (`SubmitError::ShedOverload`).
    pub rejected_shed: u64,
    /// Submissions bounced at validation.
    pub rejected_invalid: u64,
    /// Submissions whose custom microcode the static analyzer rejected.
    pub rejected_unsafe: u64,
    /// High-water mark of the queue depth.
    pub queue_peak_depth: usize,
    /// Cycles jobs waited in the queue (held records only).
    pub queue_wait: LatencyStats,
    /// Dispatch-to-completion cycles, including swaps (held records
    /// only).
    pub service: LatencyStats,
    /// End-to-end (submit-to-completion) cycles (held records only).
    pub latency: LatencyStats,
    /// Completed jobs per million simulated cycles.
    pub throughput_jobs_per_mcycle: f64,
    /// Total bitstream swaps across the pool.
    pub swaps: u64,
    /// Jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Bus-contention cycles charged to completed jobs.
    pub contention_cycles: u64,
    /// Completed-job counts per kind (kind name, count), sorted by name.
    pub per_kind: Vec<(String, u64)>,
    /// Shared-memory allocator watermarks.
    pub alloc: AllocStats,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerReport>,
    /// Simulated cycles covered by event-horizon fast-forward leaps
    /// (0 when the farm single-stepped throughout).
    pub skipped_cycles: u64,
    /// Host wall-clock seconds spent inside `Farm::run_until_idle`.
    pub host_wall_seconds: f64,
    /// Simulated cycles per host wall-clock second (0 when no wall
    /// time was measured).
    pub cycles_per_second: f64,
}

/// The farm's books: every count since [`Farm::new`] that no other
/// state already holds. Job outcomes enter through
/// [`Ledger::finish`] and rejections through [`Ledger::reject`], one
/// call per finished job or refused submission. Completions are not
/// counted here: the report takes them from the workers' controllers,
/// so its books equation checks the ledger's other outcomes against
/// them.
///
/// [`Farm::new`]: crate::Farm::new
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub failed_permanent: u64,
    pub deadline_missed: u64,
    pub shed: u64,
    /// Completions past their deadline.
    pub late: u64,
    /// Bus-contention cycles charged to completed jobs.
    pub contention_cycles: u64,
    /// Completions per kind, in first-completion order.
    pub per_kind: Vec<(JobKind, u64)>,
    pub rejected_full: u64,
    pub rejected_shed: u64,
    pub rejected_invalid: u64,
    pub rejected_unsafe: u64,
    /// Fault-bounced jobs re-enqueued for another attempt.
    pub retries: u64,
    /// Watchdog firings.
    pub hangs_detected: u64,
    /// Watchdog plus deadline aborts.
    pub aborts: u64,
    /// Cycles dispatch was blocked on shared-memory pressure.
    pub alloc_stalls: u64,
    /// Simulated cycles covered by fast-forward leaps.
    pub skipped_cycles: u64,
    /// Host wall time spent inside `run_until_idle`.
    pub host_wall: Duration,
}

impl Ledger {
    /// Enters one finished job's outcome.
    pub(crate) fn finish(&mut self, record: &JobRecord) {
        match record.outcome {
            JobOutcome::Completed { .. } => {
                if !record.met_deadline() {
                    self.late += 1;
                }
                self.contention_cycles += record.contention_cycles;
                match self.per_kind.iter_mut().find(|(k, _)| *k == record.kind) {
                    Some((_, n)) => *n += 1,
                    None => self.per_kind.push((record.kind, 1)),
                }
            }
            JobOutcome::FailedPermanent { .. } => self.failed_permanent += 1,
            JobOutcome::DeadlineMissed { .. } => self.deadline_missed += 1,
            JobOutcome::ShedOverload => self.shed += 1,
        }
    }

    /// Enters one refused submission under its class.
    pub(crate) fn reject(&mut self, error: &SubmitError) {
        let class = match error {
            SubmitError::QueueFull { .. } => &mut self.rejected_full,
            SubmitError::ShedOverload { .. } => &mut self.rejected_shed,
            SubmitError::RejectedMicrocode { .. }
            | SubmitError::MicrocodeTooLong { .. }
            | SubmitError::ReservedInstruction { .. } => &mut self.rejected_unsafe,
            SubmitError::EmptyPayload
            | SubmitError::BadPayload { .. }
            | SubmitError::PayloadTooLarge { .. }
            | SubmitError::NoCapableWorker { .. } => &mut self.rejected_invalid,
        };
        *class += 1;
    }
}

impl FarmReport {
    /// Fraction of simulated cycles covered by fast-forward leaps
    /// (0.0 when the farm single-stepped throughout).
    #[must_use]
    pub fn skipped_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / self.total_cycles as f64
        }
    }
}

impl fmt::Display for FarmReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "── farm report ({} policy) ──", self.policy)?;
        writeln!(
            f,
            "jobs: {} admitted, {} completed, {} failed permanently, {} deadline-missed, \
             {} shed, {} rejected (queue-full), {} rejected (overload), {} rejected (invalid), \
             {} rejected (unsafe microcode)",
            self.jobs_admitted,
            self.jobs_completed,
            self.jobs_failed_permanent,
            self.jobs_deadline_missed,
            self.jobs_shed,
            self.rejected_full,
            self.rejected_shed,
            self.rejected_invalid,
            self.rejected_unsafe
        )?;
        if self.worker_faults > 0 || self.retries > 0 || self.quarantines > 0 {
            writeln!(
                f,
                "faults: {} worker faults absorbed, {} retries, {} quarantines",
                self.worker_faults, self.retries, self.quarantines
            )?;
        }
        if self.hangs_detected > 0 || self.aborts > 0 {
            writeln!(
                f,
                "liveness: {} hangs detected, {} aborts",
                self.hangs_detected, self.aborts
            )?;
        }
        write!(f, "kinds:")?;
        for (kind, n) in &self.per_kind {
            write!(f, "  {kind}×{n}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "cycles: {}   throughput: {:.2} jobs/Mcycle   swaps: {}   deadline misses: {}",
            self.total_cycles, self.throughput_jobs_per_mcycle, self.swaps, self.deadline_misses
        )?;
        if self.host_wall_seconds > 0.0 {
            writeln!(
                f,
                "host: {:.3} s wall   {:.2} Mcycle/s   fast-forwarded {} of {} cycles ({:.1}%)",
                self.host_wall_seconds,
                self.cycles_per_second / 1.0e6,
                self.skipped_cycles,
                self.total_cycles,
                self.skipped_fraction() * 100.0
            )?;
        }
        writeln!(f, "queue wait: {}", self.queue_wait)?;
        writeln!(f, "service:    {}", self.service)?;
        writeln!(f, "latency:    {}", self.latency)?;
        writeln!(
            f,
            "queue peak depth: {}   bus contention: {} cycles   mem peak: {} words",
            self.queue_peak_depth, self.contention_cycles, self.alloc.peak_words_in_use
        )?;
        for w in &self.workers {
            writeln!(
                f,
                "  {:<22} jobs {:>5}  swaps {:>3}  util {:>5.1}%  grants {:>7}  beats {:>8}  stalls {:>6}  {} ({} faults)",
                w.name,
                w.jobs,
                w.swaps,
                w.utilization * 100.0,
                w.bus_grants,
                w.bus_beats,
                w.contention_cycles,
                w.health,
                w.faults
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_are_zero() {
        let s = LatencyStats::from_samples(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = LatencyStats::from_samples((1..=100).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.mean, 50);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencyStats::from_samples(vec![42]);
        assert_eq!((s.min, s.p50, s.p99, s.max, s.mean), (42, 42, 42, 42, 42));
    }
}
