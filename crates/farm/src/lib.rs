//! # ouessant-farm: a multi-OCP accelerator-pool serving layer
//!
//! The paper integrates *one* Ouessant coprocessor next to a CPU and
//! measures single-offload speedups. Production serving is a different
//! shape: a stream of heterogeneous requests, a *pool* of coprocessors
//! sharing one bus, and a scheduler deciding placement — including
//! whether to pay a DPR bitstream swap (§VI) or batch same-kind work to
//! amortize it. This crate is that layer, built entirely on the
//! repository's cycle-level simulation:
//!
//! * [`job`] — the unit of work: a [`JobKind`] (IDCT block, DFT, or
//!   streaming copy), the input payload, priority and deadline; every
//!   completed job yields a [`JobRecord`] with its output and timing
//!   breakdown;
//! * [`queue`] — the bounded admission queue: malformed payloads are
//!   bounced at submission, custom microcode
//!   ([`JobSpec::with_microcode`]) is run through the
//!   `ouessant-verify` static analyzer and rejected with its
//!   diagnostics on any error ([`SubmitError::RejectedMicrocode`]) or
//!   refused if it holds an `rcfg` or `halt`, which only the farm may
//!   issue ([`SubmitError::ReservedInstruction`]), and a full queue
//!   answers [`SubmitError::QueueFull`] (backpressure);
//! * [`policy`] — pluggable scheduling via [`SchedPolicy`]:
//!   [`FifoPolicy`], [`RoundRobinPolicy`], and [`DprAffinityPolicy`]
//!   (batch jobs onto workers whose loaded configuration matches,
//!   swapping only when no same-kind work remains);
//! * [`worker`] — one OCP per [`Worker`], fixed-function or carrying a
//!   `ReconfigurableSlot`; swaps run as `rcfg` at the head of a job's
//!   own microcode, so they can never disturb an in-flight job;
//! * [`farm`] — the [`Farm`] itself: shared SRAM with a per-job
//!   [`BankAllocator`](ouessant_soc::alloc::BankAllocator) lease,
//!   dispatch, cycle-accurate execution on the shared AHB-like bus, and
//!   completion harvesting via the OCP's poll/IRQ interface;
//! * [`stats`] — the [`FarmReport`]: queue-wait / service / end-to-end
//!   latency distributions (p50/p95/p99), throughput in jobs per
//!   megacycle, per-worker utilization, bus-contention stalls, swap
//!   counts, and the fault ledger (faults absorbed, retries,
//!   quarantines, permanent failures, per-worker health);
//! * [`chaos`] — a seeded, deterministic fault-injection campaign
//!   ([`FaultPlan`]): mid-job controller upsets, DMA slave faults,
//!   poisoned DPR bitstreams and shared-memory squatters, all driven
//!   by the repo's XorShift64 so every failure replays bit-exact.
//!
//! ## Fault tolerance
//!
//! A worker dying mid-job does not kill the run. The farm classifies
//! the fault into a [`WorkerFaultKind`], frees the dead job's memory
//! leases, retries the job on a different worker under a bounded
//! attempt budget with linear backoff, and tracks per-worker health
//! (`Healthy → Degraded → Quarantined`) behind a faults-in-window
//! circuit breaker with optional cooldown probation — see
//! [`FaultConfig`]. Every admitted job ends in a [`JobRecord`] whose
//! [`JobOutcome`] is `Completed { attempts }`,
//! `FailedPermanent { reason }`, `DeadlineMissed { attempts }` or
//! `ShedOverload`, so `admitted = completed + failed_permanent +
//! deadline_missed + shed` always reconciles.
//!
//! ## Liveness
//!
//! Crashes are loud; hangs are silent. [`LivenessConfig`] arms the
//! quiet-failure defenses: per-job no-progress *watchdogs* (one
//! pool-wide budget) that abort a wedged worker and route the job
//! through the same retry machinery as a crash
//! ([`WorkerFaultKind::Hang`]); *deadline enforcement* that
//! drops hopeless queued work and host-aborts overdue in-flight work;
//! and graceful *overload shedding* past a queue watermark
//! ([`SubmitError::ShedOverload`]), with priority classes ordering
//! the queue and full-queue priority eviction. Two chaos seams —
//! wedged handshakes and slowed RACs — stall instead of crashing to
//! exercise exactly these paths. Watchdog expiries and deadlines
//! register as event horizons, so fast-forward stays bit-exact.
//!
//! ## Example
//!
//! Serve a mixed IDCT + DFT load on a three-worker pool:
//!
//! ```
//! use ouessant_farm::{DprAffinityPolicy, Farm, FarmConfig, JobKind, JobSpec};
//!
//! let mut farm = Farm::new(FarmConfig::default(), Box::new(DprAffinityPolicy::new()));
//! farm.add_worker(JobKind::Idct);
//! farm.add_worker(JobKind::Dft { points: 64 });
//! farm.add_dpr_worker(&[(JobKind::Idct, 40_000), (JobKind::Dft { points: 64 }, 60_000)]);
//!
//! for i in 0..20u32 {
//!     let kind = if i % 2 == 0 { JobKind::Idct } else { JobKind::Dft { points: 64 } };
//!     let words = kind.required_input_words().unwrap();
//!     farm.submit(JobSpec::new(kind, (0..words).map(|w| w * i).collect()))?;
//! }
//! farm.run_until_idle(10_000_000)?;
//!
//! let report = farm.report();
//! assert_eq!(report.jobs_completed, 20);
//! for job in farm.records() {
//!     assert!(job.met_deadline());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod chaos;
pub mod farm;
pub mod job;
pub mod policy;
pub mod queue;
pub mod stats;
pub mod worker;

pub use chaos::{ChaosConfig, ChaosStats, FaultPlan};
pub use farm::{Farm, FarmConfig, FarmError, FaultConfig, LivenessConfig, WorkerSnapshot};
pub use job::{FailReason, JobId, JobKind, JobOutcome, JobRecord, JobSpec};
pub use policy::{
    Assignment, DprAffinityPolicy, FifoPolicy, RoundRobinPolicy, SchedPolicy, WorkerView,
};
pub use queue::{PendingJob, QueueKey, SubmitError, SubmitQueue};
pub use stats::{FarmReport, LatencyStats, WorkerReport};
pub use worker::{Worker, WorkerFaultKind, WorkerHealth};

// The admission error carries the analyzer's verdict; re-export the
// diagnostic types so clients can consume it without a direct
// `ouessant-verify` dependency.
pub use ouessant_verify::{Analysis, DiagKind, Diagnostic, Severity};
