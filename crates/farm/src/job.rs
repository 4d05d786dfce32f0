//! Jobs: the unit of work a farm serves.
//!
//! A [`JobSpec`] names an accelerator kind and carries the input
//! payload; the farm turns it into microcode, places it on a worker and
//! returns a [`JobRecord`] with the output payload and the full timing
//! breakdown.

use std::fmt;

use ouessant_isa::Program;
use ouessant_rac::dft::{dft_latency, dft_words};
use ouessant_rac::idct::{idct_words, BLOCK_LEN};

use crate::worker::WorkerFaultKind;

/// Identifies a submitted job for the lifetime of a farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// The accelerator a job needs.
///
/// Kinds double as *capabilities*: a worker advertises the kinds it can
/// run (one per DPR configuration for a reconfigurable worker), and the
/// scheduler matches jobs to workers by kind equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// One 8×8 fixed-point 2-D IDCT block (64 words in, 64 out).
    Idct,
    /// One complex DFT of `points` points (2·points words each way).
    Dft {
        /// Transform size in complex points (power of two, 8..=4096).
        points: usize,
    },
    /// A streaming copy multiplying every word by `scale` (wrapping);
    /// `scale == 1` is a pure memory-to-memory DMA. Any payload length.
    Copy {
        /// Per-word multiplier.
        scale: u32,
    },
}

impl JobKind {
    /// The exact input length this kind requires, or `None` if any
    /// non-empty payload is accepted.
    #[must_use]
    pub fn required_input_words(&self) -> Option<u32> {
        match self {
            #[allow(clippy::cast_possible_truncation)] // BLOCK_LEN is 64.
            JobKind::Idct => Some(BLOCK_LEN as u32),
            // A size past `u32` saturates: no payload matches it.
            JobKind::Dft { points } => {
                Some(u32::try_from(points.saturating_mul(2)).unwrap_or(u32::MAX))
            }
            JobKind::Copy { .. } => None,
        }
    }

    /// Output words produced for an input of `input_words`.
    #[must_use]
    pub fn output_words(&self, input_words: u32) -> u32 {
        // All three kinds are length-preserving.
        input_words
    }

    /// The host-side golden model: what the accelerator must produce
    /// for `input`. Used by tests and the demo to check end-to-end
    /// integrity of served jobs.
    #[must_use]
    pub fn expected_output(&self, input: &[u32]) -> Vec<u32> {
        match self {
            JobKind::Idct => idct_words(input),
            JobKind::Dft { .. } => dft_words(input),
            JobKind::Copy { scale } => input.iter().map(|w| w.wrapping_mul(*scale)).collect(),
        }
    }

    /// A rough service-time estimate in cycles (core latency only, no
    /// transfers) — schedulers may use it for cost-aware decisions.
    #[must_use]
    pub fn core_latency_estimate(&self) -> u64 {
        match self {
            JobKind::Idct => 64,
            JobKind::Dft { points } => dft_latency(*points),
            JobKind::Copy { .. } => 1,
        }
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobKind::Idct => f.write_str("idct"),
            JobKind::Dft { points } => write!(f, "dft{points}"),
            JobKind::Copy { scale } => write!(f, "copy×{scale}"),
        }
    }
}

/// A job as submitted by a client.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Which accelerator the job needs.
    pub kind: JobKind,
    /// Input payload (32-bit words, already in the kind's wire format).
    pub input: Vec<u32>,
    /// Larger runs first among equally-old jobs, for policies that look
    /// at it (0 = normal).
    pub priority: u8,
    /// Absolute-cycle deadline, if any. Always reported as missed/met
    /// in the record; with [`LivenessConfig::early_drop`] enabled the
    /// farm additionally drops jobs that provably cannot meet it and
    /// aborts in-flight jobs once it passes
    /// ([`JobOutcome::DeadlineMissed`]).
    ///
    /// [`LivenessConfig::early_drop`]: crate::farm::LivenessConfig::early_drop
    pub deadline: Option<u64>,
    /// Client-supplied microcode replacing the farm's canonical
    /// program for this job, if any.
    ///
    /// Custom microcode must follow the farm's job memory map (bank 0
    /// program, bank 1 input, bank 2 output) and is run through the
    /// `ouessant-verify` static analyzer at admission; programs with
    /// error-severity diagnostics are rejected before they can touch a
    /// worker (see [`SubmitError::RejectedMicrocode`]).
    ///
    /// [`SubmitError::RejectedMicrocode`]: crate::queue::SubmitError::RejectedMicrocode
    pub microcode: Option<Program>,
}

impl JobSpec {
    /// A job of `kind` over `input` with default priority and no
    /// deadline.
    #[must_use]
    pub fn new(kind: JobKind, input: Vec<u32>) -> Self {
        Self {
            kind,
            input,
            priority: 0,
            deadline: None,
            microcode: None,
        }
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute-cycle deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the farm's canonical microcode with `program`.
    ///
    /// The program is statically verified at admission; see
    /// [`JobSpec::microcode`].
    #[must_use]
    pub fn with_microcode(mut self, program: Program) -> Self {
        self.microcode = Some(program);
        self
    }
}

/// Why a job was given up on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// Every attempt died on a worker fault; this is the last one.
    Fault(WorkerFaultKind),
    /// No live worker can serve the kind any more (the only capable
    /// workers are permanently quarantined).
    NoServiceableWorker,
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailReason::Fault(kind) => write!(f, "{kind}"),
            FailReason::NoServiceableWorker => {
                f.write_str("no serviceable worker left for this kind")
            }
        }
    }
}

/// How an admitted job left the farm.
///
/// An admitted job always ends in exactly one of these — the farm
/// never silently drops work, which is what makes the report's
/// `admitted = completed + failed_permanent + deadline_missed + shed`
/// reconciliation possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran to completion and its output was read back.
    Completed {
        /// Dispatch attempts consumed (1 = first try succeeded).
        attempts: u32,
    },
    /// The retry budget ran out, or no worker could serve the job.
    FailedPermanent {
        /// Dispatch attempts consumed (0 = never reached a worker).
        attempts: u32,
        /// Why the farm gave up.
        reason: FailReason,
    },
    /// The liveness sweep dropped the job: its deadline passed while
    /// in flight (the run was aborted) or became provably unmeetable
    /// while queued/parked (the run was never started).
    DeadlineMissed {
        /// Dispatch attempts consumed (0 = dropped before any run).
        attempts: u32,
    },
    /// Overload shedding evicted the job from a full queue in favor of
    /// higher-priority work; it never reached a worker.
    ShedOverload,
}

impl JobOutcome {
    /// Whether the job completed.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }

    /// Dispatch attempts consumed.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Completed { attempts }
            | JobOutcome::FailedPermanent { attempts, .. }
            | JobOutcome::DeadlineMissed { attempts } => *attempts,
            JobOutcome::ShedOverload => 0,
        }
    }
}

/// A finished job: outcome, output payload and the full timing
/// breakdown.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's identity.
    pub id: JobId,
    /// The accelerator kind served.
    pub kind: JobKind,
    /// Index of the worker that served (or last attempted) it; 0 if
    /// the job never reached a worker.
    pub worker: usize,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Cycle the job entered the queue.
    pub submitted_at: u64,
    /// Cycle the dispatcher started it on a worker.
    pub started_at: u64,
    /// Cycle the worker raised completion.
    pub completed_at: u64,
    /// Whether serving this job required a DPR bitstream swap.
    pub swapped: bool,
    /// Bus-contention cycles charged to the worker while this job ran
    /// (cycles its DMA master wanted the bus but lost arbitration).
    pub contention_cycles: u64,
    /// The deadline, if one was set.
    pub deadline: Option<u64>,
    /// Output payload read back from shared memory (empty for a
    /// permanently failed job — a faulted worker's output is never
    /// trusted, even if its transfer finished).
    pub output: Vec<u32>,
}

impl JobRecord {
    /// Cycles spent queued before dispatch.
    #[must_use]
    pub fn queue_wait(&self) -> u64 {
        self.started_at - self.submitted_at
    }

    /// Cycles from dispatch to completion (includes any DPR swap).
    #[must_use]
    pub fn service_cycles(&self) -> u64 {
        self.completed_at - self.started_at
    }

    /// End-to-end latency, submission to completion.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.completed_at - self.submitted_at
    }

    /// Whether the job met its deadline (`true` when none was set).
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.deadline.is_none_or(|d| self.completed_at <= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_report_payload_contracts() {
        assert_eq!(JobKind::Idct.required_input_words(), Some(64));
        assert_eq!(
            JobKind::Dft { points: 64 }.required_input_words(),
            Some(128)
        );
        assert_eq!(JobKind::Copy { scale: 1 }.required_input_words(), None);
        assert_eq!(JobKind::Idct.output_words(64), 64);
    }

    #[test]
    fn golden_models_cover_all_kinds() {
        let input: Vec<u32> = (0..64).collect();
        assert_eq!(JobKind::Idct.expected_output(&input).len(), 64);
        let dft_in: Vec<u32> = (0..16).collect();
        assert_eq!(
            JobKind::Dft { points: 8 }.expected_output(&dft_in).len(),
            16
        );
        assert_eq!(
            JobKind::Copy { scale: 3 }.expected_output(&[1, 2, 0x8000_0000]),
            vec![3, 6, 0x8000_0000u32.wrapping_mul(3)]
        );
    }

    #[test]
    fn record_arithmetic() {
        let r = JobRecord {
            id: JobId(1),
            kind: JobKind::Idct,
            worker: 0,
            outcome: JobOutcome::Completed { attempts: 1 },
            submitted_at: 10,
            started_at: 25,
            completed_at: 125,
            swapped: false,
            contention_cycles: 3,
            deadline: Some(120),
            output: vec![],
        };
        assert_eq!(r.queue_wait(), 15);
        assert_eq!(r.service_cycles(), 100);
        assert_eq!(r.latency(), 115);
        assert!(!r.met_deadline());
    }
}
