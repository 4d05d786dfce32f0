//! The closed loop of the farm workloads: one client submits a batch,
//! waits for `Farm::run_until_idle` to drain it, then submits the next.
//! An epoch is a fresh pool serving a fixed batch sequence, so every
//! epoch of a run simulates exactly the same thing.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ouessant_farm::{Farm, FarmConfig, FarmReport, FifoPolicy, JobKind, JobRecord, JobSpec};

use crate::trace::Tracer;
use crate::workload::Workload;

/// Cycle budget of one batch; a batch that does not drain within it
/// is a failed run.
const FUEL: u64 = 2_000_000_000;

/// What one submitted job must produce.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The job's kind.
    pub kind: JobKind,
    /// `JobKind::expected_output` of its input.
    pub output: Vec<u32>,
}

/// The golden outputs of one epoch's jobs, in submission order (which
/// is `JobId` order on a fresh pool).
#[must_use]
pub fn expected_outputs(batches: &[Vec<JobSpec>]) -> Vec<Expected> {
    batches
        .iter()
        .flatten()
        .map(|spec| Expected {
            kind: spec.kind,
            output: spec.kind.expected_output(&spec.input),
        })
        .collect()
}

/// Everything one epoch produced.
#[derive(Debug)]
pub struct Epoch {
    /// Host time of pool construction plus job generation.
    pub setup: Duration,
    /// Host time from the first submit to the last `take_records`.
    pub timed: Duration,
    /// Simulated cycles, summed over the batches.
    pub sim_cycles: u64,
    /// The `JobId` of each submission in order, `None` if refused.
    pub ids: Vec<Option<u64>>,
    /// Every job record, in batch order.
    pub records: Vec<JobRecord>,
    /// The report taken after the last batch (cumulative counters).
    pub report: FarmReport,
    /// Cycles dispatch was blocked on shared-memory pressure.
    pub alloc_stalls: u64,
    /// Jobs dropped or aborted for hopeless deadlines.
    pub deadline_drops: u64,
    /// Worker names, by pool index.
    pub worker_names: Vec<String>,
    /// Why the epoch stopped early, if it did.
    pub error: Option<String>,
}

impl Epoch {
    /// An epoch of a pool that served nothing: every count is zero.
    #[must_use]
    pub fn idle() -> Self {
        let farm = Farm::new(FarmConfig::default(), Box::new(FifoPolicy::new()));
        Epoch {
            setup: Duration::ZERO,
            timed: Duration::ZERO,
            sim_cycles: 0,
            ids: Vec::new(),
            records: Vec::new(),
            report: farm.report(),
            alloc_stalls: 0,
            deadline_drops: 0,
            worker_names: Vec::new(),
            error: None,
        }
    }

    /// Jobs submitted.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.ids.len() as u64
    }

    /// Jobs that reached a terminal outcome.
    #[must_use]
    pub fn finished(&self) -> u64 {
        self.records.len() as u64
    }

    /// Jobs completed.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.outcome.is_completed())
            .count() as u64
    }

    /// FNV-1a over the cycle total and the full record stream (ids,
    /// placement, outcome, timestamps and outputs): equal digests mean
    /// observationally identical epochs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.sim_cycles);
        mix(self.ids.iter().filter(|id| id.is_none()).count() as u64);
        for r in &self.records {
            mix(r.id.0);
            mix(r.worker as u64);
            mix(r.submitted_at);
            mix(r.started_at);
            mix(r.completed_at);
            mix(u64::from(r.swapped));
            mix(r.contention_cycles);
            for byte in format!("{:?}", r.outcome).bytes() {
                mix(u64::from(byte));
            }
            for word in &r.output {
                mix(u64::from(*word));
            }
        }
        h
    }

    /// Problems with the epoch's outputs: a refused submission, a
    /// completed job whose output differs from its golden output
    /// (`expected` is in submission order), or an admitted job with no
    /// record.
    #[must_use]
    pub fn check(&self, expected: &[Expected]) -> Vec<String> {
        let mut problems: Vec<String> = self.error.iter().cloned().collect();
        let mut unseen: HashMap<u64, &Expected> = HashMap::new();
        for (i, (id, want)) in self.ids.iter().zip(expected).enumerate() {
            match id {
                Some(id) => {
                    unseen.insert(*id, want);
                }
                None => problems.push(format!("submission {i} was refused")),
            }
        }
        for r in &self.records {
            let Some(want) = unseen.remove(&r.id.0) else {
                problems.push(format!("unexpected or repeated record for {}", r.id));
                continue;
            };
            if r.kind != want.kind {
                problems.push(format!("{} served as {} not {}", r.id, r.kind, want.kind));
            } else if r.outcome.is_completed() && r.output != want.output {
                problems.push(format!("{} ({}) output is corrupt", r.id, r.kind));
            }
        }
        if !unseen.is_empty() {
            problems.push(format!("{} admitted jobs have no record", unseen.len()));
        }
        problems
    }
}

/// Runs one epoch: builds the pool, generates `batches` batches, then
/// serves them in a closed loop. Spans go to `tracer` when it is on;
/// `group_base` numbers the epoch's batches in the trace.
pub fn run_epoch(
    workload: Workload,
    seed: u64,
    batches: usize,
    fast_forward: bool,
    tracer: &mut Tracer,
    group_base: u64,
) -> Epoch {
    // Set-up runs twice and only the second is timed, so its time does
    // not swing with what the previous unit left in the caches.
    std::hint::black_box((
        workload.pool(fast_forward),
        workload.generate(seed, batches),
    ));
    let setup_start = Instant::now();
    let span = tracer.enter("setup", group_base);
    let mut farm = workload.pool(fast_forward);
    let jobs = workload.generate(seed, batches);
    tracer.exit(span, &[]);
    let setup = setup_start.elapsed();

    let deadline = workload.relative_deadline();
    let mut records = Vec::new();
    let mut sim_cycles = 0;
    let mut ids = Vec::new();
    let mut report = None;
    let mut error = None;
    let timed_start = Instant::now();
    for (b, batch) in jobs.into_iter().enumerate() {
        let group = group_base + b as u64;
        let batch_span = tracer.enter("batch", group);
        for spec in batch {
            let spec = match deadline {
                Some(d) => spec.with_deadline(farm.now() + d),
                None => spec,
            };
            let name = if spec.microcode.is_some() {
                "submit.custom"
            } else {
                "submit.builtin"
            };
            let span = tracer.enter(name, group);
            let id = farm.submit(spec).ok();
            tracer.exit(span, &[]);
            ids.push(id.map(|id| id.0));
        }
        let skipped_before = farm.skipped_cycles();
        let span = tracer.enter("run_until_idle", group);
        let run = farm.run_until_idle(FUEL);
        let cycles = *run.as_ref().unwrap_or(&0);
        tracer.exit(
            span,
            &[
                ("sim_cycles", cycles),
                ("skipped_cycles", farm.skipped_cycles() - skipped_before),
            ],
        );
        sim_cycles += cycles;
        let span = tracer.enter("report", group);
        report = Some(farm.report());
        tracer.exit(span, &[]);
        let span = tracer.enter("take_records", group);
        let taken = farm.take_records();
        tracer.exit(span, &[("records", taken.len() as u64)]);
        records.extend(taken);
        tracer.exit(batch_span, &[("sim_cycles", cycles)]);
        if let Err(e) = run {
            error = Some(format!("batch {b} did not drain: {e}"));
            break;
        }
    }
    let timed = timed_start.elapsed();
    Epoch {
        setup,
        timed,
        sim_cycles,
        ids,
        records,
        report: report.unwrap_or_else(|| farm.report()),
        alloc_stalls: farm.alloc_stalls(),
        deadline_drops: farm.deadline_drops(),
        worker_names: farm
            .workers()
            .iter()
            .map(|w| w.name().to_string())
            .collect(),
        error,
    }
}

/// Nearest-rank percentile of sorted samples (`p` in percent), 0 when
/// empty.
#[must_use]
pub fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// Sorted submit→complete latencies of the completed jobs.
#[must_use]
pub fn completed_latencies(records: &[JobRecord]) -> Vec<u64> {
    let mut v: Vec<u64> = records
        .iter()
        .filter(|r| r.outcome.is_completed())
        .map(JobRecord::latency)
        .collect();
    v.sort_unstable();
    v
}

/// Sorted submit→start waits of the completed jobs.
#[must_use]
pub fn completed_queue_waits(records: &[JobRecord]) -> Vec<u64> {
    let mut v: Vec<u64> = records
        .iter()
        .filter(|r| r.outcome.is_completed())
        .map(JobRecord::queue_wait)
        .collect();
    v.sort_unstable();
    v
}
