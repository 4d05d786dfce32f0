//! A benchmark run.
//!
//! * [`reference`] simulates the workload once at full size, checks
//!   every output, cross-checks fast-forward against single-stepping,
//!   and yields the simulated metrics, which repeat exactly.
//! * The timed units (a fresh pool serving a prefix of the reference
//!   batches, or one paper pass) then run for `--seconds`, each checked
//!   and each bracketed by the host-speed calibration of
//!   [`crate::calibrate`]; host-time metrics are medians over them.
//! * [`end_to_end`] is the untraced run. [`per_layer`] is the traced
//!   run: it alternates untraced and traced units, takes the per-layer
//!   numbers from the traced ones, and states the tracing overhead.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ouessant_farm::{JobRecord, WorkerReport};

use crate::calibrate::{Calibrator, SENSITIVITY};
use crate::farm_run::{
    completed_latencies, completed_queue_waits, expected_outputs, percentile, run_epoch, Epoch,
    Expected,
};
use crate::paper::{Pass, Plan};
use crate::trace::{chrome_trace, Tracer};
use crate::workload::Workload;

/// The workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xBE4C_2016;

/// Units a measurement times even when its time is up, so that a
/// traced run has both kinds and a median has a middle.
const MIN_UNITS: usize = 3;

/// Trace group of the reference paper pass.
const REFERENCE_GROUP: u64 = u64::MAX;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generator.
    pub seed: u64,
    /// Host seconds to time units for.
    pub seconds: f64,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// Batches of both the reference and the timed epochs, in place of
    /// the workload's own counts.
    pub batches: Option<usize>,
}

impl Options {
    fn reference_batches(&self) -> usize {
        self.batches
            .or(self.workload.reference_batches())
            .unwrap_or(0)
    }

    fn timed_batches(&self) -> usize {
        self.batches.or(self.workload.timed_batches()).unwrap_or(0)
    }
}

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Problems found by the output checks; empty when correct.
    pub problems: Vec<String>,
    /// Operations attempted: farm jobs submitted, or OCP offloads.
    pub attempted: u64,
    /// Attempted operations that did not complete.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, checks, trace overhead.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result as the one-line JSON object the benchmark prints last.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One timed unit: a farm epoch of the timed batches, or a paper pass.
#[derive(Debug, Clone)]
struct Unit {
    traced: bool,
    setup: Duration,
    timed: Duration,
    /// Host speed relative to nominal around the unit (see
    /// [`crate::calibrate`]).
    speed: f64,
    sim_cycles: u64,
    /// Jobs that reached a terminal outcome, or offloads made.
    operations: u64,
    attempted: u64,
    failed: u64,
    digest: u64,
    problems: Vec<String>,
}

impl Unit {
    /// `wall` converted to nominal seconds.
    fn nominal_s(&self, wall: Duration) -> f64 {
        wall.as_secs_f64() * self.speed.powi(SENSITIVITY)
    }

    fn mcycles_per_s(&self) -> f64 {
        self.sim_cycles as f64 / 1e6 / self.nominal_s(self.timed)
    }

    fn wall_mcycles_per_s(&self) -> f64 {
        self.sim_cycles as f64 / 1e6 / self.timed.as_secs_f64()
    }

    fn ops_per_s(&self) -> f64 {
        self.operations as f64 / self.nominal_s(self.timed)
    }
}

/// Times units for `options.seconds` (at least [`MIN_UNITS`]); with
/// `alternate`, every second unit is traced.
fn time_units(options: &Options, tracer: &mut Tracer, alternate: bool) -> Vec<Unit> {
    let (workload, seed) = (options.workload, options.seed);
    let expected: Vec<Expected> = match workload {
        Workload::PaperRepro => Vec::new(),
        _ => expected_outputs(&workload.generate(seed, options.timed_batches())),
    };
    let mut units = Vec::new();
    let mut calibrator = Calibrator::new();
    let mut speed_before = calibrator.speed();
    let start = Instant::now();
    while units.len() < MIN_UNITS || start.elapsed().as_secs_f64() < options.seconds {
        let traced = alternate && units.len() % 2 == 1;
        let group = (units.len() as u64) << 32;
        tracer.set_enabled(traced);
        let mut unit = if workload == Workload::PaperRepro {
            // Timed warm, like the farm set-up (see `run_epoch`).
            std::hint::black_box(Plan::new(seed));
            let setup_start = Instant::now();
            let span = tracer.enter("setup", group);
            let plan = Plan::new(seed);
            tracer.exit(span, &[]);
            let setup = setup_start.elapsed();
            let pass = plan.run(tracer, group);
            let problems = plan.check(&pass);
            let offloads = plan.offloads() as u64;
            Unit {
                traced,
                setup,
                timed: pass.timed,
                speed: 1.0,
                sim_cycles: pass.sim_cycles(),
                operations: offloads,
                attempted: offloads,
                failed: problems.len() as u64,
                digest: fnv(&pass.fingerprint()),
                problems,
            }
        } else {
            let epoch = run_epoch(workload, seed, options.timed_batches(), true, tracer, group);
            Unit {
                traced,
                setup: epoch.setup,
                timed: epoch.timed,
                speed: 1.0,
                sim_cycles: epoch.sim_cycles,
                operations: epoch.finished(),
                attempted: epoch.submitted(),
                failed: epoch.submitted() - epoch.completed(),
                digest: epoch.digest(),
                problems: epoch.check(&expected),
            }
        };
        tracer.set_enabled(false);
        let speed_after = calibrator.speed();
        unit.speed = (speed_before + speed_after) / 2.0;
        speed_before = speed_after;
        units.push(unit);
    }
    units
}

/// The units' problems, plus one for each unit that simulated
/// something else than the first.
fn unit_problems(units: &[Unit]) -> Vec<String> {
    let mut problems: Vec<String> = units.iter().flat_map(|u| u.problems.clone()).collect();
    for (i, u) in units.iter().enumerate().skip(1) {
        if u.digest != units[0].digest {
            problems.push(format!(
                "timed unit {i} differs from unit 0: the simulation is not deterministic"
            ));
        }
    }
    problems
}

/// The full-size simulation the simulated metrics come from.
#[derive(Debug)]
struct Reference {
    /// The paper pass: the accuracy figure, and for `paper-repro` the
    /// pass every timed pass must reproduce.
    pass: Pass,
    /// The reference epoch of a farm workload.
    epoch: Option<Epoch>,
    /// Problems found by the output checks and the cross-check.
    problems: Vec<String>,
    /// Human-readable lines.
    notes: Vec<String>,
    /// Operations attempted and failed: the epoch's jobs, or the pass's
    /// offloads.
    attempted: u64,
    failed: u64,
}

impl Reference {
    fn sim_cycles(&self) -> u64 {
        self.epoch
            .as_ref()
            .map_or_else(|| self.pass.sim_cycles(), |e| e.sim_cycles)
    }

    fn latencies(&self) -> Vec<u64> {
        match &self.epoch {
            Some(epoch) => completed_latencies(&epoch.records),
            None => {
                let mut cycles = self.pass.offload_cycles();
                cycles.sort_unstable();
                cycles
            }
        }
    }
}

/// Simulates the workload once at full size (the paper pass is traced
/// when `tracer` is on), checks every output and, for a farm workload,
/// requires a single-stepped epoch to match the fast-forward one.
fn reference(options: &Options, tracer: &mut Tracer) -> Reference {
    let (workload, seed) = (options.workload, options.seed);
    let plan = Plan::new(seed);
    let pass = plan.run(tracer, REFERENCE_GROUP);
    let mut problems = plan.check(&pass);
    let mut attempted = plan.offloads() as u64;
    let mut failed = problems.len() as u64;
    let mut notes = Vec::new();
    let epoch = (workload != Workload::PaperRepro).then(|| {
        let batches = options.reference_batches();
        let epoch = run_epoch(workload, seed, batches, true, &mut Tracer::new(), 0);
        problems.extend(epoch.check(&expected_outputs(&workload.generate(seed, batches))));
        (attempted, failed) = (epoch.submitted(), epoch.submitted() - epoch.completed());
        let stepped = run_epoch(workload, seed, batches, false, &mut Tracer::new(), 0);
        let same = stepped.sim_cycles == epoch.sim_cycles && stepped.digest() == epoch.digest();
        if !same {
            problems.push(format!(
                "stepping modes diverged: fast-forward {} cycles, digest {:#018x}; single-step {} cycles, digest {:#018x}",
                epoch.sim_cycles,
                epoch.digest(),
                stepped.sim_cycles,
                stepped.digest()
            ));
        }
        notes.push(format!(
            "reference epoch: {batches} batches, {} jobs, {} cycles; single-step cross-check {}",
            epoch.submitted(),
            epoch.sim_cycles,
            if same { "identical" } else { "DIVERGED" }
        ));
        epoch
    });
    Reference {
        pass,
        epoch,
        problems,
        notes,
        attempted,
        failed,
    }
}

/// The untraced run: the end-to-end metrics, simulated ones from the
/// reference, host-time ones as medians over the timed units.
#[must_use]
pub fn end_to_end(options: &Options) -> Outcome {
    let reference = reference(options, &mut Tracer::new());
    let units = time_units(options, &mut Tracer::new(), false);
    let mut out = outcome(&reference, &units);
    if options.workload == Workload::PaperRepro {
        let want = fnv(&reference.pass.fingerprint());
        if units.iter().any(|u| u.digest != want) {
            out.problems
                .push("a timed paper pass differs from the first pass".to_string());
        }
    }
    let across = |f: fn(&Unit) -> f64| median(units.iter().map(f).collect());
    out.metric("sim_mcycles_per_s", across(Unit::mcycles_per_s), "Mcycle/s");
    out.metric("jobs_per_s", across(Unit::ops_per_s), "1/s");
    out.metric("setup_s", across(|u| u.nominal_s(u.setup)), "s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    out.metric("sim_cycles", reference.sim_cycles() as f64, "cycles");
    let latency = reference.latencies();
    let p99 = percentile(&latency, 99);
    out.metric(
        "job_latency_cycles_p50",
        percentile(&latency, 50) as f64,
        "cycles",
    );
    out.metric("job_latency_cycles_p99", p99 as f64, "cycles");
    out.metric(
        "completed_frac",
        ratio(
            (reference.attempted - reference.failed) as f64,
            reference.attempted as f64,
        ),
        "ratio",
    );
    let (err, quantity) = reference.pass.max_error_pct().unwrap_or((f64::NAN, "none"));
    out.metric("paper_max_err_pct", err, "%");
    out.notes.push(format!(
        "{}: seed {:#x}; {} timed units; wall-clock {:.4} Mcycle/s at host speed {:.3} of nominal (medians); latency p50/p99 over {} samples, {} beyond p99; largest paper error: {quantity}",
        options.workload.name(),
        options.seed,
        units.len(),
        across(Unit::wall_mcycles_per_s),
        across(|u| u.speed),
        latency.len(),
        latency.iter().filter(|&&l| l > p99).count()
    ));
    out
}

/// The checks and operation counts of the reference and the units.
fn outcome(reference: &Reference, units: &[Unit]) -> Outcome {
    let mut problems = reference.problems.clone();
    problems.extend(unit_problems(units));
    Outcome {
        problems,
        notes: reference.notes.clone(),
        attempted: reference.attempted + units.iter().map(|u| u.attempted).sum::<u64>(),
        failed: reference.failed + units.iter().map(|u| u.failed).sum::<u64>(),
        metrics: Vec::new(),
    }
}

/// The traced run: per-layer metrics, the Chrome trace, and the
/// tracing overhead, all from this process.
#[must_use]
pub fn per_layer(options: &Options) -> Outcome {
    let mut tracer = Tracer::new();
    tracer.set_enabled(true);
    let reference = reference(options, &mut tracer);
    tracer.set_enabled(false);
    let units = time_units(options, &mut tracer, true);
    let mut out = outcome(&reference, &units);

    let idle = Epoch::idle();
    let epoch = reference.epoch.as_ref().unwrap_or(&idle);
    farm_layers(&mut out, epoch, &tracer);
    paper_layers(&mut out, &tracer);

    let rate = |traced: bool| {
        median(
            units
                .iter()
                .filter(|u| u.traced == traced)
                .map(Unit::mcycles_per_s)
                .collect(),
        )
    };
    let (untraced, traced) = (rate(false), rate(true));
    let overhead = 100.0 * (ratio(untraced, traced) - 1.0);
    out.metric("trace.untraced_mcycles_per_s", untraced, "Mcycle/s");
    out.metric("trace.traced_mcycles_per_s", traced, "Mcycle/s");
    out.metric("trace.overhead_pct", overhead, "%");
    out.notes.push(format!(
        "{}: seed {:#x}; tracing overhead {overhead:.2}% ({untraced:.4} untraced vs {traced:.4} traced nominal Mcycle/s, medians of {} units)",
        options.workload.name(),
        options.seed,
        units.len()
    ));
    write_trace(
        options,
        &mut out,
        &tracer,
        &epoch.records,
        &epoch.worker_names,
    );
    out
}

fn write_trace(
    options: &Options,
    out: &mut Outcome,
    tracer: &Tracer,
    jobs: &[JobRecord],
    workers: &[String],
) {
    let path = options.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", options.workload.name()))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, chrome_trace(tracer.spans(), jobs, workers)));
    match written {
        Ok(()) => out.notes.push(format!(
            "trace: {} host spans, {} simulated jobs -> {}",
            tracer.spans().len(),
            jobs.len(),
            path.display()
        )),
        Err(e) => out
            .problems
            .push(format!("cannot write trace {}: {e}", path.display())),
    }
}

/// `soc`, `isa` and `resources`: host time per call, from the traced
/// paper passes (the reference pass, for a farm workload).
fn paper_layers(out: &mut Outcome, tracer: &Tracer) {
    const SOC_CALLS: [&str; 3] = [
        "soc.idct_experiment",
        "soc.dft_experiment",
        "soc.transfer_experiment",
    ];
    out.metric("soc.idct_experiment_us", tracer.mean_us(SOC_CALLS[0]), "us");
    out.metric("soc.dft_experiment_us", tracer.mean_us(SOC_CALLS[1]), "us");
    out.metric(
        "soc.transfer_experiment_us",
        tracer.mean_us(SOC_CALLS[2]),
        "us",
    );
    let (mut ns, mut cycles) = (0u64, 0u64);
    for span in tracer
        .spans()
        .iter()
        .filter(|s| SOC_CALLS.contains(&s.name))
    {
        ns += span.duration_ns();
        cycles += span.counters.iter().map(|c| c.1).sum::<u64>();
    }
    out.metric(
        "soc.ns_per_machine_cycle",
        ratio(ns as f64, cycles as f64),
        "ns",
    );
    out.metric("isa.assemble_us", tracer.mean_us("isa.assemble"), "us");
    out.metric("isa.optimize_us", tracer.mean_us("isa.optimize"), "us");
    out.metric(
        "resources.estimate_us",
        tracer.mean_us("resources.estimate"),
        "us",
    );
}

/// The farm's per-layer metrics: host time from the traced spans,
/// counters from the reference epoch (all zero for `paper-repro`).
fn farm_layers(out: &mut Outcome, epoch: &Epoch, tracer: &Tracer) {
    let (mut run_ns, mut stepped) = (0u64, 0u64);
    for span in tracer.named("run_until_idle") {
        run_ns += span.duration_ns();
        let counter = |key| span.counters.iter().find(|c| c.0 == key).map_or(0, |c| c.1);
        stepped += counter("sim_cycles") - counter("skipped_cycles");
    }
    out.metric(
        "farm.run_ns_per_stepped_cycle",
        ratio(run_ns as f64, stepped as f64),
        "ns",
    );
    let report = &epoch.report;
    out.metric(
        "farm.ff.skipped_frac",
        ratio(report.skipped_cycles as f64, epoch.sim_cycles as f64),
        "ratio",
    );
    out.metric(
        "farm.submit_us.builtin",
        tracer.mean_us("submit.builtin"),
        "us",
    );
    out.metric(
        "farm.submit_us.custom",
        tracer.mean_us("submit.custom"),
        "us",
    );
    let batches = tracer.named("batch").count();
    let report_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "report" || s.name == "take_records")
        .map(|s| s.duration_ns())
        .sum();
    out.metric(
        "farm.report_us",
        ratio(report_ns as f64, batches as f64) / 1e3,
        "us",
    );
    let waits = completed_queue_waits(&epoch.records);
    out.metric(
        "farm.queue.wait_cycles_p50",
        percentile(&waits, 50) as f64,
        "cycles",
    );
    out.metric(
        "farm.queue.wait_cycles_p99",
        percentile(&waits, 99) as f64,
        "cycles",
    );
    out.metric(
        "farm.queue.peak_depth",
        report.queue_peak_depth as f64,
        "jobs",
    );
    let workers = &report.workers;
    let sum = |f: fn(&WorkerReport) -> u64| workers.iter().map(f).sum::<u64>() as f64;
    let busy = sum(|w| w.busy_cycles);
    out.metric(
        "farm.worker.utilization",
        ratio(busy, workers.len() as f64 * report.total_cycles as f64),
        "ratio",
    );
    out.metric(
        "farm.worker.swaps_per_job",
        ratio(report.swaps as f64, epoch.completed() as f64),
        "swaps/job",
    );
    out.metric("farm.alloc_stalls", epoch.alloc_stalls as f64, "cycles");
    out.metric(
        "farm.fault.worker_faults",
        report.worker_faults as f64,
        "count",
    );
    out.metric("farm.fault.retries", report.retries as f64, "count");
    out.metric("farm.fault.quarantines", report.quarantines as f64, "count");
    let retried_ok = epoch
        .records
        .iter()
        .filter(|r| r.outcome.is_completed() && r.outcome.attempts() > 1)
        .count();
    out.metric(
        "farm.fault.retry_yield",
        ratio(retried_ok as f64, report.retries as f64),
        "ratio",
    );
    out.metric(
        "farm.liveness.hangs_detected",
        report.hangs_detected as f64,
        "count",
    );
    out.metric("farm.liveness.aborts", report.aborts as f64, "count");
    out.metric(
        "farm.liveness.deadline_drops",
        epoch.deadline_drops as f64,
        "count",
    );
    out.metric("sim.bus.beats", sum(|w| w.bus_beats), "beats");
    out.metric(
        "sim.bus.contention_cycles",
        sum(|w| w.contention_cycles),
        "cycles",
    );
    out.metric(
        "sim.bus.beats_per_grant",
        ratio(sum(|w| w.bus_beats), sum(|w| w.bus_grants)),
        "beats",
    );
    let compute: u64 = epoch
        .records
        .iter()
        .filter(|r| r.outcome.is_completed())
        .map(|r| r.kind.core_latency_estimate())
        .sum();
    out.metric("rac.compute_share", ratio(compute as f64, busy), "ratio");
}
