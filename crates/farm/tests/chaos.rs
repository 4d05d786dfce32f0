//! Fault-tolerance tests: the chaos matrix, the quarantine breaker,
//! and the regression pins for the pre-fault-tolerance bugs
//! (run-aborting worker faults, leaked bank leases).

use std::collections::HashMap;

use ouessant::ExecError;
use ouessant_farm::{
    ChaosConfig, DprAffinityPolicy, Farm, FarmConfig, FarmError, FaultConfig, FaultPlan,
    FifoPolicy, JobKind, JobOutcome, JobRecord, JobSpec, RoundRobinPolicy, SchedPolicy,
    SubmitError, WorkerHealth, WorkerReport,
};
use ouessant_sim::XorShift64;

const IDCT: JobKind = JobKind::Idct;
const DFT64: JobKind = JobKind::Dft { points: 64 };
const COPY3: JobKind = JobKind::Copy { scale: 3 };

/// A deterministic payload for `kind` (JPEG-range words keep the
/// fixed-point kernels inside their dynamic range).
fn payload(kind: JobKind, rng: &mut XorShift64) -> Vec<u32> {
    let words = kind.required_input_words().unwrap_or(48);
    (0..words)
        .map(|_| (rng.gen_range_i32(-1024..1024)) as u32)
        .collect()
}

/// The campaign workload: `n` jobs cycling through the three kinds.
fn workload(n: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|i| {
            let kind = match i % 3 {
                0 => IDCT,
                1 => DFT64,
                _ => COPY3,
            };
            JobSpec::new(kind, payload(kind, &mut rng))
        })
        .collect()
}

fn policy(name: &str) -> Box<dyn SchedPolicy> {
    match name {
        "fifo" => Box::new(FifoPolicy::new()),
        "round-robin" => Box::new(RoundRobinPolicy::new()),
        "dpr-affinity" => Box::new(DprAffinityPolicy::new()),
        other => panic!("unknown policy {other}"),
    }
}

/// The redundant heterogeneous pool every chaos test uses: at least
/// two workers per kind, so a single death never makes a kind
/// unserviceable; DPR slots give the bitstream seam something to
/// poison.
fn redundant_farm(policy_name: &str, faults: FaultConfig) -> Farm {
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 512,
            faults,
            ..FarmConfig::default()
        },
        policy(policy_name),
    );
    farm.add_worker(IDCT);
    farm.add_worker(DFT64);
    farm.add_dpr_worker(&[(IDCT, 40_000), (COPY3, 40_000)]);
    farm.add_dpr_worker(&[(COPY3, 40_000), (DFT64, 60_000)]);
    farm
}

/// Serves `specs` to completion and returns the farm (panicking on
/// stall — chaos must never wedge the pool).
fn serve(farm: &mut Farm, specs: Vec<JobSpec>) {
    for spec in specs {
        farm.submit(spec)
            .expect("queue sized for the whole workload");
    }
    farm.run_until_idle(400_000_000)
        .expect("fault-tolerant farm finishes every campaign");
}

/// Outputs of a fault-free run of `specs`, keyed by job id order
/// (ids are assigned sequentially from 0 in submission order).
fn baseline_outputs(policy_name: &str, specs: Vec<JobSpec>) -> HashMap<u64, Vec<u32>> {
    let mut farm = redundant_farm(policy_name, FaultConfig::default());
    serve(&mut farm, specs);
    farm.records()
        .iter()
        .map(|r| (r.id.0, r.output.clone()))
        .collect()
}

/// Serves `specs` in `batches` equal batches, taking the records after
/// each one as a long-running client would, and checks the books at
/// every batch boundary: they are cumulative, so draining the records
/// must not unbalance them. Returns every record, in batch order.
fn serve_in_batches(farm: &mut Farm, specs: Vec<JobSpec>, batches: usize) -> Vec<JobRecord> {
    let per_batch = specs.len().div_ceil(batches);
    let mut records = Vec::new();
    for batch in specs.chunks(per_batch) {
        serve(farm, batch.to_vec());
        let report = farm.report();
        assert_eq!(
            report.jobs_admitted,
            report.jobs_completed
                + report.jobs_failed_permanent
                + report.jobs_deadline_missed
                + report.jobs_shed,
            "every admitted job ends completed, failed, missed or shed — none stranded"
        );
        let sum = |f: fn(&WorkerReport) -> u64| report.workers.iter().map(f).sum::<u64>();
        // `jobs_completed` is the controllers' count; the ledger's
        // per-kind completions come from the records.
        let per_kind = report.per_kind.iter().map(|(_, n)| n).sum::<u64>();
        assert_eq!(per_kind, report.jobs_completed);
        assert_eq!(sum(|w| w.faults), report.worker_faults);
        assert_eq!(sum(|w| w.quarantines), report.quarantines);
        records.extend(farm.take_records());
    }
    records
}

/// The invariants every chaos run must hold, regardless of what was
/// injected: books balance, nothing stranded, nothing leaked, and
/// every surviving output is bit-exact against the fault-free run.
fn assert_campaign_invariants(
    farm: &Farm,
    records: &[JobRecord],
    submitted: u64,
    baseline: &HashMap<u64, Vec<u32>>,
) {
    let report = farm.report();
    assert_eq!(report.jobs_admitted, submitted, "no rejections expected");
    assert_eq!(
        report.jobs_admitted,
        report.jobs_completed + report.jobs_failed_permanent,
        "every admitted job must end as completed or failed — none stranded"
    );
    assert_eq!(
        records.len() as u64,
        submitted,
        "every admitted job has a record"
    );
    assert_eq!(farm.queue_len(), 0);
    assert_eq!(farm.parked_len(), 0);
    assert_eq!(farm.in_flight(), 0);
    assert_eq!(report.alloc.words_in_use, 0, "no leaked bank leases");
    assert_eq!(
        report.alloc.allocs, report.alloc.frees,
        "every lease returned"
    );
    for r in records {
        match &r.outcome {
            JobOutcome::Completed { attempts } => {
                assert!(*attempts >= 1);
                assert_eq!(
                    &r.output, &baseline[&r.id.0],
                    "surviving {} output must be bit-exact vs the fault-free run",
                    r.id
                );
                assert_eq!(
                    r.output,
                    r.kind.expected_output(
                        // Baseline outputs equal golden outputs, so the
                        // golden model cross-checks both runs at once.
                        &golden_input_for(r.id.0, baseline.len())
                    ),
                    "surviving {} output must match the golden model",
                    r.id
                );
            }
            JobOutcome::FailedPermanent { attempts, .. } => {
                assert!(r.output.is_empty(), "failed jobs carry no output");
                assert!(*attempts <= farm_max_attempts(), "budget respected");
            }
            JobOutcome::DeadlineMissed { .. } | JobOutcome::ShedOverload => {
                panic!(
                    "{} reported a liveness outcome in a campaign with no deadlines or \
                     shedding configured",
                    r.id
                )
            }
        }
    }
}

/// Reconstructs the input of job `id` from the workload generator (the
/// generator is deterministic, so tests never need to store inputs).
fn golden_input_for(id: u64, n: usize) -> Vec<u32> {
    let mut rng = XorShift64::new(CAMPAIGN_SEED);
    let mut input = Vec::new();
    for i in 0..n as u64 {
        let kind = match i % 3 {
            0 => IDCT,
            1 => DFT64,
            _ => COPY3,
        };
        let p = payload(kind, &mut rng);
        if i == id {
            input = p;
            break;
        }
    }
    input
}

fn farm_max_attempts() -> u32 {
    CAMPAIGN_FAULTS.max_attempts
}

/// Workload seed shared by every campaign in this file.
const CAMPAIGN_SEED: u64 = 0x0CEA_0A27;

/// The campaign fault policy: a generous retry budget and a cooldown,
/// so every retryable job can eventually complete.
const CAMPAIGN_FAULTS: FaultConfig = FaultConfig {
    max_attempts: 10,
    retry_backoff: 500,
    fault_window: 40_000,
    quarantine_threshold: 3,
    quarantine_cooldown: Some(60_000),
    fail_fast: false,
};

// ───────────────────────── regression pins ─────────────────────────

/// THE bugfix pin: before fault tolerance, one worker fault aborted
/// `run_until_idle`, stranded every in-flight job and leaked their
/// leased banks. Now the fault is absorbed, the job retries on the
/// *other* worker, and the ledger drains to zero.
#[test]
fn single_fault_retries_on_alternate_worker_without_leaking() {
    let mut farm = Farm::new(FarmConfig::default(), Box::new(FifoPolicy::new()));
    farm.add_worker(IDCT);
    farm.add_worker(IDCT);
    let mut rng = XorShift64::new(7);
    for _ in 0..6 {
        farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng)))
            .unwrap();
    }
    // Let dispatch land jobs on both workers, then kill worker 0
    // mid-job.
    while farm.workers()[0].is_idle() {
        farm.tick();
    }
    let leased_mid_job = farm.leased_words();
    assert!(leased_mid_job > 0, "worker 0 is serving a leased job");
    farm.inject_worker_fault(
        0,
        ExecError::Injected {
            cause: "test: upset",
        },
    );

    let cycles = farm
        .run_until_idle(50_000_000)
        .expect("a single fault must not abort the run");
    assert!(cycles > 0);

    let report = farm.report();
    assert_eq!(report.jobs_completed, 6, "no job lost to the fault");
    assert_eq!(report.jobs_failed_permanent, 0);
    assert_eq!(report.worker_faults, 1);
    assert_eq!(report.retries, 1);
    assert_eq!(
        report.alloc.words_in_use, 0,
        "the faulted job's leases were freed"
    );

    // The bounced job carries the attempt count and landed on worker 1.
    let retried: Vec<_> = farm
        .records()
        .iter()
        .filter(|r| r.outcome.attempts() == 2)
        .collect();
    assert_eq!(retried.len(), 1);
    assert_eq!(retried[0].worker, 1, "retry avoided the faulted worker");
    // Worker 0 recovered into Degraded and is still serving.
    assert_eq!(farm.workers()[0].health(), WorkerHealth::Degraded);
    assert_eq!(farm.workers()[0].faults_total(), 1);
}

/// `fail_fast` restores the legacy abort — but even failing fast, the
/// dead job's leases come back and it gets a permanent-failure record.
#[test]
fn fail_fast_aborts_loudly_but_still_leaks_nothing() {
    let mut farm = Farm::new(
        FarmConfig {
            faults: FaultConfig {
                fail_fast: true,
                ..FaultConfig::default()
            },
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    );
    farm.add_worker(IDCT);
    let mut rng = XorShift64::new(7);
    for _ in 0..2 {
        farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng)))
            .unwrap();
    }
    while farm.workers()[0].is_idle() {
        farm.tick();
    }
    farm.inject_worker_fault(
        0,
        ExecError::Injected {
            cause: "test: upset",
        },
    );
    let err = farm.run_until_idle(50_000_000).unwrap_err();
    assert!(
        matches!(err, FarmError::WorkerFault { worker: 0, .. }),
        "fail-fast surfaces the fault as an error: {err}"
    );
    assert_eq!(
        farm.leased_words(),
        0,
        "even an aborting run frees the leases"
    );
    let failed: Vec<_> = farm
        .records()
        .iter()
        .filter(|r| !r.outcome.is_completed())
        .collect();
    assert_eq!(
        failed.len(),
        1,
        "the dead job got a permanent-failure record"
    );
    let report = farm.report();
    assert_eq!(report.worker_faults, 1, "the fault is counted");
    assert_eq!(
        report.workers[0].faults, 1,
        "on the worker that suffered it"
    );
}

/// The circuit breaker: a worker that keeps faulting is quarantined
/// permanently (no cooldown), its kind loses service, and admission
/// starts rejecting the kind up front.
#[test]
fn breaker_permanently_quarantines_flaky_worker() {
    let mut farm = Farm::new(
        FarmConfig {
            faults: FaultConfig {
                max_attempts: 3,
                quarantine_threshold: 1,
                quarantine_cooldown: None,
                ..FaultConfig::default()
            },
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    );
    farm.add_worker(DFT64); // worker 0: the only DFT worker
    farm.add_worker(IDCT); // worker 1: unaffected bystander
    let mut rng = XorShift64::new(11);
    for _ in 0..2 {
        farm.submit(JobSpec::new(DFT64, payload(DFT64, &mut rng)))
            .unwrap();
        farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng)))
            .unwrap();
    }
    while farm.workers()[0].is_idle() {
        farm.tick();
    }
    farm.inject_worker_fault(
        0,
        ExecError::Injected {
            cause: "test: dead silicon",
        },
    );
    farm.run_until_idle(50_000_000)
        .expect("losing one kind must not wedge the others");

    let report = farm.report();
    assert_eq!(farm.workers()[0].health(), WorkerHealth::Quarantined);
    assert!(farm.workers()[0].is_permanently_dead());
    assert_eq!(report.quarantines, 1);
    assert_eq!(report.jobs_completed, 2, "both IDCT jobs served");
    assert_eq!(
        report.jobs_failed_permanent, 2,
        "both DFT jobs failed cleanly (in-flight + queued)"
    );
    assert_eq!(
        report.jobs_admitted,
        report.jobs_completed + report.jobs_failed_permanent
    );
    assert_eq!(report.alloc.words_in_use, 0);

    // The pool now refuses the dead kind at admission.
    assert_eq!(
        farm.submit(JobSpec::new(DFT64, payload(DFT64, &mut rng))),
        Err(SubmitError::NoCapableWorker { kind: DFT64 })
    );
    // The surviving kind still serves.
    farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng)))
        .unwrap();
    farm.run_until_idle(50_000_000).unwrap();
    assert_eq!(farm.report().jobs_completed, 3);
}

/// A fault on a worker already in quarantine is counted, but the
/// worker stays quarantined and its cooldown still runs from the trip:
/// it gains no job before then.
#[test]
fn fault_while_quarantined_keeps_the_worker_out() {
    const COOLDOWN: u64 = 10_000_000;
    let mut farm = Farm::new(
        FarmConfig {
            faults: FaultConfig {
                quarantine_threshold: 2,
                quarantine_cooldown: Some(COOLDOWN),
                ..FaultConfig::default()
            },
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    );
    farm.add_worker(COPY3);
    let upset = || ExecError::Injected {
        cause: "test: upset",
    };
    // Two faults on the idle worker trip the breaker; each is absorbed
    // and recovered on the tick after its injection.
    for _ in 0..2 {
        farm.inject_worker_fault(0, upset());
        farm.tick();
    }
    let tripped_at = farm.now();
    assert_eq!(farm.workers()[0].health(), WorkerHealth::Quarantined);
    for _ in 0..1_000 {
        farm.tick();
    }
    farm.inject_worker_fault(0, upset());
    farm.tick();
    let worker = &farm.workers()[0];
    assert_eq!(worker.faults_total(), 3, "the third fault is counted");
    assert_eq!(worker.health(), WorkerHealth::Quarantined);
    assert!(
        !worker.is_dispatchable(),
        "a quarantined worker takes no job"
    );
    assert_eq!(worker.quarantines_total(), 1);

    let mut rng = XorShift64::new(5);
    farm.submit(JobSpec::new(COPY3, payload(COPY3, &mut rng)))
        .unwrap();
    farm.run_until_idle(2 * COOLDOWN).unwrap();
    let started = farm.records()[0].started_at;
    assert!(
        (tripped_at + COOLDOWN..tripped_at + COOLDOWN + 1_000).contains(&started),
        "the job waits out the cooldown counted from the trip: started at {started}, \
         tripped at {tripped_at}"
    );
}

// ───────────────────────── the chaos matrix ─────────────────────────

/// One matrix cell: a campaign with exactly one seam armed, under one
/// policy. Returns the injected-fault count for that seam so the sweep
/// can prove every seam actually fired.
fn run_matrix_cell(policy_name: &str, seam: &str) -> u64 {
    let n = 48;
    let specs = workload(n, CAMPAIGN_SEED);
    let baseline = baseline_outputs(policy_name, specs.clone());

    let mut config = ChaosConfig {
        seed: 0xC4A0_5EED ^ seam.len() as u64,
        controller_one_in: 0,
        bus_one_in: 0,
        bitstream_one_in: 0,
        alloc_one_in: 0,
        alloc_hold: 3_000,
        wedge_one_in: 0,
        slow_one_in: 0,
        slow_stall: 0,
    };
    match seam {
        "controller" => config.controller_one_in = 15_000,
        "bus" => config.bus_one_in = 12_000,
        "bitstream" => config.bitstream_one_in = 3_000,
        "alloc" => config.alloc_one_in = 4_000,
        other => panic!("unknown seam {other}"),
    }

    let mut farm = redundant_farm(policy_name, CAMPAIGN_FAULTS.clone());
    farm.arm_chaos(FaultPlan::new(config));
    let records = serve_in_batches(&mut farm, specs, 2);
    assert_campaign_invariants(&farm, &records, n as u64, &baseline);

    let stats = farm.chaos_stats().expect("campaign was armed");
    match seam {
        "controller" => stats.controller_faults,
        "bus" => stats.bus_faults,
        "bitstream" => stats.bitstream_faults,
        _ => stats.alloc_squats,
    }
}

/// The seeded sweep over {controller, bus, bitstream, alloc} ×
/// {FIFO, round-robin, DPR-affinity}: every cell must satisfy the
/// campaign invariants, and every seam must have fired at least once
/// somewhere in the sweep (otherwise the sweep proves nothing).
#[test]
fn chaos_matrix_sweep_survives_every_seam_under_every_policy() {
    for seam in ["controller", "bus", "bitstream", "alloc"] {
        let mut injected = 0;
        for policy_name in ["fifo", "round-robin", "dpr-affinity"] {
            injected += run_matrix_cell(policy_name, seam);
        }
        assert!(
            injected > 0,
            "the {seam} seam never fired across any policy — rates too low to test anything"
        );
    }
}

// ──────────────────── the full acceptance campaign ───────────────────

/// The acceptance campaign: 240 mixed jobs with all four seams armed
/// hot enough for a ≥10% fault rate. Zero stranded jobs, zero leaked
/// leases, every retryable job eventually completes, all outputs
/// bit-exact vs the fault-free baseline, counters reconcile exactly.
#[test]
fn full_chaos_campaign_completes_every_retryable_job() {
    let n = 240;
    let specs = workload(n, CAMPAIGN_SEED);
    let baseline = baseline_outputs("round-robin", specs.clone());

    let mut farm = redundant_farm("round-robin", CAMPAIGN_FAULTS.clone());
    farm.arm_chaos(FaultPlan::new(ChaosConfig {
        seed: 0xFA11_FA57,
        controller_one_in: 25_000,
        bus_one_in: 20_000,
        bitstream_one_in: 4_000,
        alloc_one_in: 6_000,
        alloc_hold: 3_000,
        wedge_one_in: 0,
        slow_one_in: 0,
        slow_stall: 0,
    }));
    let records = serve_in_batches(&mut farm, specs, 3);
    assert_campaign_invariants(&farm, &records, n as u64, &baseline);

    let report = farm.report();
    let stats = farm.chaos_stats().unwrap();
    assert!(
        stats.controller_faults > 0
            && stats.bus_faults > 0
            && stats.bitstream_faults > 0
            && stats.alloc_squats > 0,
        "all four seams must fire in the acceptance campaign: {stats:?}"
    );
    assert!(
        stats.worker_faults() + stats.alloc_squats >= n as u64 / 10,
        "fault rate below 10%: {stats:?}"
    );
    assert_eq!(report.worker_faults, stats.worker_faults());
    assert_eq!(
        report.jobs_completed, n as u64,
        "with redundancy, a retry budget of {} and cooldown quarantine, every \
         retryable job must eventually complete ({} failed)",
        CAMPAIGN_FAULTS.max_attempts, report.jobs_failed_permanent
    );
    assert!(
        report.retries > 0,
        "faults mid-job must have forced retries"
    );
}
