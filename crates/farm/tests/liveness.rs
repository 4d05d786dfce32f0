//! Liveness-layer tests: hang watchdogs, host-side deadline
//! enforcement (early drop and in-flight abort), graceful overload
//! shedding, and the `std::error::Error` surface of the farm's error
//! types.

use ouessant::ExecError;
use ouessant_farm::{
    Farm, FarmConfig, FarmError, FaultConfig, FifoPolicy, JobKind, JobOutcome, JobSpec,
    LivenessConfig, SubmitError, WorkerFaultKind, WorkerHealth,
};
use ouessant_sim::XorShift64;

const IDCT: JobKind = JobKind::Idct;
const DFT64: JobKind = JobKind::Dft { points: 64 };
const DFT1K: JobKind = JobKind::Dft { points: 1024 };

fn payload(kind: JobKind, rng: &mut XorShift64) -> Vec<u32> {
    let words = kind.required_input_words().unwrap_or(48);
    (0..words)
        .map(|_| (rng.gen_range_i32(-1024..1024)) as u32)
        .collect()
}

fn watched_farm(liveness: LivenessConfig) -> Farm {
    Farm::new(
        FarmConfig {
            liveness,
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    )
}

/// A wedged controller makes no progress, so the watchdog bites at
/// exactly the budget, the job retries on the other worker, and the
/// hang counts against the wedged worker's circuit breaker.
#[test]
fn watchdog_aborts_wedged_worker_and_retries() {
    let mut farm = watched_farm(LivenessConfig {
        default_cycles_budget: Some(5_000),
        ..LivenessConfig::default()
    });
    farm.add_worker(IDCT);
    farm.add_worker(IDCT);
    let mut rng = XorShift64::new(3);
    for _ in 0..3 {
        farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng)))
            .unwrap();
    }
    while farm.workers()[0].is_idle() {
        farm.tick();
    }
    farm.inject_worker_wedge(0);
    assert!(farm.workers()[0].is_wedged());

    farm.run_until_idle(10_000_000)
        .expect("the watchdog must free the pool");
    assert!(!farm.workers()[0].is_wedged(), "recovery cleared the wedge");

    let report = farm.report();
    assert_eq!(report.jobs_completed, 3, "no job lost to the hang");
    assert_eq!(report.hangs_detected, 1);
    assert_eq!(report.aborts, 1);
    assert_eq!(report.worker_faults, 1, "a hang is a worker fault");
    assert_eq!(report.retries, 1);
    assert_eq!(report.alloc.words_in_use, 0, "no leaked leases");
    // The hang rode the circuit breaker: one strike, now Degraded.
    assert_eq!(farm.workers()[0].health(), WorkerHealth::Degraded);
    assert_eq!(farm.workers()[0].faults_total(), 1);
    // The wedged job completed on the other worker, on attempt 2.
    let retried: Vec<_> = farm
        .records()
        .iter()
        .filter(|r| r.outcome.attempts() == 2)
        .collect();
    assert_eq!(retried.len(), 1);
    assert_eq!(retried[0].worker, 1, "retry avoided the wedged worker");
}

/// A wedged worker with *no* watchdog armed can only burn fuel; the
/// enriched `Stalled` error must say which worker is wedged so the
/// failure is diagnosable.
#[test]
fn unwatched_wedge_stalls_with_diagnosable_error() {
    let mut farm = watched_farm(LivenessConfig::default());
    farm.add_worker(IDCT);
    let mut rng = XorShift64::new(3);
    farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng)))
        .unwrap();
    while farm.workers()[0].is_idle() {
        farm.tick();
    }
    farm.inject_worker_wedge(0);
    let err = farm
        .run_until_idle(100_000)
        .expect_err("an unwatched wedge can never drain");
    let FarmError::Stalled {
        in_flight, workers, ..
    } = &err
    else {
        panic!("expected Stalled, got {err:?}");
    };
    assert_eq!(*in_flight, 1);
    assert!(workers[0].wedged, "the snapshot flags the wedged worker");
    let msg = err.to_string();
    assert!(
        msg.contains("WEDGED") && msg.contains("pool dead"),
        "stall message must name the wedge: {msg}"
    );
}

/// A deadline at the end of time never fires, and both stepping modes
/// agree on it: the fast-forward loop's abort and drop horizons
/// saturate instead of overflowing.
#[test]
fn deadlines_at_the_end_of_time_never_fire_in_either_mode() {
    for deadline in [u64::MAX, u64::MAX - 1] {
        let [stepped, leapt] = [false, true].map(|fast_forward| {
            let mut farm = Farm::new(
                FarmConfig {
                    fast_forward,
                    liveness: LivenessConfig {
                        early_drop: true,
                        ..LivenessConfig::default()
                    },
                    ..FarmConfig::default()
                },
                Box::new(FifoPolicy::new()),
            );
            farm.add_worker(IDCT);
            let mut rng = XorShift64::new(7);
            for _ in 0..2 {
                let spec = JobSpec::new(IDCT, payload(IDCT, &mut rng)).with_deadline(deadline);
                farm.submit(spec).unwrap();
            }
            let cycles = farm.run_until_idle(1_000_000).expect("both jobs finish");
            let records = farm.records();
            assert_eq!(records.len(), 2);
            assert!(records.iter().all(|r| r.outcome.is_completed()));
            (cycles, format!("{records:?}"))
        });
        assert_eq!(stepped, leapt, "deadline {deadline}");
    }
}

/// Early drop: queued jobs whose deadline is already unmeetable are
/// reaped before they waste a worker, and an in-flight job past its
/// deadline is aborted — without punishing the worker's breaker.
#[test]
fn early_drop_reaps_hopeless_jobs_and_aborts_overdue_work() {
    let mut farm = watched_farm(LivenessConfig {
        early_drop: true,
        ..LivenessConfig::default()
    });
    farm.add_worker(IDCT);
    let mut rng = XorShift64::new(5);
    for _ in 0..5 {
        farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng)).with_deadline(50))
            .unwrap();
    }
    farm.run_until_idle(10_000_000)
        .expect("dropped jobs must not wedge the pool");

    let report = farm.report();
    assert_eq!(
        report.jobs_completed, 0,
        "nothing can meet a 50-cycle deadline"
    );
    assert_eq!(
        report.jobs_deadline_missed, 5,
        "all five dropped or aborted"
    );
    assert_eq!(farm.deadline_drops(), 5);
    assert_eq!(
        report.aborts, 1,
        "the one dispatched job was aborted in flight"
    );
    assert_eq!(
        report.alloc.words_in_use, 0,
        "the aborted job's leases came back"
    );
    for r in farm.records() {
        assert!(matches!(r.outcome, JobOutcome::DeadlineMissed { .. }));
        assert!(r.output.is_empty());
    }
    // A deadline abort is not a fault: the worker is still Healthy.
    assert_eq!(farm.workers()[0].health(), WorkerHealth::Healthy);
    assert_eq!(farm.workers()[0].faults_total(), 0);
    assert_eq!(report.worker_faults, 0);
}

/// The in-flight abort frees a worker that would otherwise compute
/// long past the deadline, and the freed worker goes straight back
/// into service for the next job.
#[test]
fn deadline_abort_returns_worker_to_service() {
    // Deadline just above the optimistic core estimate: the job clears
    // admission and dispatch, but transfers push real service past it.
    let deadline = DFT1K.core_latency_estimate() + 100;
    let mut farm = Farm::new(
        FarmConfig {
            fifo_depth: 4096,
            liveness: LivenessConfig {
                early_drop: true,
                ..LivenessConfig::default()
            },
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    );
    farm.add_worker(DFT1K);
    let mut rng = XorShift64::new(7);
    farm.submit(JobSpec::new(DFT1K, payload(DFT1K, &mut rng)).with_deadline(deadline))
        .unwrap();
    let free = JobSpec::new(DFT1K, payload(DFT1K, &mut rng));
    let free_input = free.input.clone();
    farm.submit(free).unwrap();

    farm.run_until_idle(10_000_000).expect("must drain");
    let report = farm.report();
    assert_eq!(report.aborts, 1, "the overdue job was aborted in flight");
    assert_eq!(report.jobs_deadline_missed, 1);
    assert_eq!(
        report.jobs_completed, 1,
        "the deadline-free job still served"
    );
    assert_eq!(report.worker_faults, 0, "an abort is not a fault");
    assert_eq!(farm.workers()[0].health(), WorkerHealth::Healthy);
    let done = farm
        .records()
        .iter()
        .find(|r| r.outcome.is_completed())
        .expect("one completion");
    assert_eq!(
        done.output,
        DFT1K.expected_output(&free_input),
        "the post-abort job computed on a cleanly reset worker"
    );
}

/// A deadline abort closes its job's span on the abort cycle: the
/// worker's busy time is the aborted span up to that cycle plus the
/// span of the job it served next, stepped or fast-forwarded.
#[test]
fn busy_time_includes_an_aborted_span_up_to_the_abort() {
    let deadline = DFT1K.core_latency_estimate() + 100;
    for fast_forward in [false, true] {
        let mut farm = Farm::new(
            FarmConfig {
                fifo_depth: 4096,
                fast_forward,
                liveness: LivenessConfig {
                    early_drop: true,
                    ..LivenessConfig::default()
                },
                ..FarmConfig::default()
            },
            Box::new(FifoPolicy::new()),
        );
        farm.add_worker(DFT1K);
        let mut rng = XorShift64::new(7);
        farm.submit(JobSpec::new(DFT1K, payload(DFT1K, &mut rng)).with_deadline(deadline))
            .unwrap();
        farm.submit(JobSpec::new(DFT1K, payload(DFT1K, &mut rng)))
            .unwrap();
        farm.run_until_idle(10_000_000).expect("must drain");

        let report = farm.report();
        assert_eq!(report.aborts, 1, "fast_forward {fast_forward}");
        let records = farm.records();
        let aborted = records
            .iter()
            .find(|r| matches!(r.outcome, JobOutcome::DeadlineMissed { .. }))
            .expect("one aborted job");
        let served = records
            .iter()
            .find(|r| r.outcome.is_completed())
            .expect("one served job");
        assert_eq!(
            aborted.completed_at,
            deadline + 1,
            "aborted on the first cycle past its deadline"
        );
        assert!(aborted.started_at < aborted.completed_at);
        assert_eq!(
            report.workers[0].busy_cycles,
            (aborted.completed_at - aborted.started_at) + (served.completed_at - served.started_at),
            "fast_forward {fast_forward}"
        );
    }
}

/// Overload shedding: past the watermark, below-floor work is refused
/// at admission; at capacity, a priority submission evicts the
/// youngest lowest-class queued job and the eviction is recorded.
#[test]
fn overload_sheds_low_priority_work_gracefully() {
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 4,
            liveness: LivenessConfig {
                shed_watermark: Some(2),
                shed_floor: 1,
                ..LivenessConfig::default()
            },
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    );
    farm.add_worker(IDCT);
    let mut rng = XorShift64::new(9);
    let mut spec = |prio: u8| JobSpec::new(IDCT, payload(IDCT, &mut rng)).with_priority(prio);

    // Two normal jobs fill to the watermark.
    farm.submit(spec(0)).unwrap();
    farm.submit(spec(0)).unwrap();
    // Past the watermark, priority 0 is refused...
    assert!(matches!(
        farm.submit(spec(0)),
        Err(SubmitError::ShedOverload {
            queued: 2,
            watermark: 2
        })
    ));
    // ...but at-floor work is still admitted, up to capacity.
    farm.submit(spec(1)).unwrap();
    farm.submit(spec(1)).unwrap();
    // A full queue: urgent work evicts the youngest priority-0 job.
    farm.submit(spec(2)).unwrap();
    assert_eq!(farm.report().jobs_shed, 1, "the eviction was recorded");

    farm.run_until_idle(10_000_000).expect("must drain");
    let report = farm.report();
    assert_eq!(report.rejected_shed, 1);
    assert_eq!(report.jobs_shed, 1);
    assert_eq!(report.jobs_completed, 4);
    assert_eq!(
        report.jobs_admitted,
        report.jobs_completed + report.jobs_shed,
        "the books balance shed work"
    );
    let shed: Vec<_> = farm
        .records()
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::ShedOverload))
        .collect();
    assert_eq!(shed.len(), 1);
    assert_eq!(shed[0].id.0, 1, "the youngest normal-priority job was shed");
}

/// A RAC stall shorter than any watchdog budget is a pure latency
/// fault: the job completes correctly, just late — and with
/// `early_drop` off, a blown deadline is bookkeeping, not
/// interference.
#[test]
fn sub_budget_rac_stall_only_delays_completion() {
    let run = |stall: Option<u64>, deadline: Option<u64>| -> (u64, Farm) {
        let mut farm = watched_farm(LivenessConfig::default());
        farm.add_worker(DFT64);
        let mut rng = XorShift64::new(11);
        let mut spec = JobSpec::new(DFT64, payload(DFT64, &mut rng));
        if let Some(d) = deadline {
            spec = spec.with_deadline(d);
        }
        farm.submit(spec).unwrap();
        for _ in 0..40 {
            farm.tick();
        }
        if let Some(s) = stall {
            farm.inject_worker_rac_stall(0, s);
        }
        let cycles = farm.run_until_idle(10_000_000).expect("must drain") + 40;
        (cycles, farm)
    };
    let (base_cycles, base_farm) = run(None, None);
    let stall = 5_000;
    let (slow_cycles, slow_farm) = run(Some(stall), Some(base_cycles + 100));
    // The stall countdown overlaps the RAC's own compute window, so the
    // added latency is the stall minus however much compute it hid.
    assert!(
        slow_cycles >= base_cycles + stall - DFT64.core_latency_estimate(),
        "the stall must delay completion: {base_cycles} -> {slow_cycles}"
    );
    assert_eq!(
        slow_farm.records()[0].output,
        base_farm.records()[0].output,
        "a latency fault never corrupts data"
    );
    let report = slow_farm.report();
    assert!(report.jobs_completed == 1 && report.jobs_deadline_missed == 0);
    assert_eq!(report.deadline_misses, 1, "completed late, counted late");
    assert_eq!(report.hangs_detected, 0, "no watchdog was armed");
}

/// The farm's error types are real `std::error::Error`s with useful
/// messages and source chains.
#[test]
fn errors_implement_std_error_with_sources() {
    fn takes_error(_: &dyn std::error::Error) {}

    let shed = SubmitError::ShedOverload {
        queued: 9,
        watermark: 8,
    };
    takes_error(&shed);
    assert!(shed.to_string().contains("overloaded"));

    let hang = WorkerFaultKind::Hang { budget: 1234 };
    takes_error(&hang);
    assert!(hang.to_string().contains("1234 cycles"));
    assert!(std::error::Error::source(&hang).is_none());

    let ctrl = WorkerFaultKind::Controller(ExecError::Injected {
        cause: "test: upset",
    });
    assert!(
        std::error::Error::source(&ctrl).is_some(),
        "controller faults chain to the underlying ExecError"
    );

    let fail_fast = FarmError::WorkerFault {
        worker: 2,
        fault: hang,
    };
    takes_error(&fail_fast);
    assert!(fail_fast.to_string().contains("worker 2"));

    // FaultConfig is still honoured alongside liveness: both configs
    // coexist on FarmConfig.
    let cfg = FarmConfig {
        faults: FaultConfig::default(),
        liveness: LivenessConfig::default(),
        ..FarmConfig::default()
    };
    assert!(cfg.liveness.default_cycles_budget.is_none());
}
