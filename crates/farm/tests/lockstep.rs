//! Differential "lockstep oracle" suite for event-horizon
//! fast-forward.
//!
//! Every test here runs the *same* campaign twice — once single-
//! stepping every cycle (`fast_forward: false`), once leaping over
//! provably-idle windows — and asserts the two farms are
//! observationally identical: same simulated cycle count, same
//! `JobRecord` stream (ids, outcomes, timestamps, outputs), same lease
//! ledger, same bus statistics, same per-worker counters (including
//! each controller's cycle and word counters), same chaos statistics
//! and RNG consumption. Fast-forward is a pure wall-time optimisation; any
//! divergence here is a correctness bug, not a tuning matter.

use ouessant::controller::ControllerStats;
use ouessant::ExecError;
use ouessant_farm::{
    ChaosConfig, ChaosStats, DprAffinityPolicy, Farm, FarmConfig, FarmError, FarmReport,
    FaultConfig, FaultPlan, FifoPolicy, JobKind, JobOutcome, JobSpec, LivenessConfig,
    RoundRobinPolicy, SchedPolicy, WorkerHealth,
};
use ouessant_isa::{assemble, ProgramBuilder};
use ouessant_sim::bus::{BusConfig, BusStats};
use ouessant_sim::XorShift64;

const IDCT: JobKind = JobKind::Idct;
const DFT64: JobKind = JobKind::Dft { points: 64 };
const COPY3: JobKind = JobKind::Copy { scale: 3 };

const WORKLOAD_SEED: u64 = 0xDA7E_2016;

/// The fault policy every lockstep campaign runs under: generous
/// retries plus a cooldown, so chaos exercises park/unpark, quarantine
/// and probation timers — exactly the timers the horizon must model.
const FAULTS: FaultConfig = FaultConfig {
    max_attempts: 10,
    retry_backoff: 500,
    fault_window: 40_000,
    quarantine_threshold: 3,
    quarantine_cooldown: Some(60_000),
    fail_fast: false,
};

fn policy(name: &str) -> Box<dyn SchedPolicy> {
    match name {
        "fifo" => Box::new(FifoPolicy::new()),
        "round-robin" => Box::new(RoundRobinPolicy::new()),
        "dpr-affinity" => Box::new(DprAffinityPolicy::new()),
        other => panic!("unknown policy {other}"),
    }
}

fn payload(kind: JobKind, rng: &mut XorShift64) -> Vec<u32> {
    let words = kind.required_input_words().unwrap_or(48);
    (0..words)
        .map(|_| (rng.gen_range_i32(-1024..1024)) as u32)
        .collect()
}

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

/// A watchdog budget that comfortably absorbs the pool's longest
/// legitimate progress-free window: a 60 kB DPR bitstream load is
/// 15 000 cycles of `rcfg`, plus compute latency.
const WATCHDOG_BUDGET: u64 = 25_000;

fn liveness_watched() -> LivenessConfig {
    LivenessConfig {
        default_cycles_budget: Some(WATCHDOG_BUDGET),
        ..LivenessConfig::default()
    }
}

/// A copy job whose custom microcode sleeps `waits[0]` cycles before
/// `exec` and `waits[1]` cycles after it, between its two bursts (a zero
/// wait is left out).
fn sleeping_copy(input: Vec<u32>, waits: [u16; 2]) -> JobSpec {
    let words = u32::try_from(input.len()).expect("payload fits u32");
    let mut program = ProgramBuilder::new()
        .transfer_to_coprocessor(1, 0, words, 64, 0)
        .expect("payload fits the offset field");
    if waits[0] > 0 {
        program = program.wait(waits[0]);
    }
    program = program.execs_op(u16::try_from(words).expect("payload fits u16"));
    if waits[1] > 0 {
        program = program.wait(waits[1]);
    }
    let program = program
        .transfer_from_coprocessor(2, 0, words, 64, 0)
        .expect("payload fits the offset field")
        .eop()
        .finish()
        .expect("sleeping copy program is structurally valid");
    JobSpec::new(COPY3, input).with_microcode(program)
}

/// The four-worker redundant pool (IDCT, DFT64 and two DPR workers)
/// under [`FAULTS`], with `chaos` armed when given, as a builder taking
/// the stepping mode.
fn redundant_pool(
    policy_name: &str,
    liveness: LivenessConfig,
    chaos: Option<ChaosConfig>,
) -> impl Fn(bool) -> Farm + '_ {
    redundant_pool_on(BusConfig::default(), policy_name, liveness, chaos)
}

/// [`redundant_pool`] on a bus configured as `bus`.
fn redundant_pool_on(
    bus: BusConfig,
    policy_name: &str,
    liveness: LivenessConfig,
    chaos: Option<ChaosConfig>,
) -> impl Fn(bool) -> Farm + '_ {
    move |fast_forward| {
        let mut farm = Farm::new(
            FarmConfig {
                queue_capacity: 512,
                bus,
                faults: FAULTS,
                liveness: liveness.clone(),
                fast_forward,
                ..FarmConfig::default()
            },
            policy(policy_name),
        );
        farm.add_worker(IDCT);
        farm.add_worker(DFT64);
        farm.add_dpr_worker(&[(IDCT, 40_000), (COPY3, 40_000)]);
        farm.add_dpr_worker(&[(COPY3, 40_000), (DFT64, 60_000)]);
        if let Some(config) = &chaos {
            farm.arm_chaos(FaultPlan::new(config.clone()));
        }
        farm
    }
}

/// Everything observable about a finished run, minus host wall time.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    cycles_run: u64,
    now: u64,
    records: Vec<RecordKey>,
    alloc: ouessant_soc::alloc::AllocStats,
    leased_words: u32,
    alloc_stalls: u64,
    worker_faults: u64,
    retries: u64,
    quarantines: u64,
    hangs_detected: u64,
    aborts: u64,
    jobs_shed: u64,
    jobs_deadline_missed: u64,
    rejected_shed: u64,
    bus: BusStats,
    workers: Vec<WorkerKey>,
    chaos: Option<ChaosStats>,
}

#[derive(Debug, PartialEq)]
struct RecordKey {
    id: u64,
    kind: String,
    worker: usize,
    outcome: JobOutcome,
    submitted_at: u64,
    started_at: u64,
    completed_at: u64,
    swapped: bool,
    contention_cycles: u64,
    output: Vec<u32>,
}

#[derive(Debug, PartialEq)]
struct WorkerKey {
    jobs: u64,
    swaps: u64,
    busy_cycles: u64,
    bus_grants: u64,
    bus_beats: u64,
    contention_cycles: u64,
    health: WorkerHealth,
    faults: u64,
    quarantines: u64,
    loaded: usize,
    controller: ControllerStats,
}

fn fingerprint(farm: &Farm, cycles_run: u64) -> Fingerprint {
    let report = farm.report();
    Fingerprint {
        cycles_run,
        now: farm.now(),
        records: farm
            .records()
            .iter()
            .map(|r| RecordKey {
                id: r.id.0,
                kind: r.kind.to_string(),
                worker: r.worker,
                outcome: r.outcome.clone(),
                submitted_at: r.submitted_at,
                started_at: r.started_at,
                completed_at: r.completed_at,
                swapped: r.swapped,
                contention_cycles: r.contention_cycles,
                output: r.output.clone(),
            })
            .collect(),
        alloc: report.alloc,
        leased_words: farm.leased_words(),
        alloc_stalls: farm.alloc_stalls(),
        worker_faults: report.worker_faults,
        retries: report.retries,
        quarantines: report.quarantines,
        hangs_detected: report.hangs_detected,
        aborts: report.aborts,
        jobs_shed: report.jobs_shed,
        jobs_deadline_missed: report.jobs_deadline_missed,
        rejected_shed: report.rejected_shed,
        bus: farm.bus_stats(),
        workers: farm
            .workers()
            .iter()
            .zip(&report.workers)
            .map(|(w, wr)| WorkerKey {
                jobs: w.jobs_served(),
                swaps: w.swaps(),
                busy_cycles: wr.busy_cycles,
                bus_grants: wr.bus_grants,
                bus_beats: wr.bus_beats,
                contention_cycles: wr.contention_cycles,
                health: w.health(),
                faults: w.faults_total(),
                quarantines: w.quarantines_total(),
                loaded: w.loaded_config(),
                controller: w.controller_stats(),
            })
            .collect(),
        chaos: farm.chaos_stats(),
    }
}

/// Runs `specs` to completion on the farm `build` makes for one
/// stepping mode, and fingerprints the result.
fn run_campaign(
    build: &dyn Fn(bool) -> Farm,
    specs: &[JobSpec],
    fast_forward: bool,
) -> (Fingerprint, FarmReport) {
    let mut farm = build(fast_forward);
    for spec in specs {
        farm.submit(spec.clone())
            .expect("queue sized for the whole workload");
    }
    let cycles = farm
        .run_until_idle(400_000_000)
        .expect("campaign must drain");
    if !fast_forward {
        assert_eq!(farm.skipped_cycles(), 0, "single-stepping never leaps");
    }
    let report = farm.report();
    assert_eq!(report.skipped_cycles, farm.skipped_cycles());
    (fingerprint(&farm, cycles), report)
}

/// Runs a campaign in both stepping modes, asserts the two fingerprints
/// are equal, and returns the fast-forward run.
fn assert_lockstep(
    build: &dyn Fn(bool) -> Farm,
    specs: &[JobSpec],
    tag: &str,
) -> (Fingerprint, FarmReport) {
    let (fast, report) = run_campaign(build, specs, true);
    let (slow, _) = run_campaign(build, specs, false);
    assert_eq!(
        fast, slow,
        "fast-forward diverged from single-stepping ({tag})"
    );
    (fast, report)
}

/// A calm (chaos-free) campaign must be bit-exact under every policy.
#[test]
fn calm_campaign_is_bit_exact_under_every_policy() {
    let specs = workload(48, WORKLOAD_SEED);
    for policy_name in ["fifo", "round-robin", "dpr-affinity"] {
        let build = redundant_pool(policy_name, LivenessConfig::default(), None);
        assert_lockstep(&build, &specs, &format!("calm, {policy_name}"));
    }
}

/// 4-beat sub-bursts: every DMA burst re-arbitrates several times,
/// often against other workers' bursts, so a leap crosses many grants,
/// address phases and sub-burst releases. Bit-exact under every policy,
/// and the leaps must reach the transaction's completion rather than
/// stop at each sub-burst.
#[test]
fn short_sub_burst_campaign_is_bit_exact() {
    let specs = workload(48, WORKLOAD_SEED);
    let bus = BusConfig { max_burst_beats: 4 };
    for policy_name in ["fifo", "round-robin", "dpr-affinity"] {
        let build = redundant_pool_on(bus, policy_name, LivenessConfig::default(), None);
        let (fast, report) = assert_lockstep(&build, &specs, &format!("4-beat bus, {policy_name}"));
        assert!(
            fast.bus.contention_cycles > 0,
            "workers never contended ({policy_name})"
        );
        // Leaping one sub-burst at a time reaches only 64–71% here.
        assert!(
            report.skipped_fraction() >= 0.85,
            "leaps stop short of the completion ({policy_name}): only {:.1}% leaped",
            report.skipped_fraction() * 100.0
        );
    }
}

/// The 4-seam × 3-policy chaos sweep: each cell arms exactly one fault
/// seam and must replay bit-exact — including the injected-fault
/// cycle stamps, the retry/park timeline and the RNG stream behind the
/// chaos statistics.
#[test]
fn chaos_matrix_sweep_is_bit_exact() {
    let specs = workload(48, WORKLOAD_SEED);
    for seam in ["controller", "bus", "bitstream", "alloc"] {
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
        // Each seam must actually inject somewhere in its row of the
        // matrix, or the sweep proves nothing about that seam.
        let mut fired = 0;
        for policy_name in ["fifo", "round-robin", "dpr-affinity"] {
            let build =
                redundant_pool(policy_name, LivenessConfig::default(), Some(config.clone()));
            let (cell, _) = assert_lockstep(&build, &specs, &format!("{seam}, {policy_name}"));
            let stats = cell.chaos.expect("campaign was armed");
            fired += stats.worker_faults() + stats.alloc_squats;
        }
        assert!(fired > 0, "the {seam} seam never fired");
    }
}

/// Alloc stalls leap: with only the allocator seam armed, and holding
/// its squats long, most of the campaign is jobs waiting on shared
/// memory. Every policy replays bit-exact, `AllocStats` and
/// `alloc_stalls` included (round-robin's cursor and dpr-affinity's
/// `now` advance on each stalled cycle's pick), and a squat's run of
/// stalls costs a few steps, not one per stalled cycle: the campaign
/// steps barely more cycles than the same jobs without the seam.
#[test]
fn alloc_stall_windows_are_bit_exact_and_leap() {
    let specs = workload(240, WORKLOAD_SEED);
    let quiet = ChaosConfig {
        seed: 0x5717_A11C,
        controller_one_in: 0,
        bus_one_in: 0,
        bitstream_one_in: 0,
        alloc_one_in: 0,
        alloc_hold: 20_000,
        wedge_one_in: 0,
        slow_one_in: 0,
        slow_stall: 0,
    };
    let squatting = ChaosConfig {
        alloc_one_in: 2_000,
        ..quiet.clone()
    };
    let stepped = |report: &FarmReport| report.total_cycles - report.skipped_cycles;
    for policy_name in ["fifo", "round-robin", "dpr-affinity"] {
        let calm = redundant_pool(policy_name, LivenessConfig::default(), Some(quiet.clone()));
        let (_, calm) = run_campaign(&calm, &specs, true);
        let build = redundant_pool(
            policy_name,
            LivenessConfig::default(),
            Some(squatting.clone()),
        );
        let (fast, report) =
            assert_lockstep(&build, &specs, &format!("alloc stalls, {policy_name}"));
        let squats = fast.chaos.expect("campaign was armed").alloc_squats;
        assert!(
            fast.alloc_stalls > 5_000,
            "{policy_name}: only {} stalled cycles",
            fast.alloc_stalls
        );
        let extra = stepped(&report).saturating_sub(stepped(&calm));
        assert!(
            extra <= 8 * squats,
            "{policy_name}: {extra} more stepped cycles than without the seam, \
             over {} stalled cycles and {squats} squats",
            fast.alloc_stalls
        );
    }
}

/// A pool whose shared memory holds fewer jobs than it has workers
/// stalls on its own leases: those stalls leap too (far fewer cycles
/// are stepped than stalled), and replay bit-exact under every policy.
/// With the allocator seam armed, squats are also taken inside such
/// windows, shrinking the free list the next cycle's lease meets.
#[test]
fn memory_pressure_stalls_are_bit_exact() {
    let specs = workload(96, WORKLOAD_SEED);
    let squats = ChaosConfig {
        seed: 0x5A_0A75,
        controller_one_in: 0,
        bus_one_in: 0,
        bitstream_one_in: 0,
        alloc_one_in: 400,
        alloc_hold: 1_000,
        wedge_one_in: 0,
        slow_one_in: 0,
        slow_stall: 0,
    };
    for chaos in [None, Some(squats)] {
        for policy_name in ["fifo", "round-robin", "dpr-affinity"] {
            let build = |fast_forward| {
                let mut farm = Farm::new(
                    FarmConfig {
                        queue_capacity: 512,
                        shared_words: 512,
                        faults: FAULTS,
                        fast_forward,
                        ..FarmConfig::default()
                    },
                    policy(policy_name),
                );
                farm.add_worker(IDCT);
                farm.add_worker(DFT64);
                farm.add_dpr_worker(&[(IDCT, 40_000), (COPY3, 40_000)]);
                farm.add_dpr_worker(&[(COPY3, 40_000), (DFT64, 60_000)]);
                if let Some(config) = &chaos {
                    farm.arm_chaos(FaultPlan::new(config.clone()));
                }
                farm
            };
            let tag = format!("memory pressure, {policy_name}, squats {}", chaos.is_some());
            let (fast, report) = assert_lockstep(&build, &specs, &tag);
            let stepped = report.total_cycles - report.skipped_cycles;
            assert!(
                fast.alloc_stalls > 10 * stepped,
                "{tag}: {stepped} stepped cycles for {} stalled ones",
                fast.alloc_stalls
            );
        }
    }
}

/// Round-robin moves its cursor on every stalled pick, so with two
/// idle workers its stalled picks alternate between them. The window
/// ends in front of the first pick of a pair not yet stalled on, that
/// cycle steps with the pick already made, and once both pairs are
/// remembered the stalls leap: bit-exact, which fails if the stepped
/// cycle asked the policy again (the cursor would move twice).
#[test]
fn alternating_stalled_picks_are_bit_exact_and_leap() {
    let mut rng = XorShift64::new(WORKLOAD_SEED);
    let specs: Vec<JobSpec> = (0..6)
        .map(|_| JobSpec::new(COPY3, payload(COPY3, &mut rng)))
        .collect();
    let build = |fast_forward| {
        let mut farm = Farm::new(
            FarmConfig {
                // Room for one copy job's three leases, not two.
                shared_words: 150,
                fast_forward,
                ..FarmConfig::default()
            },
            policy("round-robin"),
        );
        for _ in 0..3 {
            farm.add_worker(COPY3);
        }
        farm
    };
    let (fast, report) = assert_lockstep(&build, &specs, "alternating stalls");
    let stepped = report.total_cycles - report.skipped_cycles;
    assert!(
        fast.alloc_stalls > 10 * stepped,
        "{stepped} stepped cycles for {} stalled ones",
        fast.alloc_stalls
    );
}

/// All four seams armed at once, full acceptance-campaign scale.
#[test]
fn full_chaos_campaign_is_bit_exact() {
    let specs = workload(240, WORKLOAD_SEED);
    let config = ChaosConfig {
        seed: 0xFA11_FA57,
        controller_one_in: 25_000,
        bus_one_in: 20_000,
        bitstream_one_in: 4_000,
        alloc_one_in: 6_000,
        alloc_hold: 3_000,
        wedge_one_in: 0,
        slow_one_in: 0,
        slow_stall: 0,
    };
    let build = redundant_pool("round-robin", LivenessConfig::default(), Some(config));
    let (fast, _) = assert_lockstep(&build, &specs, "acceptance chaos");
    let stats = fast.chaos.expect("campaign was armed");
    assert!(
        stats.worker_faults() > 0 && stats.alloc_squats > 0,
        "campaign must exercise worker and allocator seams: {stats:?}"
    );
    assert!(
        fast.retries > 0,
        "campaign must exercise the retry-park timers"
    );
}

/// Seeded *custom microcode* jobs must replay bit-exact through
/// admission verification, dispatch and service. Two spec sets:
///
/// * random: random-length `wait` sleeps on both sides of `exec`
///   stress the `WaitCycles` horizon (the largest single-program leap
///   source);
/// * duty-cycle: every job sleeps 16 000 cycles between its two
///   bursts, the way a sensor-driven pipeline gates on a frame period,
///   so almost the whole campaign is leaped.
#[test]
fn microcode_campaigns_are_bit_exact() {
    let mut rng = XorShift64::new(0x5EED_C0DE);
    let random: Vec<JobSpec> = (0..24)
        .map(|_| {
            let words = rng.gen_range_u32(8..64);
            let input = (0..words)
                .map(|_| rng.gen_range_i32(-1024..1024) as u32)
                .collect();
            let pre_wait = rng.gen_range_u32(1..5_000) as u16;
            let post_wait = rng.gen_range_u32(1..5_000) as u16;
            sleeping_copy(input, [pre_wait, post_wait])
        })
        .collect();
    // 16 000 fits the 14-bit `wait` immediate (at most 16 383); a wider
    // value is silently masked by the encoder today, so a 60 000-cycle
    // sleep would run as `wait 10848`.
    let mut rng = XorShift64::new(WORKLOAD_SEED);
    let duty_cycle: Vec<JobSpec> = (0..48)
        .map(|_| sleeping_copy(payload(COPY3, &mut rng), [16_000, 0]))
        .collect();
    for policy_name in ["fifo", "round-robin"] {
        let build = redundant_pool(policy_name, LivenessConfig::default(), None);
        assert_lockstep(&build, &random, &format!("random microcode, {policy_name}"));
        let (_, report) =
            assert_lockstep(&build, &duty_cycle, &format!("duty cycle, {policy_name}"));
        assert!(
            report.skipped_fraction() >= 0.9,
            "duty-cycle campaign leaped only {:.1}% ({policy_name})",
            report.skipped_fraction() * 100.0
        );
    }
}

/// Fuel-accounting regression (a leap of N cycles must consume N
/// fuel): `FarmError::Stalled` fires at the *same simulated cycle* in
/// both stepping modes, with identical queue/in-flight snapshots.
#[test]
fn stall_fires_at_identical_cycle_in_both_modes() {
    let specs = workload(6, WORKLOAD_SEED);
    let fuel = 1_000;
    let mut errs = Vec::new();
    for fast_forward in [true, false] {
        let mut farm = redundant_pool("fifo", LivenessConfig::default(), None)(fast_forward);
        for spec in &specs {
            farm.submit(spec.clone()).unwrap();
        }
        let err = farm
            .run_until_idle(fuel)
            .expect_err("six mixed jobs cannot drain in 1k cycles");
        assert_eq!(
            farm.now(),
            fuel,
            "the stall must land exactly at the fuel boundary (fast={fast_forward})"
        );
        errs.push((err, fingerprint(&farm, 0)));
    }
    let (fast_err, fast_fp) = &errs[0];
    let (slow_err, slow_fp) = &errs[1];
    assert!(
        matches!(fast_err, FarmError::Stalled { cycles, .. } if *cycles == fuel),
        "stall reports full fuel spent: {fast_err:?}"
    );
    assert_eq!(fast_err, slow_err, "stall snapshots diverged");
    assert_eq!(fast_fp, slow_fp, "post-stall farm state diverged");
}

/// A fault forced onto a worker between ticks is absorbed on the next
/// tick in both stepping modes, wherever the job is — loading its
/// program, in a burst, computing — or on the idle worker, even when
/// the faulted worker's OCP is otherwise quiescent.
#[test]
fn a_fault_injected_between_ticks_is_handled_on_the_next_tick() {
    let mut rng = XorShift64::new(WORKLOAD_SEED);
    let spec = JobSpec::new(IDCT, payload(IDCT, &mut rng));
    // The outcome of a fault on `worker` at cycle `at`, or `None` once
    // the job has finished by then.
    let run = |at: u64, worker: usize, fast_forward: bool| {
        let mut farm = Farm::new(
            FarmConfig {
                fast_forward,
                ..FarmConfig::default()
            },
            policy("fifo"),
        );
        farm.add_worker(IDCT);
        farm.add_worker(IDCT);
        farm.submit(spec.clone()).unwrap();
        // Fuel `at` stalls both modes on cycle `at` while the job runs.
        if farm.run_until_idle(at).is_ok() {
            return None;
        }
        farm.inject_worker_fault(
            worker,
            ExecError::Injected {
                cause: "test: upset",
            },
        );
        let result = farm.run_until_idle(200_000);
        let cycles = *result.as_ref().unwrap_or(&0);
        Some((result, farm.now(), fingerprint(&farm, cycles)))
    };
    let mut swept = 0;
    for at in 1.. {
        let outcomes = [0, 1].map(|worker| (run(at, worker, true), run(at, worker, false)));
        if outcomes.iter().any(|(fast, _)| fast.is_none()) {
            break;
        }
        for (worker, (fast, slow)) in outcomes.into_iter().enumerate() {
            assert_eq!(fast, slow, "fault on worker {worker} at cycle {at}");
        }
        swept = at;
    }
    assert!(swept > 100, "the job ran for only {swept} cycles");
}

/// The 2-stall-seam × 3-policy sweep: wedged handshakes and slowed
/// RACs are *silent* — only the watchdog horizon makes them
/// observable — so this is the sharpest test of the liveness layer's
/// bit-exactness claim: a hang inside a skipped window must fire the
/// watchdog at the identical cycle in both stepping modes.
#[test]
fn hang_seam_sweep_is_bit_exact() {
    let specs = workload(48, WORKLOAD_SEED);
    for seam in ["wedge", "slow"] {
        let mut config = ChaosConfig {
            seed: 0x4A46_0CEA ^ seam.len() as u64,
            controller_one_in: 0,
            bus_one_in: 0,
            bitstream_one_in: 0,
            alloc_one_in: 0,
            alloc_hold: 0,
            wedge_one_in: 0,
            slow_one_in: 0,
            slow_stall: 0,
        };
        match seam {
            "wedge" => config.wedge_one_in = 6_000,
            "slow" => {
                config.slow_one_in = 1_500;
                // Longer than the watchdog budget: every stall that
                // outlives the budget must surface as a hang.
                config.slow_stall = 30_000;
            }
            other => panic!("unknown seam {other}"),
        }
        let mut fired = 0;
        let mut detected = 0;
        for policy_name in ["fifo", "round-robin", "dpr-affinity"] {
            let build = redundant_pool(policy_name, liveness_watched(), Some(config.clone()));
            let (fast, _) = assert_lockstep(&build, &specs, &format!("{seam}, {policy_name}"));
            let stats = fast.chaos.expect("campaign was armed");
            fired += stats.wedges + stats.rac_stalls;
            detected += fast.hangs_detected;
        }
        assert!(fired > 0, "the {seam} seam never fired");
        assert!(detected > 0, "no {seam} ever tripped a watchdog");
    }
}

/// Deterministic single-wedge check: the same wedge, injected at the
/// same cycle in both farms, must make the watchdog bite at the
/// identical simulated cycle whether that cycle is single-stepped or
/// sits deep inside a fast-forward window.
#[test]
fn watchdog_fires_at_identical_cycle_in_both_modes() {
    let specs = workload(6, WORKLOAD_SEED);
    let mut fps = Vec::new();
    for fast_forward in [true, false] {
        let mut farm = redundant_pool("fifo", liveness_watched(), None)(fast_forward);
        for spec in &specs {
            farm.submit(spec.clone()).unwrap();
        }
        // Line both farms up at the same cycle with work in flight,
        // then freeze the DFT worker's controller mid-job.
        for _ in 0..100 {
            farm.tick();
        }
        assert!(
            !farm.workers()[1].is_idle(),
            "the DFT worker must be mid-job at cycle 100"
        );
        farm.inject_worker_wedge(1);
        assert!(farm.workers()[1].is_wedged(), "wedge must land");
        let cycles = farm.run_until_idle(10_000_000).expect("must drain");
        let report = farm.report();
        assert_eq!(report.hangs_detected, 1, "exactly one watchdog firing");
        assert_eq!(report.aborts, 1);
        fps.push(fingerprint(&farm, cycles));
    }
    assert_eq!(
        fps[0], fps[1],
        "watchdog timeline diverged between stepping modes"
    );
    // The wedged job must have been retried to completion elsewhere.
    assert!(
        fps[0]
            .records
            .iter()
            .all(|r| matches!(r.outcome, JobOutcome::Completed { .. })),
        "every job completes after the hang retry"
    );
    assert!(
        fps[0]
            .records
            .iter()
            .any(|r| matches!(r.outcome, JobOutcome::Completed { attempts } if attempts == 2)),
        "the wedged job consumed a retry"
    );
}

/// The acceptance campaign: 240 jobs, both stall seams armed at the
/// `ChaosConfig::hang` preset rates, watchdogs and deadline
/// enforcement on. Invariants:
///
/// * zero stranded jobs — every admitted job ends in a record;
/// * zero leaked leases — the shared-memory ledger drains to zero;
/// * every completed job's output is bit-exact against a fault-free
///   baseline, hangs and retries notwithstanding; every other job is
///   accounted as `DeadlineMissed` or honestly exhausted its retries;
/// * the whole run is fingerprint-identical between single-stepping
///   and fast-forward.
#[test]
fn hang_campaign_acceptance() {
    // Every 8th job carries a deadline far too tight for its queue
    // position, guaranteeing the early-drop path fires; the rest are
    // free to take as long as chaos makes them.
    let specs: Vec<JobSpec> = workload(240, WORKLOAD_SEED)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            if i % 8 == 0 {
                s.with_deadline(50_000)
            } else {
                s
            }
        })
        .collect();
    let liveness = LivenessConfig {
        default_cycles_budget: Some(WATCHDOG_BUDGET),
        early_drop: true,
        ..LivenessConfig::default()
    };

    // Fault-free baseline: no chaos, no enforcement — all 240 complete.
    let (baseline, _) = run_campaign(
        &redundant_pool("round-robin", liveness_watched(), None),
        &specs,
        true,
    );
    let baseline_outputs: std::collections::HashMap<u64, &Vec<u32>> =
        baseline.records.iter().map(|r| (r.id, &r.output)).collect();
    assert_eq!(
        baseline.records.len(),
        240,
        "baseline must serve everything"
    );

    let build = redundant_pool(
        "round-robin",
        liveness,
        Some(ChaosConfig::hang(0x0CEA_4A46)),
    );
    let (fast, _) = assert_lockstep(&build, &specs, "hang acceptance");

    let stats = fast.chaos.expect("campaign was armed");
    assert!(
        stats.wedges + stats.rac_stalls > 0,
        "the stall seams never fired: {stats:?}"
    );
    assert!(fast.hangs_detected > 0, "no hang was ever detected");
    assert_eq!(fast.records.len(), 240, "a job was stranded");
    assert_eq!(fast.leased_words, 0, "a shared-memory lease leaked");
    let mut completed = 0u64;
    let mut missed = 0u64;
    let mut failed = 0u64;
    for r in &fast.records {
        match r.outcome {
            JobOutcome::Completed { .. } => {
                completed += 1;
                assert_eq!(
                    baseline_outputs.get(&r.id).copied(),
                    Some(&r.output),
                    "job {} completed with a different output than the fault-free baseline",
                    r.id
                );
            }
            JobOutcome::DeadlineMissed { .. } => missed += 1,
            JobOutcome::FailedPermanent { attempts, .. } => {
                failed += 1;
                assert_eq!(
                    attempts, FAULTS.max_attempts,
                    "a job failed without exhausting its retries"
                );
            }
            JobOutcome::ShedOverload => panic!("nothing sheds without a watermark"),
        }
    }
    assert_eq!(completed + missed + failed, 240, "the books must balance");
    assert!(missed > 0, "the tight deadlines must trip early drop");
    assert_eq!(
        fast.jobs_deadline_missed, missed,
        "report disagrees with the records"
    );
}

/// The fast path must actually skip work on a compute-dominated
/// campaign, bit-exactly. Large DFTs on one worker are the honest
/// case: an `n`-point transform computes for `n log2 n + 3n/2 + 53`
/// cycles between its two DMA bursts, so most of a job's lifetime is a
/// provably-pure window — over half at 1024 points, over 90% at 4096.
#[test]
fn fast_forward_skips_a_meaningful_fraction() {
    for (points, jobs, fifo_depth, min_skipped) in [(1024, 12, 4096, 0.5), (4096, 8, 8192, 0.9)] {
        let kind = JobKind::Dft { points };
        let mut rng = XorShift64::new(WORKLOAD_SEED);
        let specs: Vec<JobSpec> = (0..jobs)
            .map(|_| JobSpec::new(kind, payload(kind, &mut rng)))
            .collect();
        let build = |fast_forward| {
            let mut farm = Farm::new(
                FarmConfig {
                    fifo_depth,
                    fast_forward,
                    ..FarmConfig::default()
                },
                policy("fifo"),
            );
            farm.add_worker(kind);
            farm
        };
        let (_, report) = assert_lockstep(&build, &specs, &format!("DFT{points}"));
        assert!(
            report.skipped_fraction() > min_skipped,
            "DFT{points}: expected >{:.0}% of cycles leaped, got {:.1}% ({} of {})",
            min_skipped * 100.0,
            report.skipped_fraction() * 100.0,
            report.skipped_cycles,
            report.total_cycles
        );
    }
}

/// A copy job running the assembled `source`, which must leave the
/// payload's words in bank 2.
fn copy_job(input: Vec<u32>, source: &str) -> JobSpec {
    let program = assemble(source).unwrap_or_else(|e| panic!("{e}: {source}"));
    JobSpec::new(COPY3, input).with_microcode(program)
}

/// `words` seeded payload words.
fn words(n: u32, rng: &mut XorShift64) -> Vec<u32> {
    (0..n)
        .map(|_| rng.gen_range_i32(-1024..1024) as u32)
        .collect()
}

/// A pool of two copy workers and one IDCT worker, the watchdog armed,
/// as a builder taking the stepping mode.
fn copy_pool(fast_forward: bool) -> Farm {
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 512,
            faults: FAULTS,
            liveness: liveness_watched(),
            fast_forward,
            ..FarmConfig::default()
        },
        policy("round-robin"),
    );
    farm.add_worker(COPY3);
    farm.add_worker(COPY3);
    farm.add_worker(IDCT);
    farm
}

/// Transfers issue inside fast-forward windows wherever a program
/// reaches them, bit-exactly:
///
/// * `mvtcr`/`mvfcr` post-increment their offset register inside the
///   window that issues them, in `ldc`/`djnz` loops whose `djnz` steps
///   and whose next window chains through `Fetch` and `Decode` into the
///   issue;
/// * an `execn`-streamed copy's first `mvfc` finds too few words in
///   its FIFO yet: its `Execute` falls into `TransferFifoWait` on a
///   stepped tick, and its issues meet a busy RAC, so they step;
/// * a `wait` of every length from 0 to 47 cycles in front of one
///   worker's first transfer shifts its `Execute` against the other
///   workers', so some pairs reach `Execute` of a transfer on the same
///   cycle (neither issues in the window) and others one, two or three
///   ticks apart (the first issues, the second bounds the window).
#[test]
fn in_window_issues_are_bit_exact_across_program_shapes() {
    let mut rng = XorShift64::new(WORKLOAD_SEED);
    let looped = |n: u32| {
        format!(
            "ldc R0,{n}\nldo O0,0\nin_loop:\nmvtcr BANK1,O0,DMA16,FIFO0\ndjnz R0,in_loop\n\
             execs {w}\nldc R1,{n}\nldo O1,0\nout_loop:\nmvfcr BANK2,O1,DMA16,FIFO0\n\
             djnz R1,out_loop\neop",
            w = 16 * n
        )
    };
    let loops: Vec<JobSpec> = (1..=12)
        .map(|n| copy_job(words(16 * n, &mut rng), &looped(n)))
        .collect();
    assert_lockstep(&copy_pool, &loops, "offset-register loops");

    let streamed = "execn 64\nmvtc BANK1,0,DMA64,FIFO0\n\
                    mvfc BANK2,0,DMA32,FIFO0\nmvfc BANK2,32,DMA32,FIFO0\nwrac\neop";
    let streams: Vec<JobSpec> = (0..12)
        .map(|_| copy_job(words(64, &mut rng), streamed))
        .collect();
    assert_lockstep(&copy_pool, &streams, "FIFO waits");

    for wait in 0..48 {
        let delayed = format!(
            "wait {wait}\nmvtc BANK1,0,DMA16,FIFO0\nmvtc BANK1,16,DMA16,FIFO0\nexecs 32\n\
             mvfc BANK2,0,DMA16,FIFO0\nmvfc BANK2,16,DMA16,FIFO0\neop"
        );
        let specs = [
            copy_job(words(32, &mut rng), &delayed),
            JobSpec::new(COPY3, words(32, &mut rng)),
            JobSpec::new(IDCT, payload(IDCT, &mut rng)),
        ];
        assert_lockstep(&copy_pool, &specs, &format!("wait {wait}"));
    }
}

/// The sparse-idle pool of the benchmark, scaled down: 4096-point DFTs
/// on 8192-word FIFOs beside copy workers running sleeping microcode.
/// Nearly every burst issues inside a window on an idle bus.
#[test]
fn sparse_idle_pool_is_bit_exact() {
    const DFT4K: JobKind = JobKind::Dft { points: 4096 };
    let mut rng = XorShift64::new(WORKLOAD_SEED);
    let specs: Vec<JobSpec> = (0..6)
        .map(|i| {
            if i % 3 == 0 {
                JobSpec::new(DFT4K, payload(DFT4K, &mut rng))
            } else {
                let n = rng.gen_range_u32(16..65);
                sleeping_copy(words(n, &mut rng), [16_000, 0])
            }
        })
        .collect();
    let build = |fast_forward| {
        let mut farm = Farm::new(
            FarmConfig {
                queue_capacity: 64,
                fifo_depth: 8192,
                fast_forward,
                ..FarmConfig::default()
            },
            policy("round-robin"),
        );
        farm.add_worker(DFT4K);
        farm.add_worker(COPY3);
        farm.add_worker(COPY3);
        farm
    };
    let (_, report) = assert_lockstep(&build, &specs, "sparse idle");
    let stepped = report.total_cycles - report.skipped_cycles;
    assert!(
        stepped < 100,
        "{stepped} of {} cycles stepped",
        report.total_cycles
    );
}

/// With chaos armed, a window issues a transfer only on its first tick
/// (the `Execute` a pickup's window stops in front of), and the dice it
/// rolls from there are the burst's: the bus and wedge dice, at rates
/// that land hits inside those windows.
#[test]
fn chaos_dice_follow_first_tick_issues() {
    let config = ChaosConfig {
        seed: 0x155E_D1CE,
        controller_one_in: 0,
        bus_one_in: 1_500,
        bitstream_one_in: 0,
        alloc_one_in: 0,
        alloc_hold: 0,
        wedge_one_in: 4_000,
        slow_one_in: 0,
        slow_stall: 0,
    };
    let specs = workload(48, WORKLOAD_SEED);
    let build = redundant_pool("round-robin", liveness_watched(), Some(config));
    let (fast, _) = assert_lockstep(&build, &specs, "bus and wedge dice");
    let stats = fast.chaos.expect("campaign was armed");
    assert!(
        stats.bus_faults > 0 && stats.wedges > 0,
        "both dice must hit: {stats:?}"
    );
    assert!(fast.hangs_detected > 0, "a wedge must trip the watchdog");
}

/// Runs `spec` alone on a farm of the one worker `add` builds, with
/// `fifo_depth`-word FIFOs and `chaos` armed when given, in both
/// stepping modes (see [`assert_lockstep`]), and returns how many
/// cycles the fast-forward run stepped.
fn stepped_cycles_of_one_job(
    spec: JobSpec,
    fifo_depth: usize,
    add: &dyn Fn(&mut Farm),
    chaos: Option<&ChaosConfig>,
    label: &str,
) -> u64 {
    let build = |fast_forward| {
        let mut farm = Farm::new(
            FarmConfig {
                fifo_depth,
                fast_forward,
                ..FarmConfig::default()
            },
            policy("fifo"),
        );
        add(&mut farm);
        if let Some(config) = chaos {
            farm.arm_chaos(FaultPlan::new(config.clone()));
        }
        farm
    };
    let (_, report) = assert_lockstep(&build, &[spec], label);
    report.total_cycles - report.skipped_cycles
}

/// Pins how many cycles of one job still single-step, so a horizon
/// that falls back to the next tick fails here even though every
/// lockstep check stays green. Every DMA burst of a lone job meets an
/// idle bus, so it issues inside a window, and the `exec`, its
/// `end_op` retire and a `wait` walk inside windows too: what steps is
/// the launch and the `eop`, whatever the kind and the payload size (a
/// 4096-point DFT's 128 bursts step no more than a 64-point one's 2),
/// and for sparse-idle's custom shape (`mvtc`, `wait`, `exec`, `mvfc`,
/// `eop`). A DPR swap adds the `rcfg` dispatch. With chaos armed the
/// walks through the `exec` and its `end_op` retire stay off, as chains
/// do, since they change the chaos dice a worker rolls; a `wait` rolls
/// the dice `Fetch` and `Decode` roll, so it still walks, and the
/// custom shape steps no more than an IDCT job.
#[test]
fn one_job_steps_a_pinned_number_of_cycles() {
    const DFT4K: JobKind = JobKind::Dft { points: 4096 };
    let mut rng = XorShift64::new(WORKLOAD_SEED);
    let default_depth = FarmConfig::default().fifo_depth;
    let mut stepped_by_kind = Vec::new();
    let worker = |kind| {
        move |farm: &mut Farm| {
            farm.add_worker(kind);
        }
    };
    for (kind, fifo_depth) in [
        (IDCT, default_depth),
        (DFT64, default_depth),
        (COPY3, default_depth),
        (DFT4K, 8192),
    ] {
        let spec = JobSpec::new(kind, payload(kind, &mut rng));
        let label = format!("one {kind}");
        let steps = stepped_cycles_of_one_job(spec, fifo_depth, &worker(kind), None, &label);
        assert_eq!(steps, 2, "{kind}");
        stepped_by_kind.push(steps);
    }
    assert_eq!(
        stepped_by_kind[1], stepped_by_kind[3],
        "a 4096-point DFT steps more cycles than a 64-point one: a burst on an idle bus stepped"
    );
    let copy = |rng: &mut XorShift64| payload(COPY3, rng);
    let sleeping = sleeping_copy(copy(&mut rng), [8_000, 0]);
    let steps = stepped_cycles_of_one_job(
        sleeping,
        default_depth,
        &worker(COPY3),
        None,
        "sleeping copy",
    );
    assert_eq!(steps, 2, "sparse-idle's custom shape");
    // A COPY3 job on a DPR worker loaded with the IDCT swaps first.
    let dpr = |farm: &mut Farm| {
        farm.add_dpr_worker(&[(IDCT, 40_000), (COPY3, 40_000)]);
    };
    let swap = JobSpec::new(COPY3, copy(&mut rng));
    let steps = stepped_cycles_of_one_job(swap, default_depth, &dpr, None, "DPR swap");
    assert_eq!(steps, DPR_SWAP_STEPS, "a job behind an `rcfg`");
    // Dice armed that never hit in this run: the walks stay off.
    let calm_dice = ChaosConfig {
        seed: 0x0CA1_D1CE,
        controller_one_in: u32::MAX,
        bus_one_in: u32::MAX,
        bitstream_one_in: 0,
        alloc_one_in: 0,
        alloc_hold: 0,
        wedge_one_in: u32::MAX,
        slow_one_in: u32::MAX,
        slow_stall: 1,
    };
    let spec = JobSpec::new(IDCT, payload(IDCT, &mut rng));
    let chaos = Some(&calm_dice);
    let steps = stepped_cycles_of_one_job(spec, default_depth, &worker(IDCT), chaos, "chaos armed");
    assert_eq!(steps, CHAOS_ARMED_STEPS, "one IDCT job with chaos armed");
    let sleeping = sleeping_copy(copy(&mut rng), [8_000, 0]);
    let label = "sleeping copy, chaos armed";
    let steps = stepped_cycles_of_one_job(sleeping, default_depth, &worker(COPY3), chaos, label);
    assert_eq!(
        steps, CHAOS_ARMED_STEPS,
        "a `wait` stepped with chaos armed"
    );
}

/// Stepped cycles of a job behind a DPR swap: the launch, the `rcfg`
/// dispatch and the `eop`.
const DPR_SWAP_STEPS: u64 = 3;

/// Stepped cycles of one job with chaos armed: the launch, the `exec`,
/// the `end_op` retire and the `eop`. A `wait` walks.
const CHAOS_ARMED_STEPS: u64 = 4;

/// Controller upsets landing inside walked `wait`s: with chaos armed, a
/// `wait`'s `Execute`, countdown and retire walk inside windows (they
/// roll the controller die alone, as `Fetch` and `Decode` do), so each
/// hit there cuts a leap and must land on the cycle single-stepping
/// lands it on.
#[test]
fn controller_upsets_inside_walked_waits_are_bit_exact() {
    let mut rng = XorShift64::new(0x3A17_D1CE);
    let specs: Vec<JobSpec> = (0..32)
        .map(|_| {
            let n = rng.gen_range_u32(8..64);
            let input = words(n, &mut rng);
            let pre_wait = rng.gen_range_u32(1..8_000) as u16;
            let post_wait = rng.gen_range_u32(1..8_000) as u16;
            sleeping_copy(input, [pre_wait, post_wait])
        })
        .collect();
    let config = ChaosConfig {
        seed: 0x5EE9_FA11,
        controller_one_in: 30_000,
        bus_one_in: 0,
        bitstream_one_in: 0,
        alloc_one_in: 0,
        alloc_hold: 0,
        wedge_one_in: 0,
        slow_one_in: 0,
        slow_stall: 0,
    };
    let build = redundant_pool("round-robin", liveness_watched(), Some(config));
    let (fast, report) = assert_lockstep(&build, &specs, "controller upsets in walked waits");
    let stats = fast.chaos.expect("campaign was armed");
    assert!(stats.controller_faults > 0, "no upset landed: {stats:?}");
    assert!(
        report.skipped_fraction() >= 0.99,
        "only {:.2}% leaped",
        report.skipped_fraction() * 100.0
    );
}

/// The dispatch-epoch regression: a heterogeneous pool whose IDCT
/// worker sits idle for most of the run while compute-bound DFT jobs
/// queue behind the one DFT worker and sleeping copy jobs behind the
/// IDCT/copy DPR worker. Once the policy has passed on that state,
/// dispatch must stay quiet — and fast-forward must leap — until the
/// queue, a worker's availability or a loaded configuration changes,
/// with deadline drops, retries and alloc stalls (a chaos squat on the
/// tight shared memory) landing at the identical cycles in both
/// stepping modes.
#[test]
fn idle_incapable_worker_does_not_pin_the_horizon() {
    const DFT1K: JobKind = JobKind::Dft { points: 1024 };
    let mut rng = XorShift64::new(WORKLOAD_SEED);
    // Every 5th job carries a deadline its queue position cannot meet,
    // so the early-drop sweep has work to do.
    let specs: Vec<JobSpec> = (0..40u32)
        .map(|i| {
            let spec = match i % 4 {
                0 if i % 8 == 0 => JobSpec::new(IDCT, payload(IDCT, &mut rng)),
                0 => {
                    // Alternating sizes: a big copy does not fit in the
                    // hole a small one leaves.
                    let words = if i % 16 == 4 { 16 } else { 64 };
                    let input = (0..words)
                        .map(|_| rng.gen_range_i32(-1024..1024) as u32)
                        .collect();
                    sleeping_copy(input, [8_000, 0])
                }
                _ => JobSpec::new(DFT1K, payload(DFT1K, &mut rng)),
            };
            if i % 5 == 4 {
                spec.with_deadline(60_000 + 4_000 * u64::from(i))
            } else {
                spec
            }
        })
        .collect();
    let chaos = ChaosConfig {
        seed: 0xE90C_4A11,
        controller_one_in: 150_000,
        bus_one_in: 0,
        bitstream_one_in: 0,
        alloc_one_in: 8_000,
        alloc_hold: 3_000,
        wedge_one_in: 200_000,
        slow_one_in: 0,
        slow_stall: 0,
    };
    let build = |policy_name: &str, fast_forward: bool| {
        let mut farm = Farm::new(
            FarmConfig {
                queue_capacity: 64,
                // Room for one DFT job plus a few small ones: a chaos
                // squat on the rest stalls the next small dispatch.
                shared_words: 5 * 1024,
                fifo_depth: 4096,
                faults: FAULTS,
                liveness: LivenessConfig {
                    default_cycles_budget: Some(WATCHDOG_BUDGET),
                    early_drop: true,
                    ..LivenessConfig::default()
                },
                fast_forward,
                ..FarmConfig::default()
            },
            policy(policy_name),
        );
        farm.add_worker(IDCT);
        farm.add_worker(DFT1K);
        farm.add_dpr_worker(&[(IDCT, 20_000), (COPY3, 20_000)]);
        farm.arm_chaos(FaultPlan::new(chaos.clone()));
        farm
    };
    let (mut stalls, mut drops, mut faults) = (0, 0, 0);
    for policy_name in ["fifo", "round-robin", "dpr-affinity"] {
        let (fast, report) = assert_lockstep(
            &|fast_forward| build(policy_name, fast_forward),
            &specs,
            policy_name,
        );
        assert!(
            report.skipped_fraction() >= 0.5,
            "an idle incapable worker pinned the horizon ({policy_name}): only {:.1}% leaped",
            report.skipped_fraction() * 100.0
        );
        assert_eq!(fast.records.len(), specs.len(), "a job was stranded");
        stalls += fast.alloc_stalls;
        drops += fast.jobs_deadline_missed;
        faults += fast.worker_faults;
    }
    assert!(stalls > 0, "no alloc stall was ever charged");
    assert!(drops > 0, "the tight deadlines never tripped early drop");
    assert!(faults > 0, "the chaos plan never faulted a worker");
}
