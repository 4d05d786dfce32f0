//! Pool-level scheduling tests: backpressure, fairness, swap safety,
//! and the DPR-affinity throughput win the farm exists to provide.

use std::collections::HashMap;

use ouessant_farm::{
    DprAffinityPolicy, Farm, FarmConfig, FifoPolicy, JobId, JobKind, JobSpec, LivenessConfig,
    RoundRobinPolicy, SubmitError,
};
use ouessant_isa::operands::MAX_PROGRAM_LEN;
use ouessant_isa::{Instruction, Program, ProgramBuilder};
use ouessant_sim::XorShift64;

const IDCT: JobKind = JobKind::Idct;
const DFT64: JobKind = JobKind::Dft { points: 64 };
const COPY3: JobKind = JobKind::Copy { scale: 3 };

/// A deterministic payload for `kind` (JPEG-range words keep the IDCT
/// and DFT fixed-point paths well inside their dynamic range).
fn payload(kind: JobKind, rng: &mut XorShift64) -> Vec<u32> {
    let words = kind.required_input_words().unwrap_or(48);
    (0..words)
        .map(|_| (rng.gen_range_i32(-1024..1024)) as u32)
        .collect()
}

/// The swap-heavy workload of the affinity experiment: `pairs`
/// alternating IDCT/copy jobs, worst case for a naive scheduler on a
/// single DPR slot.
fn alternating_mix(pairs: usize, seed: u64) -> Vec<JobSpec> {
    let mut rng = XorShift64::new(seed);
    let mut specs = Vec::new();
    for _ in 0..pairs {
        specs.push(JobSpec::new(IDCT, payload(IDCT, &mut rng)));
        specs.push(JobSpec::new(COPY3, payload(COPY3, &mut rng)));
    }
    specs
}

/// One DPR worker holding IDCT + scaling-copy configurations with a
/// 40 KiB bitstream each (10k-cycle swap at the ICAP rate).
fn single_dpr_farm(policy_fifo: bool) -> Farm {
    let policy: Box<dyn ouessant_farm::SchedPolicy> = if policy_fifo {
        Box::new(FifoPolicy::new())
    } else {
        Box::new(DprAffinityPolicy::new())
    };
    let mut farm = Farm::new(FarmConfig::default(), policy);
    farm.add_dpr_worker(&[(IDCT, 40_000), (COPY3, 40_000)]);
    farm
}

#[test]
fn backpressure_returns_queue_full() {
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 4,
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    );
    farm.add_worker(IDCT);
    for _ in 0..4 {
        farm.submit(JobSpec::new(IDCT, vec![0; 64])).unwrap();
    }
    assert_eq!(
        farm.submit(JobSpec::new(IDCT, vec![0; 64])),
        Err(SubmitError::QueueFull { capacity: 4 }),
        "a full queue must push back, not drop or grow"
    );
    // Draining the pool re-opens admission.
    farm.run_until_idle(1_000_000).unwrap();
    farm.submit(JobSpec::new(IDCT, vec![0; 64])).unwrap();
    farm.run_until_idle(1_000_000).unwrap();
    assert_eq!(farm.records().len(), 5);
}

/// Every refused submission lands in exactly one report class: full,
/// shed (overload), invalid or unsafe (microcode), and none of them is
/// an admission.
#[test]
fn admission_sorts_every_rejection_into_its_class() {
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 2,
            liveness: LivenessConfig {
                shed_watermark: Some(1),
                shed_floor: 1,
                ..LivenessConfig::default()
            },
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    );
    farm.add_worker(IDCT);
    let idct = |priority: u8| JobSpec::new(IDCT, vec![0; 64]).with_priority(priority);

    // Invalid: an unserviceable kind and a malformed payload.
    assert!(matches!(
        farm.submit(JobSpec::new(DFT64, vec![0; 128])),
        Err(SubmitError::NoCapableWorker { .. })
    ));
    assert!(matches!(
        farm.submit(JobSpec::new(IDCT, vec![0; 63])),
        Err(SubmitError::BadPayload { .. })
    ));
    // Unsafe: microcode the analyzer refuses, and microcode too long
    // to take the DPR `rcfg` prepend.
    let overflow = ProgramBuilder::new()
        .mvtc(1, 16256, 256, 0)
        .unwrap()
        .execs()
        .eop()
        .finish()
        .unwrap();
    assert!(matches!(
        farm.submit(idct(1).with_microcode(overflow)),
        Err(SubmitError::RejectedMicrocode { .. })
    ));
    let mut insns = vec![Instruction::Nop; MAX_PROGRAM_LEN - 1];
    insns.push(Instruction::Eop);
    let too_long = Program::new(insns).unwrap();
    assert!(matches!(
        farm.submit(idct(1).with_microcode(too_long)),
        Err(SubmitError::MicrocodeTooLong { .. })
    ));
    // Shed: past the watermark, below-floor work is refused.
    farm.submit(idct(1)).unwrap();
    farm.submit(idct(1)).unwrap();
    assert!(matches!(
        farm.submit(idct(0)),
        Err(SubmitError::ShedOverload { .. })
    ));
    // Full: at capacity with nothing lower to evict.
    assert_eq!(
        farm.submit(idct(1)),
        Err(SubmitError::QueueFull { capacity: 2 })
    );

    farm.run_until_idle(1_000_000).unwrap();
    let report = farm.report();
    assert_eq!(report.rejected_invalid, 2);
    assert_eq!(report.rejected_unsafe, 2);
    assert_eq!(report.rejected_shed, 1);
    assert_eq!(report.rejected_full, 1);
    assert_eq!(report.jobs_admitted, 2, "rejections are not admissions");
    assert_eq!(report.jobs_completed, 2);
}

#[test]
fn fifo_never_starves_under_sustained_overload() {
    // Offered load far above capacity: one IDCT worker, a 8-deep
    // queue, and a client that resubmits on every QueueFull. Every
    // admitted job must complete, in admission order.
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 8,
            ..FarmConfig::default()
        },
        Box::new(FifoPolicy::new()),
    );
    farm.add_worker(IDCT);
    let mut rng = XorShift64::new(7);
    let mut admitted: Vec<JobId> = Vec::new();
    let mut rejections = 0u64;
    let mut to_offer = 120u32;
    while to_offer > 0 {
        match farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng))) {
            Ok(id) => {
                admitted.push(id);
                to_offer -= 1;
            }
            Err(SubmitError::QueueFull { .. }) => rejections += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
        // Sustained pressure: barely any breathing room between offers.
        for _ in 0..20 {
            farm.tick();
        }
    }
    farm.run_until_idle(10_000_000).unwrap();
    assert!(
        rejections > 0,
        "overload must actually trigger backpressure"
    );
    let completed: Vec<JobId> = farm.records().iter().map(|r| r.id).collect();
    assert_eq!(
        completed, admitted,
        "FIFO serves in admission order, nobody starves"
    );
    let report = farm.report();
    assert_eq!(report.jobs_completed, 120);
    assert!(
        report.queue_wait.max < 500_000,
        "bounded queue keeps waits bounded (saw {})",
        report.queue_wait.max
    );
}

#[test]
fn swaps_never_corrupt_in_flight_jobs() {
    // The worst swap churn we can produce: strict alternation on one
    // DPR slot under FIFO, so *every* job carries an rcfg. Every output
    // must still be bit-exact against the host golden model.
    let mut farm = single_dpr_farm(true);
    let mut golden: HashMap<JobId, Vec<u32>> = HashMap::new();
    for spec in alternating_mix(10, 0xD1CE) {
        let expect = spec.kind.expected_output(&spec.input);
        let id = farm.submit(spec).unwrap();
        golden.insert(id, expect);
    }
    farm.run_until_idle(50_000_000).unwrap();
    let report = farm.report();
    assert_eq!(report.jobs_completed, 20);
    assert!(
        report.swaps >= 19,
        "alternation under FIFO must swap nearly every job (saw {})",
        report.swaps
    );
    for record in farm.records() {
        assert_eq!(
            &record.output,
            golden.get(&record.id).unwrap(),
            "{} corrupted across a bitstream swap",
            record.id
        );
    }
}

#[test]
fn dpr_affinity_outperforms_fifo_on_swap_heavy_mix() {
    // The acceptance experiment: identical swap-heavy workload, same
    // single-DPR pool, only the policy differs. Affinity batches the
    // mix into one run per kind and pays ~2 swaps instead of ~40.
    let mix = alternating_mix(20, 0xBEEF);

    let mut fifo = single_dpr_farm(true);
    for spec in mix.clone() {
        fifo.submit(spec).unwrap();
    }
    fifo.run_until_idle(100_000_000).unwrap();
    let fifo_report = fifo.report();

    let mut affinity = single_dpr_farm(false);
    for spec in mix {
        affinity.submit(spec).unwrap();
    }
    affinity.run_until_idle(100_000_000).unwrap();
    let affinity_report = affinity.report();

    assert_eq!(fifo_report.jobs_completed, 40);
    assert_eq!(affinity_report.jobs_completed, 40);
    assert!(
        affinity_report.swaps < fifo_report.swaps / 4,
        "affinity must amortize swaps ({} vs {})",
        affinity_report.swaps,
        fifo_report.swaps
    );
    assert!(
        affinity_report.throughput_jobs_per_mcycle > 1.5 * fifo_report.throughput_jobs_per_mcycle,
        "affinity throughput {:.2} jobs/Mcycle not measurably above FIFO {:.2}",
        affinity_report.throughput_jobs_per_mcycle,
        fifo_report.throughput_jobs_per_mcycle
    );
}

#[test]
fn affinity_patience_bounds_cross_kind_waiting() {
    // A continuous IDCT stream plus one early copy job: affinity with a
    // small patience must still serve the copy job promptly instead of
    // starving it behind the batch.
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 128,
            ..FarmConfig::default()
        },
        Box::new(DprAffinityPolicy::with_patience(20_000)),
    );
    farm.add_dpr_worker(&[(IDCT, 40_000), (COPY3, 40_000)]);
    let mut rng = XorShift64::new(11);
    let copy_id = farm
        .submit(JobSpec::new(COPY3, payload(COPY3, &mut rng)))
        .unwrap();
    for _ in 0..40 {
        farm.submit(JobSpec::new(IDCT, payload(IDCT, &mut rng)))
            .unwrap();
    }
    farm.run_until_idle(50_000_000).unwrap();
    let copy = farm
        .records()
        .iter()
        .find(|r| r.id == copy_id)
        .expect("copy job completed");
    assert!(
        copy.queue_wait() < 100_000,
        "patience failed to bound the copy job's wait ({})",
        copy.queue_wait()
    );
}

/// A hand-written straight-line program equivalent to the farm's
/// canonical copy microcode, but with a different burst chunking — it
/// only completes correctly if the farm actually runs *this* program.
fn custom_copy_program(words: u32) -> Program {
    ProgramBuilder::new()
        .transfer_to_coprocessor(1, 0, words, 16, 0)
        .unwrap()
        .execs_op(u16::try_from(words).unwrap())
        .transfer_from_coprocessor(2, 0, words, 16, 0)
        .unwrap()
        .eop()
        .finish()
        .unwrap()
}

#[test]
fn unsafe_custom_microcode_rejected_without_disturbing_in_flight_jobs() {
    let mut farm = Farm::new(FarmConfig::default(), Box::new(FifoPolicy::new()));
    farm.add_worker(COPY3);

    // Put a legitimate job on the worker first.
    let input: Vec<u32> = (1..=48).collect();
    let good = farm.submit(JobSpec::new(COPY3, input.clone())).unwrap();
    for _ in 0..20 {
        farm.tick();
    }
    assert_eq!(farm.in_flight(), 1, "the good job is on the worker");

    // An out-of-bounds burst: 256 words starting at word 16256 runs
    // past the 16384-word offset space (and far past the 48-word input
    // region this job would actually lease).
    let overflow = ProgramBuilder::new()
        .mvtc(1, 16256, 256, 0)
        .unwrap()
        .execs()
        .eop()
        .finish()
        .unwrap();
    let err = farm
        .submit(JobSpec::new(COPY3, input.clone()).with_microcode(overflow))
        .unwrap_err();
    match &err {
        SubmitError::RejectedMicrocode { diagnostics } => {
            assert!(diagnostics.has_errors());
            assert!(
                err.to_string().contains("bank-overflow"),
                "diagnostics name the defect: {err}"
            );
        }
        other => panic!("expected RejectedMicrocode, got {other:?}"),
    }

    // A launch/join hazard: `execn` with no `wrac` on any path.
    let unjoined = ProgramBuilder::new()
        .transfer_to_coprocessor(1, 0, 48, 16, 0)
        .unwrap()
        .push(Instruction::Execn { op: 0 })
        .eop()
        .finish()
        .unwrap();
    let err = farm
        .submit(JobSpec::new(COPY3, input.clone()).with_microcode(unjoined))
        .unwrap_err();
    assert!(
        err.to_string().contains("unjoined-launch"),
        "diagnostics name the defect: {err}"
    );

    // Neither rejection touched the in-flight job or took a queue slot.
    assert_eq!(farm.in_flight(), 1, "rejections must not disturb the pool");
    assert_eq!(farm.queue_len(), 0);
    farm.run_until_idle(1_000_000).unwrap();

    let report = farm.report();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.rejected_unsafe, 2);
    let record = &farm.records()[0];
    assert_eq!(record.id, good);
    assert_eq!(record.output, COPY3.expected_output(&input));
}

#[test]
fn valid_custom_microcode_serves_end_to_end() {
    let mut farm = Farm::new(FarmConfig::default(), Box::new(FifoPolicy::new()));
    farm.add_worker(COPY3);
    let input: Vec<u32> = (0..48).map(|w| w * 7 + 1).collect();
    farm.submit(JobSpec::new(COPY3, input.clone()).with_microcode(custom_copy_program(48)))
        .unwrap();
    farm.run_until_idle(1_000_000).unwrap();
    let report = farm.report();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.rejected_unsafe, 0);
    assert_eq!(farm.records()[0].output, COPY3.expected_output(&input));
}

#[test]
fn custom_microcode_loop_survives_dpr_rcfg_prepend() {
    // A looped input transfer on a DPR worker that must swap first:
    // the farm prepends `rcfg`, shifting every instruction by one, so
    // the `djnz` back-edge only lands on the `mvtcr` if admission's
    // target rebase is correct. A wrong target re-runs `ldo` and feeds
    // the payload's first words twice — caught by the golden model.
    let words = 48u32;
    let looped = ProgramBuilder::new()
        .ldc(0, 3)
        .unwrap()
        .ldo(0, 0)
        .unwrap()
        .mvtcr(1, 0, 16, 0)
        .unwrap()
        .djnz(0, 2)
        .unwrap()
        .execs_op(u16::try_from(words).unwrap())
        .transfer_from_coprocessor(2, 0, words, 16, 0)
        .unwrap()
        .eop()
        .finish()
        .unwrap();

    let mut farm = single_dpr_farm(true);
    assert_eq!(
        farm.workers()[0].loaded_config(),
        0,
        "IDCT loaded: serving the copy job forces an rcfg prepend"
    );
    let input: Vec<u32> = (0..words).map(|w| w.wrapping_mul(0x9E37) + 3).collect();
    farm.submit(JobSpec::new(COPY3, input.clone()).with_microcode(looped))
        .unwrap();
    farm.run_until_idle(50_000_000).unwrap();

    let report = farm.report();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.swaps, 1, "the custom job paid its own swap");
    assert_eq!(farm.records()[0].output, COPY3.expected_output(&input));
}

/// The 64-word scaling copy, its microcode written out, behind `head`.
fn copy64_program(head: &[Instruction], tail: Instruction) -> Program {
    head.iter()
        .fold(ProgramBuilder::new(), |b, &insn| b.push(insn))
        .mvtc(1, 0, 64, 0)
        .unwrap()
        .execs_op(64)
        .mvfc(2, 0, 64, 0)
        .unwrap()
        .push(tail)
        .finish()
        .unwrap()
}

#[test]
fn custom_rcfg_is_refused_so_the_farm_owns_the_slot() {
    // Admitted, a client's `rcfg 0` behind the farm's own `rcfg 1`
    // reloaded the IDCT while the farm's mirror said copy, and the
    // next plain copy job came back as the IDCT of its input.
    let mut farm = Farm::new(FarmConfig::default(), Box::new(FifoPolicy::new()));
    farm.add_dpr_worker(&[(IDCT, 40_000), (COPY3, 40_000)]);
    let input: Vec<u32> = (1..=64).collect();
    let reload = copy64_program(&[Instruction::Rcfg { slot: 0 }], Instruction::Eop);
    assert_eq!(
        farm.submit(JobSpec::new(COPY3, input.clone()).with_microcode(reload)),
        Err(SubmitError::ReservedInstruction {
            index: 0,
            instruction: Instruction::Rcfg { slot: 0 },
        })
    );
    let plain = farm.submit(JobSpec::new(COPY3, input.clone())).unwrap();
    farm.run_until_idle(1_000_000).unwrap();

    let record = farm.records().iter().find(|r| r.id == plain).unwrap();
    assert_eq!(record.output, COPY3.expected_output(&input));
    let report = farm.report();
    assert_eq!(report.rejected_unsafe, 1);
    assert_eq!(report.jobs_completed, 1);
}

#[test]
fn custom_halt_is_refused_so_no_worker_is_stranded() {
    // Admitted, a `halt` left the controller idle without the D bit:
    // the job never completed, no watchdog counts an idle controller,
    // and every later job waited behind it.
    let mut farm = Farm::new(FarmConfig::default(), Box::new(FifoPolicy::new()));
    farm.add_worker(COPY3);
    let input: Vec<u32> = (1..=64).collect();
    let halting = copy64_program(&[], Instruction::Halt);
    assert_eq!(
        farm.submit(JobSpec::new(COPY3, input.clone()).with_microcode(halting)),
        Err(SubmitError::ReservedInstruction {
            index: 3,
            instruction: Instruction::Halt,
        })
    );
    farm.submit(JobSpec::new(COPY3, input.clone())).unwrap();
    farm.run_until_idle(2_000_000).unwrap();

    let report = farm.report();
    assert_eq!(report.rejected_unsafe, 1);
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(farm.records()[0].output, COPY3.expected_output(&input));
    assert!(farm.workers()[0].is_dispatchable());
}

#[test]
fn heterogeneous_pool_serves_mixed_load_bit_exactly() {
    // The tentpole end-to-end shape: three workers (fixed IDCT, fixed
    // DFT, one DPR slot) on one shared bus, round-robin placement,
    // every output checked against the golden model, and the shared bus
    // actually observed under contention.
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 128,
            ..FarmConfig::default()
        },
        Box::new(RoundRobinPolicy::new()),
    );
    farm.add_worker(IDCT);
    farm.add_worker(DFT64);
    farm.add_dpr_worker(&[(IDCT, 40_000), (DFT64, 60_000)]);

    let mut rng = XorShift64::new(42);
    let mut golden: HashMap<JobId, Vec<u32>> = HashMap::new();
    for i in 0..60u32 {
        let kind = if i % 2 == 0 { IDCT } else { DFT64 };
        let spec = JobSpec::new(kind, payload(kind, &mut rng));
        let expect = spec.kind.expected_output(&spec.input);
        let id = farm.submit(spec).unwrap();
        golden.insert(id, expect);
    }
    farm.run_until_idle(50_000_000).unwrap();

    let report = farm.report();
    assert_eq!(report.jobs_completed, 60);
    for record in farm.records() {
        assert_eq!(&record.output, golden.get(&record.id).unwrap());
    }
    let busy_workers = report.workers.iter().filter(|w| w.jobs > 0).count();
    assert_eq!(busy_workers, 3, "round-robin spreads work over the pool");
    assert!(
        report.contention_cycles > 0,
        "three DMA masters on one bus must contend at least once"
    );
    assert_eq!(report.alloc.words_in_use, 0, "all job regions returned");
}

/// The busy time `farm`'s report gives each worker, checked against its
/// records: the spans `completed_at − started_at` of the jobs it served,
/// plus `now − since` for a job still on it that started on cycle
/// `since` (one entry per worker).
fn assert_busy_is_served_spans(farm: &Farm, in_flight_since: &[Option<u64>]) {
    let report = farm.report();
    for (wi, w) in report.workers.iter().enumerate() {
        let served: u64 = farm
            .records()
            .iter()
            .filter(|r| r.worker == wi && r.outcome.is_completed())
            .map(|r| r.completed_at - r.started_at)
            .sum();
        let open = in_flight_since[wi].map_or(0, |since| farm.now() - since);
        assert_eq!(
            w.busy_cycles,
            served + open,
            "worker {wi} at cycle {}",
            farm.now()
        );
    }
}

/// A worker's busy time is the spans of the jobs it served. On a calm
/// pool a single-stepped farm is checked after every tick, including
/// the job still in flight, and a fast-forwarded twin every 97 cycles
/// (a run cut by its fuel stops mid-job), with the in-flight start
/// cycles the stepped twin observed; both are checked again at idle.
#[test]
fn busy_time_is_the_sum_of_served_spans_in_both_stepping_modes() {
    let build = |fast_forward: bool| {
        let mut farm = Farm::new(
            FarmConfig {
                fast_forward,
                ..FarmConfig::default()
            },
            Box::new(FifoPolicy::new()),
        );
        farm.add_worker(IDCT);
        farm.add_worker(DFT64);
        farm.add_dpr_worker(&[(IDCT, 4_000), (COPY3, 4_000)]);
        let mut rng = XorShift64::new(11);
        for i in 0..12 {
            let kind = [IDCT, DFT64, COPY3][i % 3];
            farm.submit(JobSpec::new(kind, payload(kind, &mut rng)))
                .unwrap();
        }
        farm
    };
    let mut stepped = build(false);
    let mut leaping = build(true);
    let mut since = vec![None; stepped.workers().len()];
    let mut in_flight_seen = false;
    loop {
        let cut = leaping.run_until_idle(97);
        while stepped.now() < leaping.now() {
            let now = stepped.now();
            stepped.tick();
            for (s, w) in since.iter_mut().zip(stepped.workers()) {
                *s = if w.is_idle() { None } else { s.or(Some(now)) };
            }
            assert_busy_is_served_spans(&stepped, &since);
        }
        in_flight_seen |= since.iter().any(Option::is_some);
        assert_busy_is_served_spans(&leaping, &since);
        if cut.is_ok() {
            break;
        }
    }
    assert!(in_flight_seen, "a fuel cut landed mid-job");
    assert_eq!(leaping.in_flight(), 0);
    assert_eq!(leaping.report().jobs_completed, 12);
    assert!(leaping.skipped_cycles() > 0, "the twin leapt");
    for farm in [&stepped, &leaping] {
        assert_busy_is_served_spans(farm, &[None, None, None]);
    }
}
