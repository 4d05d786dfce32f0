//! The four workloads: their job generators and the pools that serve
//! them. Every generator is seeded from `--seed`; the farm only ever
//! sees the generated [`JobSpec`]s.

use ouessant_farm::{
    ChaosConfig, Farm, FarmConfig, FaultConfig, FaultPlan, JobKind, JobSpec, LivenessConfig,
    RoundRobinPolicy,
};
use ouessant_isa::ProgramBuilder;
use ouessant_sim::XorShift64;

const IDCT: JobKind = JobKind::Idct;
const DFT64: JobKind = JobKind::Dft { points: 64 };
const DFT4096: JobKind = JobKind::Dft { points: 4096 };
const COPY3: JobKind = JobKind::Copy { scale: 3 };

/// Relative deadline of every `chaos-deadline` job, in cycles after
/// its submission. The liveness sweep checks it on every tick, but it
/// is loose enough that every job of the workload meets it: a benchmark
/// operation must not fail. At 600k and 1M cycles, quarantine backlogs
/// made 59 and 51 of the 1440 reference jobs miss it.
pub const CHAOS_DEADLINE: u64 = 1_500_000;

/// Seed of the `chaos-deadline` fault plan. The plan is part of the
/// workload, like its pool: `--seed` draws the job payloads, which do
/// not move simulated time, so every seed simulates the same faults at
/// the same cycles. Plans drawn from other seeds move the completed
/// share by several percent, more than the bound on simulated metrics.
const CHAOS_PLAN_SEED: u64 = 0xFA11_FA57;

/// Cycles each `sparse-idle` custom program sleeps between its load
/// and its compute.
const SLEEP_CYCLES: u16 = 60_000;

/// Most words moved each way by a `sparse-idle` custom copy job.
const MAX_SLEEP_JOB_WORDS: u32 = 64;

/// Generous-retry fault policy of the chaos campaign, so retries,
/// parking, quarantine and probation all run.
const CHAOS_FAULTS: FaultConfig = FaultConfig {
    max_attempts: 10,
    retry_backoff: 500,
    fault_window: 40_000,
    quarantine_threshold: 3,
    quarantine_cooldown: Some(60_000),
    fail_fast: false,
};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deep mixed queue on the redundant pool, no faults.
    MixedBacklog,
    /// The mixed batches with deadlines, crash and stall chaos.
    ChaosDeadline,
    /// Compute- and sleep-bound jobs: fast-forward does the work.
    SparseIdle,
    /// Repeated passes of the paper's single-OCP reproduction.
    PaperRepro,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MixedBacklog,
        Workload::ChaosDeadline,
        Workload::SparseIdle,
        Workload::PaperRepro,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedBacklog => "mixed-backlog",
            Workload::ChaosDeadline => "chaos-deadline",
            Workload::SparseIdle => "sparse-idle",
            Workload::PaperRepro => "paper-repro",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Batches of the reference epoch of a farm workload (`None` for
    /// `paper-repro`): the epoch the simulated metrics come from. Each
    /// completes well over 1000 jobs, so at least ten latency samples
    /// lie beyond p99.
    #[must_use]
    pub fn reference_batches(self) -> Option<usize> {
        match self {
            Workload::MixedBacklog | Workload::ChaosDeadline => Some(6),
            Workload::SparseIdle => Some(110),
            Workload::PaperRepro => None,
        }
    }

    /// Batches of one timed epoch: a prefix of the reference epoch,
    /// short enough (well under a second) that every measuring process
    /// times several.
    #[must_use]
    pub fn timed_batches(self) -> Option<usize> {
        match self {
            Workload::MixedBacklog => Some(6),
            Workload::ChaosDeadline => Some(1),
            Workload::SparseIdle => Some(8),
            Workload::PaperRepro => None,
        }
    }

    /// Generates `batches` batches of this farm workload's jobs.
    ///
    /// # Panics
    ///
    /// On `paper-repro`, which submits no farm jobs.
    #[must_use]
    pub fn generate(self, seed: u64, batches: usize) -> Vec<Vec<JobSpec>> {
        let mut rng = XorShift64::new(seed);
        (0..batches)
            .map(|_| match self {
                Workload::MixedBacklog | Workload::ChaosDeadline => mixed_batch(&mut rng, 240),
                Workload::SparseIdle => sparse_batch(&mut rng, 12),
                Workload::PaperRepro => panic!("paper-repro has no farm jobs"),
            })
            .collect()
    }

    /// The deadline each job gets, relative to its submission cycle.
    #[must_use]
    pub fn relative_deadline(self) -> Option<u64> {
        (self == Workload::ChaosDeadline).then_some(CHAOS_DEADLINE)
    }

    /// Builds this farm workload's pool.
    ///
    /// # Panics
    ///
    /// On `paper-repro`, which has no pool.
    #[must_use]
    pub fn pool(self, fast_forward: bool) -> Farm {
        match self {
            Workload::MixedBacklog => redundant_pool(
                fast_forward,
                FaultConfig::default(),
                LivenessConfig::default(),
            ),
            Workload::ChaosDeadline => {
                let mut farm = redundant_pool(
                    fast_forward,
                    CHAOS_FAULTS,
                    LivenessConfig {
                        default_cycles_budget: Some(25_000),
                        early_drop: true,
                        ..LivenessConfig::default()
                    },
                );
                let stalls = ChaosConfig::hang(0);
                farm.arm_chaos(FaultPlan::new(ChaosConfig {
                    wedge_one_in: stalls.wedge_one_in,
                    slow_one_in: stalls.slow_one_in,
                    slow_stall: stalls.slow_stall,
                    ..ChaosConfig::new(CHAOS_PLAN_SEED)
                }));
                farm
            }
            Workload::SparseIdle => {
                let mut farm = Farm::new(
                    FarmConfig {
                        queue_capacity: 64,
                        fifo_depth: 8192,
                        fast_forward,
                        ..FarmConfig::default()
                    },
                    Box::new(RoundRobinPolicy::new()),
                );
                farm.add_worker(DFT4096);
                farm.add_worker(COPY3);
                farm.add_worker(COPY3);
                farm
            }
            Workload::PaperRepro => panic!("paper-repro has no farm pool"),
        }
    }
}

fn payload(kind: JobKind, rng: &mut XorShift64) -> Vec<u32> {
    let words = kind.required_input_words().unwrap_or(48);
    (0..words)
        .map(|_| rng.gen_range_i32(-1024..1024) as u32)
        .collect()
}

/// `n` jobs rotating IDCT / DFT64 / COPY3.
fn mixed_batch(rng: &mut XorShift64, n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let kind = [IDCT, DFT64, COPY3][i % 3];
            JobSpec::new(kind, payload(kind, rng))
        })
        .collect()
}

/// `n` jobs: a third of them, at seeded positions, 4096-point DFTs;
/// the others COPY3 jobs of seeded length whose custom microcode
/// sleeps between load and compute. Varying the order and the lengths
/// varies the latencies from batch to batch, so the tail has samples.
fn sparse_batch(rng: &mut XorShift64, n: usize) -> Vec<JobSpec> {
    let mut is_dft: Vec<bool> = (0..n).map(|i| i < n / 3).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range_u32(0..i as u32 + 1) as usize;
        is_dft.swap(i, j);
    }
    is_dft
        .into_iter()
        .map(|dft| {
            if dft {
                JobSpec::new(DFT4096, payload(DFT4096, rng))
            } else {
                let words = rng.gen_range_u32(16..MAX_SLEEP_JOB_WORDS + 1);
                let input = (0..words)
                    .map(|_| rng.gen_range_i32(-1024..1024) as u32)
                    .collect();
                JobSpec::new(COPY3, input).with_microcode(sleep_program(words))
            }
        })
        .collect()
}

fn sleep_program(words: u32) -> ouessant_isa::Program {
    ProgramBuilder::new()
        .transfer_to_coprocessor(1, 0, words, 64, 0)
        .expect("payload fits the offset field")
        .wait(SLEEP_CYCLES)
        .execs_op(words as u16)
        .transfer_from_coprocessor(2, 0, words, 64, 0)
        .expect("payload fits the offset field")
        .eop()
        .finish()
        .expect("sleep program is structurally valid")
}

/// Two fixed-function workers and two DPR workers, round-robin.
fn redundant_pool(fast_forward: bool, faults: FaultConfig, liveness: LivenessConfig) -> Farm {
    let mut farm = Farm::new(
        FarmConfig {
            queue_capacity: 512,
            faults,
            liveness,
            fast_forward,
            ..FarmConfig::default()
        },
        Box::new(RoundRobinPolicy::new()),
    );
    farm.add_worker(IDCT);
    farm.add_worker(DFT64);
    farm.add_dpr_worker(&[(IDCT, 40_000), (COPY3, 40_000)]);
    farm.add_dpr_worker(&[(COPY3, 40_000), (DFT64, 60_000)]);
    farm
}
