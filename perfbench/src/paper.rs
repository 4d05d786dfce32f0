//! The `paper-repro` workload: one pass regenerates the paper's
//! evaluation through `ouessant_soc::app`, `ouessant_isa` and
//! `ouessant_resources` — Table I, §V-B, ablations A1–A6, the §V-A
//! resource estimates and the Figure-4 optimiser — plus one DFT of
//! seeded samples through the library path, checked bit-exact.

use std::time::{Duration, Instant};

use ouessant_isa::opt::{optimize, OptStats};
use ouessant_isa::{assemble, Program, FIGURE4_SOURCE};
use ouessant_rac::dft::dft_fixed;
use ouessant_rac::fixed::to_q15;
use ouessant_resources::estimate::ocp_overhead;
use ouessant_resources::{
    dpr_region_estimate, estimate_fmax, estimate_ocp, rac_estimate, Device, OcpParams, RacKind,
    Resources, TimingReport, Utilization,
};
use ouessant_sim::memory::SramConfig;
use ouessant_sim::XorShift64;
use ouessant_soc::app::{
    accelerated_dft, dft_experiment, idct_experiment, transfer_experiment, ExperimentConfig,
    Table1Row, TransferReport,
};
use ouessant_soc::os::OsModel;
use ouessant_soc::soc::{CompletionMode, SocConfig};

use crate::trace::Tracer;

/// Points of the seeded library-path DFT.
const SEEDED_DFT_POINTS: usize = 256;

/// One call into the program.
#[derive(Debug, Clone)]
enum Call {
    Idct(ExperimentConfig),
    Dft(ExperimentConfig),
    Transfer(ExperimentConfig, u32),
    SeededDft(ExperimentConfig, Vec<(f64, f64)>),
    Resources,
    Assemble,
    /// Optimises the Figure-4 program, assembled in set-up.
    Optimize(Program),
}

/// What a call returned. Passes are compared through the `Debug`
/// form, which is the only reader of most fields.
#[derive(Debug, Clone)]
#[allow(dead_code)]
enum Outcome {
    Row(Table1Row),
    Transfer(TransferReport),
    SeededDft(Vec<(f64, f64)>),
    /// OCP overhead, timing, utilization, A6's static and DPR area.
    Resources(Resources, TimingReport, Utilization, Resources, Resources),
    Program(Program),
    Optimized(Program, OptStats),
    Failed(String),
}

/// The calls of one pass, labelled, built once per pass in set-up.
#[derive(Debug, Clone)]
pub struct Plan {
    calls: Vec<(&'static str, Call)>,
}

/// The results of one pass.
#[derive(Debug)]
pub struct Pass {
    /// Host time of the calls.
    pub timed: Duration,
    results: Vec<(&'static str, Outcome)>,
}

impl Plan {
    /// The full reproduction; `seed` draws the library-path DFT input.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let linux = ExperimentConfig::paper_linux();
        let bare = ExperimentConfig::paper_baremetal();
        let mut calls = vec![
            ("table1.idct", Call::Idct(linux)),
            ("table1.dft", Call::Dft(linux)),
            ("vb.dft_baremetal", Call::Dft(bare)),
            ("va.resources", Call::Resources),
        ];
        for burst in [8u16, 16, 32, 64, 128, 256] {
            calls.push((
                "a1.burst",
                Call::Transfer(ExperimentConfig { burst, ..bare }, 512),
            ));
        }
        for completion in [
            CompletionMode::Interrupt,
            CompletionMode::Polling { interval: 16 },
            CompletionMode::Polling { interval: 1024 },
        ] {
            let soc = SocConfig {
                completion,
                ..bare.soc
            };
            calls.push(("a2.completion", Call::Dft(ExperimentConfig { soc, ..bare })));
        }
        for os in [
            OsModel::Baremetal,
            OsModel::linux_mmap(),
            OsModel::linux_copy(),
        ] {
            calls.push(("a3.os_model", Call::Dft(ExperimentConfig { os, ..linux })));
        }
        for ws in [0u32, 1, 3, 7] {
            let soc = SocConfig {
                sram: SramConfig {
                    first_access_wait_states: ws,
                    sequential_wait_states: 0,
                },
                ..bare.soc
            };
            calls.push((
                "a4.wait_states",
                Call::Transfer(ExperimentConfig { soc, ..bare }, 512),
            ));
        }
        for n in [16usize, 64, 256, 1024] {
            calls.push((
                "a5.dft_size",
                Call::Dft(ExperimentConfig {
                    dft_points: n,
                    burst: 64.min((n * 2) as u16),
                    ..linux
                }),
            ));
        }
        calls.push(("fig4.assemble", Call::Assemble));
        let figure4 = assemble(FIGURE4_SOURCE).expect("the Figure-4 listing assembles");
        calls.push(("fig4.optimize", Call::Optimize(figure4)));
        let mut rng = XorShift64::new(seed);
        let samples = (0..SEEDED_DFT_POINTS)
            .map(|_| {
                let re = rng.gen_range_i32(-8192..8192);
                let im = rng.gen_range_i32(-8192..8192);
                (f64::from(re) / 32768.0, f64::from(im) / 32768.0)
            })
            .collect();
        calls.push(("seeded.dft", Call::SeededDft(bare, samples)));
        Self { calls }
    }

    /// Calls of `pass` that failed, and a seeded DFT whose output
    /// differs from the fixed-point reference.
    #[must_use]
    pub fn check(&self, pass: &Pass) -> Vec<String> {
        self.calls
            .iter()
            .zip(&pass.results)
            .filter_map(|((label, call), (_, outcome))| match (call, outcome) {
                (_, Outcome::Failed(e)) => Some(format!("{label}: {e}")),
                (Call::SeededDft(_, input), Outcome::SeededDft(out))
                    if *out != reference_dft(input) =>
                {
                    Some(format!("{label}: output differs from the reference DFT"))
                }
                _ => None,
            })
            .collect()
    }

    /// OCP offloads one pass makes.
    #[must_use]
    pub fn offloads(&self) -> usize {
        self.calls
            .iter()
            .filter(|(_, c)| c.span_name().starts_with("soc."))
            .count()
    }

    /// Runs every call once. Spans go to `tracer` when it is on,
    /// grouped under `group`.
    pub fn run(&self, tracer: &mut Tracer, group: u64) -> Pass {
        let start = Instant::now();
        let pass_span = tracer.enter("pass", group);
        let mut results = Vec::with_capacity(self.calls.len());
        for (label, call) in &self.calls {
            let span = tracer.enter(call.span_name(), group);
            let outcome = call.run();
            let cycles = match &outcome {
                Outcome::Row(row) => row.machine_cycles,
                Outcome::Transfer(t) => t.machine_cycles,
                _ => 0,
            };
            tracer.exit(span, &[("machine_cycles", cycles)]);
            results.push((*label, outcome));
        }
        tracer.exit(pass_span, &[]);
        Pass {
            timed: start.elapsed(),
            results,
        }
    }
}

impl Call {
    fn span_name(&self) -> &'static str {
        match self {
            Call::Idct(_) => "soc.idct_experiment",
            Call::Dft(_) => "soc.dft_experiment",
            Call::Transfer(..) => "soc.transfer_experiment",
            Call::SeededDft(..) => "soc.accelerated_dft",
            Call::Resources => "resources.estimate",
            Call::Assemble => "isa.assemble",
            Call::Optimize(_) => "isa.optimize",
        }
    }

    fn run(&self) -> Outcome {
        let failed = |e: &dyn std::fmt::Display| Outcome::Failed(e.to_string());
        match self {
            Call::Idct(config) => idct_experiment(config).map_or_else(|e| failed(&e), Outcome::Row),
            Call::Dft(config) => dft_experiment(config).map_or_else(|e| failed(&e), Outcome::Row),
            Call::Transfer(config, words) => {
                transfer_experiment(config, *words).map_or_else(|e| failed(&e), Outcome::Transfer)
            }
            Call::SeededDft(config, samples) => {
                accelerated_dft(config, samples).map_or_else(|e| failed(&e), Outcome::SeededDft)
            }
            Call::Resources => {
                let params = OcpParams::default();
                let overhead = ocp_overhead(&estimate_ocp(&params));
                let timing = estimate_fmax(&params);
                let kinds = [RacKind::Idct, RacKind::SpiralDft { points: 256 }];
                Outcome::Resources(
                    overhead,
                    timing,
                    Device::artix7_100t().utilization(overhead),
                    rac_estimate(kinds[0]) + rac_estimate(kinds[1]),
                    dpr_region_estimate(&kinds),
                )
            }
            Call::Assemble => {
                assemble(FIGURE4_SOURCE).map_or_else(|e| failed(&e), Outcome::Program)
            }
            Call::Optimize(program) => optimize(program)
                .map_or_else(|e| failed(&e), |(p, stats)| Outcome::Optimized(p, stats)),
        }
    }
}

/// The fixed-point DFT the accelerator must reproduce, as floats.
fn reference_dft(samples: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let q15: Vec<(i32, i32)> = samples
        .iter()
        .map(|&(re, im)| (to_q15(re), to_q15(im)))
        .collect();
    dft_fixed(&q15)
        .into_iter()
        .map(|(re, im)| (f64::from(re) / 32768.0, f64::from(im) / 32768.0))
        .collect()
}

/// The paper's published values the reproduction is scored against.
const PUBLISHED: [(&str, f64); 9] = [
    ("Table I IDCT HW cycles", 3000.0),
    ("Table I IDCT SW cycles", 5000.0),
    ("Table I IDCT gain", 1.67),
    ("Table I DFT HW cycles", 7000.0),
    ("Table I DFT SW cycles", 600_000.0),
    ("Table I DFT gain", 85.0),
    ("§V-B baremetal DFT cycles", 4000.0),
    ("§V-B Linux overhead cycles", 3000.0),
    ("§V-B transfer cycles/word", 1.5),
];

impl Pass {
    /// Machine cycles of each offload whose call reports them.
    #[must_use]
    pub fn offload_cycles(&self) -> Vec<u64> {
        self.results
            .iter()
            .filter_map(|(_, outcome)| match outcome {
                Outcome::Row(row) => Some(row.machine_cycles),
                Outcome::Transfer(t) => Some(t.machine_cycles),
                _ => None,
            })
            .collect()
    }

    /// Simulated machine cycles of the pass.
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.offload_cycles().iter().sum()
    }

    /// Every value the pass produced, for the pass-to-pass comparison.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self.results)
    }

    /// The reproduced values of [`PUBLISHED`], in its order, or `None`
    /// if a call they come from failed.
    fn reproduced(&self) -> Option<[f64; 9]> {
        let row = |label: &str| {
            self.results.iter().find_map(|(l, o)| match o {
                Outcome::Row(row) if *l == label => Some(row),
                _ => None,
            })
        };
        let (idct, dft, bare) = (
            row("table1.idct")?,
            row("table1.dft")?,
            row("vb.dft_baremetal")?,
        );
        let transfer = bare.machine_cycles - bare.latency;
        Some([
            idct.hw_cycles as f64,
            idct.sw_cycles as f64,
            idct.gain,
            dft.hw_cycles as f64,
            dft.sw_cycles as f64,
            dft.gain,
            bare.machine_cycles as f64,
            (dft.hw_cycles - bare.hw_cycles) as f64,
            transfer as f64 / bare.words as f64,
        ])
    }

    /// The largest relative error against the paper, in percent, and
    /// the quantity it belongs to.
    #[must_use]
    pub fn max_error_pct(&self) -> Option<(f64, &'static str)> {
        let values = self.reproduced()?;
        PUBLISHED
            .iter()
            .zip(values)
            .map(|(&(name, paper), ours)| (100.0 * (ours - paper).abs() / paper, name))
            .max_by(|a, b| a.0.total_cmp(&b.0))
    }
}
