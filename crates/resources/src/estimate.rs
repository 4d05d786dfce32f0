//! Per-component resource estimation.
//!
//! Counting rules (documented so the numbers are auditable):
//!
//! * every architectural register bit costs 1 FF;
//! * an `n`-bit 2:1 mux or adder costs `n` LUTs; a `k`-way word mux
//!   costs `⌈k/2⌉·32` LUTs (6-input LUTs pack two 2:1 legs);
//! * an FSM with `s` states and `t` transition terms costs
//!   `⌈log2 s⌉` FFs and `≈ 4·s + 2·t` LUTs of next-state/output logic;
//! * memories of more than 4 Kibit are inferred as BRAM18 blocks
//!   (18 Kibit each), smaller ones as LUT-RAM (1 LUT per 64 bits).

use std::fmt;
use std::iter::Sum;
use std::ops::Add;

/// A resource vector: the columns of a Xilinx utilization report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// 6-input look-up tables.
    pub lut: u32,
    /// Flip-flops.
    pub ff: u32,
    /// 18 Kibit block-RAM halves (a RAMB36 counts as two).
    pub bram18: u32,
    /// DSP48 slices.
    pub dsp: u32,
}

impl Resources {
    /// A zero vector.
    #[must_use]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Convenience constructor.
    #[must_use]
    pub fn new(lut: u32, ff: u32, bram18: u32, dsp: u32) -> Self {
        Self {
            lut,
            ff,
            bram18,
            dsp,
        }
    }
}

impl Add for Resources {
    type Output = Resources;

    fn add(self, rhs: Resources) -> Resources {
        Resources {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram18: self.bram18 + rhs.bram18,
            dsp: self.dsp + rhs.dsp,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::zero(), Add::add)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>5} LUT {:>5} FF {:>3} BRAM18 {:>3} DSP",
            self.lut, self.ff, self.bram18, self.dsp
        )
    }
}

/// A keep-hierarchy style report: one line per component.
#[derive(Debug, Clone, Default)]
pub struct ResourceReport {
    components: Vec<(String, Resources)>,
}

impl ResourceReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component line.
    pub fn push(&mut self, name: &str, r: Resources) {
        self.components.push((name.to_string(), r));
    }

    /// The report total.
    #[must_use]
    pub fn total(&self) -> Resources {
        self.components.iter().map(|(_, r)| *r).sum()
    }

    /// Sum of the components whose name passes `filter`.
    #[must_use]
    pub fn subtotal(&self, filter: impl Fn(&str) -> bool) -> Resources {
        self.components
            .iter()
            .filter(|(n, _)| filter(n))
            .map(|(_, r)| *r)
            .sum()
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, r) in &self.components {
            writeln!(f, "{name:<24} {r}")?;
        }
        write!(f, "{:<24} {}", "TOTAL", self.total())
    }
}

/// Parameters of an OCP instantiation (what the VHDL generics would be).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OcpParams {
    /// Number of memory banks (8 in the paper's interface).
    pub num_banks: u32,
    /// Number of input FIFO interfaces.
    pub num_input_fifos: u32,
    /// Number of output FIFO interfaces.
    pub num_output_fifos: u32,
    /// FIFO depth in 32-bit words (BRAM side).
    pub fifo_depth_words: u32,
    /// Accelerator-side FIFO width in bits (32 in the simple case,
    /// 96 in Figure 2).
    pub fifo_width_bits: u32,
    /// Program store size in instructions.
    pub program_store_words: u32,
}

impl Default for OcpParams {
    fn default() -> Self {
        Self {
            num_banks: 8,
            num_input_fifos: 1,
            num_output_fifos: 1,
            fifo_depth_words: 512,
            fifo_width_bits: 32,
            program_store_words: 1024,
        }
    }
}

fn fsm(states: u32, terms: u32) -> Resources {
    let ff = 32 - (states.max(2) - 1).leading_zeros();
    Resources::new(4 * states + 2 * terms, ff, 0, 0)
}

fn memory_bits(bits: u32) -> Resources {
    // Xilinx infers distributed (LUT) RAM below a few Kibit and BRAM18
    // above; 4 Kibit is the usual crossover for synchronous FIFOs.
    if bits > 4096 {
        Resources::new(0, 0, bits.div_ceil(18 * 1024), 0)
    } else {
        Resources::new(bits.div_ceil(64), 0, 0, 0)
    }
}

/// Estimates the OCP-proper components (interface, controller, FIFO
/// control) plus the FIFO and program memories, as a keep-hierarchy
/// report.
#[must_use]
pub fn estimate_ocp(p: &OcpParams) -> ResourceReport {
    let mut report = ResourceReport::new();

    // --- Interface (Figure 3) ---
    // Register file: 10 x 32-bit registers + read mux + write decode.
    let regs = Resources::new(
        (2 + p.num_banks).div_ceil(2) * 32 + 40,
        (2 + p.num_banks) * 32,
        0,
        0,
    );
    // Address translation: bank mux + 32-bit adder.
    let xlate = Resources::new(p.num_banks.div_ceil(2) * 32 + 32, 0, 0, 0);
    // Slave FSM (4 states) and master FSM (6 states incl. burst
    // sequencing) + burst counters.
    let slave_fsm = fsm(4, 12);
    let master_fsm = fsm(6, 24) + Resources::new(16, 24, 0, 0);
    report.push("interface.regs", regs);
    report.push("interface.xlate", xlate);
    report.push("interface.slave_fsm", slave_fsm);
    report.push("interface.master_fsm", master_fsm);

    // --- Controller (§III-D) ---
    // Fetch/decode/execute FSM (11 states), instruction register, pc,
    // 4 loop counters + 4 offset registers (14 bits each).
    let ctrl_fsm = fsm(11, 40);
    let ctrl_regs = Resources::new(60, 32 + 10 + 8 * 14, 0, 0);
    let decoder = Resources::new(90, 0, 0, 0);
    report.push("controller.fsm", ctrl_fsm);
    report.push("controller.regs", ctrl_regs);
    report.push("controller.decoder", decoder);
    report.push(
        "controller.prog_store",
        memory_bits(p.program_store_words * 32),
    );

    // --- FIFO control (Figure 2) ---
    // Per FIFO: read/write pointers, occupancy counter, full/empty
    // logic; width adapters add a shift/packing register.
    let ptr_bits = 32 - (p.fifo_depth_words.max(2) - 1).leading_zeros();
    let per_fifo_ctrl = Resources::new(20 + 2 * ptr_bits, 3 * ptr_bits + 2, 0, 0);
    let adapter = if p.fifo_width_bits != 32 {
        Resources::new(p.fifo_width_bits, p.fifo_width_bits, 0, 0)
    } else {
        Resources::zero()
    };
    let n_fifos = p.num_input_fifos + p.num_output_fifos;
    let mut fifo_ctrl = Resources::zero();
    for _ in 0..n_fifos {
        fifo_ctrl = fifo_ctrl + per_fifo_ctrl + adapter;
    }
    report.push("fifo.control", fifo_ctrl);

    // --- FIFO memory (BRAM, "strongly dependent on the accelerator") ---
    let fifo_mem: Resources = (0..n_fifos)
        .map(|_| memory_bits(p.fifo_depth_words * p.fifo_width_bits.max(32)))
        .sum();
    report.push("fifo.memory", fifo_mem);

    report
}

/// The accelerators whose synthesis footprints the estimator knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RacKind {
    /// The paper's 2-D IDCT for JPEG decoding.
    Idct,
    /// A Spiral-generated iterative DFT of the given size.
    SpiralDft {
        /// Transform size in complex points.
        points: u32,
    },
    /// A streaming FIR filter with the given tap count.
    Fir {
        /// Number of taps.
        taps: u32,
    },
    /// A pass-through pipe (negligible logic).
    Passthrough,
}

/// Footprint of the accelerator itself ("independent from Ouessant").
#[must_use]
pub fn rac_estimate(kind: RacKind) -> Resources {
    match kind {
        // A pipelined 2-D IDCT: two 1-D passes of adders plus constant
        // multipliers in DSP, transpose memory in BRAM.
        RacKind::Idct => Resources::new(2400, 1900, 2, 6),
        // Spiral iterative core: butterfly datapath in DSP, twiddle ROM
        // and working memory in BRAM, grows with log2(N).
        RacKind::SpiralDft { points } => {
            let stages = 32 - (points.max(2) - 1).leading_zeros();
            Resources::new(
                1200 + 180 * stages,
                1000 + 150 * stages,
                2 + (points * 32).div_ceil(18 * 1024) * 2,
                4,
            )
        }
        RacKind::Fir { taps } => Resources::new(150 + 20 * taps, 120 + 16 * taps, 0, taps.min(64)),
        RacKind::Passthrough => Resources::new(24, 16, 0, 0),
    }
}

/// Resources of a dynamically reconfigurable region able to host any of
/// `kinds` (the paper's §VI DPR work in progress): the element-wise
/// maxima over the candidate accelerators, plus partial-reconfiguration
/// overhead — bus decoupling logic on the region boundary and the
/// placement fragmentation a rectangular Pblock imposes (≈12 %).
#[must_use]
pub fn dpr_region_estimate(kinds: &[RacKind]) -> Resources {
    let max = kinds.iter().fold(Resources::zero(), |acc, &k| {
        let r = rac_estimate(k);
        Resources::new(
            acc.lut.max(r.lut),
            acc.ff.max(r.ff),
            acc.bram18.max(r.bram18),
            acc.dsp.max(r.dsp),
        )
    });
    let decouple = Resources::new(40, 30, 0, 0);
    Resources::new(
        max.lut + max.lut / 8 + decouple.lut,
        max.ff + max.ff / 8 + decouple.ff,
        max.bram18,
        max.dsp,
    )
}

/// Everything that is *Ouessant overhead* in a keep-hierarchy report:
/// interface + controller + FIFO control (the paper's "all OCP related
/// parts"), excluding FIFO/program memories (BRAM) and the RAC.
#[must_use]
pub fn ocp_overhead(report: &ResourceReport) -> Resources {
    report.subtotal(|name| {
        name.starts_with("interface.")
            || name == "controller.fsm"
            || name == "controller.regs"
            || name == "controller.decoder"
            || name == "fifo.control"
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report line of the component called `name`.
    fn component(report: &ResourceReport, name: &str) -> Option<Resources> {
        report
            .components
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
    }

    #[test]
    fn paper_footprint_claim_holds() {
        // §V-A: "less than 1000 LUT and 750 FF … for all OCP related
        // parts: interface, controller and FIFO control."
        let report = estimate_ocp(&OcpParams::default());
        let overhead = ocp_overhead(&report);
        assert!(
            overhead.lut < 1000,
            "OCP overhead {} LUT must stay under 1000",
            overhead.lut
        );
        assert!(
            overhead.ff < 750,
            "OCP overhead {} FF must stay under 750",
            overhead.ff
        );
        assert!(overhead.lut > 300, "a real OCP is not free either");
    }

    #[test]
    fn fifo_memory_is_bram() {
        let report = estimate_ocp(&OcpParams::default());
        let mem = component(&report, "fifo.memory").unwrap();
        assert!(mem.bram18 > 0, "FIFO memory is inferred as BRAM");
        assert_eq!(mem.lut, 0);
        let overhead = ocp_overhead(&report);
        assert_eq!(overhead.bram18, 0, "OCP-proper logic uses no BRAM");
    }

    #[test]
    fn idct_and_dft_differ_only_in_fifo_and_rac() {
        // §V-A: "IDCT and DFT gives similar results except for the FIFO
        // size and the RAC."
        let idct_params = OcpParams {
            fifo_depth_words: 64,
            ..OcpParams::default()
        };
        let dft_params = OcpParams {
            fifo_depth_words: 512,
            ..OcpParams::default()
        };
        let idct = estimate_ocp(&idct_params);
        let dft = estimate_ocp(&dft_params);
        // Interface and controller identical.
        for name in [
            "interface.regs",
            "interface.xlate",
            "interface.slave_fsm",
            "interface.master_fsm",
            "controller.fsm",
            "controller.regs",
            "controller.decoder",
        ] {
            assert_eq!(component(&idct, name), component(&dft, name), "{name}");
        }
        // FIFO memory differs.
        assert!(
            component(&dft, "fifo.memory").unwrap().bram18
                > component(&idct, "fifo.memory").unwrap().bram18
        );
        // And the RACs differ a lot.
        let idct_rac = rac_estimate(RacKind::Idct);
        let dft_rac = rac_estimate(RacKind::SpiralDft { points: 256 });
        assert_ne!(idct_rac, dft_rac);
    }

    #[test]
    fn dft_grows_with_size() {
        let small = rac_estimate(RacKind::SpiralDft { points: 64 });
        let large = rac_estimate(RacKind::SpiralDft { points: 1024 });
        assert!(large.lut > small.lut);
        assert!(large.bram18 >= small.bram18);
    }

    #[test]
    fn more_fifos_cost_more_control() {
        let one = estimate_ocp(&OcpParams::default());
        let many = estimate_ocp(&OcpParams {
            num_input_fifos: 3,
            num_output_fifos: 2,
            ..OcpParams::default()
        });
        assert!(
            component(&many, "fifo.control").unwrap().lut
                > component(&one, "fifo.control").unwrap().lut
        );
    }

    #[test]
    fn width_adapters_add_logic() {
        let narrow = estimate_ocp(&OcpParams::default());
        let wide = estimate_ocp(&OcpParams {
            fifo_width_bits: 96,
            ..OcpParams::default()
        });
        assert!(
            component(&wide, "fifo.control").unwrap().lut
                > component(&narrow, "fifo.control").unwrap().lut
        );
        assert!(
            component(&wide, "fifo.memory").unwrap().bram18
                >= component(&narrow, "fifo.memory").unwrap().bram18
        );
    }

    #[test]
    fn report_total_is_component_sum() {
        let report = estimate_ocp(&OcpParams::default());
        let manual: Resources = report.components.iter().map(|(_, r)| *r).sum();
        assert_eq!(report.total(), manual);
    }

    #[test]
    fn report_display_lists_components() {
        let report = estimate_ocp(&OcpParams::default());
        let text = report.to_string();
        assert!(text.contains("interface.regs"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn dpr_region_smaller_than_two_static_racs() {
        // The whole point of DPR: one region sized for the max beats two
        // dedicated regions sized for the sum.
        let kinds = [RacKind::Idct, RacKind::SpiralDft { points: 256 }];
        let region = dpr_region_estimate(&kinds);
        let sum = rac_estimate(kinds[0]) + rac_estimate(kinds[1]);
        assert!(region.lut < sum.lut);
        assert!(region.ff < sum.ff);
        // And it must of course hold the larger of the two.
        let max_lut = rac_estimate(kinds[0]).lut.max(rac_estimate(kinds[1]).lut);
        assert!(region.lut >= max_lut);
    }

    #[test]
    fn resources_arithmetic() {
        let a = Resources::new(1, 2, 3, 4);
        let b = Resources::new(10, 20, 30, 40);
        assert_eq!(a + b, Resources::new(11, 22, 33, 44));
        let s: Resources = [a, b].into_iter().sum();
        assert_eq!(s, a + b);
    }
}
