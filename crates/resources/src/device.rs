//! FPGA device capacity models.
//!
//! "Tests have been performed on a Digilent Nexys4 board, based on
//! Xilinx Artix7 LX100T FPGA" — the XC7A100T. [`Device`] holds the
//! capacities; [`Device::utilization`] turns a resource vector into the
//! percentage columns of a synthesis report.

use std::fmt;

use crate::estimate::Resources;

/// An FPGA device's available resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Device name (e.g. `xc7a100t`).
    pub name: String,
    /// Available 6-input LUTs.
    pub lut: u32,
    /// Available flip-flops.
    pub ff: u32,
    /// Available BRAM18 halves.
    pub bram18: u32,
    /// Available DSP48 slices.
    pub dsp: u32,
}

impl Device {
    /// The paper's device: Artix-7 100T on the Digilent Nexys4.
    #[must_use]
    pub fn artix7_100t() -> Self {
        Self {
            name: "xc7a100t".to_string(),
            lut: 63_400,
            ff: 126_800,
            bram18: 270,
            dsp: 240,
        }
    }

    /// Utilization of `used` on this device.
    #[must_use]
    pub fn utilization(&self, used: Resources) -> Utilization {
        let pct = |u: u32, avail: u32| {
            if avail == 0 {
                0.0
            } else {
                f64::from(u) * 100.0 / f64::from(avail)
            }
        };
        Utilization {
            lut_pct: pct(used.lut, self.lut),
            ff_pct: pct(used.ff, self.ff),
            bram18_pct: pct(used.bram18, self.bram18),
            dsp_pct: pct(used.dsp, self.dsp),
        }
    }
}

/// Utilization percentages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// LUT utilization in percent.
    pub lut_pct: f64,
    /// FF utilization in percent.
    pub ff_pct: f64,
    /// BRAM18 utilization in percent.
    pub bram18_pct: f64,
    /// DSP utilization in percent.
    pub dsp_pct: f64,
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT {:.1}%  FF {:.1}%  BRAM {:.1}%  DSP {:.1}%",
            self.lut_pct, self.ff_pct, self.bram18_pct, self.dsp_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{estimate_ocp, ocp_overhead, OcpParams};

    #[test]
    fn ocp_overhead_is_tiny_on_the_papers_device() {
        // "very low footprint": the OCP must be a small fraction of the
        // Artix-7 100T.
        let device = Device::artix7_100t();
        let overhead = ocp_overhead(&estimate_ocp(&OcpParams::default()));
        let u = device.utilization(overhead);
        assert!(u.lut_pct < 2.0, "LUT {:.2}%", u.lut_pct);
        assert!(u.ff_pct < 1.0, "FF {:.2}%", u.ff_pct);
    }

    /// Whether `used` fits on `device` at all.
    fn fits(device: &Device, used: Resources) -> bool {
        used.lut <= device.lut
            && used.ff <= device.ff
            && used.bram18 <= device.bram18
            && used.dsp <= device.dsp
    }

    #[test]
    fn full_ocp_with_dft_fits_both_devices() {
        use crate::estimate::{rac_estimate, RacKind};
        let total = estimate_ocp(&OcpParams {
            fifo_depth_words: 512,
            ..OcpParams::default()
        })
        .total()
            + rac_estimate(RacKind::SpiralDft { points: 256 });
        assert!(fits(&Device::artix7_100t(), total));
        let artix7_35t = Device {
            name: "xc7a35t".to_string(),
            lut: 20_800,
            ff: 41_600,
            bram18: 100,
            dsp: 90,
        };
        assert!(fits(&artix7_35t, total), "even the 35T has room");
    }

    #[test]
    fn oversized_design_does_not_fit() {
        let device = Device::artix7_100t();
        let huge = Resources::new(1_000_000, 0, 0, 0);
        assert!(!fits(&device, huge));
    }

    #[test]
    fn utilization_display() {
        let u = Device::artix7_100t().utilization(Resources::new(634, 1268, 27, 24));
        assert!((u.lut_pct - 1.0).abs() < 0.01);
        assert!((u.ff_pct - 1.0).abs() < 0.01);
        assert!((u.bram18_pct - 10.0).abs() < 0.01);
        assert!(u.to_string().contains("LUT 1.0%"));
    }
}
