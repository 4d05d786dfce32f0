//! # Analytical FPGA resource and timing estimation
//!
//! The paper's §V-A measures the OCP's hardware footprint by
//! synthesizing each accelerator alone and with the OCP (Xilinx XST,
//! "Keep Hierarchy") on the Nexys4's Artix-7: "the actual OCP
//! implementation consumes a reasonable amount of hardware resources
//! (less than 1000 LUT and 750 FF). This is for all OCP related parts:
//! interface, controller and FIFO control. FIFO memory is inferred as
//! BRAM, and strongly dependent on the accelerator."
//!
//! Rust cannot synthesize HDL, so this crate substitutes an *analytical
//! estimator*: each OCP component gets a parameterized LUT/FF/BRAM/DSP
//! cost derived from its register and mux inventory (the same counting a
//! designer does on the back of an envelope before synthesis). The
//! estimator reproduces the paper's claims structurally:
//!
//! * the keep-hierarchy **per-component breakdown** ([`ResourceReport`]);
//! * the OCP-proper total staying under 1000 LUT / 750 FF;
//! * FIFO **memory** mapping to BRAM, scaling with the accelerator
//!   (DFT ≫ IDCT), while FIFO *control* stays in the OCP budget;
//! * a timing check against the 50 MHz system clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Narrowing casts must be proven in range (`try_from`, or a local
// allow that says why); test code is exempt.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod device;
pub mod estimate;
pub mod timing;

pub use device::{Device, Utilization};
pub use estimate::{
    dpr_region_estimate, estimate_ocp, rac_estimate, OcpParams, RacKind, ResourceReport, Resources,
};
pub use timing::{estimate_fmax, TimingReport};
