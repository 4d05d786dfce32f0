//! The Ouessant benchmark: simulator host speed and modelled-SoC
//! results, end to end and layer by layer, over four workloads.
//!
//! The benchmark only calls the public API of `ouessant_farm`,
//! `ouessant_soc::app`, `ouessant_isa` and `ouessant_resources`, and
//! reads their public counters. See `src/main.rs` for the command line.

pub mod calibrate;
pub mod farm_run;
pub mod paper;
pub mod runner;
pub mod trace;
pub mod workload;
