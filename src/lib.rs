//! Re-exports for examples and integration tests, plus the paper
//! reproduction report.
pub use ouessant_soc::*;

pub mod report;
