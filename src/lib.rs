//! Re-exports for examples and integration tests, plus the paper
//! reproduction report.

// Narrowing casts must be proven in range (`try_from`, or a local
// allow that says why); test code is exempt.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub use ouessant_soc::*;

pub mod report;
