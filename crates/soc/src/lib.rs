//! # SoC substrate: CPU cost model, software baselines, OS models, and
//! the full-system runner
//!
//! The paper evaluates Ouessant on a Leon3 (SPARCv8 soft-core, no FPU)
//! SoC running baremetal and Linux. This crate rebuilds that *system
//! context* so the OCP (crate `ouessant`) can be measured end to end:
//!
//! * [`cpu`] — a Leon3-class in-order cost model: software kernels are
//!   executed natively and charged per dynamic operation (integer ALU,
//!   integer multiply, soft-float operations, loads/stores, branches);
//! * [`sw`] — the instrumented, time-optimized software baselines of
//!   Table I's *SW* column: a fast fixed-point 2-D IDCT (bit-exact with
//!   the hardware data path) and a soft-float radix-2 FFT;
//! * [`os`] — OS/driver overhead models: baremetal, the paper's
//!   mmap-based zero-copy Linux driver, and a copying driver for
//!   comparison (§IV);
//! * [`soc`] — the assembled system: CPU master + SRAM + OCP on the
//!   AHB-like bus, with polling- or interrupt-based completion;
//! * [`driver`] — the §IV driver API, [`OuessantDevice`]: buffers,
//!   microcode verification, submit and wait, with the OS overhead
//!   charged per offload;
//! * [`app`] — the application layer that reproduces Table I and the
//!   in-text results through the driver: `idct_experiment`,
//!   `dft_experiment`, `transfer_experiment`, `accelerated_dft` and
//!   `table1()`;
//! * [`standalone`] — processor-free systems with the microcode in ROM;
//! * [`alloc`] — a first-fit shared-SRAM bank allocator used by the
//!   `ouessant-farm` serving layer to carve per-job regions.
//!
//! ## Example
//!
//! Reproduce one row of Table I:
//!
//! ```
//! use ouessant_soc::app::{dft_experiment, ExperimentConfig};
//!
//! let row = dft_experiment(&ExperimentConfig::paper_linux())?;
//! assert_eq!(row.latency, 2485);             // Lat. column
//! assert!(row.gain > 50.0 && row.gain < 120.0); // paper: 85
//! # Ok::<(), ouessant_soc::app::AppError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod alloc;
pub mod app;
pub mod cpu;
pub mod driver;
pub mod os;
pub mod soc;
pub mod standalone;
pub mod sw;

pub use alloc::{AllocError, AllocStats, BankAllocator, Region};
pub use app::{
    dft_experiment, idct_experiment, table1, transfer_experiment, ExperimentConfig, Table1Row,
    TransferReport,
};
pub use cpu::{CostModel, CpuCosts, OpCounts};
pub use driver::{DriverError, DriverStats, OuessantDevice};
pub use os::OsModel;
pub use soc::{CompletionMode, OffloadReport, Soc, SocConfig};
pub use standalone::StandaloneSystem;
