//! # Reconfigurable Acceleration Coprocessors (RACs)
//!
//! In the Ouessant architecture the *RAC* is the user-defined
//! accelerator: "it is user defined, and can be changed independently
//! from other components of the OCP. It uses FIFO-based communication,
//! which is the easiest interfacing solution" (§III-A). This crate
//! provides:
//!
//! * [`rac`] — the [`Rac`] trait (the `start_op`/`end_op` + FIFO contract
//!   of the paper's Figure 2) and [`RacSocket`], the harness that owns
//!   the FIFOs and ticks the accelerator;
//! * [`idct`] — the paper's first evaluation accelerator: a fixed-point
//!   2-D Inverse Discrete Cosine Transform for JPEG decoding, with the
//!   paper's 18-cycle processing latency;
//! * [`dft`] — the paper's second accelerator: an iterative fixed-point
//!   DFT modeled after the Spiral-generated core, with the paper's
//!   2485-cycle latency at 256 points;
//! * [`fir`] — a streaming FIR filter (an additional RAC demonstrating
//!   per-word streaming behaviour);
//! * [`passthrough`] — identity/scaling RACs with configurable latency,
//!   plus a width-adapting RAC reproducing Figure 2's 32 ↔ 96-bit
//!   serializing FIFOs.
//!
//! ## Example
//!
//! Run the IDCT accelerator through its FIFO harness, outside any SoC:
//!
//! ```
//! use ouessant_rac::idct::IdctRac;
//! use ouessant_rac::rac::RacSocket;
//!
//! let mut socket = RacSocket::new(Box::new(IdctRac::new()), 256);
//! // Load one 8x8 block of DCT coefficients (DC-only, value 64).
//! let mut block = [0i32; 64];
//! block[0] = 64 * 8;
//! for c in block {
//!     socket.push_input(0, c as u32)?;
//! }
//! socket.start(0);
//! let cycles = socket.run_until_done(10_000);
//! assert_eq!(cycles, 18 + 1); // Table I latency + 1 cycle into the FIFO
//! # Ok::<(), ouessant_rac::rac::RacError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Narrowing casts must be proven in range (`try_from`, or a local
// allow that says why); test code is exempt.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod block;
pub mod dft;
pub mod fir;
pub mod fixed;
pub mod idct;
pub mod passthrough;
pub mod rac;
pub mod slot;

pub use dft::DftRac;
pub use fir::FirRac;
pub use idct::IdctRac;
pub use passthrough::{PassthroughRac, WideFunctionRac};
pub use rac::{Rac, RacError, RacIo, RacSocket, ReconfigResponse};
pub use slot::ReconfigurableSlot;
