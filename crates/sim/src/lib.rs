//! # Cycle-level SoC simulation substrate
//!
//! The DATE 2016 Ouessant paper evaluates its coprocessor on a Leon3
//! SoC (AMBA2 AHB bus, external SRAM) synthesized onto an Artix-7 FPGA.
//! This crate rebuilds that *platform* as a cycle-level behavioral
//! simulation so the Ouessant architecture (crate `ouessant`) can be
//! exercised and measured without HDL:
//!
//! * [`clock`] — cycle bookkeeping and frequency conversion (the paper's
//!   system clock is 50 MHz);
//! * [`fifo`] — synchronous FIFOs and the paper's *variable width* FIFOs
//!   with serializing/deserializing behaviour (Figure 2's 32 ↔ 96-bit
//!   example);
//! * [`bus`] — an AHB-like system bus: fixed-priority arbiter, one
//!   outstanding transaction, burst transfers split into sub-bursts,
//!   per-slave wait states;
//! * [`axi`] — an AXI-lite-like alternative with independent read/write
//!   channels (the paper's announced Zynq/AXI4 integration);
//! * [`memory`] — an SRAM model with configurable first-access and
//!   sequential-beat wait states;
//! * [`trace`] — the bus's optional record of typed events;
//! * [`event`] — the fast-forward contract: components declare their
//!   next observable event so driver loops can leap over provably-idle
//!   cycles instead of ticking through them (for a bus, through
//!   [`SystemBus::horizon`] and [`SystemBus::advance`], and
//!   [`BusWindow`], which lets one master's run of back-to-back
//!   transfers issue inside a leap).
//!
//! Everything is deterministic and single-threaded: hardware concurrency
//! is modeled by explicit `tick()` calls, one per clock cycle.
//!
//! ## Example
//!
//! A master moving a burst through the bus into SRAM:
//!
//! ```
//! use ouessant_sim::bus::{Bus, BusConfig, TxnRequest};
//! use ouessant_sim::memory::{Sram, SramConfig};
//! use ouessant_sim::SystemBus;
//!
//! let mut bus = Bus::new(BusConfig::default());
//! let master = bus.register_master();
//! bus.add_slave(0x4000_0000, Sram::with_words(0x1000, SramConfig::default()));
//!
//! bus.try_begin(master, TxnRequest::write(0x4000_0000, vec![1, 2, 3, 4]))?;
//! while bus.poll(master).is_pending() {
//!     bus.tick();
//! }
//! let done = bus.take_completion(master).expect("transaction finished")?;
//! assert!(done.cycles > 4); // 4 beats + arbitration + wait states
//! # Ok::<(), ouessant_sim::bus::BusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod axi;
pub mod bus;
pub mod clock;
pub mod event;
pub mod fifo;
pub mod memory;
pub mod rng;
pub mod trace;
pub mod vcd;

pub use axi::{AxiBus, SystemBus};
pub use bus::{
    Bus, BusConfig, BusError, Completion, MasterId, MasterStats, Polls, TxnKind, TxnRequest,
    TxnShape,
};
pub use clock::{Cycle, Frequency, Instant};
pub use event::{Advancing, BusWindow, Horizon, RunBurst, RunSegment, Strided, WindowIssue};
pub use fifo::{FifoError, SyncFifo, WidthAdapter};
pub use memory::{Sram, SramConfig};
pub use rng::XorShift64;
pub use trace::{BusEvent, Trace, TraceEvent};
pub use vcd::{SignalId, VcdWriter};
