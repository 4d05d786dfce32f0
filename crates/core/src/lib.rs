//! # The Ouessant coprocessor (OCP)
//!
//! This crate is the paper's primary contribution: a microcontroller-based
//! integration layer that wraps a user-defined accelerator (a *RAC*, see
//! `ouessant-rac`) behind a tiny dedicated instruction set (see
//! `ouessant-isa`), so that data transfer and execution management run
//! with minimal CPU intervention.
//!
//! An OCP is "divided into 3 main parts, which represent the different
//! abstraction levels used to integrate the accelerator" (Figure 1):
//!
//! ```text
//!   Bus ──► [ Bus interface ] ──► [ Ouessant controller ] ──► [ RAC ]
//!              (regs.rs,              (controller.rs)        (ouessant-rac)
//!               interface.rs)
//! ```
//!
//! * [`regs`] — the 10 memory-mapped configuration registers of
//!   Figure 3: control (S/IE/D bits), program size, and the 8 memory
//!   bank base addresses;
//! * [`banks`] — the internal bank/offset address representation and its
//!   translation to system addresses ("a simple virtualization scheme
//!   … used to offer dynamic data management");
//! * [`controller`] — the unpipelined fetch/decode/execute
//!   microcontroller that runs the microcode;
//! * [`interface`] — the bus-facing logic: the slave register port and
//!   the master DMA port (the bus master/slave FSMs of Figure 3);
//! * [`ocp`] — the assembled coprocessor and its host-side handle.
//!
//! ## Example
//!
//! Integrate a passthrough accelerator, run a microcode program and read
//! the result back — an OCP acting as a memory-to-memory DMA:
//!
//! ```
//! use ouessant::ocp::{Ocp, OcpConfig};
//! use ouessant_isa::assemble;
//! use ouessant_rac::passthrough::PassthroughRac;
//! use ouessant_sim::bus::{Bus, BusConfig};
//! use ouessant_sim::memory::{Sram, SramConfig};
//! use ouessant_sim::SystemBus;
//!
//! let mut bus = Bus::new(BusConfig::default());
//! let _cpu = bus.register_master();
//! bus.add_slave(0x4000_0000, Sram::with_words(4096, SramConfig::no_wait()));
//! let mut ocp = Ocp::attach(&mut bus, 0x8000_0000, Box::new(PassthroughRac::new(0)),
//!                           OcpConfig::default());
//!
//! // Microcode: move 8 words from bank 1 through the RAC into bank 2.
//! let program = assemble("mvtc BANK1,0,DMA8,FIFO0\nexecs 8\nmvfc BANK2,0,DMA8,FIFO0\neop")?;
//!
//! // Host setup (un-timed debug writes stand in for the CPU driver).
//! for (i, w) in program.to_words().iter().enumerate() {
//!     bus.debug_write(0x4000_0000 + (i as u32) * 4, *w)?; // program @ bank 0
//! }
//! for i in 0..8u32 {
//!     bus.debug_write(0x4000_1000 + i * 4, 0xC0DE_0000 + i)?; // input @ bank 1
//! }
//! ocp.regs().set_bank(0, 0x4000_0000)?;
//! ocp.regs().set_bank(1, 0x4000_1000)?;
//! ocp.regs().set_bank(2, 0x4000_2000)?;
//! ocp.regs().set_prog_size(program.len() as u32)?;
//! ocp.regs().start();
//!
//! let mut fuel = 100_000;
//! while !ocp.regs().done() {
//!     ocp.tick(&mut bus);
//!     bus.tick();
//!     fuel -= 1;
//!     assert!(fuel > 0);
//! }
//! assert_eq!(bus.debug_read(0x4000_2000)?, 0xC0DE_0000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Narrowing casts must be proven in range (`try_from`, or a local
// allow that says why); test code is exempt.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod banks;
pub mod controller;
pub mod hls;
pub mod interface;
pub mod ocp;
pub mod regs;
mod store;

pub use banks::TranslateError;
pub use controller::{Controller, ControllerState, ExecError};
pub use interface::{IrqLine, RegSlavePort};
pub use ocp::{Ocp, OcpConfig};
pub use regs::{RegisterFile, RegsHandle, CTRL_D, CTRL_IE, CTRL_S};
