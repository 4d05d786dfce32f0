//! # Ouessant instruction set architecture
//!
//! This crate defines the dedicated instruction set of the *Ouessant
//! coprocessor* (OCP) described in Horrein et al., *"Ouessant: Flexible
//! Integration of Dedicated Coprocessors in Systems On Chip"*, DATE 2016.
//!
//! The Ouessant controller is a very small general-purpose microcontroller
//! whose only job is to command an accelerator (the *RAC*) and to move data
//! between system memory and the accelerator's FIFOs with minimal CPU
//! intervention. Its instruction word is 32 bits wide with a 5-bit opcode
//! (up to 32 instructions). The DATE 2016 paper implements four
//! instructions:
//!
//! * [`Instruction::Mvtc`] — burst-copy words from a memory bank **to** the
//!   coprocessor input FIFO (a small integrated DMA);
//! * [`Instruction::Mvfc`] — burst-copy words **from** the coprocessor
//!   output FIFO back to a memory bank;
//! * [`Instruction::Exec`] — launch the accelerator and wait for it to end;
//! * [`Instruction::Eop`] — end of program: set the *done* bit and signal
//!   the CPU (interrupt if enabled).
//!
//! The paper lists the instruction set as "still a very simple and basic
//! one \[which\] will be extended in future versions". This reproduction
//! also implements that announced extension surface — hardware loop
//! counters ([`Instruction::Ldc`]/[`Instruction::Djnz`]), offset registers
//! with post-increment transfers ([`Instruction::Mvtcr`] /
//! [`Instruction::Mvfcr`]), split launch/join ([`Instruction::Execn`] /
//! [`Instruction::Wrac`]), timed stalls ([`Instruction::Wait`]), FIFO
//! barriers ([`Instruction::Sync`]) and [`Instruction::Halt`] — so that the
//! microcode of Figure 4 can be expressed both in the paper's unrolled
//! style and as a compact loop.
//!
//! ## Layers
//!
//! * [`opcode`] — the 5-bit opcode space;
//! * [`operands`] — strongly typed operand newtypes ([`Bank`], [`FifoId`],
//!   [`BurstLen`], [`Counter`], [`OffsetReg`], …);
//! * [`instruction`] — the [`Instruction`] enum with bit-exact
//!   [`Instruction::encode`] / [`Instruction::decode`];
//! * [`program`] — validated instruction sequences ([`Program`]);
//! * [`control`] — the loop counters and offset registers of the
//!   extension ISA ([`control::ControlState`]), the one definition of
//!   `ldc`/`djnz`/`ldo`/`addo` and the post-increment that the
//!   controller executes and [`Program::walk`] runs from reset;
//! * [`asm`] — a line-oriented assembler for the textual microcode syntax
//!   used in the paper's Figure 4 (`mvtc BANK1,0,DMA64,FIFO0`);
//! * [`disasm`] — the inverse pretty-printer.
//!
//! ## Example
//!
//! Assemble the Figure 4 style microcode for a DFT offload and inspect it:
//!
//! ```
//! use ouessant_isa::{assemble, Instruction};
//!
//! let src = "
//!     // 64 words from offset 0 of bank 1 to coprocessor FIFO 0
//!     mvtc BANK1,0,DMA64,FIFO0
//!     execs
//!     mvfc BANK2,0,DMA64,FIFO0
//!     eop
//! ";
//! let program = assemble(src)?;
//! assert_eq!(program.len(), 4);
//! assert!(matches!(program[0], Instruction::Mvtc { .. }));
//! # Ok::<(), ouessant_isa::AssembleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Narrowing casts must be proven in range (`try_from`, or a local
// allow that says why); test code is exempt.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod asm;
pub mod control;
pub mod disasm;
pub mod instruction;
pub mod opcode;
pub mod operands;
pub mod opt;
pub mod program;
pub mod transfer;

pub use asm::{assemble, AssembleError, FIGURE4_SOURCE};
pub use disasm::disassemble;
pub use instruction::{DecodeError, Instruction};
pub use opcode::Opcode;
pub use operands::{Bank, BurstLen, Counter, FifoId, Offset, OffsetReg, OperandError, ProgAddr};
pub use program::{Program, ProgramBuilder, ValidateError};
pub use transfer::{Transfer, TransferOffset};
