//! The decoded instruction form and its bit-exact 32-bit encoding.
//!
//! ## Instruction word layout
//!
//! All instructions are one 32-bit word with the opcode in bits `[31:27]`.
//! The remaining 27 bits are laid out per instruction class:
//!
//! ```text
//! transfers (mvtc / mvfc):
//!   [31:27] opcode  [26:24] bank  [23:10] offset  [9:8] fifo  [7:0] burst-1
//! register transfers (mvtcr / mvfcr):
//!   [31:27] opcode  [26:24] bank  [11:10] offset reg  [9:8] fifo  [7:0] burst-1
//! counter ops (ldc / ldo / addo / wait):
//!   [31:27] opcode  [26:25] reg  [13:0] immediate
//! djnz:
//!   [31:27] opcode  [26:25] counter  [9:0] target address
//! exec / execn:
//!   [31:27] opcode  [15:0] operation tag forwarded to the RAC
//! nop / eop / wrac / sync / halt:
//!   [31:27] opcode  (rest must be zero)
//! ```
//!
//! Unused bits must decode as zero; the decoder rejects non-canonical
//! encodings so that `decode(encode(i)) == i` *and* `encode(decode(w)) == w`
//! both hold (verified by property tests).

use std::error::Error;
use std::fmt;

use crate::opcode::{Opcode, OPCODE_SHIFT};
use crate::operands::{Bank, BurstLen, Counter, FifoId, Offset, OffsetReg, OperandError, ProgAddr};

/// A fully decoded Ouessant instruction.
///
/// Construct instructions directly, through [`crate::assemble`], or with
/// [`crate::ProgramBuilder`]. Every variant encodes to exactly one 32-bit
/// word via [`Instruction::encode`].
///
/// # Examples
///
/// ```
/// use ouessant_isa::{Bank, BurstLen, FifoId, Instruction, Offset};
///
/// let mv = Instruction::Mvtc {
///     bank: Bank::new(1)?,
///     offset: Offset::new(0)?,
///     burst: BurstLen::new(64)?,
///     fifo: FifoId::new(0)?,
/// };
/// let word = mv.encode();
/// assert_eq!(Instruction::decode(word)?, mv);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Burst-copy `burst` words from `bank[offset..]` into input FIFO `fifo`.
    Mvtc {
        /// Source memory bank.
        bank: Bank,
        /// Word offset of the first word inside the bank.
        offset: Offset,
        /// Number of words to move.
        burst: BurstLen,
        /// Destination input FIFO.
        fifo: FifoId,
    },
    /// Burst-copy `burst` words from output FIFO `fifo` into `bank[offset..]`.
    Mvfc {
        /// Destination memory bank.
        bank: Bank,
        /// Word offset of the first word inside the bank.
        offset: Offset,
        /// Number of words to move.
        burst: BurstLen,
        /// Source output FIFO.
        fifo: FifoId,
    },
    /// Launch the accelerator (asserting `start_op`) and stall until its
    /// `end_op` pulse. `op` is a 16-bit operation tag forwarded to the RAC
    /// (accelerators that need no configuration ignore it).
    Exec {
        /// Operation tag forwarded to the accelerator.
        op: u16,
    },
    /// End of program: set the *D* (done) control bit; raise the interrupt
    /// line if the *IE* bit is set.
    Eop,
    /// Launch the accelerator without waiting (extension ISA).
    Execn {
        /// Operation tag forwarded to the accelerator.
        op: u16,
    },
    /// Stall until the accelerator's `end_op` pulse (extension ISA).
    Wrac,
    /// `counter := imm` (extension ISA).
    Ldc {
        /// Destination loop counter.
        counter: Counter,
        /// Immediate value.
        imm: u16,
    },
    /// Decrement `counter`; if it is still non-zero, jump to `target`
    /// (extension ISA).
    Djnz {
        /// Loop counter to decrement and test.
        counter: Counter,
        /// Branch target (absolute instruction index).
        target: ProgAddr,
    },
    /// `offset_reg := imm` (extension ISA).
    Ldo {
        /// Destination offset register.
        reg: OffsetReg,
        /// Immediate word offset.
        imm: u16,
    },
    /// `offset_reg := offset_reg + delta` (wrapping within 14 bits,
    /// extension ISA).
    Addo {
        /// Offset register to adjust.
        reg: OffsetReg,
        /// Signed word delta, `-8192..=8191`.
        delta: i16,
    },
    /// `mvtc` taking its word offset from `reg`, then post-incrementing
    /// `reg` by the burst length (extension ISA).
    Mvtcr {
        /// Source memory bank.
        bank: Bank,
        /// Offset register supplying (and accumulating) the word offset.
        reg: OffsetReg,
        /// Number of words to move.
        burst: BurstLen,
        /// Destination input FIFO.
        fifo: FifoId,
    },
    /// `mvfc` taking its word offset from `reg`, then post-incrementing
    /// `reg` by the burst length (extension ISA).
    Mvfcr {
        /// Destination memory bank.
        bank: Bank,
        /// Offset register supplying (and accumulating) the word offset.
        reg: OffsetReg,
        /// Number of words to move.
        burst: BurstLen,
        /// Source output FIFO.
        fifo: FifoId,
    },
    /// Stall for `cycles` clock cycles (extension ISA).
    Wait {
        /// Number of cycles to stall.
        cycles: u16,
    },
    /// Stall until every coprocessor FIFO is empty (extension ISA).
    Sync,
    /// Stop the controller without setting the done bit (extension ISA).
    Halt,
    /// Trigger dynamic partial reconfiguration: load RAC configuration
    /// `slot` into the reconfigurable region, stalling until the slot
    /// manager reports completion (extension ISA, the paper's §VI
    /// "Dynamic Partial Reconfiguration" work in progress).
    Rcfg {
        /// Configuration slot to load.
        slot: u16,
    },
}

/// Error decoding a 32-bit word into an [`Instruction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The 5-bit opcode field holds one of the 16 reserved encodings.
    ReservedOpcode {
        /// The raw opcode field.
        bits: u8,
    },
    /// Bits that the instruction's layout leaves unused were not zero.
    NonCanonical {
        /// The instruction's opcode.
        opcode: Opcode,
        /// The raw instruction word.
        word: u32,
    },
    /// An operand field failed validation.
    Operand(OperandError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::ReservedOpcode { bits } => {
                write!(f, "reserved opcode encoding {bits:#07b}")
            }
            DecodeError::NonCanonical { opcode, word } => {
                write!(f, "non-canonical encoding {word:#010x} for {opcode}")
            }
            DecodeError::Operand(e) => write!(f, "invalid operand field: {e}"),
        }
    }
}

impl Error for DecodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DecodeError::Operand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OperandError> for DecodeError {
    fn from(e: OperandError) -> Self {
        DecodeError::Operand(e)
    }
}

const BANK_SHIFT: u32 = 24;
const OFFSET_SHIFT: u32 = 10;
const FIFO_SHIFT: u32 = 8;
const REG_SHIFT: u32 = 25;
const OREG_SHIFT: u32 = 10;
const IMM_MASK: u32 = 0x3FFF;
const ADDR_MASK: u32 = 0x3FF;

fn transfer_word(op: Opcode, bank: Bank, offset: Offset, burst: BurstLen, fifo: FifoId) -> u32 {
    (u32::from(op.to_bits()) << OPCODE_SHIFT)
        | (u32::from(bank.value()) << BANK_SHIFT)
        | (u32::from(offset.value()) << OFFSET_SHIFT)
        | (u32::from(fifo.value()) << FIFO_SHIFT)
        | u32::from(burst.to_field())
}

fn reg_transfer_word(op: Opcode, bank: Bank, reg: OffsetReg, burst: BurstLen, fifo: FifoId) -> u32 {
    (u32::from(op.to_bits()) << OPCODE_SHIFT)
        | (u32::from(bank.value()) << BANK_SHIFT)
        | (u32::from(reg.value()) << OREG_SHIFT)
        | (u32::from(fifo.value()) << FIFO_SHIFT)
        | u32::from(burst.to_field())
}

fn imm_word(op: Opcode, reg: u8, imm: u32) -> u32 {
    (u32::from(op.to_bits()) << OPCODE_SHIFT) | (u32::from(reg) << REG_SHIFT) | (imm & IMM_MASK)
}

impl Instruction {
    /// The instruction's opcode.
    #[must_use]
    pub fn opcode(&self) -> Opcode {
        match self {
            Instruction::Nop => Opcode::Nop,
            Instruction::Mvtc { .. } => Opcode::Mvtc,
            Instruction::Mvfc { .. } => Opcode::Mvfc,
            Instruction::Exec { .. } => Opcode::Exec,
            Instruction::Eop => Opcode::Eop,
            Instruction::Execn { .. } => Opcode::Execn,
            Instruction::Wrac => Opcode::Wrac,
            Instruction::Ldc { .. } => Opcode::Ldc,
            Instruction::Djnz { .. } => Opcode::Djnz,
            Instruction::Ldo { .. } => Opcode::Ldo,
            Instruction::Addo { .. } => Opcode::Addo,
            Instruction::Mvtcr { .. } => Opcode::Mvtcr,
            Instruction::Mvfcr { .. } => Opcode::Mvfcr,
            Instruction::Wait { .. } => Opcode::Wait,
            Instruction::Sync => Opcode::Sync,
            Instruction::Halt => Opcode::Halt,
            Instruction::Rcfg { .. } => Opcode::Rcfg,
        }
    }

    /// Encodes the instruction into its 32-bit word.
    #[must_use]
    pub fn encode(&self) -> u32 {
        match *self {
            Instruction::Nop => imm_word(Opcode::Nop, 0, 0),
            Instruction::Mvtc {
                bank,
                offset,
                burst,
                fifo,
            } => transfer_word(Opcode::Mvtc, bank, offset, burst, fifo),
            Instruction::Mvfc {
                bank,
                offset,
                burst,
                fifo,
            } => transfer_word(Opcode::Mvfc, bank, offset, burst, fifo),
            Instruction::Exec { op } => {
                (u32::from(Opcode::Exec.to_bits()) << OPCODE_SHIFT) | u32::from(op)
            }
            Instruction::Eop => imm_word(Opcode::Eop, 0, 0),
            Instruction::Execn { op } => {
                (u32::from(Opcode::Execn.to_bits()) << OPCODE_SHIFT) | u32::from(op)
            }
            Instruction::Wrac => imm_word(Opcode::Wrac, 0, 0),
            Instruction::Ldc { counter, imm } => {
                imm_word(Opcode::Ldc, counter.value(), u32::from(imm))
            }
            Instruction::Djnz { counter, target } => {
                (u32::from(Opcode::Djnz.to_bits()) << OPCODE_SHIFT)
                    | (u32::from(counter.value()) << REG_SHIFT)
                    | u32::from(target.value())
            }
            Instruction::Ldo { reg, imm } => imm_word(Opcode::Ldo, reg.value(), u32::from(imm)),
            Instruction::Addo { reg, delta } => {
                imm_word(Opcode::Addo, reg.value(), (delta as u32) & IMM_MASK)
            }
            Instruction::Mvtcr {
                bank,
                reg,
                burst,
                fifo,
            } => reg_transfer_word(Opcode::Mvtcr, bank, reg, burst, fifo),
            Instruction::Mvfcr {
                bank,
                reg,
                burst,
                fifo,
            } => reg_transfer_word(Opcode::Mvfcr, bank, reg, burst, fifo),
            Instruction::Wait { cycles } => imm_word(Opcode::Wait, 0, u32::from(cycles)),
            Instruction::Sync => imm_word(Opcode::Sync, 0, 0),
            Instruction::Halt => imm_word(Opcode::Halt, 0, 0),
            Instruction::Rcfg { slot } => imm_word(Opcode::Rcfg, 0, u32::from(slot)),
        }
    }

    /// Decodes a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ReservedOpcode`] for undefined opcodes,
    /// [`DecodeError::NonCanonical`] if bits outside the instruction's
    /// layout are set, and [`DecodeError::Operand`] if a field is out of
    /// range.
    pub fn decode(word: u32) -> Result<Self, DecodeError> {
        let op_bits = (word >> OPCODE_SHIFT) as u8;
        let opcode =
            Opcode::from_bits(op_bits).ok_or(DecodeError::ReservedOpcode { bits: op_bits })?;
        let body = word & ((1 << OPCODE_SHIFT) - 1);
        let non_canonical = |mask: u32| -> Result<(), DecodeError> {
            if body & !mask != 0 {
                Err(DecodeError::NonCanonical { opcode, word })
            } else {
                Ok(())
            }
        };

        let bank = || Bank::new(((word >> BANK_SHIFT) & 0x7) as u8);
        let offset = || Offset::new(((word >> OFFSET_SHIFT) & 0x3FFF) as u16);
        let fifo = || FifoId::new(((word >> FIFO_SHIFT) & 0x3) as u8);
        let burst = || BurstLen::from_field((word & 0xFF) as u8);
        let reg2 = || ((word >> REG_SHIFT) & 0x3) as u8;
        let oreg = || OffsetReg::new(((word >> OREG_SHIFT) & 0x3) as u8);
        let imm14 = || (word & IMM_MASK) as u16;

        let insn = match opcode {
            Opcode::Nop => {
                non_canonical(0)?;
                Instruction::Nop
            }
            Opcode::Mvtc => {
                non_canonical(0x07FF_FFFF)?;
                Instruction::Mvtc {
                    bank: bank()?,
                    offset: offset()?,
                    burst: burst(),
                    fifo: fifo()?,
                }
            }
            Opcode::Mvfc => {
                non_canonical(0x07FF_FFFF)?;
                Instruction::Mvfc {
                    bank: bank()?,
                    offset: offset()?,
                    burst: burst(),
                    fifo: fifo()?,
                }
            }
            Opcode::Exec => {
                non_canonical(0xFFFF)?;
                Instruction::Exec {
                    op: (word & 0xFFFF) as u16,
                }
            }
            Opcode::Eop => {
                non_canonical(0)?;
                Instruction::Eop
            }
            Opcode::Execn => {
                non_canonical(0xFFFF)?;
                Instruction::Execn {
                    op: (word & 0xFFFF) as u16,
                }
            }
            Opcode::Wrac => {
                non_canonical(0)?;
                Instruction::Wrac
            }
            Opcode::Ldc => {
                non_canonical((0x3 << REG_SHIFT) | IMM_MASK)?;
                Instruction::Ldc {
                    counter: Counter::new(reg2())?,
                    imm: imm14(),
                }
            }
            Opcode::Djnz => {
                non_canonical((0x3 << REG_SHIFT) | ADDR_MASK)?;
                Instruction::Djnz {
                    counter: Counter::new(reg2())?,
                    target: ProgAddr::new((word & ADDR_MASK) as u16)?,
                }
            }
            Opcode::Ldo => {
                non_canonical((0x3 << REG_SHIFT) | IMM_MASK)?;
                Instruction::Ldo {
                    reg: OffsetReg::new(reg2())?,
                    imm: imm14(),
                }
            }
            Opcode::Addo => {
                non_canonical((0x3 << REG_SHIFT) | IMM_MASK)?;
                // Sign-extend the 14-bit immediate.
                let raw = (word & IMM_MASK) as i32;
                let delta = if raw >= 1 << 13 { raw - (1 << 14) } else { raw };
                Instruction::Addo {
                    reg: OffsetReg::new(reg2())?,
                    #[allow(clippy::cast_possible_truncation)] // sign-extended 14 bits: -8192..=8191
                    delta: delta as i16,
                }
            }
            Opcode::Mvtcr => {
                non_canonical(
                    (0x7 << BANK_SHIFT) | (0x3 << OREG_SHIFT) | (0x3 << FIFO_SHIFT) | 0xFF,
                )?;
                Instruction::Mvtcr {
                    bank: bank()?,
                    reg: oreg()?,
                    burst: burst(),
                    fifo: fifo()?,
                }
            }
            Opcode::Mvfcr => {
                non_canonical(
                    (0x7 << BANK_SHIFT) | (0x3 << OREG_SHIFT) | (0x3 << FIFO_SHIFT) | 0xFF,
                )?;
                Instruction::Mvfcr {
                    bank: bank()?,
                    reg: oreg()?,
                    burst: burst(),
                    fifo: fifo()?,
                }
            }
            Opcode::Wait => {
                non_canonical(IMM_MASK)?;
                Instruction::Wait { cycles: imm14() }
            }
            Opcode::Sync => {
                non_canonical(0)?;
                Instruction::Sync
            }
            Opcode::Halt => {
                non_canonical(0)?;
                Instruction::Halt
            }
            Opcode::Rcfg => {
                non_canonical(IMM_MASK)?;
                Instruction::Rcfg { slot: imm14() }
            }
        };
        Ok(insn)
    }

    /// Number of 32-bit words this instruction moves over the system bus
    /// (zero for non-transfer instructions).
    #[must_use]
    pub fn words_transferred(&self) -> u32 {
        match self {
            Instruction::Mvtc { burst, .. }
            | Instruction::Mvfc { burst, .. }
            | Instruction::Mvtcr { burst, .. }
            | Instruction::Mvfcr { burst, .. } => u32::from(burst.words()),
            _ => 0,
        }
    }
}

impl fmt::Display for Instruction {
    /// Formats the instruction in the assembler syntax of the paper's
    /// Figure 4 (e.g. `mvtc BANK1,0,DMA64,FIFO0`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Nop => f.write_str("nop"),
            Instruction::Mvtc {
                bank,
                offset,
                burst,
                fifo,
            } => write!(f, "mvtc {bank},{},{burst},{fifo}", offset.value()),
            Instruction::Mvfc {
                bank,
                offset,
                burst,
                fifo,
            } => write!(f, "mvfc {bank},{},{burst},{fifo}", offset.value()),
            Instruction::Exec { op: 0 } => f.write_str("execs"),
            Instruction::Exec { op } => write!(f, "execs {op}"),
            Instruction::Eop => f.write_str("eop"),
            Instruction::Execn { op: 0 } => f.write_str("execn"),
            Instruction::Execn { op } => write!(f, "execn {op}"),
            Instruction::Wrac => f.write_str("wrac"),
            Instruction::Ldc { counter, imm } => write!(f, "ldc {counter},{imm}"),
            Instruction::Djnz { counter, target } => {
                write!(f, "djnz {counter},{}", target.value())
            }
            Instruction::Ldo { reg, imm } => write!(f, "ldo {reg},{imm}"),
            Instruction::Addo { reg, delta } => write!(f, "addo {reg},{delta}"),
            Instruction::Mvtcr {
                bank,
                reg,
                burst,
                fifo,
            } => write!(f, "mvtcr {bank},{reg},{burst},{fifo}"),
            Instruction::Mvfcr {
                bank,
                reg,
                burst,
                fifo,
            } => write!(f, "mvfcr {bank},{reg},{burst},{fifo}"),
            Instruction::Wait { cycles } => write!(f, "wait {cycles}"),
            Instruction::Sync => f.write_str("sync"),
            Instruction::Halt => f.write_str("halt"),
            Instruction::Rcfg { slot } => write!(f, "rcfg {slot}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(bank: u8, offset: u16, burst: u16, fifo: u8) -> Instruction {
        Instruction::Mvtc {
            bank: Bank::new(bank).unwrap(),
            offset: Offset::new(offset).unwrap(),
            burst: BurstLen::new(burst).unwrap(),
            fifo: FifoId::new(fifo).unwrap(),
        }
    }

    #[test]
    fn opcode_field_is_top_five_bits() {
        let w = mv(1, 0, 64, 0).encode();
        assert_eq!(w >> 27, Opcode::Mvtc.to_bits() as u32);
    }

    #[test]
    fn figure4_mvtc_encoding() {
        // mvtc BANK1,64,DMA64,FIFO0
        let w = mv(1, 64, 64, 0).encode();
        assert_eq!((w >> 27) & 0x1F, 1); // opcode
        assert_eq!((w >> 24) & 0x7, 1); // bank
        assert_eq!((w >> 10) & 0x3FFF, 64); // offset
        assert_eq!((w >> 8) & 0x3, 0); // fifo
        assert_eq!(w & 0xFF, 63); // burst - 1
    }

    #[test]
    fn encode_decode_round_trip_all_variants() {
        let samples = [
            Instruction::Nop,
            mv(1, 0, 64, 0),
            Instruction::Mvfc {
                bank: Bank::new(2).unwrap(),
                offset: Offset::new(448).unwrap(),
                burst: BurstLen::new(64).unwrap(),
                fifo: FifoId::new(0).unwrap(),
            },
            Instruction::Exec { op: 0 },
            Instruction::Exec { op: 0xBEEF },
            Instruction::Eop,
            Instruction::Execn { op: 7 },
            Instruction::Wrac,
            Instruction::Ldc {
                counter: Counter::new(2).unwrap(),
                imm: 12345,
            },
            Instruction::Djnz {
                counter: Counter::new(2).unwrap(),
                target: ProgAddr::new(17).unwrap(),
            },
            Instruction::Ldo {
                reg: OffsetReg::new(1).unwrap(),
                imm: 4095,
            },
            Instruction::Addo {
                reg: OffsetReg::new(3).unwrap(),
                delta: -64,
            },
            Instruction::Addo {
                reg: OffsetReg::new(0).unwrap(),
                delta: 8191,
            },
            Instruction::Mvtcr {
                bank: Bank::new(7).unwrap(),
                reg: OffsetReg::new(2).unwrap(),
                burst: BurstLen::new(256).unwrap(),
                fifo: FifoId::new(3).unwrap(),
            },
            Instruction::Mvfcr {
                bank: Bank::new(3).unwrap(),
                reg: OffsetReg::new(0).unwrap(),
                burst: BurstLen::new(1).unwrap(),
                fifo: FifoId::new(1).unwrap(),
            },
            Instruction::Wait { cycles: 1000 },
            Instruction::Sync,
            Instruction::Halt,
            Instruction::Rcfg { slot: 3 },
        ];
        for insn in samples {
            let word = insn.encode();
            let back = Instruction::decode(word).unwrap_or_else(|e| {
                panic!("decoding {insn} ({word:#010x}) failed: {e}");
            });
            assert_eq!(back, insn);
        }
    }

    #[test]
    fn reserved_opcode_rejected() {
        let word = 31u32 << 27;
        assert_eq!(
            Instruction::decode(word),
            Err(DecodeError::ReservedOpcode { bits: 31 })
        );
    }

    #[test]
    fn non_canonical_nop_rejected() {
        let word = (Opcode::Nop.to_bits() as u32) << 27 | 1;
        assert!(matches!(
            Instruction::decode(word),
            Err(DecodeError::NonCanonical { .. })
        ));
    }

    #[test]
    fn non_canonical_exec_rejected() {
        // Exec allows only a 16-bit immediate; set bit 20.
        let word = (Opcode::Exec.to_bits() as u32) << 27 | (1 << 20);
        assert!(matches!(
            Instruction::decode(word),
            Err(DecodeError::NonCanonical { .. })
        ));
    }

    #[test]
    fn addo_sign_extension() {
        for delta in [-8192i16, -1, 0, 1, 8191] {
            let insn = Instruction::Addo {
                reg: OffsetReg::new(0).unwrap(),
                delta,
            };
            assert_eq!(Instruction::decode(insn.encode()).unwrap(), insn);
        }
    }

    #[test]
    fn words_transferred() {
        assert_eq!(mv(1, 0, 64, 0).words_transferred(), 64);
        assert_eq!(Instruction::Eop.words_transferred(), 0);
        assert_eq!(Instruction::Exec { op: 0 }.words_transferred(), 0);
    }

    #[test]
    fn display_matches_figure4_syntax() {
        assert_eq!(mv(1, 0, 64, 0).to_string(), "mvtc BANK1,0,DMA64,FIFO0");
        assert_eq!(Instruction::Exec { op: 0 }.to_string(), "execs");
        assert_eq!(Instruction::Eop.to_string(), "eop");
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::ReservedOpcode { bits: 20 };
        assert!(e.to_string().contains("reserved opcode"));
        let e = DecodeError::Operand(Bank::new(8).unwrap_err());
        assert!(e.to_string().contains("invalid operand"));
    }
}
