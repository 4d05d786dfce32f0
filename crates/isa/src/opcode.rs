//! The 5-bit Ouessant opcode space.
//!
//! The paper stores the operation code on 5 bits, "which allows up to 32
//! different instructions", of which the 2016 version implements four
//! (`mvtc`, `mvfc`, `exec`, `eop`). The remaining encodings below belong to
//! the extension surface announced in the paper (loops, split
//! launch/join, register-indexed transfers, waits).

use std::fmt;

/// Width of the opcode field in bits.
pub const OPCODE_BITS: u32 = 5;

/// Bit position of the opcode field inside a 32-bit instruction word
/// (the opcode occupies the top bits, `[31:27]`).
pub const OPCODE_SHIFT: u32 = 32 - OPCODE_BITS;

/// A 5-bit Ouessant operation code.
///
/// `Opcode` is the *name space* of the instruction set; the fully decoded
/// form including operands is [`crate::Instruction`].
///
/// # Examples
///
/// ```
/// use ouessant_isa::Opcode;
///
/// let op = Opcode::from_bits(0b00001).expect("mvtc is a defined opcode");
/// assert_eq!(op, Opcode::Mvtc);
/// assert_eq!(op.mnemonic(), "mvtc");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// No operation; consumes one execute cycle.
    Nop = 0,
    /// Move to coprocessor: burst-read from a memory bank into an input FIFO.
    Mvtc = 1,
    /// Move from coprocessor: burst-write from an output FIFO into a memory bank.
    Mvfc = 2,
    /// Launch the accelerator and wait for its `end_op` pulse.
    Exec = 3,
    /// End of program: set the done bit and signal the CPU.
    Eop = 4,
    /// Launch the accelerator without waiting (join later with [`Opcode::Wrac`]).
    Execn = 5,
    /// Wait for the accelerator's `end_op` pulse.
    Wrac = 6,
    /// Load a hardware loop counter with an immediate.
    Ldc = 7,
    /// Decrement a loop counter and jump if it is non-zero.
    Djnz = 8,
    /// Load an offset register with an immediate word offset.
    Ldo = 9,
    /// Add a signed immediate to an offset register.
    Addo = 10,
    /// `mvtc` addressed through an offset register, with post-increment.
    Mvtcr = 11,
    /// `mvfc` addressed through an offset register, with post-increment.
    Mvfcr = 12,
    /// Stall for an immediate number of cycles.
    Wait = 13,
    /// Barrier: wait until all coprocessor FIFOs are empty.
    Sync = 14,
    /// Stop the controller without setting the done bit.
    Halt = 15,
    /// Trigger dynamic partial reconfiguration of the RAC slot
    /// (the paper's §VI work in progress).
    Rcfg = 16,
}

impl Opcode {
    /// All defined opcodes, in encoding order.
    pub const ALL: [Opcode; 17] = [
        Opcode::Nop,
        Opcode::Mvtc,
        Opcode::Mvfc,
        Opcode::Exec,
        Opcode::Eop,
        Opcode::Execn,
        Opcode::Wrac,
        Opcode::Ldc,
        Opcode::Djnz,
        Opcode::Ldo,
        Opcode::Addo,
        Opcode::Mvtcr,
        Opcode::Mvfcr,
        Opcode::Wait,
        Opcode::Sync,
        Opcode::Halt,
        Opcode::Rcfg,
    ];

    /// Decodes a 5-bit field into an opcode.
    ///
    /// Returns `None` for the 16 reserved encodings (a real controller
    /// would raise an illegal-instruction condition; see
    /// [`crate::DecodeError::ReservedOpcode`]).
    #[must_use]
    pub fn from_bits(bits: u8) -> Option<Self> {
        Self::ALL.get(usize::from(bits)).copied()
    }

    /// The 5-bit encoding of this opcode.
    #[must_use]
    pub fn to_bits(self) -> u8 {
        self as u8
    }

    /// The assembler mnemonic (lowercase, as printed in the paper).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Nop => "nop",
            Opcode::Mvtc => "mvtc",
            Opcode::Mvfc => "mvfc",
            Opcode::Exec => "exec",
            Opcode::Eop => "eop",
            Opcode::Execn => "execn",
            Opcode::Wrac => "wrac",
            Opcode::Ldc => "ldc",
            Opcode::Djnz => "djnz",
            Opcode::Ldo => "ldo",
            Opcode::Addo => "addo",
            Opcode::Mvtcr => "mvtcr",
            Opcode::Mvfcr => "mvfcr",
            Opcode::Wait => "wait",
            Opcode::Sync => "sync",
            Opcode::Halt => "halt",
            Opcode::Rcfg => "rcfg",
        }
    }

    /// Looks an opcode up by its mnemonic (case-insensitive).
    ///
    /// `execs` — the paper's Figure 4 spelling of "exec and wait
    /// (synchronous)" — is accepted as an alias of [`Opcode::Exec`].
    #[must_use]
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        let lower = s.to_ascii_lowercase();
        if lower == "execs" {
            return Some(Opcode::Exec);
        }
        Self::ALL.iter().copied().find(|op| op.mnemonic() == lower)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_bits(op.to_bits()), Some(op));
        }
    }

    #[test]
    fn reserved_encodings_decode_to_none() {
        for bits in 17u8..32 {
            assert_eq!(Opcode::from_bits(bits), None, "bits {bits:#07b}");
        }
    }

    #[test]
    fn out_of_field_bits_decode_to_none() {
        assert_eq!(Opcode::from_bits(32), None);
        assert_eq!(Opcode::from_bits(255), None);
    }

    #[test]
    fn mnemonic_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<_> = Opcode::ALL.iter().map(|op| op.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Opcode::ALL.len());
    }

    #[test]
    fn mnemonic_lookup_is_case_insensitive() {
        assert_eq!(Opcode::from_mnemonic("MVTC"), Some(Opcode::Mvtc));
        assert_eq!(Opcode::from_mnemonic("Eop"), Some(Opcode::Eop));
    }

    #[test]
    fn execs_alias_from_paper_figure4() {
        assert_eq!(Opcode::from_mnemonic("execs"), Some(Opcode::Exec));
        assert_eq!(Opcode::from_mnemonic("EXECS"), Some(Opcode::Exec));
    }

    #[test]
    fn unknown_mnemonic() {
        assert_eq!(Opcode::from_mnemonic("frobnicate"), None);
        assert_eq!(Opcode::from_mnemonic(""), None);
    }

    #[test]
    fn opcode_space_leaves_room_for_32() {
        // 5-bit opcode: 32 encodings, 17 used, 15 reserved.
        assert_eq!(OPCODE_BITS, 5);
        assert!(Opcode::ALL.len() <= 32);
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(Opcode::Mvtc.to_string(), "mvtc");
        assert_eq!(Opcode::Halt.to_string(), "halt");
    }
}
