//! Strongly typed operand fields of the Ouessant instruction word.
//!
//! Each operand is a validated newtype over its raw bit field, so an
//! out-of-range bank or burst length cannot be constructed (C-NEWTYPE,
//! C-VALIDATE). The field widths mirror the interface architecture of the
//! paper's Figure 3: 8 memory banks (3 bits), a 14-bit word offset inside
//! a bank, and burst transfers of up to 256 words.

use std::error::Error;
use std::fmt;

/// Number of memory banks exposed by the Ouessant interface
/// (registers `bank 0` … `bank 7` in Figure 3).
pub const NUM_BANKS: u16 = 8;

/// Width of the in-bank word offset field, in bits (Figure 3 routes a
/// 14-bit `offset` from the controller to the interface adder).
pub const OFFSET_BITS: u32 = 14;

/// Maximum word offset inside a bank (inclusive).
pub const MAX_OFFSET: u32 = (1 << OFFSET_BITS) - 1;

/// Maximum burst length in words for a single transfer instruction.
pub const MAX_BURST: u32 = 256;

/// Number of FIFO interfaces addressable per direction.
///
/// The paper notes "the number of input and output interfaces can be
/// adapted according to the accelerator requirements" (e.g. a dedicated
/// configuration FIFO); the encoding reserves 2 bits per direction.
pub const NUM_FIFOS: u8 = 4;

/// Number of hardware loop counters (extension ISA).
pub const NUM_COUNTERS: u8 = 4;

/// Number of offset registers (extension ISA).
pub const NUM_OFFSET_REGS: u8 = 4;

/// Width of the loop-counter / wait immediates, in bits.
pub const IMM_BITS: u32 = 14;

/// Maximum immediate for `ldc`, `ldo` and `wait` (inclusive).
pub const MAX_IMM: u32 = (1 << IMM_BITS) - 1;

/// Width of the program-address field of `djnz`, in bits.
pub const PROG_ADDR_BITS: u32 = 10;

/// Maximum instruction count of an Ouessant program.
///
/// Limited by the `djnz` target field and by the size of the controller's
/// internal program store.
pub const MAX_PROGRAM_LEN: usize = 1 << PROG_ADDR_BITS;

/// An error produced when constructing an operand from an out-of-range
/// raw value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandError {
    kind: &'static str,
    value: u32,
    max: u32,
}

impl OperandError {
    fn new(kind: &'static str, value: u32, max: u32) -> Self {
        Self { kind, value, max }
    }

    /// The operand kind that failed to validate (e.g. `"bank"`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The offending raw value.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.value
    }
}

impl fmt::Display for OperandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} value {} out of range (maximum {})",
            self.kind, self.value, self.max
        )
    }
}

impl Error for OperandError {}

macro_rules! bounded_operand {
    (
        $(#[$meta:meta])*
        $name:ident, $kind:literal, raw: $raw:ty, max: $max:expr, display: $prefix:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name($raw);

        impl $name {
            /// Constructs the operand, validating the range.
            ///
            /// # Errors
            ///
            /// Returns [`OperandError`] if `value` exceeds the field's
            /// maximum.
            pub fn new(value: $raw) -> Result<Self, OperandError> {
                if u32::from(value) > $max {
                    Err(OperandError::new($kind, u32::from(value), $max))
                } else {
                    Ok(Self(value))
                }
            }

            /// The raw field value.
            #[must_use]
            pub fn value(self) -> $raw {
                self.0
            }

            /// The raw field value widened to `usize` (for indexing).
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl TryFrom<$raw> for $name {
            type Error = OperandError;

            fn try_from(value: $raw) -> Result<Self, Self::Error> {
                Self::new(value)
            }
        }

        impl From<$name> for $raw {
            fn from(v: $name) -> $raw {
                v.value()
            }
        }
    };
}

bounded_operand!(
    /// A memory-bank identifier (`BANK0` … `BANK7`).
    ///
    /// A bank is "a set of contiguous memory words"; the internal address
    /// of every transfer is a bank id plus a word offset, translated to a
    /// physical address by the bus interface at runtime. This is the
    /// simple virtualization scheme that makes the microcode independent
    /// of where the data actually lives.
    ///
    /// ```
    /// use ouessant_isa::Bank;
    /// let b = Bank::new(1)?;
    /// assert_eq!(b.to_string(), "BANK1");
    /// assert!(Bank::new(8).is_err());
    /// # Ok::<(), ouessant_isa::OperandError>(())
    /// ```
    Bank, "bank", raw: u8, max: u32::from(NUM_BANKS) - 1, display: "BANK"
);

bounded_operand!(
    /// A FIFO interface identifier (`FIFO0` … `FIFO3`).
    ///
    /// Input and output FIFOs are numbered independently; `mvtc` selects
    /// among input FIFOs and `mvfc` among output FIFOs.
    FifoId, "fifo", raw: u8, max: u32::from(NUM_FIFOS) - 1, display: "FIFO"
);

bounded_operand!(
    /// A hardware loop counter (`R0` … `R3`), extension ISA.
    Counter, "counter", raw: u8, max: u32::from(NUM_COUNTERS) - 1, display: "R"
);

bounded_operand!(
    /// An offset register (`O0` … `O3`), extension ISA.
    ///
    /// Offset registers let a short loop stream an arbitrarily long
    /// buffer: `mvtcr` reads the current word offset from the register
    /// and post-increments it by the burst length.
    OffsetReg, "offset register", raw: u8, max: u32::from(NUM_OFFSET_REGS) - 1, display: "O"
);

bounded_operand!(
    /// A 14-bit word offset inside a memory bank.
    Offset, "offset", raw: u16, max: MAX_OFFSET, display: "+"
);

bounded_operand!(
    /// An instruction address inside the program store (`djnz` target).
    ProgAddr, "program address", raw: u16, max: (1 << PROG_ADDR_BITS) - 1, display: "@"
);

/// A burst transfer length in words, `1..=256`.
///
/// Encoded in the instruction word as `length - 1` on 8 bits. The
/// assembler spells it `DMA<len>`, as in the paper's `DMA64`.
///
/// ```
/// use ouessant_isa::BurstLen;
/// let dma = BurstLen::new(64)?;
/// assert_eq!(dma.words(), 64);
/// assert_eq!(dma.to_string(), "DMA64");
/// assert!(BurstLen::new(0).is_err());
/// assert!(BurstLen::new(257).is_err());
/// # Ok::<(), ouessant_isa::OperandError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BurstLen(u16);

impl BurstLen {
    /// Constructs a burst length.
    ///
    /// # Errors
    ///
    /// Returns [`OperandError`] unless `1 <= words <= 256`.
    pub fn new(words: u16) -> Result<Self, OperandError> {
        if words == 0 || u32::from(words) > MAX_BURST {
            Err(OperandError::new(
                "burst length",
                u32::from(words),
                MAX_BURST,
            ))
        } else {
            Ok(Self(words))
        }
    }

    /// Reconstructs a burst length from its `length - 1` field encoding.
    #[must_use]
    pub fn from_field(field: u8) -> Self {
        Self(u16::from(field) + 1)
    }

    /// The `length - 1` field encoding.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // a burst of 1..=256 words encodes as 0..=255
    pub fn to_field(self) -> u8 {
        (self.0 - 1) as u8
    }

    /// The burst length in 32-bit words.
    #[must_use]
    pub fn words(self) -> u16 {
        self.0
    }

    /// A single-word burst.
    #[must_use]
    pub fn single() -> Self {
        Self(1)
    }
}

impl Default for BurstLen {
    fn default() -> Self {
        Self::single()
    }
}

impl fmt::Display for BurstLen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DMA{}", self.0)
    }
}

impl TryFrom<u16> for BurstLen {
    type Error = OperandError;

    fn try_from(value: u16) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

impl From<BurstLen> for u16 {
    fn from(v: BurstLen) -> u16 {
        v.words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_bounds() {
        assert!(Bank::new(0).is_ok());
        assert!(Bank::new(7).is_ok());
        let err = Bank::new(8).unwrap_err();
        assert_eq!(err.kind(), "bank");
        assert_eq!(err.value(), 8);
    }

    #[test]
    fn offset_bounds() {
        assert!(Offset::new(0).is_ok());
        assert!(Offset::new(MAX_OFFSET as u16).is_ok());
        assert!(Offset::new(MAX_OFFSET as u16 + 1).is_err());
    }

    #[test]
    fn burst_encoding_round_trip() {
        for words in 1..=MAX_BURST as u16 {
            let b = BurstLen::new(words).unwrap();
            assert_eq!(BurstLen::from_field(b.to_field()), b);
        }
    }

    #[test]
    fn burst_rejects_zero_and_overlong() {
        assert!(BurstLen::new(0).is_err());
        assert!(BurstLen::new(257).is_err());
        assert_eq!(BurstLen::new(256).unwrap().to_field(), 255);
    }

    #[test]
    fn display_forms_match_paper_syntax() {
        assert_eq!(Bank::new(1).unwrap().to_string(), "BANK1");
        assert_eq!(BurstLen::new(64).unwrap().to_string(), "DMA64");
        assert_eq!(FifoId::new(0).unwrap().to_string(), "FIFO0");
    }

    #[test]
    fn operand_error_display() {
        let err = Bank::new(12).unwrap_err();
        assert_eq!(err.to_string(), "bank value 12 out of range (maximum 7)");
    }

    #[test]
    fn counters_and_offset_regs() {
        assert!(Counter::new(3).is_ok());
        assert!(Counter::new(4).is_err());
        assert!(OffsetReg::new(3).is_ok());
        assert!(OffsetReg::new(4).is_err());
    }

    #[test]
    fn prog_addr_bounds() {
        assert!(ProgAddr::new(0).is_ok());
        assert!(ProgAddr::new(1023).is_ok());
        assert!(ProgAddr::new(1024).is_err());
    }

    #[test]
    fn try_from_and_into_raw() {
        let b: Bank = 5u8.try_into().unwrap();
        let raw: u8 = b.into();
        assert_eq!(raw, 5);
        let l: BurstLen = 64u16.try_into().unwrap();
        let raw: u16 = l.into();
        assert_eq!(raw, 64);
    }

    #[test]
    fn default_values() {
        assert_eq!(Bank::default().value(), 0);
        assert_eq!(BurstLen::default().words(), 1);
    }
}
