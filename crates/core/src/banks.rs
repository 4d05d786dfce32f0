//! Bank/offset internal addressing and its translation to system
//! addresses.
//!
//! "In the Ouessant approach, memory is divided in different banks. A
//! memory bank is defined as a set of contiguous memory words. An
//! internal address is a memory bank id with an offset inside this bank.
//! This is a simple virtualization scheme, which is used to offer
//! dynamic data management in Ouessant. Actual location of data is
//! irrelevant when designing the coprocessor or writing the firmware.
//! Banks location can then be configured at runtime." (§III-C)
//!
//! "The translation mechanism is quite simple. The controller sets a
//! bank id and an offset when it requires data transfer. The interface
//! selects the correct bank address in its configuration registers. It
//! then adds the offset, in order to obtain the complete correct address
//! in the system."

use std::error::Error;
use std::fmt;

use ouessant_isa::operands::Bank;

use crate::regs::RegisterFile;

/// By convention, bank 0 holds the microcode: "the OCP microcode is
/// located in the memory", and the program-fetch unit reads it from this
/// bank when the S bit is written. Figure 4's data accordingly lives in
/// banks 1 and 2.
pub const PROGRAM_BANK: usize = 0;

/// Error translating an internal address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// The selected bank register still holds its reset value of zero —
    /// the host never configured it.
    UnconfiguredBank {
        /// Bank index.
        bank: u8,
    },
    /// Base + offset overflowed the 32-bit address space.
    AddressOverflow {
        /// Bank index.
        bank: u8,
        /// Word offset that overflowed.
        offset: u32,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnconfiguredBank { bank } => {
                write!(f, "bank {bank} base register was never configured")
            }
            TranslateError::AddressOverflow { bank, offset } => write!(
                f,
                "bank {bank} base + word offset {offset} overflows the address space"
            ),
        }
    }
}

impl Error for TranslateError {}

/// The translation unit, the adder + bank multiplexer of Figure 3:
/// translates `bank` + word `word_offset` into a system byte address.
///
/// Stateless; reads the bank base registers out of the shared
/// [`RegisterFile`] at translation time, which is what makes bank
/// placement a *runtime* decision.
///
/// # Errors
///
/// [`TranslateError::UnconfiguredBank`] if the bank register is 0,
/// [`TranslateError::AddressOverflow`] on 32-bit overflow.
pub fn translate(regs: &RegisterFile, bank: Bank, word_offset: u32) -> Result<u32, TranslateError> {
    let base = regs.bank_base(bank.index());
    if base == 0 {
        return Err(TranslateError::UnconfiguredBank { bank: bank.value() });
    }
    let byte_offset = u64::from(word_offset) * 4;
    let addr = u64::from(base) + byte_offset;
    u32::try_from(addr).map_err(|_| TranslateError::AddressOverflow {
        bank: bank.value(),
        offset: word_offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs_with_bank(index: usize, base: u32) -> RegisterFile {
        let mut r = RegisterFile::new();
        r.bus_write(crate::regs::REG_BANK0 + 4 * index as u32, base);
        r
    }

    #[test]
    fn base_plus_word_offset() {
        let regs = regs_with_bank(1, 0x4000_1000);
        let addr = translate(&regs, Bank::new(1).unwrap(), 64).unwrap();
        assert_eq!(addr, 0x4000_1000 + 64 * 4);
    }

    #[test]
    fn unconfigured_bank_rejected() {
        let regs = RegisterFile::new();
        assert_eq!(
            translate(&regs, Bank::new(5).unwrap(), 0),
            Err(TranslateError::UnconfiguredBank { bank: 5 })
        );
    }

    #[test]
    fn overflow_rejected() {
        let regs = regs_with_bank(2, 0xFFFF_FFF0);
        assert_eq!(
            translate(&regs, Bank::new(2).unwrap(), 16),
            Err(TranslateError::AddressOverflow {
                bank: 2,
                offset: 16
            })
        );
    }

    #[test]
    fn runtime_reconfiguration_takes_effect() {
        // "Banks location can then be configured at runtime."
        let mut regs = regs_with_bank(1, 0x1000);
        let b = Bank::new(1).unwrap();
        assert_eq!(translate(&regs, b, 0).unwrap(), 0x1000);
        regs.bus_write(crate::regs::REG_BANK0 + 4, 0x2000);
        assert_eq!(translate(&regs, b, 0).unwrap(), 0x2000);
    }

    #[test]
    fn error_display() {
        assert!(TranslateError::UnconfiguredBank { bank: 3 }
            .to_string()
            .contains("bank 3"));
    }
}
