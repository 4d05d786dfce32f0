//! The OCP configuration register file (Figure 3).
//!
//! "Configuration is stored on 10 registers. The first register is a
//! control register. In the current version, only 3 bits are used, one
//! for starting the coprocessor (bit S), one to enable interrupt (bit
//! IE), and one to signal whether data processing is finished or not
//! (bit D). The second register is the number of instructions in the
//! program. The remaining registers are used to store memory banks
//! location in the system."
//!
//! The register file is the *shared state* between the bus slave port
//! (CPU side) and the controller (coprocessor side); [`RegsHandle`] is
//! the `Rc<RefCell<…>>` both sides hold.

use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use ouessant_isa::operands::{MAX_PROGRAM_LEN, NUM_BANKS};

/// Byte offset of the control register.
pub const REG_CTRL: u32 = 0x00;
/// Byte offset of the program-size register.
pub const REG_PROG_SIZE: u32 = 0x04;
/// Byte offset of the first bank base register (bank *k* lives at
/// `0x08 + 4k`, so bank 7 is at `0x24` as in Figure 3).
pub const REG_BANK0: u32 = 0x08;

/// Control-register bit S: start the coprocessor.
pub const CTRL_S: u32 = 1 << 0;
/// Control-register bit IE: enable the completion interrupt.
pub const CTRL_IE: u32 = 1 << 1;
/// Control-register bit D: data processing finished.
pub const CTRL_D: u32 = 1 << 2;

/// Read-only debug/status window (reproduction extension, documented in
/// DESIGN.md): current controller state id.
pub const REG_DBG_STATE: u32 = 0x40;
/// Debug: instructions retired since start.
pub const REG_DBG_RETIRED: u32 = 0x44;
/// Debug: words transferred since start.
pub const REG_DBG_WORDS: u32 = 0x48;
/// Debug: current program counter.
pub const REG_DBG_PC: u32 = 0x4C;

/// Error configuring the register file from the host side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Bank index beyond the 8 banks of the interface.
    BadBank {
        /// The offending index.
        index: u8,
    },
    /// Program size of zero or beyond the program store.
    BadProgSize {
        /// The offending size in instructions.
        size: u32,
    },
    /// A bank base address that is not word-aligned.
    UnalignedBase {
        /// The offending address.
        base: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadBank { index } => write!(f, "bank index {index} out of range (0..8)"),
            ConfigError::BadProgSize { size } => write!(
                f,
                "program size {size} invalid (1..={MAX_PROGRAM_LEN} instructions)"
            ),
            ConfigError::UnalignedBase { base } => {
                write!(f, "bank base {base:#010x} is not word-aligned")
            }
        }
    }
}

impl Error for ConfigError {}

/// The raw register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    ctrl: u32,
    prog_size: u32,
    banks: [u32; NUM_BANKS as usize],
    /// Set by a CPU write of S; consumed by the controller.
    start_pending: bool,
    /// Debug mirrors maintained by the controller.
    dbg_state: u32,
    dbg_retired: u32,
    dbg_words: u32,
    dbg_pc: u32,
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegisterFile {
    /// A register file with all registers zeroed.
    #[must_use]
    pub fn new() -> Self {
        Self {
            ctrl: 0,
            prog_size: 0,
            banks: [0; NUM_BANKS as usize],
            start_pending: false,
            dbg_state: 0,
            dbg_retired: 0,
            dbg_words: 0,
            dbg_pc: 0,
        }
    }

    /// Bus-visible read at byte `offset` (both config and debug
    /// windows).
    #[must_use]
    pub fn bus_read(&self, offset: u32) -> Option<u32> {
        match offset {
            REG_CTRL => Some(self.ctrl),
            REG_PROG_SIZE => Some(self.prog_size),
            o if (REG_BANK0..REG_BANK0 + 4 * u32::from(NUM_BANKS)).contains(&o) && o % 4 == 0 => {
                Some(self.banks[((o - REG_BANK0) / 4) as usize])
            }
            REG_DBG_STATE => Some(self.dbg_state),
            REG_DBG_RETIRED => Some(self.dbg_retired),
            REG_DBG_WORDS => Some(self.dbg_words),
            REG_DBG_PC => Some(self.dbg_pc),
            _ => None,
        }
    }

    /// Bus-visible write at byte `offset`.
    ///
    /// Returns `false` for offsets that are not writable (debug window,
    /// holes). Writing `CTRL` with the S bit set arms `start_pending`
    /// and clears the D bit; the D bit itself is read-only from the bus
    /// (only the controller sets it), as in the paper's interface.
    pub fn bus_write(&mut self, offset: u32, value: u32) -> bool {
        match offset {
            REG_CTRL => {
                let d = self.ctrl & CTRL_D;
                self.ctrl = (value & (CTRL_S | CTRL_IE)) | d;
                if value & CTRL_S != 0 {
                    self.start_pending = true;
                    self.ctrl &= !CTRL_D;
                }
                true
            }
            REG_PROG_SIZE => {
                self.prog_size = value;
                true
            }
            o if (REG_BANK0..REG_BANK0 + 4 * u32::from(NUM_BANKS)).contains(&o) && o % 4 == 0 => {
                self.banks[((o - REG_BANK0) / 4) as usize] = value;
                true
            }
            _ => false,
        }
    }

    /// Whether the D (done) bit is set.
    #[must_use]
    pub fn done(&self) -> bool {
        self.ctrl & CTRL_D != 0
    }

    /// Whether the IE (interrupt enable) bit is set.
    #[must_use]
    pub fn irq_enabled(&self) -> bool {
        self.ctrl & CTRL_IE != 0
    }

    /// Program size in instructions.
    #[must_use]
    pub fn prog_size(&self) -> u32 {
        self.prog_size
    }

    /// Base address of bank `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`; bank ids from decoded instructions are
    /// always in range.
    #[must_use]
    pub fn bank_base(&self, index: usize) -> u32 {
        self.banks[index]
    }

    /// Whether a start request is armed but not yet consumed by the
    /// controller (used by the fast-forward kernel: a pending S bit
    /// means the next controller tick is an event).
    #[must_use]
    pub fn start_pending(&self) -> bool {
        self.start_pending
    }

    /// Controller side: consumes a pending start request.
    pub fn take_start(&mut self) -> bool {
        let pending = self.start_pending;
        self.start_pending = false;
        if pending {
            self.ctrl &= !CTRL_S; // S auto-clears once the OCP launches
        }
        pending
    }

    /// Controller side: sets the D bit (end of program).
    pub fn set_done(&mut self) {
        self.ctrl |= CTRL_D;
    }

    /// Controller side: updates the debug mirrors.
    pub fn set_debug(&mut self, state: u32, retired: u32, words: u32, pc: u32) {
        self.dbg_state = state;
        self.dbg_retired = retired;
        self.dbg_words = words;
        self.dbg_pc = pc;
    }
}

/// Shared handle to the register file: one side is mapped on the bus
/// (see [`crate::interface::RegSlavePort`]), the other drives the
/// controller and the host-convenience setters below.
#[derive(Debug, Clone, Default)]
pub struct RegsHandle {
    inner: Rc<RefCell<RegisterFile>>,
}

impl RegsHandle {
    /// A fresh register file.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with shared access to the registers.
    pub fn with<R>(&self, f: impl FnOnce(&RegisterFile) -> R) -> R {
        f(&self.inner.borrow())
    }

    /// Runs `f` with exclusive access to the registers.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut RegisterFile) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// Whether a start request is armed but not yet consumed (see
    /// [`RegisterFile::start_pending`]).
    #[must_use]
    pub fn start_pending(&self) -> bool {
        self.with(RegisterFile::start_pending)
    }

    /// Host helper: configures bank `index` at `base` (validated).
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadBank`] or [`ConfigError::UnalignedBase`].
    pub fn set_bank(&self, index: u8, base: u32) -> Result<(), ConfigError> {
        if u16::from(index) >= NUM_BANKS {
            return Err(ConfigError::BadBank { index });
        }
        if !base.is_multiple_of(4) {
            return Err(ConfigError::UnalignedBase { base });
        }
        self.with_mut(|r| r.banks[usize::from(index)] = base);
        Ok(())
    }

    /// Host helper: sets the program size in instructions (validated).
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadProgSize`] for zero or beyond the store.
    pub fn set_prog_size(&self, size: u32) -> Result<(), ConfigError> {
        if size == 0 || size as usize > MAX_PROGRAM_LEN {
            return Err(ConfigError::BadProgSize { size });
        }
        self.with_mut(|r| r.prog_size = size);
        Ok(())
    }

    /// Host helper: enables or disables the completion interrupt.
    pub fn set_irq_enabled(&self, enabled: bool) {
        self.with_mut(|r| {
            if enabled {
                r.ctrl |= CTRL_IE;
            } else {
                r.ctrl &= !CTRL_IE;
            }
        });
    }

    /// Host helper: writes the S bit, arming the coprocessor.
    pub fn start(&self) {
        self.with_mut(|r| {
            let ie = r.ctrl & CTRL_IE;
            r.bus_write(REG_CTRL, CTRL_S | ie);
        });
    }

    /// Whether the D bit is set.
    #[must_use]
    pub fn done(&self) -> bool {
        self.with(RegisterFile::done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_register_offsets() {
        assert_eq!(REG_CTRL, 0x0);
        assert_eq!(REG_PROG_SIZE, 0x4);
        assert_eq!(REG_BANK0, 0x8);
        assert_eq!(REG_BANK0 + 4 * 7, 0x24); // bank 7 at 0x24, as drawn
    }

    #[test]
    fn bus_read_write_banks() {
        let mut r = RegisterFile::new();
        assert!(r.bus_write(REG_BANK0 + 4 * 3, 0x4000_1000));
        assert_eq!(r.bus_read(REG_BANK0 + 4 * 3), Some(0x4000_1000));
        assert_eq!(r.bank_base(3), 0x4000_1000);
    }

    #[test]
    fn unknown_offsets_rejected() {
        let mut r = RegisterFile::new();
        assert_eq!(r.bus_read(0x28), None); // hole between config and debug
        assert!(!r.bus_write(0x28, 1));
        assert!(!r.bus_write(REG_DBG_STATE, 1)); // debug window read-only
    }

    #[test]
    fn start_bit_arms_and_clears_done() {
        let mut r = RegisterFile::new();
        r.set_done();
        assert!(r.done());
        r.bus_write(REG_CTRL, CTRL_S);
        assert!(!r.done(), "starting clears D");
        assert!(r.take_start());
        assert!(!r.take_start(), "start is consumed once");
        assert_eq!(r.ctrl & CTRL_S, 0, "S auto-clears on launch");
    }

    #[test]
    fn d_bit_not_writable_from_bus() {
        let mut r = RegisterFile::new();
        r.bus_write(REG_CTRL, CTRL_D);
        assert!(!r.done(), "bus cannot set D directly");
        r.set_done();
        r.bus_write(REG_CTRL, CTRL_IE); // rewrite without S keeps D
        assert!(r.done());
    }

    #[test]
    fn ie_bit_round_trips() {
        let mut r = RegisterFile::new();
        r.bus_write(REG_CTRL, CTRL_IE);
        assert!(r.irq_enabled());
        r.bus_write(REG_CTRL, 0);
        assert!(!r.irq_enabled());
    }

    #[test]
    fn handle_validation() {
        let h = RegsHandle::new();
        assert!(h.set_bank(7, 0x1000).is_ok());
        assert_eq!(h.set_bank(8, 0), Err(ConfigError::BadBank { index: 8 }));
        assert_eq!(
            h.set_bank(0, 3),
            Err(ConfigError::UnalignedBase { base: 3 })
        );
        assert!(h.set_prog_size(18).is_ok());
        assert_eq!(
            h.set_prog_size(0),
            Err(ConfigError::BadProgSize { size: 0 })
        );
        assert_eq!(
            h.set_prog_size(1025),
            Err(ConfigError::BadProgSize { size: 1025 })
        );
    }

    #[test]
    fn handle_start_preserves_ie() {
        let h = RegsHandle::new();
        h.set_irq_enabled(true);
        h.start();
        h.with(|r| {
            assert!(r.irq_enabled());
        });
        assert!(h.with_mut(RegisterFile::take_start));
    }

    #[test]
    fn debug_mirrors() {
        let mut r = RegisterFile::new();
        r.set_debug(2, 10, 640, 9);
        assert_eq!(r.bus_read(REG_DBG_STATE), Some(2));
        assert_eq!(r.bus_read(REG_DBG_RETIRED), Some(10));
        assert_eq!(r.bus_read(REG_DBG_WORDS), Some(640));
        assert_eq!(r.bus_read(REG_DBG_PC), Some(9));
    }

    #[test]
    fn config_error_messages() {
        assert!(ConfigError::BadBank { index: 9 }
            .to_string()
            .contains("bank"));
        assert!(ConfigError::BadProgSize { size: 0 }
            .to_string()
            .contains("program size"));
    }
}
