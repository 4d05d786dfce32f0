//! The user-facing driver API of the paper's §IV.
//!
//! "One aim of Ouessant is to provide seamless hardware acceleration
//! for end users. … Integrating an hardware accelerator using an OCP in
//! a software project requires very little modification." §IV describes
//! the two environments — baremetal (trivial) and Linux, where the
//! driver's job is to avoid user/kernel data copies; "in the Ouessant
//! Linux driver, the mmap solution is used. This allows kernel space
//! memory to be mapped in user space applications."
//!
//! [`OuessantDevice`] is that driver's API surface, with the cycle cost
//! of every crossing charged according to the configured [`OsModel`]:
//!
//! * [`OuessantDevice::open`] — `open(2)` + buffer setup (one-time and
//!   not charged: Table I times the offload, not the open);
//! * [`OuessantDevice::write_input`] and [`OuessantDevice::read_output`]
//!   — plain accesses to the shared buffers;
//! * [`OuessantDevice::submit_and_wait`] — the ioctl/read pair, charged
//!   [`OsModel::invocation_overhead`] of the words the offload moved:
//!   two syscalls + driver bookkeeping + cache management, plus the
//!   per-word copies of the copying driver.
//!
//! Table I, §V-B and ablations A1–A5 run through this driver
//! ([`crate::app`]).

use std::error::Error;
use std::fmt;

use ouessant_isa::Program;
use ouessant_rac::rac::Rac;
use ouessant_sim::bus::Addr;
use ouessant_verify::{verify, Analysis, VerifyConfig};

use crate::os::OsModel;
use crate::soc::{Soc, SocConfig, SocError};

/// One of the device's shared buffers: the bank that maps it, its byte
/// offset from the start of RAM and its size in words.
#[derive(Clone, Copy)]
struct Buffer {
    bank: u8,
    offset: Addr,
    words: u32,
}

/// The device's memory map. The program buffer ends where the input
/// buffer starts; the verifier is told these sizes, so admitted
/// microcode cannot reach a neighbouring buffer.
const PROGRAM: Buffer = Buffer {
    bank: 0,
    offset: 0,
    words: 0x1000,
};
const INPUT: Buffer = Buffer {
    bank: 1,
    offset: 0x4000,
    words: 0x4000,
};
const OUTPUT: Buffer = Buffer {
    bank: 2,
    offset: 0x2_0000,
    words: 0x4000,
};

/// The device's bank map on a SoC whose RAM starts at `ram_base`: the
/// `(bank, address)` of the program, input and output buffers, in that
/// order, as [`Soc::configure`] takes it.
#[must_use]
pub fn bank_map(ram_base: Addr) -> [(u8, Addr); 3] {
    [PROGRAM, INPUT, OUTPUT].map(|b| (b.bank, ram_base + b.offset))
}

/// Errors surfaced by the driver API.
#[derive(Debug)]
pub enum DriverError {
    /// The underlying system failed.
    Soc(SocError),
    /// A buffer access was out of range.
    BufferOverrun {
        /// Requested length in words.
        requested: usize,
        /// Buffer capacity in words.
        capacity: usize,
    },
    /// `submit_and_wait` called before microcode was loaded.
    NoMicrocode,
    /// The static analyzer found error-severity defects in the
    /// microcode (bank overrun, unjoined launch, FIFO misuse, …).
    RejectedMicrocode(Analysis),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Soc(e) => write!(f, "{e}"),
            DriverError::BufferOverrun {
                requested,
                capacity,
            } => write!(
                f,
                "buffer access of {requested} words exceeds the {capacity}-word buffer"
            ),
            DriverError::NoMicrocode => f.write_str("no microcode loaded"),
            DriverError::RejectedMicrocode(analysis) => write!(
                f,
                "microcode rejected by the static analyzer ({} error(s)): {}",
                analysis.error_count(),
                analysis
            ),
        }
    }
}

impl Error for DriverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DriverError::Soc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SocError> for DriverError {
    fn from(e: SocError) -> Self {
        DriverError::Soc(e)
    }
}

/// Accounting of one driver call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriverStats {
    /// Machine cycles of the offload itself.
    pub machine_cycles: u64,
    /// OS cycles charged: [`OsModel::invocation_overhead`] of
    /// `words_transferred` (syscalls, driver, cache, copies).
    pub os_cycles: u64,
    /// Words moved by the OCP.
    pub words_transferred: u64,
}

impl DriverStats {
    /// Total cycles of the call as seen by the application.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.machine_cycles + self.os_cycles
    }
}

/// A handle to an Ouessant coprocessor, in the style of the §IV Linux
/// driver.
///
/// # Examples
///
/// ```
/// use ouessant_isa::assemble;
/// use ouessant_rac::passthrough::PassthroughRac;
/// use ouessant_soc::driver::OuessantDevice;
/// use ouessant_soc::os::OsModel;
///
/// let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::linux_mmap());
/// dev.load_microcode(&assemble("mvtc BANK1,0,DMA8,FIFO0\nexecs 8\nmvfc BANK2,0,DMA8,FIFO0\neop")?)?;
/// dev.write_input(&[1, 2, 3, 4, 5, 6, 7, 8])?;   // zero-copy: mmap'ed buffer
/// let stats = dev.submit_and_wait()?;             // ioctl + wait
/// assert_eq!(dev.read_output(8)?, vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// assert!(stats.os_cycles >= 3_000);              // the Linux crossing
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OuessantDevice {
    soc: Soc,
    os: OsModel,
    microcode_len: Option<u32>,
}

impl OuessantDevice {
    /// Opens the device: allocates the kernel buffers and (for the mmap
    /// driver) maps them into the application.
    #[must_use]
    pub fn open(rac: Box<dyn Rac>, os: OsModel) -> Self {
        Self::open_with_config(rac, os, SocConfig::default())
    }

    /// Opens the device on a specific SoC configuration.
    #[must_use]
    pub fn open_with_config(rac: Box<dyn Rac>, os: OsModel, config: SocConfig) -> Self {
        Self {
            soc: Soc::new(rac, config),
            os,
            microcode_len: None,
        }
    }

    fn addr(&self, buffer: Buffer) -> Addr {
        self.soc.config().ram_base + buffer.offset
    }

    /// The static-analyzer view of this device's memory map: program,
    /// input and output banks sized to the driver buffers, everything
    /// else unmapped, FIFO depth from the SoC configuration.
    fn verify_config(&self) -> VerifyConfig {
        // Saturated, a FIFO is still larger than any burst.
        let depth = u32::try_from(self.soc.config().ocp.fifo_depth).unwrap_or(u32::MAX);
        VerifyConfig::job_map(PROGRAM.words, INPUT.words, OUTPUT.words).with_fifo_depth(depth)
    }

    /// Loads microcode into the device's program buffer, after running
    /// the static analyzer against this device's memory map — defective
    /// microcode is rejected before it ever reaches the hardware.
    ///
    /// # Errors
    ///
    /// [`DriverError::RejectedMicrocode`] if the analyzer reports any
    /// error-severity diagnostic, [`DriverError::BufferOverrun`] if the
    /// program exceeds the buffer, or a propagated [`SocError`].
    pub fn load_microcode(&mut self, program: &Program) -> Result<(), DriverError> {
        let analysis = verify(program, &self.verify_config());
        if analysis.has_errors() {
            return Err(DriverError::RejectedMicrocode(analysis));
        }
        let words = program.to_words();
        check_len(PROGRAM, words.len())?;
        self.soc.load_words(self.addr(PROGRAM), &words)?;
        self.microcode_len = Some(u32::try_from(program.len()).expect("at most 1024 instructions"));
        Ok(())
    }

    /// Writes the input buffer. Its OS cost, if any, is charged at
    /// [`OuessantDevice::submit_and_wait`].
    ///
    /// # Errors
    ///
    /// [`DriverError::BufferOverrun`] or a propagated [`SocError`].
    pub fn write_input(&mut self, words: &[u32]) -> Result<(), DriverError> {
        check_len(INPUT, words.len())?;
        self.soc.load_words(self.addr(INPUT), words)?;
        Ok(())
    }

    /// Reads the output buffer (charged like
    /// [`OuessantDevice::write_input`]).
    ///
    /// # Errors
    ///
    /// [`DriverError::BufferOverrun`] or a propagated [`SocError`].
    pub fn read_output(&mut self, words: usize) -> Result<Vec<u32>, DriverError> {
        check_len(OUTPUT, words)?;
        Ok(self.soc.read_words(self.addr(OUTPUT), words)?)
    }

    /// Submits the offload and blocks until completion — the driver's
    /// ioctl + wait path, charging the OS crossing.
    ///
    /// # Errors
    ///
    /// [`DriverError::NoMicrocode`] before [`OuessantDevice::load_microcode`],
    /// or a propagated [`SocError`] (fault, timeout).
    pub fn submit_and_wait(&mut self) -> Result<DriverStats, DriverError> {
        let prog_len = self.microcode_len.ok_or(DriverError::NoMicrocode)?;
        let config_cycles = self
            .soc
            .configure(&bank_map(self.soc.config().ram_base), prog_len)?;
        let report = self.soc.start_and_wait(100_000_000)?;
        let os_cycles = self.os.invocation_overhead(report.words_transferred);
        Ok(DriverStats {
            machine_cycles: config_cycles + report.machine_cycles(),
            os_cycles,
            words_transferred: report.words_transferred,
        })
    }
}

fn check_len(buffer: Buffer, len: usize) -> Result<(), DriverError> {
    let capacity = buffer.words as usize;
    if len > capacity {
        Err(DriverError::BufferOverrun {
            requested: len,
            capacity,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouessant_isa::assemble;
    use ouessant_rac::passthrough::PassthroughRac;

    fn program() -> Program {
        assemble("mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK2,0,DMA16,FIFO0\neop").unwrap()
    }

    #[test]
    fn round_trip_through_device() {
        let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::linux_mmap());
        dev.load_microcode(&program()).unwrap();
        let input: Vec<u32> = (0..16).map(|i| i * 3).collect();
        dev.write_input(&input).unwrap();
        let stats = dev.submit_and_wait().unwrap();
        assert_eq!(dev.read_output(16).unwrap(), input);
        assert_eq!(stats.words_transferred, 32);
        assert_eq!(stats.os_cycles, 3_000);
    }

    #[test]
    fn submit_without_microcode_rejected() {
        let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::Baremetal);
        assert!(matches!(
            dev.submit_and_wait(),
            Err(DriverError::NoMicrocode)
        ));
    }

    #[test]
    fn baremetal_has_no_os_cost_per_call() {
        let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::Baremetal);
        dev.load_microcode(&program()).unwrap();
        dev.write_input(&[9; 16]).unwrap();
        let stats = dev.submit_and_wait().unwrap();
        assert_eq!(stats.os_cycles, 0);
    }

    #[test]
    fn copying_driver_charges_each_moved_word_at_submit() {
        // 16 words in and 16 out: the copying driver adds 4 cycles for
        // each of the 32 words to the mmap driver's fixed crossing.
        for (os, expected) in [
            (OsModel::linux_mmap(), 3_000),
            (OsModel::linux_copy(), 3_000 + 4 * 32),
        ] {
            let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), os);
            dev.load_microcode(&program()).unwrap();
            dev.write_input(&[1; 16]).unwrap();
            let stats = dev.submit_and_wait().unwrap();
            assert_eq!(stats.os_cycles, expected, "{os}");
        }
    }

    #[test]
    fn program_buffer_ends_where_the_input_buffer_starts() {
        // The program buffer holds 4096 words; a burst past them would
        // write into the input buffer.
        let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::Baremetal);
        let overflowing =
            assemble("mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK0,4096,DMA16,FIFO0\neop")
                .unwrap();
        let err = dev.load_microcode(&overflowing).unwrap_err();
        assert!(err.to_string().contains("bank-overflow"), "{err}");
        let last_words =
            assemble("mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK0,4080,DMA16,FIFO0\neop")
                .unwrap();
        dev.load_microcode(&last_words).unwrap();
    }

    #[test]
    fn oversized_buffer_access_rejected() {
        let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::Baremetal);
        let Err(DriverError::BufferOverrun { capacity, .. }) = dev.read_output(usize::MAX) else {
            panic!("an unbounded read must overrun");
        };
        let too_big = vec![0u32; capacity + 1];
        assert!(matches!(
            dev.write_input(&too_big),
            Err(DriverError::BufferOverrun { .. })
        ));
        assert!(matches!(
            dev.read_output(capacity + 1),
            Err(DriverError::BufferOverrun { .. })
        ));
        // The full buffer itself fits both ways.
        assert!(dev.write_input(&too_big[1..]).is_ok());
        assert!(dev.read_output(capacity).is_ok());
    }

    #[test]
    fn defective_microcode_rejected_before_load() {
        let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::Baremetal);
        // An execn that is never joined: the analyzer flags it, and the
        // device must refuse to arm the program at all.
        let bad = assemble("mvtc BANK1,0,DMA16,FIFO0\nexecn 16\neop").unwrap();
        match dev.load_microcode(&bad) {
            Err(DriverError::RejectedMicrocode(analysis)) => {
                assert!(analysis.has_errors());
                assert!(analysis.to_string().contains("unjoined-launch"));
            }
            other => panic!("expected RejectedMicrocode, got {other:?}"),
        }
        // Nothing was armed: submission still reports NoMicrocode.
        assert!(matches!(
            dev.submit_and_wait(),
            Err(DriverError::NoMicrocode)
        ));
    }

    #[test]
    fn out_of_bounds_burst_rejected_before_load() {
        let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::Baremetal);
        let bad = assemble("mvtc BANK1,16256,DMA256,FIFO0\nexecs\neop").unwrap();
        let err = dev.load_microcode(&bad).unwrap_err();
        assert!(err.to_string().contains("bank-overflow"), "{err}");
    }

    #[test]
    fn repeated_submissions_reuse_microcode() {
        let mut dev = OuessantDevice::open(Box::new(PassthroughRac::new(0)), OsModel::linux_mmap());
        dev.load_microcode(&program()).unwrap();
        for round in 0..3u32 {
            let input: Vec<u32> = (0..16).map(|i| round * 100 + i).collect();
            dev.write_input(&input).unwrap();
            let stats = dev.submit_and_wait().unwrap();
            assert_eq!(stats.os_cycles, 3_000, "round {round}: one crossing each");
            assert_eq!(dev.read_output(16).unwrap(), input, "round {round}");
        }
    }
}
