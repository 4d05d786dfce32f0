//! Validated Ouessant programs (microcode).
//!
//! A [`Program`] is the unit the CPU hands to the OCP: a bounded sequence
//! of instructions that the interface loads into the controller's program
//! store when the *S* (start) bit is written. The second configuration
//! register of the interface holds the program length (see Figure 3 of the
//! paper), so a program can never exceed
//! [`MAX_PROGRAM_LEN`] instructions.
//!
//! [`MAX_PROGRAM_LEN`]: crate::operands::MAX_PROGRAM_LEN

use std::error::Error;
use std::fmt;
use std::ops::Index;

use crate::control::Walk;
use crate::instruction::{DecodeError, Instruction};
use crate::operands::{
    Bank, BurstLen, Counter, FifoId, Offset, OffsetReg, ProgAddr, MAX_PROGRAM_LEN,
};
use crate::transfer::Transfer;

/// A validated sequence of Ouessant instructions.
///
/// Invariants enforced at construction:
///
/// * length is `1..=1024` instructions;
/// * every `djnz` target points inside the program;
/// * the program terminates: its last instruction is `eop` or `halt`, or a
///   preceding unconditional control structure guarantees termination
///   (we require the simpler structural property — a terminator as last
///   instruction — which is what the paper's microcode does).
///
/// # Examples
///
/// ```
/// use ouessant_isa::{Instruction, Program};
///
/// let program = Program::new(vec![Instruction::Exec { op: 0 }, Instruction::Eop])?;
/// assert_eq!(program.len(), 2);
/// # Ok::<(), ouessant_isa::ValidateError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instructions: Vec<Instruction>,
}

/// Error validating a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateError {
    /// The program contains no instructions.
    Empty,
    /// The program exceeds the controller's program store.
    TooLong {
        /// Actual number of instructions.
        len: usize,
    },
    /// A `djnz` branches past the end of the program.
    BranchOutOfRange {
        /// Index of the offending `djnz`.
        at: usize,
        /// Its branch target.
        target: u16,
    },
    /// The program does not end with `eop` or `halt`, so the controller
    /// would run off the end of the program store.
    MissingTerminator,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => f.write_str("program is empty"),
            ValidateError::TooLong { len } => write!(
                f,
                "program has {len} instructions, more than the program store holds ({MAX_PROGRAM_LEN})"
            ),
            ValidateError::BranchOutOfRange { at, target } => {
                write!(f, "djnz at index {at} targets {target}, past the end of the program")
            }
            ValidateError::MissingTerminator => {
                f.write_str("program does not end with eop or halt")
            }
        }
    }
}

impl Error for ValidateError {}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// See [`ValidateError`] for the conditions checked.
    pub fn new(instructions: Vec<Instruction>) -> Result<Self, ValidateError> {
        if instructions.is_empty() {
            return Err(ValidateError::Empty);
        }
        if instructions.len() > MAX_PROGRAM_LEN {
            return Err(ValidateError::TooLong {
                len: instructions.len(),
            });
        }
        for (at, insn) in instructions.iter().enumerate() {
            if let Instruction::Djnz { target, .. } = insn {
                if usize::from(target.value()) >= instructions.len() {
                    return Err(ValidateError::BranchOutOfRange {
                        at,
                        target: target.value(),
                    });
                }
            }
        }
        match instructions.last() {
            Some(Instruction::Eop | Instruction::Halt) => {}
            _ => return Err(ValidateError::MissingTerminator),
        }
        Ok(Self { instructions })
    }

    /// Number of instructions.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // a valid Program is never empty
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// The instructions as a slice.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Iterates over the transfer instructions (`mvtc`/`mvfc`/`mvtcr`/
    /// `mvfcr`) as direction-agnostic [`Transfer`] records tagged with
    /// their instruction index.
    ///
    /// ```
    /// use ouessant_isa::assemble;
    ///
    /// let p = assemble("mvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop")?;
    /// let transfers: Vec<_> = p.iter_transfers().collect();
    /// assert_eq!(transfers.len(), 2);
    /// assert!(transfers[0].to_coprocessor);
    /// assert_eq!(transfers[1].index, 2);
    /// # Ok::<(), ouessant_isa::AssembleError>(())
    /// ```
    pub fn iter_transfers(&self) -> impl Iterator<Item = Transfer> + '_ {
        self.instructions
            .iter()
            .enumerate()
            .filter_map(|(i, insn)| Transfer::from_instruction(i, insn))
    }

    /// Encodes the program into 32-bit memory words, ready to be placed
    /// in the OCP's program bank.
    #[must_use]
    pub fn to_words(&self) -> Vec<u32> {
        self.instructions.iter().map(Instruction::encode).collect()
    }

    /// Decodes a program from raw memory words.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] hit, or a [`ValidateError`]
    /// wrapped as `Err(Ok(_))`-free variant via [`ProgramFromWordsError`].
    pub fn from_words(words: &[u32]) -> Result<Self, ProgramFromWordsError> {
        let instructions = words
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                Instruction::decode(w)
                    .map_err(|e| ProgramFromWordsError::Decode { at: i, source: e })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(instructions).map_err(ProgramFromWordsError::Validate)
    }

    /// The program's control skeleton executed from reset: each
    /// executed pc, with the word offset a transfer starts at (see
    /// [`Walk`]).
    #[must_use]
    pub fn walk(&self) -> Walk<'_> {
        Walk::new(self)
    }

    /// Total number of data words this program moves over the bus,
    /// summed over its [`Program::walk`].
    ///
    /// The count is exact for any program that reaches `eop` or `halt`
    /// within the walk's budget ([`WALK_BUDGET`] instructions); a
    /// program that does not counts the words moved up to there.
    ///
    /// [`WALK_BUDGET`]: crate::control::WALK_BUDGET
    #[must_use]
    pub fn static_words_transferred(&self) -> u64 {
        self.walk()
            .map(|(pc, _)| u64::from(self.instructions[pc].words_transferred()))
            .sum()
    }
}

/// Error decoding a program from raw memory words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramFromWordsError {
    /// A word failed instruction decoding.
    Decode {
        /// Word index.
        at: usize,
        /// Underlying decode failure.
        source: DecodeError,
    },
    /// The decoded sequence failed program validation.
    Validate(ValidateError),
}

impl fmt::Display for ProgramFromWordsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramFromWordsError::Decode { at, source } => {
                write!(f, "word {at}: {source}")
            }
            ProgramFromWordsError::Validate(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ProgramFromWordsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProgramFromWordsError::Decode { source, .. } => Some(source),
            ProgramFromWordsError::Validate(e) => Some(e),
        }
    }
}

impl Index<usize> for Program {
    type Output = Instruction;

    fn index(&self, index: usize) -> &Instruction {
        &self.instructions[index]
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

/// A fluent builder for Ouessant programs.
///
/// The builder offers one method per instruction plus convenience
/// generators for the transfer patterns the paper's microcode uses
/// (chunked buffer moves as in Figure 4). `finish` validates the result.
///
/// # Examples
///
/// Figure 4's DFT microcode, generated instead of hand-written:
///
/// ```
/// use ouessant_isa::ProgramBuilder;
///
/// let program = ProgramBuilder::new()
///     .transfer_to_coprocessor(1, 0, 512, 64, 0)? // 512 words, DMA64 chunks
///     .execs()
///     .transfer_from_coprocessor(2, 0, 512, 64, 0)?
///     .eop()
///     .finish()?;
/// assert_eq!(program.len(), 8 + 1 + 8 + 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instructions: Vec<Instruction>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions queued so far (useful for computing `djnz`
    /// targets).
    #[must_use]
    pub fn here(&self) -> usize {
        self.instructions.len()
    }

    /// Appends an arbitrary instruction.
    #[must_use]
    pub fn push(mut self, insn: Instruction) -> Self {
        self.instructions.push(insn);
        self
    }

    /// Appends one `mvtc`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if any field is out of range.
    pub fn mvtc(
        self,
        bank: u8,
        offset: u16,
        burst: u16,
        fifo: u8,
    ) -> Result<Self, crate::OperandError> {
        Ok(self.push(Instruction::Mvtc {
            bank: Bank::new(bank)?,
            offset: Offset::new(offset)?,
            burst: BurstLen::new(burst)?,
            fifo: FifoId::new(fifo)?,
        }))
    }

    /// Appends one `mvfc`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if any field is out of range.
    pub fn mvfc(
        self,
        bank: u8,
        offset: u16,
        burst: u16,
        fifo: u8,
    ) -> Result<Self, crate::OperandError> {
        Ok(self.push(Instruction::Mvfc {
            bank: Bank::new(bank)?,
            offset: Offset::new(offset)?,
            burst: BurstLen::new(burst)?,
            fifo: FifoId::new(fifo)?,
        }))
    }

    /// Appends as many `mvtc` as needed to move `total_words` from the
    /// start of `bank` to `fifo` in `chunk`-word bursts — the unrolled
    /// pattern of the paper's Figure 4.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if a field is out of range or the
    /// final offset would overflow the 14-bit offset field.
    pub fn transfer_to_coprocessor(
        mut self,
        bank: u8,
        start_offset: u16,
        total_words: u32,
        chunk: u16,
        fifo: u8,
    ) -> Result<Self, crate::OperandError> {
        let mut remaining = total_words;
        let mut offset = u32::from(start_offset);
        while remaining > 0 {
            let this = u16::try_from(remaining).map_or(chunk, |r| r.min(chunk));
            self = self.mvtc(bank, u16::try_from(offset).unwrap_or(u16::MAX), this, fifo)?;
            offset += u32::from(this);
            remaining -= u32::from(this);
        }
        Ok(self)
    }

    /// Appends as many `mvfc` as needed to move `total_words` from `fifo`
    /// to the start of `bank`, in `chunk`-word bursts.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if a field is out of range.
    pub fn transfer_from_coprocessor(
        mut self,
        bank: u8,
        start_offset: u16,
        total_words: u32,
        chunk: u16,
        fifo: u8,
    ) -> Result<Self, crate::OperandError> {
        let mut remaining = total_words;
        let mut offset = u32::from(start_offset);
        while remaining > 0 {
            let this = u16::try_from(remaining).map_or(chunk, |r| r.min(chunk));
            self = self.mvfc(bank, u16::try_from(offset).unwrap_or(u16::MAX), this, fifo)?;
            offset += u32::from(this);
            remaining -= u32::from(this);
        }
        Ok(self)
    }

    /// Appends `execs` (launch the RAC and wait).
    #[must_use]
    pub fn execs(self) -> Self {
        self.push(Instruction::Exec { op: 0 })
    }

    /// Appends `execs` with an operation tag.
    #[must_use]
    pub fn execs_op(self, op: u16) -> Self {
        self.push(Instruction::Exec { op })
    }

    /// Appends `eop`.
    #[must_use]
    pub fn eop(self) -> Self {
        self.push(Instruction::Eop)
    }

    /// Appends `sync`.
    #[must_use]
    pub fn sync(self) -> Self {
        self.push(Instruction::Sync)
    }

    /// Appends `rcfg` (dynamic partial reconfiguration of the RAC slot).
    #[must_use]
    pub fn rcfg(self, slot: u16) -> Self {
        self.push(Instruction::Rcfg { slot })
    }

    /// Appends `wait`.
    #[must_use]
    pub fn wait(self, cycles: u16) -> Self {
        self.push(Instruction::Wait { cycles })
    }

    /// Appends `ldc`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if `counter > 3`.
    pub fn ldc(self, counter: u8, imm: u16) -> Result<Self, crate::OperandError> {
        Ok(self.push(Instruction::Ldc {
            counter: Counter::new(counter)?,
            imm,
        }))
    }

    /// Appends `djnz`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if a field is out of range. The
    /// branch target is validated against the finished program by
    /// [`ProgramBuilder::finish`].
    pub fn djnz(self, counter: u8, target: usize) -> Result<Self, crate::OperandError> {
        Ok(self.push(Instruction::Djnz {
            counter: Counter::new(counter)?,
            target: ProgAddr::new(u16::try_from(target).unwrap_or(u16::MAX))?,
        }))
    }

    /// Appends `ldo`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if `reg > 3`.
    pub fn ldo(self, reg: u8, imm: u16) -> Result<Self, crate::OperandError> {
        Ok(self.push(Instruction::Ldo {
            reg: OffsetReg::new(reg)?,
            imm,
        }))
    }

    /// Appends `mvtcr`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if any field is out of range.
    pub fn mvtcr(
        self,
        bank: u8,
        reg: u8,
        burst: u16,
        fifo: u8,
    ) -> Result<Self, crate::OperandError> {
        Ok(self.push(Instruction::Mvtcr {
            bank: Bank::new(bank)?,
            reg: OffsetReg::new(reg)?,
            burst: BurstLen::new(burst)?,
            fifo: FifoId::new(fifo)?,
        }))
    }

    /// Appends `mvfcr`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OperandError`] if any field is out of range.
    pub fn mvfcr(
        self,
        bank: u8,
        reg: u8,
        burst: u16,
        fifo: u8,
    ) -> Result<Self, crate::OperandError> {
        Ok(self.push(Instruction::Mvfcr {
            bank: Bank::new(bank)?,
            reg: OffsetReg::new(reg)?,
            burst: BurstLen::new(burst)?,
            fifo: FifoId::new(fifo)?,
        }))
    }

    /// Validates and returns the finished [`Program`].
    ///
    /// # Errors
    ///
    /// See [`ValidateError`].
    pub fn finish(self) -> Result<Program, ValidateError> {
        Program::new(self.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_program_rejected() {
        assert_eq!(Program::new(vec![]), Err(ValidateError::Empty));
    }

    #[test]
    fn missing_terminator_rejected() {
        let p = Program::new(vec![Instruction::Nop]);
        assert_eq!(p, Err(ValidateError::MissingTerminator));
    }

    #[test]
    fn halt_is_a_valid_terminator() {
        assert!(Program::new(vec![Instruction::Halt]).is_ok());
    }

    #[test]
    fn too_long_rejected() {
        let mut v = vec![Instruction::Nop; MAX_PROGRAM_LEN];
        v.push(Instruction::Eop);
        assert_eq!(
            Program::new(v),
            Err(ValidateError::TooLong {
                len: MAX_PROGRAM_LEN + 1
            })
        );
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let p = Program::new(vec![
            Instruction::Djnz {
                counter: Counter::new(0).unwrap(),
                target: ProgAddr::new(9).unwrap(),
            },
            Instruction::Eop,
        ]);
        assert_eq!(p, Err(ValidateError::BranchOutOfRange { at: 0, target: 9 }));
    }

    #[test]
    fn words_round_trip() {
        let p = ProgramBuilder::new()
            .mvtc(1, 0, 64, 0)
            .unwrap()
            .execs()
            .mvfc(2, 0, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let words = p.to_words();
        assert_eq!(Program::from_words(&words).unwrap(), p);
    }

    #[test]
    fn from_words_reports_bad_word_index() {
        let p = ProgramBuilder::new().execs().eop().finish().unwrap();
        let mut words = p.to_words();
        words.insert(1, 31u32 << 27); // reserved opcode
        match Program::from_words(&words) {
            Err(ProgramFromWordsError::Decode { at: 1, .. }) => {}
            other => panic!("expected decode error at word 1, got {other:?}"),
        }
    }

    #[test]
    fn figure4_shape() {
        // 8 x mvtc DMA64 + execs + 8 x mvfc DMA64 + eop = 18 instructions.
        let p = ProgramBuilder::new()
            .transfer_to_coprocessor(1, 0, 512, 64, 0)
            .unwrap()
            .execs()
            .transfer_from_coprocessor(2, 0, 512, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        assert_eq!(p.len(), 18);
        assert_eq!(p.static_words_transferred(), 1024);
        // Offsets advance in 64-word strides: 0, 64, ..., 448.
        if let Instruction::Mvtc { offset, .. } = p[7] {
            assert_eq!(offset.value(), 448);
        } else {
            panic!("instruction 7 should be mvtc");
        }
    }

    #[test]
    fn partial_final_chunk() {
        let p = ProgramBuilder::new()
            .transfer_to_coprocessor(0, 0, 100, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        // 64 + 36
        assert_eq!(p.len(), 3);
        assert_eq!(p.static_words_transferred(), 100);
        if let Instruction::Mvtc { burst, .. } = p[1] {
            assert_eq!(burst.words(), 36);
        } else {
            panic!("instruction 1 should be mvtc");
        }
    }

    #[test]
    fn looped_transfer_word_count() {
        // ldc R0,8 ; mvtcr ... DMA64 ; djnz R0,1 ; eop  => 8 * 64 words.
        let p = ProgramBuilder::new()
            .ldc(0, 8)
            .unwrap()
            .ldo(0, 0)
            .unwrap()
            .mvtcr(1, 0, 64, 0)
            .unwrap()
            .djnz(0, 2)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        assert_eq!(p.static_words_transferred(), 512);
    }

    #[test]
    fn indexing_and_iteration() {
        let p = ProgramBuilder::new().execs().eop().finish().unwrap();
        assert_eq!(p[1], Instruction::Eop);
        assert_eq!(p.iter().count(), 2);
        assert_eq!((&p).into_iter().count(), 2);
    }

    #[test]
    fn validate_error_messages() {
        assert_eq!(ValidateError::Empty.to_string(), "program is empty");
        assert!(ValidateError::MissingTerminator.to_string().contains("eop"));
    }
}
