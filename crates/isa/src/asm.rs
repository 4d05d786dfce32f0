//! A line-oriented assembler for Ouessant microcode.
//!
//! The accepted syntax is the one printed in the paper's Figure 4, plus
//! labels and the extension mnemonics:
//!
//! ```text
//! // 64 words from offset 0 of bank 1 to coprocessor FIFO 0
//! loop:                       ; labels end with ':'
//!     mvtc BANK1,0,DMA64,FIFO0
//!     execs                   ; alias of exec-and-wait
//!     mvfc BANK2,0,DMA64,FIFO0
//!     djnz R0,loop
//!     eop
//! ```
//!
//! * comments start with `//`, `;` or `#` and run to end of line;
//! * mnemonics and operand keywords are case-insensitive;
//! * numbers may be decimal or hexadecimal (`0x` prefix);
//! * `djnz` targets may be labels or absolute instruction indices.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::instruction::Instruction;
use crate::opcode::Opcode;
use crate::operands::{Bank, BurstLen, Counter, FifoId, Offset, OffsetReg, ProgAddr};
use crate::program::{Program, ValidateError};

/// Error assembling Ouessant source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleError {
    /// 1-based source line.
    line: usize,
    kind: AssembleErrorKind,
}

/// The specific assembly failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleErrorKind {
    /// Unknown mnemonic.
    UnknownMnemonic(String),
    /// Wrong number of operands for the mnemonic.
    OperandCount {
        /// The mnemonic in question.
        mnemonic: &'static str,
        /// Operands expected.
        expected: usize,
        /// Operands found.
        found: usize,
    },
    /// An operand could not be parsed or was out of range.
    BadOperand {
        /// Position of the operand (1-based).
        position: usize,
        /// Explanation.
        message: String,
    },
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A `djnz` referenced an undefined label.
    UndefinedLabel(String),
    /// The finished program failed validation.
    Validate(ValidateError),
}

impl AssembleError {
    fn new(line: usize, kind: AssembleErrorKind) -> Self {
        Self { line, kind }
    }

    /// The failure detail.
    #[must_use]
    pub fn kind(&self) -> &AssembleErrorKind {
        &self.kind
    }
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        match &self.kind {
            AssembleErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic `{m}`"),
            AssembleErrorKind::OperandCount {
                mnemonic,
                expected,
                found,
            } => write!(f, "`{mnemonic}` takes {expected} operands, found {found}"),
            AssembleErrorKind::BadOperand { position, message } => {
                write!(f, "operand {position}: {message}")
            }
            AssembleErrorKind::DuplicateLabel(l) => write!(f, "label `{l}` defined twice"),
            AssembleErrorKind::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AssembleErrorKind::Validate(e) => write!(f, "{e}"),
        }
    }
}

impl Error for AssembleError {}

/// Assembles Ouessant source text into a validated [`Program`].
///
/// # Errors
///
/// Returns an [`AssembleError`] carrying the 1-based source line and a
/// specific [`AssembleErrorKind`].
///
/// # Examples
///
/// ```
/// use ouessant_isa::assemble;
///
/// let program = assemble("execs\neop")?;
/// assert_eq!(program.len(), 2);
/// # Ok::<(), ouessant_isa::AssembleError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AssembleError> {
    // Pass 1: strip comments, collect labels and raw statements.
    struct Stmt<'a> {
        line: usize,
        mnemonic: &'a str,
        operands: Vec<&'a str>,
    }

    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut stmts: Vec<Stmt<'_>> = Vec::new();

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw_line;
        for marker in ["//", ";", "#"] {
            if let Some(pos) = text.find(marker) {
                text = &text[..pos];
            }
        }
        let mut text = text.trim();
        // Leading labels (possibly several on one line).
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break; // not a label; let operand parsing complain
            }
            if labels
                .insert(label.to_ascii_lowercase(), stmts.len())
                .is_some()
            {
                return Err(AssembleError::new(
                    line_no,
                    AssembleErrorKind::DuplicateLabel(label.to_string()),
                ));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(pos) => (&text[..pos], text[pos..].trim()),
            None => (text, ""),
        };
        let operands: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        stmts.push(Stmt {
            line: line_no,
            mnemonic,
            operands,
        });
    }

    // Pass 2: parse statements into instructions.
    let mut instructions = Vec::with_capacity(stmts.len());
    for stmt in &stmts {
        let insn = parse_statement(stmt.line, stmt.mnemonic, &stmt.operands, &labels)?;
        instructions.push(insn);
    }

    Program::new(instructions).map_err(|e| AssembleError::new(0, AssembleErrorKind::Validate(e)))
}

fn parse_statement(
    line: usize,
    mnemonic: &str,
    operands: &[&str],
    labels: &HashMap<String, usize>,
) -> Result<Instruction, AssembleError> {
    let opcode = Opcode::from_mnemonic(mnemonic).ok_or_else(|| {
        AssembleError::new(
            line,
            AssembleErrorKind::UnknownMnemonic(mnemonic.to_string()),
        )
    })?;

    let count = |expected: usize| -> Result<(), AssembleError> {
        if operands.len() == expected {
            Ok(())
        } else {
            Err(AssembleError::new(
                line,
                AssembleErrorKind::OperandCount {
                    mnemonic: opcode.mnemonic(),
                    expected,
                    found: operands.len(),
                },
            ))
        }
    };
    let bad = |position: usize, message: String| {
        AssembleError::new(line, AssembleErrorKind::BadOperand { position, message })
    };

    let insn = match opcode {
        Opcode::Nop => {
            count(0)?;
            Instruction::Nop
        }
        Opcode::Mvtc | Opcode::Mvfc => {
            count(4)?;
            let bank = parse_bank(operands[0]).map_err(|m| bad(1, m))?;
            let offset = parse_offset(operands[1]).map_err(|m| bad(2, m))?;
            let burst = parse_burst(operands[2]).map_err(|m| bad(3, m))?;
            let fifo = parse_fifo(operands[3]).map_err(|m| bad(4, m))?;
            if opcode == Opcode::Mvtc {
                Instruction::Mvtc {
                    bank,
                    offset,
                    burst,
                    fifo,
                }
            } else {
                Instruction::Mvfc {
                    bank,
                    offset,
                    burst,
                    fifo,
                }
            }
        }
        Opcode::Exec | Opcode::Execn => {
            let op = match operands.len() {
                0 => 0u16,
                1 => parse_number(operands[0])
                    .and_then(|n| {
                        u16::try_from(n).map_err(|_| "operation tag exceeds 16 bits".to_string())
                    })
                    .map_err(|m| bad(1, m))?,
                n => {
                    return Err(AssembleError::new(
                        line,
                        AssembleErrorKind::OperandCount {
                            mnemonic: opcode.mnemonic(),
                            expected: 1,
                            found: n,
                        },
                    ))
                }
            };
            if opcode == Opcode::Exec {
                Instruction::Exec { op }
            } else {
                Instruction::Execn { op }
            }
        }
        Opcode::Eop => {
            count(0)?;
            Instruction::Eop
        }
        Opcode::Wrac => {
            count(0)?;
            Instruction::Wrac
        }
        Opcode::Ldc => {
            count(2)?;
            let counter = parse_counter(operands[0]).map_err(|m| bad(1, m))?;
            let imm = parse_imm14(operands[1]).map_err(|m| bad(2, m))?;
            Instruction::Ldc { counter, imm }
        }
        Opcode::Djnz => {
            count(2)?;
            let counter = parse_counter(operands[0]).map_err(|m| bad(1, m))?;
            let target_text = operands[1];
            let target_idx = if let Ok(n) = parse_number(target_text) {
                n as usize
            } else if let Some(&idx) = labels.get(&target_text.to_ascii_lowercase()) {
                idx
            } else {
                return Err(AssembleError::new(
                    line,
                    AssembleErrorKind::UndefinedLabel(target_text.to_string()),
                ));
            };
            let target = ProgAddr::new(u16::try_from(target_idx).unwrap_or(u16::MAX))
                .map_err(|e| bad(2, e.to_string()))?;
            Instruction::Djnz { counter, target }
        }
        Opcode::Ldo => {
            count(2)?;
            let reg = parse_offset_reg(operands[0]).map_err(|m| bad(1, m))?;
            let imm = parse_imm14(operands[1]).map_err(|m| bad(2, m))?;
            Instruction::Ldo { reg, imm }
        }
        Opcode::Addo => {
            count(2)?;
            let reg = parse_offset_reg(operands[0]).map_err(|m| bad(1, m))?;
            let delta = parse_signed(operands[1]).map_err(|m| bad(2, m))?;
            let delta = i16::try_from(delta)
                .ok()
                .filter(|d| (-8192..=8191).contains(d))
                .ok_or_else(|| bad(2, format!("delta {delta} outside -8192..=8191")))?;
            Instruction::Addo { reg, delta }
        }
        Opcode::Mvtcr | Opcode::Mvfcr => {
            count(4)?;
            let bank = parse_bank(operands[0]).map_err(|m| bad(1, m))?;
            let reg = parse_offset_reg(operands[1]).map_err(|m| bad(2, m))?;
            let burst = parse_burst(operands[2]).map_err(|m| bad(3, m))?;
            let fifo = parse_fifo(operands[3]).map_err(|m| bad(4, m))?;
            if opcode == Opcode::Mvtcr {
                Instruction::Mvtcr {
                    bank,
                    reg,
                    burst,
                    fifo,
                }
            } else {
                Instruction::Mvfcr {
                    bank,
                    reg,
                    burst,
                    fifo,
                }
            }
        }
        Opcode::Wait => {
            count(1)?;
            let cycles = parse_imm14(operands[0]).map_err(|m| bad(1, m))?;
            Instruction::Wait { cycles }
        }
        Opcode::Sync => {
            count(0)?;
            Instruction::Sync
        }
        Opcode::Halt => {
            count(0)?;
            Instruction::Halt
        }
        Opcode::Rcfg => {
            count(1)?;
            let slot = parse_imm14(operands[0]).map_err(|m| bad(1, m))?;
            Instruction::Rcfg { slot }
        }
    };
    Ok(insn)
}

fn parse_number(text: &str) -> Result<u32, String> {
    let t = text.trim();
    let parsed = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16)
    } else {
        t.parse::<u32>()
    };
    parsed.map_err(|_| format!("`{t}` is not a number"))
}

fn parse_signed(text: &str) -> Result<i32, String> {
    let t = text.trim();
    if let Some(rest) = t.strip_prefix('-') {
        Ok(-(parse_number(rest)? as i32))
    } else {
        Ok(parse_number(t)? as i32)
    }
}

fn parse_prefixed(text: &str, prefix: &str) -> Result<u32, String> {
    let t = text.trim();
    let lower = t.to_ascii_lowercase();
    let rest = lower
        .strip_prefix(&prefix.to_ascii_lowercase())
        .ok_or_else(|| format!("expected `{prefix}<n>`, found `{t}`"))?;
    parse_number(rest)
}

fn parse_bank(text: &str) -> Result<Bank, String> {
    let n = parse_prefixed(text, "BANK")?;
    Bank::new(u8::try_from(n).map_err(|_| format!("bank {n} out of range"))?)
        .map_err(|e| e.to_string())
}

fn parse_fifo(text: &str) -> Result<FifoId, String> {
    let n = parse_prefixed(text, "FIFO")?;
    FifoId::new(u8::try_from(n).map_err(|_| format!("fifo {n} out of range"))?)
        .map_err(|e| e.to_string())
}

fn parse_burst(text: &str) -> Result<BurstLen, String> {
    let n = parse_prefixed(text, "DMA")?;
    BurstLen::new(u16::try_from(n).map_err(|_| format!("burst {n} out of range"))?)
        .map_err(|e| e.to_string())
}

fn parse_counter(text: &str) -> Result<Counter, String> {
    let n = parse_prefixed(text, "R")?;
    Counter::new(u8::try_from(n).map_err(|_| format!("counter {n} out of range"))?)
        .map_err(|e| e.to_string())
}

fn parse_offset_reg(text: &str) -> Result<OffsetReg, String> {
    let n = parse_prefixed(text, "O")?;
    OffsetReg::new(u8::try_from(n).map_err(|_| format!("offset register {n} out of range"))?)
        .map_err(|e| e.to_string())
}

fn parse_offset(text: &str) -> Result<Offset, String> {
    let n = parse_number(text)?;
    Offset::new(u16::try_from(n).map_err(|_| format!("offset {n} out of range"))?)
        .map_err(|e| e.to_string())
}

fn parse_imm14(text: &str) -> Result<u16, String> {
    let n = parse_number(text)?;
    u16::try_from(n)
        .ok()
        .filter(|&imm| u32::from(imm) <= crate::operands::MAX_IMM)
        .ok_or_else(|| format!("immediate {n} exceeds 14 bits"))
}

/// The verbatim microcode listing of the paper's Figure 4, with the
/// paper's "..." ellipses expanded to the full 8 + 1 + 8 + 1 = 18
/// instructions of the 256-point DFT offload.
pub const FIGURE4_SOURCE: &str = "\
// 64 words from offset 0 of bank 1
// to coprocessor FIFO 0
mvtc BANK1,0,DMA64,FIFO0
mvtc BANK1,64,DMA64,FIFO0
mvtc BANK1,128,DMA64,FIFO0
mvtc BANK1,192,DMA64,FIFO0
mvtc BANK1,256,DMA64,FIFO0
mvtc BANK1,320,DMA64,FIFO0
mvtc BANK1,384,DMA64,FIFO0
mvtc BANK1,448,DMA64,FIFO0
execs
mvfc BANK2,0,DMA64,FIFO0
mvfc BANK2,64,DMA64,FIFO0
mvfc BANK2,128,DMA64,FIFO0
mvfc BANK2,192,DMA64,FIFO0
mvfc BANK2,256,DMA64,FIFO0
mvfc BANK2,320,DMA64,FIFO0
mvfc BANK2,384,DMA64,FIFO0
mvfc BANK2,448,DMA64,FIFO0
eop
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operands::MAX_OFFSET;

    #[test]
    fn figure4_assembles() {
        let p = assemble(FIGURE4_SOURCE).unwrap();
        assert_eq!(p.len(), 18);
        assert_eq!(p.static_words_transferred(), 1024);
        assert_eq!(p[8], Instruction::Exec { op: 0 });
        assert_eq!(p[17], Instruction::Eop);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("\n// c1\n; c2\n# c3\nexecs ; trailing\neop\n\n").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn case_insensitive() {
        let p = assemble("MVTC bank1,0,dma64,fifo0\nEOP").unwrap();
        assert!(matches!(p[0], Instruction::Mvtc { .. }));
    }

    #[test]
    fn hex_numbers() {
        let p = assemble("mvtc BANK1,0x40,DMA64,FIFO0\neop").unwrap();
        if let Instruction::Mvtc { offset, .. } = p[0] {
            assert_eq!(offset.value(), 64);
        } else {
            panic!("expected mvtc");
        }
    }

    #[test]
    fn labels_resolve() {
        let src = "
            ldc R0,8
            loop:
                mvtcr BANK1,O0,DMA64,FIFO0
                djnz R0,loop
            eop
        ";
        let p = assemble(src).unwrap();
        if let Instruction::Djnz { target, .. } = p[2] {
            assert_eq!(target.value(), 1);
        } else {
            panic!("expected djnz");
        }
    }

    #[test]
    fn numeric_djnz_target() {
        let p = assemble("ldc R0,4\nnop\ndjnz R0,1\neop").unwrap();
        if let Instruction::Djnz { target, .. } = p[2] {
            assert_eq!(target.value(), 1);
        } else {
            panic!("expected djnz");
        }
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = assemble("a:\nnop\na:\neop").unwrap_err();
        assert!(matches!(err.kind(), AssembleErrorKind::DuplicateLabel(_)));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn undefined_label_rejected() {
        let err = assemble("djnz R0,nowhere\neop").unwrap_err();
        assert!(matches!(err.kind(), AssembleErrorKind::UndefinedLabel(_)));
    }

    #[test]
    fn unknown_mnemonic_rejected() {
        let err = assemble("frob BANK1\neop").unwrap_err();
        assert!(matches!(err.kind(), AssembleErrorKind::UnknownMnemonic(_)));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn operand_count_enforced() {
        let err = assemble("mvtc BANK1,0,DMA64\neop").unwrap_err();
        assert!(matches!(
            err.kind(),
            AssembleErrorKind::OperandCount {
                expected: 4,
                found: 3,
                ..
            }
        ));
    }

    #[test]
    fn bank_out_of_range_rejected() {
        let err = assemble("mvtc BANK9,0,DMA64,FIFO0\neop").unwrap_err();
        assert!(matches!(
            err.kind(),
            AssembleErrorKind::BadOperand { position: 1, .. }
        ));
    }

    #[test]
    fn offset_out_of_range_rejected() {
        let src = format!("mvtc BANK1,{},DMA64,FIFO0\neop", MAX_OFFSET + 1);
        let err = assemble(&src).unwrap_err();
        assert!(matches!(
            err.kind(),
            AssembleErrorKind::BadOperand { position: 2, .. }
        ));
    }

    #[test]
    fn burst_zero_rejected() {
        let err = assemble("mvtc BANK1,0,DMA0,FIFO0\neop").unwrap_err();
        assert!(matches!(
            err.kind(),
            AssembleErrorKind::BadOperand { position: 3, .. }
        ));
    }

    #[test]
    fn missing_terminator_reported() {
        let err = assemble("execs").unwrap_err();
        assert!(matches!(
            err.kind(),
            AssembleErrorKind::Validate(ValidateError::MissingTerminator)
        ));
    }

    #[test]
    fn exec_with_operation_tag() {
        let p = assemble("execs 0x12\neop").unwrap();
        assert_eq!(p[0], Instruction::Exec { op: 0x12 });
    }

    #[test]
    fn wait_and_sync_and_halt() {
        let p = assemble("wait 100\nsync\nhalt").unwrap();
        assert_eq!(p[0], Instruction::Wait { cycles: 100 });
        assert_eq!(p[1], Instruction::Sync);
        assert_eq!(p[2], Instruction::Halt);
    }

    #[test]
    fn rcfg_assembles() {
        let p = assemble("rcfg 2\neop").unwrap();
        assert_eq!(p[0], Instruction::Rcfg { slot: 2 });
    }

    #[test]
    fn addo_negative_delta() {
        let p = assemble("addo O1,-64\neop").unwrap();
        if let Instruction::Addo { delta, .. } = p[0] {
            assert_eq!(delta, -64);
        } else {
            panic!("expected addo");
        }
    }

    #[test]
    fn error_display_contains_line() {
        let err = assemble("nop\nbogus\neop").unwrap_err();
        assert!(err.to_string().starts_with("line 2:"));
    }
}
