//! Microcode optimization passes.
//!
//! The paper's Figure 4 microcode is written (or generated) naively: one
//! `mvtc` per 64-word chunk. Every transfer instruction costs a
//! fetch/decode/issue overhead on the unpipelined controller, and every
//! burst start re-pays bus arbitration — so fewer, larger transfers are
//! strictly faster (ablation A1). This module provides equivalence-
//! preserving rewrites:
//!
//! * [`coalesce_transfers`] — merges adjacent `mvtc`/`mvfc` to
//!   contiguous addresses of the same bank/FIFO into maximal bursts
//!   (up to the DMA256 limit);
//! * [`rollup_loops`] — replaces long unrolled chunk sequences with the
//!   extension ISA's `ldc`/`mvtcr`/`djnz` loop, shrinking the program
//!   store footprint (and with it the program-load time);
//! * [`optimize`] — the standard pipeline (coalesce, then roll up).
//!
//! All passes preserve the transfer semantics exactly: same words, same
//! order, same FIFOs — verified by property tests against
//! [`Program::static_words_transferred`] and by full-system equivalence
//! tests in the workspace integration suite.

use crate::instruction::Instruction;
use crate::operands::{BurstLen, Counter, OffsetReg, ProgAddr, MAX_BURST};
use crate::program::{Program, ValidateError};
use crate::transfer::{Transfer, TransferOffset};

/// Statistics of an optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Instructions before.
    pub before: usize,
    /// Instructions after.
    pub after: usize,
    /// Transfers merged by coalescing.
    pub coalesced: usize,
    /// Loops introduced by roll-up.
    pub loops_created: usize,
}

/// Merges adjacent same-direction transfers with contiguous addresses
/// into maximal bursts.
///
/// Two transfers merge when they target the same bank and FIFO, the
/// second starts exactly where the first ended, and the combined length
/// stays within [`MAX_BURST`]. Immediate-offset forms only (`mvtcr`
/// post-increments are already loop-shaped).
///
/// # Errors
///
/// Returns [`ValidateError`] only if the input program was already
/// invalid (cannot happen for values constructed through [`Program`]).
pub fn coalesce_transfers(program: &Program) -> Result<(Program, OptStats), ValidateError> {
    let mut out: Vec<Instruction> = Vec::with_capacity(program.len());
    let mut coalesced = 0usize;
    // Branch targets must stay valid: only coalesce when the program has
    // no djnz at all (the common generated case); otherwise bail out to
    // the identity.
    let has_branches = program
        .iter()
        .any(|i| matches!(i, Instruction::Djnz { .. }));
    if has_branches {
        let stats = OptStats {
            before: program.len(),
            after: program.len(),
            ..OptStats::default()
        };
        return Ok((program.clone(), stats));
    }

    for (index, insn) in program.iter().enumerate() {
        let merged = match (out.last_mut(), Transfer::from_instruction(index, insn)) {
            (Some(last), Some(next)) => match Transfer::from_instruction(index - 1, last) {
                Some(prev)
                    if prev.is_contiguous_with(&next)
                        && u32::from(prev.burst.words()) + u32::from(next.burst.words())
                            <= MAX_BURST =>
                {
                    let mut widened = prev;
                    widened.burst = BurstLen::new(prev.burst.words() + next.burst.words())
                        .expect("bounded by MAX_BURST");
                    *last = widened.to_instruction();
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if merged {
            coalesced += 1;
        } else {
            out.push(*insn);
        }
    }

    let stats = OptStats {
        before: program.len(),
        after: out.len(),
        coalesced,
        ..OptStats::default()
    };
    Program::new(out).map(|p| (p, stats))
}

/// Minimum run length worth converting into a hardware loop.
const MIN_ROLLUP: usize = 4;

/// Replaces runs of equal-stride transfers with `ldo`/`ldc`/`mv?cr`/
/// `djnz` loops.
///
/// A run qualifies when at least `MIN_ROLLUP` (4) consecutive transfers
/// share direction, bank, FIFO and burst length, and each starts where
/// the previous ended. The rewrite uses offset register `O0`/`O1` and
/// counter `R0`/`R1` for to-/from-coprocessor runs respectively (the
/// registers the generated Figure 4 style code never uses otherwise).
///
/// # Errors
///
/// Returns [`ValidateError`] if the rewritten program fails validation
/// (cannot happen for branch-free inputs).
pub fn rollup_loops(program: &Program) -> Result<(Program, OptStats), ValidateError> {
    let has_branches = program
        .iter()
        .any(|i| matches!(i, Instruction::Djnz { .. }));
    if has_branches {
        let stats = OptStats {
            before: program.len(),
            after: program.len(),
            ..OptStats::default()
        };
        return Ok((program.clone(), stats));
    }

    let insns = program.instructions();
    let mut out: Vec<Instruction> = Vec::new();
    let mut loops_created = 0usize;
    let mut i = 0usize;
    while i < insns.len() {
        // Detect a run starting at i.
        let run_len = run_length(&insns[i..]);
        if run_len >= MIN_ROLLUP {
            let head = Transfer::from_instruction(i, &insns[i])
                .expect("run_length only reports transfer runs");
            let TransferOffset::Immediate(start) = head.offset else {
                unreachable!("run_length only reports immediate-offset runs");
            };
            let (oreg, creg) = if head.to_coprocessor {
                (0u8, 0u8)
            } else {
                (1u8, 1u8)
            };
            let reg = OffsetReg::new(oreg).expect("register id valid");
            out.push(Instruction::Ldo {
                reg,
                imm: start.value(),
            });
            out.push(Instruction::Ldc {
                counter: Counter::new(creg).expect("counter id valid"),
                imm: u16::try_from(run_len).expect("a run fits the program store"),
            });
            let body_pc = out.len();
            out.push(
                Transfer {
                    offset: TransferOffset::Register(reg),
                    ..head
                }
                .to_instruction(),
            );
            out.push(Instruction::Djnz {
                counter: Counter::new(creg).expect("counter id valid"),
                target: u16::try_from(body_pc)
                    .ok()
                    .and_then(|pc| ProgAddr::new(pc).ok())
                    .expect("program fits the store"),
            });
            loops_created += 1;
            i += run_len;
        } else {
            out.push(insns[i]);
            i += 1;
        }
    }

    let stats = OptStats {
        before: program.len(),
        after: out.len(),
        loops_created,
        ..OptStats::default()
    };
    Program::new(out).map(|p| (p, stats))
}

fn run_length(insns: &[Instruction]) -> usize {
    let Some(mut prev) = insns.first().and_then(|i| Transfer::from_instruction(0, i)) else {
        return 0;
    };
    if prev.start_offset().is_none() {
        return 0; // register-form transfers are already loop-shaped
    }
    let mut len = 1usize;
    for insn in &insns[1..] {
        match Transfer::from_instruction(len, insn) {
            Some(next) if next.burst == prev.burst && prev.is_contiguous_with(&next) => {
                prev = next;
                len += 1;
            }
            _ => break,
        }
    }
    len
}

/// The standard pipeline: coalesce into maximal bursts, then roll the
/// remaining runs into loops.
///
/// # Errors
///
/// See the individual passes.
///
/// # Examples
///
/// Figure 4's 18 instructions shrink considerably:
///
/// ```
/// use ouessant_isa::{assemble, FIGURE4_SOURCE};
/// use ouessant_isa::opt::optimize;
///
/// let original = assemble(FIGURE4_SOURCE)?;
/// let (optimized, stats) = optimize(&original)?;
/// assert!(optimized.len() < original.len());
/// assert_eq!(
///     optimized.static_words_transferred(),
///     original.static_words_transferred()
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize(program: &Program) -> Result<(Program, OptStats), ValidateError> {
    let (coalesced, s1) = coalesce_transfers(program)?;
    let (rolled, s2) = rollup_loops(&coalesced)?;
    Ok((
        rolled,
        OptStats {
            before: s1.before,
            after: s2.after,
            coalesced: s1.coalesced,
            loops_created: s2.loops_created,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{assemble, FIGURE4_SOURCE};
    use crate::program::ProgramBuilder;

    #[test]
    fn figure4_coalesces_to_dma256() {
        // 8 x DMA64 at contiguous offsets -> 2 x DMA256 per direction.
        let p = assemble(FIGURE4_SOURCE).unwrap();
        let (c, stats) = coalesce_transfers(&p).unwrap();
        // 18 -> 2 + execs + 2 + eop = 6.
        assert_eq!(c.len(), 6);
        assert_eq!(stats.coalesced, 12);
        assert_eq!(c.static_words_transferred(), 1024);
    }

    #[test]
    fn coalescing_respects_burst_limit() {
        // 5 x DMA64 = 320 words > 256: must split as 256 + 64.
        let p = ProgramBuilder::new()
            .transfer_to_coprocessor(1, 0, 320, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let (c, _) = coalesce_transfers(&p).unwrap();
        assert_eq!(c.len(), 3); // DMA256 + DMA64 + eop
        assert_eq!(c.static_words_transferred(), 320);
    }

    #[test]
    fn non_contiguous_transfers_not_merged() {
        let p = ProgramBuilder::new()
            .mvtc(1, 0, 64, 0)
            .unwrap()
            .mvtc(1, 128, 64, 0) // gap at 64..128
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let (c, stats) = coalesce_transfers(&p).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(stats.coalesced, 0);
    }

    #[test]
    fn different_fifos_not_merged() {
        let p = ProgramBuilder::new()
            .mvtc(1, 0, 64, 0)
            .unwrap()
            .mvtc(1, 64, 64, 1)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let (c, _) = coalesce_transfers(&p).unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn rollup_creates_loops() {
        let p = ProgramBuilder::new()
            .transfer_to_coprocessor(1, 0, 512, 64, 0)
            .unwrap()
            .execs()
            .transfer_from_coprocessor(2, 0, 512, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let (r, stats) = rollup_loops(&p).unwrap();
        assert_eq!(stats.loops_created, 2);
        // ldo+ldc+mvtcr+djnz + execs + ldo+ldc+mvfcr+djnz + eop = 10.
        assert_eq!(r.len(), 10);
        assert_eq!(r.static_words_transferred(), 1024);
    }

    #[test]
    fn short_runs_left_alone() {
        let p = ProgramBuilder::new()
            .transfer_to_coprocessor(1, 0, 192, 64, 0) // 3 transfers < MIN_ROLLUP
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let (r, stats) = rollup_loops(&p).unwrap();
        assert_eq!(stats.loops_created, 0);
        assert_eq!(r.len(), p.len());
    }

    #[test]
    fn programs_with_branches_left_untouched() {
        let p = assemble("ldc R0,4\nloop:\nmvtcr BANK1,O0,DMA64,FIFO0\ndjnz R0,loop\neop").unwrap();
        let (c, s1) = coalesce_transfers(&p).unwrap();
        let (r, s2) = rollup_loops(&p).unwrap();
        assert_eq!(c, p);
        assert_eq!(r, p);
        assert_eq!(s1.coalesced, 0);
        assert_eq!(s2.loops_created, 0);
    }

    #[test]
    fn optimize_pipeline_shrinks_figure4() {
        let p = assemble(FIGURE4_SOURCE).unwrap();
        let (o, stats) = optimize(&p).unwrap();
        assert!(o.len() <= 6, "got {} instructions", o.len());
        assert_eq!(stats.before, 18);
        assert_eq!(o.static_words_transferred(), 1024);
    }

    #[test]
    fn mixed_direction_runs_use_distinct_registers() {
        let p = ProgramBuilder::new()
            .transfer_to_coprocessor(1, 0, 256, 32, 0)
            .unwrap()
            .transfer_from_coprocessor(2, 0, 256, 32, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let (r, stats) = rollup_loops(&p).unwrap();
        assert_eq!(stats.loops_created, 2);
        // The two loops must not share a counter or offset register.
        let uses_reg = |idx: u8| {
            r.iter().any(|i| match i {
                Instruction::Mvtcr { reg, .. } => reg.value() == idx,
                _ => false,
            })
        };
        let uses_reg_from = |idx: u8| {
            r.iter().any(|i| match i {
                Instruction::Mvfcr { reg, .. } => reg.value() == idx,
                _ => false,
            })
        };
        assert!(uses_reg(0));
        assert!(uses_reg_from(1));
    }
}
