//! Control-flow graph over the extended Ouessant ISA.
//!
//! The only branch instruction is `djnz`, which either falls through
//! (counter exhausted) or jumps to its absolute target; `eop` and
//! `halt` terminate the program. The CFG is therefore one flat array of
//! successors, sliced per instruction by start indices, plus a
//! reachability bitmap computed from entry 0 — enough for the worklist
//! dataflow of the hazard checks and for dead-code reporting.

use ouessant_isa::{Instruction, Program};

use crate::diag::{DiagKind, Diagnostic, Severity};

/// The control-flow graph of one program.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Every instruction's successors, in program order.
    succs: Vec<usize>,
    /// Instruction `pc`'s successors are `succs[starts[pc]..starts[pc + 1]]`.
    starts: Vec<usize>,
    reachable: Vec<bool>,
}

impl Cfg {
    /// Builds the CFG and computes reachability from instruction 0.
    #[must_use]
    pub fn build(program: &Program) -> Self {
        let len = program.len();
        let mut succs = Vec::with_capacity(2 * len);
        let mut starts = Vec::with_capacity(len + 1);
        starts.push(0);
        for (pc, insn) in program.iter().enumerate() {
            // Every instruction but a terminator falls through; a
            // `djnz` falls through on an exhausted counter and
            // branches otherwise, and both edges exist statically.
            if !matches!(insn, Instruction::Eop | Instruction::Halt) && pc + 1 < len {
                succs.push(pc + 1);
            }
            if let Instruction::Djnz { target, .. } = insn {
                let t = target.index();
                if t < len && t != pc + 1 {
                    succs.push(t);
                }
            }
            starts.push(succs.len());
        }
        let mut cfg = Self {
            succs,
            starts,
            reachable: vec![false; len],
        };
        let mut stack = vec![0usize];
        while let Some(pc) = stack.pop() {
            if pc >= len || cfg.reachable[pc] {
                continue;
            }
            cfg.reachable[pc] = true;
            stack.extend_from_slice(cfg.successors(pc));
        }
        cfg
    }

    /// Successor program counters of `pc`.
    #[must_use]
    pub fn successors(&self, pc: usize) -> &[usize] {
        &self.succs[self.starts[pc]..self.starts[pc + 1]]
    }

    /// Whether any path from entry reaches `pc`.
    #[must_use]
    pub fn is_reachable(&self, pc: usize) -> bool {
        self.reachable.get(pc).copied().unwrap_or(false)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reachable.len()
    }

    /// Whether the program is empty (cannot happen for a validated
    /// [`Program`], but keeps clippy's `len`-without-`is_empty` happy).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reachable.is_empty()
    }

    /// Dead-code warnings: one per unreachable instruction.
    pub(crate) fn dead_code(&self, program: &Program) -> Vec<Diagnostic> {
        program
            .iter()
            .enumerate()
            .filter(|(pc, _)| !self.is_reachable(*pc))
            .map(|(pc, insn)| Diagnostic {
                severity: Severity::Warning,
                kind: DiagKind::DeadCode,
                index: pc,
                message: format!("unreachable instruction `{insn}`"),
                hint: "delete it, or fix the branch/terminator that skips it".into(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouessant_isa::assemble;

    #[test]
    fn straight_line_cfg() {
        let p = assemble("mvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop").unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.successors(0), &[1]);
        assert_eq!(cfg.successors(3), &[] as &[usize]);
        assert!((0..4).all(|pc| cfg.is_reachable(pc)));
        assert!(cfg.dead_code(&p).is_empty());
    }

    #[test]
    fn djnz_has_two_successors() {
        let p = assemble("ldc R0,4\nloop:\nmvtcr BANK1,O0,DMA64,FIFO0\ndjnz R0,loop\neop").unwrap();
        let cfg = Cfg::build(&p);
        let mut s = cfg.successors(2).to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![1, 3]);
    }

    #[test]
    fn code_after_halt_is_dead() {
        let p = assemble("halt\nmvtc BANK1,0,DMA8,FIFO0\neop").unwrap();
        let cfg = Cfg::build(&p);
        assert!(cfg.is_reachable(0));
        assert!(!cfg.is_reachable(1));
        assert!(!cfg.is_reachable(2), "the eop itself is unreachable");
        let dead = cfg.dead_code(&p);
        assert_eq!(dead.len(), 2);
        assert!(dead.iter().all(|d| d.kind == DiagKind::DeadCode));
    }
}
