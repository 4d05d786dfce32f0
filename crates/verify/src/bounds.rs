//! Bank-bounds, unmapped-bank and FIFO-capacity analysis.
//!
//! Two tiers. Tier A checks immediate-offset transfers (`mvtc`/`mvfc`)
//! statically over every CFG-reachable instruction: their footprint is
//! `offset + burst`, whatever the loop trip counts. Register-offset
//! transfers (`mvtcr`/`mvfcr`) depend on `ldo`/`addo`/post-increment
//! history, but the controller's counters and offset registers are
//! fully deterministic from reset, so Tier B iterates the shared
//! [`ControlState`] walk ([`Program::walk`], the definition the
//! controller FSM executes, bounded by [`WALK_BUDGET`]) and checks the
//! worst offset each transfer instruction ever issues. That makes the
//! bounds exact rather than widened.
//!
//! [`ControlState`]: ouessant_isa::control::ControlState

use std::collections::BTreeMap;

use ouessant_isa::control::WALK_BUDGET;
use ouessant_isa::{Program, Transfer, TransferOffset};

use crate::cfg::Cfg;
use crate::config::{BankModel, VerifyConfig};
use crate::diag::{DiagKind, Diagnostic, Severity};

fn overflow_diag(t: &Transfer, start: u32, capacity: u32) -> Diagnostic {
    let end = start + u32::from(t.burst.words());
    Diagnostic {
        severity: Severity::Error,
        kind: DiagKind::BankOverflow,
        index: t.index,
        message: format!(
            "transfer touches {} words {}..{} but the bank holds {} words",
            t.bank, start, end, capacity
        ),
        hint: format!("shrink the burst or start offset so offset+burst <= {capacity}"),
    }
}

fn unmapped_diag(t: &Transfer) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        kind: DiagKind::UnmappedBank,
        index: t.index,
        message: format!("transfer touches {} which is not mapped", t.bank),
        hint: "target a mapped bank (see the job memory map)".into(),
    }
}

/// Runs both tiers and returns the bounds diagnostics.
pub(crate) fn analyze(program: &Program, cfg: &Cfg, config: &VerifyConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Tier A: every reachable transfer, static facts only.
    for t in program.iter_transfers() {
        if !cfg.is_reachable(t.index) {
            continue;
        }
        if let Some(depth) = config.fifo_depth {
            let burst = u32::from(t.burst.words());
            if burst > depth {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    kind: DiagKind::BurstExceedsFifo,
                    index: t.index,
                    message: format!(
                        "burst of {burst} words exceeds the {depth}-word FIFO and can never complete"
                    ),
                    hint: format!("split the transfer into bursts of at most {depth} words"),
                });
            }
        }
        match (config.banks[t.bank.index()], t.start_offset()) {
            (BankModel::Unmapped, _) => out.push(unmapped_diag(&t)),
            (model, Some(start)) => {
                let capacity = model.capacity().expect("mapped banks have a capacity");
                if start + u32::from(t.burst.words()) > capacity {
                    out.push(overflow_diag(&t, start, capacity));
                }
            }
            // Register-offset transfers against a mapped bank are
            // handled by the concrete walk below.
            (_, None) => {}
        }
    }

    // Tier B: the concrete walk, for register-offset transfers.
    let has_register_transfers = program
        .iter_transfers()
        .any(|t| matches!(t.offset, TransferOffset::Register(_)));
    if has_register_transfers {
        out.extend(walk(program, config));
    }

    out
}

/// Walks the program's control skeleton from reset and checks the
/// worst start offset of every register-offset transfer.
fn walk(program: &Program, config: &VerifyConfig) -> Vec<Diagnostic> {
    // pc -> worst start offset seen across all iterations.
    let mut worst: BTreeMap<usize, u32> = BTreeMap::new();
    let mut walk = program.walk();
    for (pc, start) in walk.by_ref() {
        if let Some(start) = start {
            let w = worst.entry(pc).or_insert(start);
            *w = (*w).max(start);
        }
    }

    let mut out = Vec::new();
    for (index, start) in worst {
        let t = Transfer::from_instruction(index, &program[index])
            .expect("the walk resolves only transfers");
        match (config.banks[t.bank.index()], t.offset) {
            // Tier A already reported unmapped banks and immediate
            // offsets.
            (BankModel::Unmapped, _) | (_, TransferOffset::Immediate(_)) => {}
            (model, TransferOffset::Register(_)) => {
                let capacity = model.capacity().expect("mapped banks have a capacity");
                if start + u32::from(t.burst.words()) > capacity {
                    out.push(overflow_diag(&t, start, capacity));
                }
            }
        }
    }
    if let Some(pc) = walk.exhausted() {
        out.push(Diagnostic {
            severity: Severity::Warning,
            kind: DiagKind::AnalysisBudget,
            index: pc,
            message: format!(
                "bounds walk stopped after {WALK_BUDGET} instructions without reaching eop"
            ),
            hint: "the program may not terminate; check the loop counters".into(),
        });
    }
    out
}
