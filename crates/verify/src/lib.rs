//! # Ouessant static microcode analyzer
//!
//! The Ouessant controller executes user-supplied microcode with no
//! runtime safety net: a `mvtc` burst that overruns its bank silently
//! corrupts a neighbour's data, an `execn` that is never joined hangs
//! or races the next job, and an output-FIFO `mvfc` with no producer
//! deadlocks the DMA. This crate is the *checked contract* at that
//! boundary — a static analysis over [`ouessant_isa::Program`] that
//! the `ouas` assembler, the SoC driver (before program load) and the
//! farm's job admission all run.
//!
//! ## Analyses
//!
//! [`verify`] builds a control-flow graph over the extended ISA
//! (hardware loops via `ldc`/`djnz`, split launch/join via
//! `execn`/`wrac`) and reports four defect classes as structured
//! [`Diagnostic`]s:
//!
//! 1. **Bank bounds** — every transfer checked against the declared
//!    [`VerifyConfig`] bank sizes: an immediate offset as `offset +
//!    burst`, a register offset at the worst offset the shared
//!    [`ControlState`] walk from reset ([`Program::walk`]) issues —
//!    the controller executes the same definition, so the bound is
//!    exact, not widened;
//! 2. **Launch/join hazards** — double launch, `wrac` with nothing
//!    pending, `execn` never joined before `eop`;
//! 3. **DMA/accelerator races** — transfers touching a bank that
//!    feeds a still-un-joined launch;
//! 4. **FIFO discipline** — output reads with no producer on any
//!    path, launches with nothing fed, unreachable `eop`/dead code.
//!
//! Severity follows path certainty: a hazard on **every** path is an
//! error, on *some* path a warning. A blocking output drain counts as
//! an implicit join, so the software-pipelined overlap idiom
//! (`mvtcr`/`execn`/`mvfcr`/`djnz` with no `wrac`) stays
//! warning-only.
//!
//! [`ControlState`]: ouessant_isa::control::ControlState
//!
//! ## Example
//!
//! ```
//! use ouessant_isa::assemble;
//! use ouessant_verify::{verify, VerifyConfig};
//!
//! // 16256 + 256 words overruns the 16384-word bank window.
//! let bad = assemble("mvtc BANK1,16256,DMA256,FIFO0\nexecs\neop")?;
//! let analysis = verify(&bad, &VerifyConfig::default());
//! assert!(analysis.has_errors());
//!
//! let good = assemble("mvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop")?;
//! assert!(verify(&good, &VerifyConfig::default()).is_clean());
//! # Ok::<(), ouessant_isa::AssembleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Narrowing casts must be proven in range (`try_from`, or a local
// allow that says why); test code is exempt.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod cfg;
pub mod config;
pub mod diag;

mod bounds;
mod hazards;

pub use cfg::Cfg;
pub use config::{BankModel, VerifyConfig};
pub use diag::{Analysis, DiagKind, Diagnostic, Severity};

use ouessant_isa::Program;

/// Runs all analyses over `program` under `config`.
#[must_use]
pub fn verify(program: &Program, config: &VerifyConfig) -> Analysis {
    let cfg = Cfg::build(program);
    let mut diagnostics = cfg.dead_code(program);
    diagnostics.extend(hazards::analyze(program, &cfg));
    diagnostics.extend(bounds::analyze(program, &cfg, config));
    Analysis::new(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouessant_isa::{assemble, FIGURE4_SOURCE};

    fn run(src: &str) -> Analysis {
        verify(&assemble(src).unwrap(), &VerifyConfig::default())
    }

    fn kinds(a: &Analysis) -> Vec<DiagKind> {
        a.diagnostics().iter().map(|d| d.kind).collect()
    }

    // ── known-good programs ──────────────────────────────────────────

    #[test]
    fn figure4_is_clean() {
        let a = run(FIGURE4_SOURCE);
        assert!(a.is_clean(), "{a}");
    }

    #[test]
    fn split_launch_join_is_clean() {
        let a = run("mvtc BANK1,0,DMA64,FIFO0\nexecn 1\nwrac\nmvfc BANK2,0,DMA64,FIFO0\neop");
        assert!(a.is_clean(), "{a}");
    }

    #[test]
    fn rolled_loop_is_clean() {
        // The rollup_loops output shape: ldo/ldc/mvtcr/djnz per stream.
        let a = run(
            "ldo O0,0\nldc R0,8\nin: mvtcr BANK1,O0,DMA64,FIFO0\ndjnz R0,in\n\
             execs\n\
             ldo O1,0\nldc R1,8\nout: mvfcr BANK2,O1,DMA64,FIFO0\ndjnz R1,out\n\
             eop",
        );
        assert!(a.is_clean(), "{a}");
    }

    #[test]
    fn overlap_idiom_warns_but_never_errors() {
        // The software-pipelined idiom from the AXI portability test:
        // no wrac anywhere; the blocking mvfcr is the implicit join.
        let a = run("ldc R0,8\nldo O0,0\nldo O1,0\n\
             loop: mvtcr BANK1,O0,DMA16,FIFO0\nexecn 16\nmvfcr BANK2,O1,DMA16,FIFO0\n\
             djnz R0,loop\neop");
        assert_eq!(a.error_count(), 0, "{a}");
        assert!(a.warning_count() > 0, "overlap is still worth flagging");
    }

    // ── defect class 1: bank bounds ──────────────────────────────────

    #[test]
    fn immediate_burst_overflow_is_an_error() {
        let a = run("mvtc BANK1,16256,DMA256,FIFO0\nexecs\neop");
        assert!(kinds(&a).contains(&DiagKind::BankOverflow), "{a}");
        assert!(a.has_errors());
        assert_eq!(a.diagnostics()[0].index, 0);
    }

    #[test]
    fn loop_trip_count_overflow_is_caught() {
        // 8 iterations x DMA64 starting at 16001: the 6th burst spans
        // 16321..16385, past the 16384-word window — only the concrete
        // walk can see this.
        let a = run(
            "ldo O0,16001\nldc R0,8\nloop: mvtcr BANK1,O0,DMA64,FIFO0\ndjnz R0,loop\n\
             execs\nmvfc BANK2,0,DMA64,FIFO0\neop",
        );
        let overflow: Vec<_> = a
            .diagnostics()
            .iter()
            .filter(|d| d.kind == DiagKind::BankOverflow)
            .collect();
        assert_eq!(overflow.len(), 1, "{a}");
        assert_eq!(overflow[0].index, 2);
        assert_eq!(overflow[0].severity, Severity::Error);
    }

    #[test]
    fn in_bounds_loop_is_clean() {
        let a = run(
            "ldo O0,15872\nldc R0,8\nloop: mvtcr BANK1,O0,DMA64,FIFO0\ndjnz R0,loop\n\
             execs\nmvfc BANK2,0,DMA64,FIFO0\neop",
        );
        // 15872 + 8*64 = 16384 exactly: fits.
        assert!(a.is_clean(), "{a}");
    }

    #[test]
    fn bounds_walk_past_its_budget_warns_once_where_it_stopped() {
        // 16383 x 16383 inner passes run far past the walk's budget.
        let a = run("ldc R0,16383\nouter: ldc R1,16383\n\
             inner: mvtcr BANK1,O0,DMA1,FIFO0\naddo O0,-1\ndjnz R1,inner\ndjnz R0,outer\n\
             execs\nmvfc BANK2,0,DMA1,FIFO0\neop");
        let budget: Vec<_> = a
            .diagnostics()
            .iter()
            .filter(|d| d.kind == DiagKind::AnalysisBudget)
            .collect();
        assert_eq!(budget.len(), 1, "{a}");
        assert_eq!(budget[0].severity, Severity::Warning);
        // After `ldc R0`, each outer pass executes 1 + 3 * 16383 + 1 =
        // 49151 instructions. Instruction 2 000 000 is number
        // 1 999 999 - 40 * 49151 = 33959 of the 41st pass: its
        // `ldc R1`, 11319 inner triples, then the `addo` at pc 3.
        assert_eq!(budget[0].index, 3);
        assert_eq!(a.error_count(), 0, "{a}");
    }

    #[test]
    fn declared_small_bank_tightens_the_check() {
        let p = assemble("mvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop").unwrap();
        let cfg = VerifyConfig::job_map(1024, 32, 64);
        let a = verify(&p, &cfg);
        assert!(kinds(&a).contains(&DiagKind::BankOverflow), "{a}");
    }

    #[test]
    fn unmapped_bank_is_an_error() {
        let p = assemble("mvtc BANK5,0,DMA8,FIFO0\nexecs\nmvfc BANK2,0,DMA8,FIFO0\neop").unwrap();
        let a = verify(&p, &VerifyConfig::job_map(1024, 1024, 1024));
        assert!(kinds(&a).contains(&DiagKind::UnmappedBank), "{a}");
    }

    #[test]
    fn burst_wider_than_fifo_is_an_error() {
        let p = assemble("mvtc BANK1,0,DMA256,FIFO0\nexecs\neop").unwrap();
        let a = verify(&p, &VerifyConfig::default().with_fifo_depth(64));
        assert!(kinds(&a).contains(&DiagKind::BurstExceedsFifo), "{a}");
        assert!(a.has_errors());
    }

    // ── defect class 2: launch/join hazards ──────────────────────────

    #[test]
    fn unjoined_execn_at_eop_is_an_error() {
        let a = run("mvtc BANK1,0,DMA64,FIFO0\nexecn 1\neop");
        assert!(kinds(&a).contains(&DiagKind::UnjoinedLaunch), "{a}");
        assert!(a.has_errors());
    }

    #[test]
    fn double_launch_is_an_error() {
        let a = run("mvtc BANK1,0,DMA8,FIFO0\nexecn 1\nexecn 2\nwrac\neop");
        assert!(kinds(&a).contains(&DiagKind::DoubleLaunch), "{a}");
        assert!(a.has_errors());
    }

    #[test]
    fn wrac_without_launch_is_an_error() {
        let a = run("wrac\neop");
        assert!(kinds(&a).contains(&DiagKind::SpuriousJoin), "{a}");
        assert!(a.has_errors());
    }

    // ── defect class 3: DMA/accelerator races ────────────────────────

    #[test]
    fn overwriting_the_launch_input_bank_is_an_error() {
        let a = run("mvtc BANK1,0,DMA64,FIFO0\nexecn 1\nmvfc BANK1,0,DMA64,FIFO0\nwrac\neop");
        let race: Vec<_> = a
            .diagnostics()
            .iter()
            .filter(|d| d.kind == DiagKind::RacingTransfer)
            .collect();
        assert_eq!(race.len(), 1, "{a}");
        assert_eq!(race[0].severity, Severity::Error);
        assert_eq!(race[0].index, 2);
    }

    #[test]
    fn draining_to_a_different_bank_is_not_a_race() {
        let a = run("mvtc BANK1,0,DMA64,FIFO0\nexecn 1\nmvfc BANK2,0,DMA64,FIFO0\neop");
        assert!(
            !kinds(&a).contains(&DiagKind::RacingTransfer),
            "the implicit-join drain targets another bank: {a}"
        );
        assert_eq!(a.error_count(), 0, "{a}");
    }

    #[test]
    fn reconfig_during_pending_launch_is_an_error() {
        let a = run("mvtc BANK1,0,DMA8,FIFO0\nexecn 1\nrcfg 2\nwrac\neop");
        assert!(kinds(&a).contains(&DiagKind::RacingReconfig), "{a}");
        assert!(a.has_errors());
    }

    // ── defect class 4: FIFO discipline ──────────────────────────────

    #[test]
    fn output_read_with_no_launch_is_an_error() {
        let a = run("mvfc BANK2,0,DMA64,FIFO0\neop");
        assert!(kinds(&a).contains(&DiagKind::ReadBeforeExec), "{a}");
        assert!(a.has_errors());
    }

    #[test]
    fn launch_with_no_input_is_a_warning() {
        let a = run("execs\nmvfc BANK2,0,DMA8,FIFO0\neop");
        let diags = kinds(&a);
        assert!(diags.contains(&DiagKind::ExecWithoutInput), "{a}");
        assert_eq!(a.error_count(), 0, "only a warning: {a}");
    }

    #[test]
    fn unreachable_eop_is_dead_code() {
        let a = run("mvtc BANK1,0,DMA8,FIFO0\nexecs\nhalt\nmvfc BANK2,0,DMA8,FIFO0\neop");
        let dead: Vec<_> = a
            .diagnostics()
            .iter()
            .filter(|d| d.kind == DiagKind::DeadCode)
            .collect();
        assert_eq!(dead.len(), 2, "{a}");
        assert_eq!(dead[1].index, 4, "the eop itself");
    }

    // ── severity & robustness ────────────────────────────────────────

    #[test]
    fn rcfg_headed_job_program_is_clean() {
        // The farm's DPR job shape: reconfigure, stream, execute, drain.
        let a = run("rcfg 1\nmvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop");
        assert!(a.is_clean(), "{a}");
    }

    #[test]
    fn diagnostics_carry_hints_and_indices() {
        let a = run("mvtc BANK1,16256,DMA256,FIFO0\nexecs\neop");
        let d = &a.diagnostics()[0];
        assert!(!d.hint.is_empty());
        assert!(d.message.contains("BANK1"));
    }
}
