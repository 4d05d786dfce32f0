//! Exact golden for the paper reproduction: every simulated cycle count
//! behind Table I, §V-B, ablations A1–A6, the resource estimates and
//! the Figure 4 optimiser result.
//!
//! The report from `ouessant_repro::report::paper_report` must equal
//! `tests/golden/paper.txt` byte for byte. Only a change that means to
//! move the paper's numbers may regenerate it, by running
//!
//! ```text
//! OUESSANT_BLESS_GOLDEN=1 cargo test --test golden_paper
//! ```
//!
//! and recording the regeneration in CHANGES.md.

use std::path::Path;

const GOLDEN: &str = "tests/golden/paper.txt";

#[test]
fn paper_report_matches_golden() {
    let report = ouessant_repro::report::paper_report().expect("every experiment runs");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("OUESSANT_BLESS_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &report).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden present");
    if report != golden {
        let first = report
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| report.lines().count().min(golden.lines().count()));
        panic!(
            "paper report diverged from {GOLDEN} at line {}:\n  got:    {:?}\n  golden: {:?}",
            first + 1,
            report.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}
