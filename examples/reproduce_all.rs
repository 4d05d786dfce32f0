//! Regenerates the complete paper evaluation in one run — every table,
//! figure-derived artifact, in-text number and ablation — as a markdown
//! report on stdout (the source of EXPERIMENTS.md's measured column).
//! The same report is pinned byte for byte by `tests/golden/paper.txt`.
//!
//! ```text
//! cargo run --release --example reproduce_all
//! ```

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", ouessant_repro::report::paper_report()?);
    Ok(())
}
