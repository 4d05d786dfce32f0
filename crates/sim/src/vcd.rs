//! Value Change Dump (VCD) output.
//!
//! Hardware engineers debug integration problems with waveforms; the
//! original Ouessant flow leaned on HDL simulation ("the result was
//! easy to simulate, using the OCP" — §V-B). [`VcdWriter`] gives this
//! behavioural simulator the same affordance: sample any signals per
//! cycle, then render an IEEE-1364 VCD file that GTKWave (or any
//! waveform viewer) opens directly.
//!
//! # Examples
//!
//! ```
//! use ouessant_sim::vcd::VcdWriter;
//! use ouessant_sim::Instant;
//!
//! let mut vcd = VcdWriter::new("ocp");
//! let state = vcd.add_signal("controller_state", 4);
//! let busy = vcd.add_signal("rac_busy", 1);
//! vcd.change(Instant::new(0), state, 0);
//! vcd.change(Instant::new(0), busy, 0);
//! vcd.change(Instant::new(5), state, 2);
//! vcd.change(Instant::new(7), busy, 1);
//! let text = vcd.render();
//! assert!(text.contains("$var wire 4"));
//! assert!(text.contains("#5"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::Instant;

/// One cycle of the paper's 50 MHz clock.
const TIMESCALE: &str = "20 ns";

/// Handle to a declared VCD signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(usize);

#[derive(Debug, Clone)]
struct SignalDef {
    name: String,
    width: u32,
}

/// Collects value changes and renders an IEEE-1364 VCD document.
///
/// Changes may be recorded out of order; rendering sorts by time. Only
/// actual transitions are emitted (recording the same value twice in a
/// row is deduplicated at render time), matching what an event-driven
/// simulator would dump.
#[derive(Debug, Clone)]
pub struct VcdWriter {
    module: String,
    signals: Vec<SignalDef>,
    /// cycle -> (signal, value), later recordings override earlier ones
    /// in the same cycle.
    changes: BTreeMap<u64, BTreeMap<usize, u64>>,
}

impl VcdWriter {
    /// A writer for signals grouped under `module`, with the paper's
    /// 50 MHz clock (one cycle = 20 ns).
    #[must_use]
    pub fn new(module: &str) -> Self {
        Self {
            module: module.to_string(),
            signals: Vec::new(),
            changes: BTreeMap::new(),
        }
    }

    /// Declares a signal of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn add_signal(&mut self, name: &str, width: u32) -> SignalId {
        assert!((1..=64).contains(&width), "signal width must be 1..=64");
        self.signals.push(SignalDef {
            name: name.to_string(),
            width,
        });
        SignalId(self.signals.len() - 1)
    }

    /// Number of declared signals.
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// Records `signal` taking `value` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` was not declared by this writer.
    pub fn change(&mut self, at: Instant, signal: SignalId, value: u64) {
        assert!(signal.0 < self.signals.len(), "unknown signal");
        self.changes
            .entry(at.count())
            .or_default()
            .insert(signal.0, value);
    }

    /// Short VCD identifier codes: `!`, `"`, …, printable ASCII.
    fn id_code(index: usize) -> String {
        let mut code = String::new();
        let mut i = index;
        loop {
            code.push(char::from(b'!' + u8::try_from(i % 94).expect("below 94")));
            i /= 94;
            if i == 0 {
                break;
            }
            i -= 1;
        }
        code
    }

    /// Renders the full VCD document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date");
        let _ = writeln!(out, "    ouessant behavioural simulation");
        let _ = writeln!(out, "$end");
        let _ = writeln!(out, "$version");
        let _ = writeln!(out, "    ouessant-sim VCD writer");
        let _ = writeln!(out, "$end");
        let _ = writeln!(out, "$timescale {TIMESCALE} $end");
        let _ = writeln!(out, "$scope module {} $end", self.module);
        for (i, s) in self.signals.iter().enumerate() {
            let _ = writeln!(
                out,
                "$var wire {} {} {} $end",
                s.width,
                Self::id_code(i),
                s.name
            );
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        let mut last: Vec<Option<u64>> = vec![None; self.signals.len()];
        for (&t, per_signal) in &self.changes {
            let mut emitted_time = false;
            for (&sig, &value) in per_signal {
                let masked = if self.signals[sig].width == 64 {
                    value
                } else {
                    value & ((1u64 << self.signals[sig].width) - 1)
                };
                if last[sig] == Some(masked) {
                    continue; // no transition
                }
                if !emitted_time {
                    let _ = writeln!(out, "#{t}");
                    emitted_time = true;
                }
                last[sig] = Some(masked);
                if self.signals[sig].width == 1 {
                    let _ = writeln!(out, "{}{}", masked & 1, Self::id_code(sig));
                } else {
                    let _ = writeln!(out, "b{masked:b} {}", Self::id_code(sig));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_declares_signals() {
        let mut vcd = VcdWriter::new("top");
        vcd.add_signal("clk", 1);
        vcd.add_signal("state", 4);
        let text = vcd.render();
        assert!(text.contains("$scope module top $end"));
        assert!(text.contains("$var wire 1 ! clk $end"));
        assert!(text.contains("$var wire 4 \" state $end"));
        assert!(text.contains("$timescale 20 ns $end"));
    }

    #[test]
    fn scalar_and_vector_changes() {
        let mut vcd = VcdWriter::new("top");
        let clk = vcd.add_signal("clk", 1);
        let bus = vcd.add_signal("bus", 8);
        vcd.change(Instant::new(0), clk, 1);
        vcd.change(Instant::new(0), bus, 0xA5);
        vcd.change(Instant::new(3), clk, 0);
        let text = vcd.render();
        assert!(text.contains("#0\n"));
        assert!(text.contains("1!"));
        assert!(text.contains("b10100101 \""));
        assert!(text.contains("#3\n0!"));
    }

    #[test]
    fn repeated_values_deduplicated() {
        let mut vcd = VcdWriter::new("top");
        let s = vcd.add_signal("s", 1);
        for t in 0..10 {
            vcd.change(Instant::new(t), s, 1); // never transitions after t=0
        }
        let text = vcd.render();
        assert_eq!(
            text.matches("1!").count(),
            1,
            "only one transition:\n{text}"
        );
        assert!(!text.contains("#5"), "quiet cycles emit no timestamps");
    }

    #[test]
    fn out_of_order_recording_sorts() {
        let mut vcd = VcdWriter::new("top");
        let s = vcd.add_signal("s", 4);
        vcd.change(Instant::new(20), s, 2);
        vcd.change(Instant::new(5), s, 1);
        let text = vcd.render();
        let p5 = text.find("#5").expect("timestamp 5 present");
        let p20 = text.find("#20").expect("timestamp 20 present");
        assert!(p5 < p20);
    }

    #[test]
    fn values_masked_to_width() {
        let mut vcd = VcdWriter::new("top");
        let s = vcd.add_signal("s", 4);
        vcd.change(Instant::new(0), s, 0xFF);
        let text = vcd.render();
        assert!(text.contains("b1111 "), "masked to 4 bits:\n{text}");
    }

    #[test]
    fn id_codes_are_unique_across_many_signals() {
        let mut vcd = VcdWriter::new("top");
        for i in 0..200 {
            vcd.add_signal(&format!("s{i}"), 1);
        }
        let mut codes: Vec<String> = (0..200).map(VcdWriter::id_code).collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), 200);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let mut vcd = VcdWriter::new("top");
        vcd.add_signal("bad", 0);
    }

    #[test]
    #[should_panic(expected = "unknown signal")]
    fn foreign_signal_panics() {
        let mut a = VcdWriter::new("a");
        let mut b = VcdWriter::new("b");
        let sig = a.add_signal("s", 1);
        let _ = &mut b;
        b.change(Instant::new(0), sig, 1);
    }
}
