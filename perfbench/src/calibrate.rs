//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent within a minute, so the same build timed twice can differ
//! by more than any bound worth setting. Each timed unit is therefore
//! bracketed by a short fixed loop, and host time is converted to
//! *nominal* time: wall time × s^[`SENSITIVITY`], where s is the loop's
//! speed now relative to [`NOMINAL_SPEED`]. On a host running at the
//! nominal speed the two are equal; when the host is slowed, the loop
//! slows too and the unit is charged less. The loop is part of the
//! benchmark, not of the program, so a change to the program moves
//! nominal time exactly as it moves wall time.

use std::time::Instant;

/// Iterations per second the loop makes on the host the bounds in
/// `BENCHMARK.json` were set on (2-vCPU Intel Xeon at 2.0 GHz).
pub const NOMINAL_SPEED: f64 = 150e6;

/// How much faster the simulator runs when the loop runs faster: the
/// log-log slope of simulator throughput against loop speed measured
/// on that host was 1.8–1.9 on `mixed-backlog` and `paper-repro` while
/// neighbours loaded it (and under 1 while it was quiet).
pub const SENSITIVITY: i32 = 2;

/// Iterations of one calibration: about 2 ms at the nominal speed.
const ITERATIONS: u64 = 300_000;

/// The calibration loop and its working set (512 KiB, kept between
/// calls so no call pays for page faults).
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    /// A calibrator with its working set allocated.
    #[must_use]
    pub fn new() -> Self {
        Self {
            table: vec![0; 1 << 16],
        }
    }

    /// The loop's speed relative to [`NOMINAL_SPEED`]: 1.0 on a host
    /// running at the nominal speed. The loop runs twice and only the
    /// second run is timed, so the speed does not depend on what the
    /// caller left in the caches.
    pub fn speed(&mut self) -> f64 {
        self.run();
        let start = Instant::now();
        self.run();
        ITERATIONS as f64 / start.elapsed().as_secs_f64() / NOMINAL_SPEED
    }

    fn run(&mut self) {
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & mask];
            if x & 3 == 0 {
                *slot = slot.wrapping_add(i);
            } else {
                *slot ^= x >> 9;
            }
        }
        std::hint::black_box(&self.table);
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}
