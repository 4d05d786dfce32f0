//! A streaming FIR filter RAC.
//!
//! Not part of the paper's evaluation, but exactly the kind of "dedicated
//! configuration FIFO" accelerator §III-B anticipates: the filter taps
//! arrive on a second input FIFO (`FIFO1`) before samples stream through
//! `FIFO0`. It demonstrates the multi-FIFO side of the RAC contract and
//! gives the integration tests a second streaming accelerator.

use std::collections::VecDeque;

use crate::fixed::{q15_mul, sat32};
use crate::rac::{Rac, RacIo};

/// Maximum number of taps the configuration FIFO accepts.
pub const MAX_TAPS: usize = 64;

/// A streaming Q15 FIR filter with a configuration FIFO for its taps.
///
/// Protocol: push the tap count-tagged start (`start(op)` where `op` is
/// the number of *samples* to filter), with the taps already loaded into
/// input FIFO 1 (one Q15 tap per word, terminated by the `start`). Output
/// is one filtered sample per input sample (zero-padded warm-up).
///
/// # Examples
///
/// ```
/// use ouessant_rac::fir::FirRac;
/// use ouessant_rac::rac::RacSocket;
/// use ouessant_rac::fixed::Q15_ONE;
///
/// let mut s = RacSocket::new(Box::new(FirRac::new()), 256);
/// // Identity filter: single unity tap on the configuration FIFO.
/// s.push_input(1, Q15_ONE as u32)?;
/// for v in [1000u32, 2000, 3000] {
///     s.push_input(0, v)?;
/// }
/// s.start(3);
/// s.run_until_done(10_000);
/// assert_eq!(s.pop_output(0)?, 1000);
/// # Ok::<(), ouessant_rac::rac::RacError>(())
/// ```
#[derive(Debug)]
pub struct FirRac {
    taps: Vec<i32>,
    delay_line: VecDeque<i32>,
    busy: bool,
    samples_left: usize,
    taps_loaded: bool,
}

impl FirRac {
    /// Creates an unconfigured FIR accelerator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            taps: Vec::new(),
            delay_line: VecDeque::new(),
            busy: false,
            samples_left: 0,
            taps_loaded: false,
        }
    }
}

impl Default for FirRac {
    fn default() -> Self {
        Self::new()
    }
}

impl Rac for FirRac {
    fn name(&self) -> &str {
        "fir"
    }

    fn num_input_fifos(&self) -> usize {
        2 // FIFO0 = samples, FIFO1 = tap configuration
    }

    fn reset(&mut self) {
        self.taps.clear();
        self.delay_line.clear();
        self.busy = false;
        self.samples_left = 0;
        self.taps_loaded = false;
    }

    fn start(&mut self, op: u16) {
        self.busy = true;
        self.samples_left = usize::from(op);
        self.taps_loaded = false;
        self.taps.clear();
        self.delay_line.clear();
    }

    fn busy(&self) -> bool {
        self.busy
    }

    fn tick(&mut self, io: &mut RacIo<'_>) {
        if !self.busy {
            return;
        }
        if !self.taps_loaded {
            // Drain the configuration FIFO completely, then start
            // filtering. One tap per cycle, like a hardware tap loader.
            if let Ok(w) = io.inputs[1].pop() {
                if self.taps.len() < MAX_TAPS {
                    self.taps.push(w as i32);
                }
                return;
            }
            if self.taps.is_empty() {
                // No taps at all: act as a mute filter with one zero tap.
                self.taps.push(0);
            }
            self.taps_loaded = true;
            self.delay_line = VecDeque::from(vec![0i32; self.taps.len()]);
            return;
        }
        if self.samples_left == 0 {
            self.busy = false;
            return;
        }
        if io.outputs[0].is_full() {
            return; // stall on back-pressure
        }
        if let Ok(w) = io.inputs[0].pop() {
            self.delay_line.pop_back();
            self.delay_line.push_front(w as i32);
            let mut acc: i64 = 0;
            for (tap, sample) in self.taps.iter().zip(self.delay_line.iter()) {
                acc += i64::from(q15_mul(*tap, *sample));
            }
            io.outputs[0]
                .push(sat32(acc) as u32)
                .expect("checked not full");
            self.samples_left -= 1;
            if self.samples_left == 0 {
                self.busy = false; // end_op
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Q15_ONE;
    use crate::rac::RacSocket;

    fn run_fir(taps: &[i32], samples: &[i32]) -> Vec<i32> {
        let mut s = RacSocket::new(Box::new(FirRac::new()), 1024);
        for &t in taps {
            s.push_input(1, t as u32).unwrap();
        }
        for &x in samples {
            s.push_input(0, x as u32).unwrap();
        }
        s.start(u16::try_from(samples.len()).expect("test sizes fit"));
        s.run_until_done(100_000);
        (0..samples.len())
            .map(|_| s.pop_output(0).unwrap() as i32)
            .collect()
    }

    #[test]
    fn identity_filter() {
        let out = run_fir(&[Q15_ONE], &[100, -200, 300]);
        assert_eq!(out, vec![100, -200, 300]);
    }

    #[test]
    fn two_tap_moving_average() {
        let half = Q15_ONE / 2;
        let out = run_fir(&[half, half], &[1000, 3000, 5000]);
        // y[0] = 500 (zero warm-up), y[1] = 2000, y[2] = 4000.
        assert_eq!(out, vec![500, 2000, 4000]);
    }

    #[test]
    fn delay_filter() {
        // Taps [0, 1]: pure one-sample delay.
        let out = run_fir(&[0, Q15_ONE], &[7, 8, 9]);
        assert_eq!(out, vec![0, 7, 8]);
    }

    #[test]
    fn no_taps_mutes() {
        let mut s = RacSocket::new(Box::new(FirRac::new()), 64);
        for &x in &[5i32, 6] {
            s.push_input(0, x as u32).unwrap();
        }
        s.start(2);
        s.run_until_done(10_000);
        assert_eq!(s.pop_output(0).unwrap(), 0);
        assert_eq!(s.pop_output(0).unwrap(), 0);
    }

    #[test]
    fn declares_two_input_fifos() {
        assert_eq!(FirRac::new().num_input_fifos(), 2);
        assert_eq!(FirRac::new().num_output_fifos(), 1);
    }

    #[test]
    fn back_pressure_stalls_without_loss() {
        let mut s = RacSocket::new(Box::new(FirRac::new()), 2);
        s.push_input(1, Q15_ONE as u32).unwrap();
        s.push_input(0, 1).unwrap();
        s.push_input(0, 2).unwrap();
        s.start(4);
        // Output FIFO of depth 2 fills; RAC must stall, not drop.
        for _ in 0..50 {
            s.tick();
        }
        assert!(s.busy());
        assert_eq!(s.pop_output(0).unwrap(), 1);
        assert_eq!(s.pop_output(0).unwrap(), 2);
        s.push_input(0, 3).unwrap();
        s.push_input(0, 4).unwrap();
        s.run_until_done(10_000);
        assert_eq!(s.pop_output(0).unwrap(), 3);
        assert_eq!(s.pop_output(0).unwrap(), 4);
    }
}
