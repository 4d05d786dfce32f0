//! Utility RACs: identity/scaling pipes and the Figure 2 width-adapting
//! harness.
//!
//! These accelerators carry no paper result by themselves, but they make
//! the integration machinery testable in isolation (a passthrough RAC
//! turns an OCP into a memory-to-memory DMA, which is how transfer
//! efficiency is measured) and reproduce the serializing/deserializing
//! FIFO arrangement of Figure 2.

use ouessant_sim::fifo::{SyncFifo, WidthAdapter};
use ouessant_sim::{Cycle, Horizon};

use crate::rac::{Outlook, Rac, RacIo};

/// A streaming RAC that forwards each input word to the output after a
/// configurable pipeline delay, optionally multiplying it.
///
/// With `scale == 1` this is an identity pipe: running it under an OCP
/// measures pure integration overhead (no compute), which is the setup
/// behind the paper's ≈1.5 cycles/word transfer analysis.
///
/// Processing model: on `start(op)`, the RAC consumes exactly `op` words
/// (or all currently buffered words if `op == 0`), emitting each after
/// `delay` cycles, then raises `end_op`.
#[derive(Debug)]
pub struct PassthroughRac {
    name: String,
    scale: u32,
    delay: u64,
    busy: bool,
    to_consume: usize,
    /// (ready_at_tick, value) queue.
    in_flight: std::collections::VecDeque<(u64, u32)>,
    /// Busy ticks since reset, the clock in-flight deadlines are set
    /// against (words are in flight only while busy).
    tick_count: u64,
}

impl PassthroughRac {
    /// An identity pipe with `delay` cycles of pipeline latency.
    #[must_use]
    pub fn new(delay: u64) -> Self {
        Self::scaling(1, delay)
    }

    /// A pipe multiplying every word by `scale` (wrapping), with
    /// `delay` cycles of latency.
    #[must_use]
    pub fn scaling(scale: u32, delay: u64) -> Self {
        Self {
            name: if scale == 1 {
                "passthrough".to_string()
            } else {
                format!("scale_x{scale}")
            },
            scale,
            delay,
            busy: false,
            to_consume: 0,
            in_flight: std::collections::VecDeque::new(),
            tick_count: 0,
        }
    }
}

impl Rac for PassthroughRac {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self) {
        self.busy = false;
        self.to_consume = 0;
        self.in_flight.clear();
        self.tick_count = 0;
    }

    fn start(&mut self, op: u16) {
        self.busy = true;
        self.to_consume = usize::from(op); // 0 = drain what is buffered
    }

    fn busy(&self) -> bool {
        self.busy
    }

    fn tick(&mut self, io: &mut RacIo<'_>) {
        if !self.busy {
            return;
        }
        self.tick_count += 1;
        // Consume one word per cycle.
        if self.to_consume > 0 || !io.inputs[0].is_empty() {
            if let Ok(w) = io.inputs[0].pop() {
                self.in_flight
                    .push_back((self.tick_count + self.delay, w.wrapping_mul(self.scale)));
                self.to_consume = self.to_consume.saturating_sub(1);
            }
        }
        // Emit words whose delay has elapsed.
        while let Some(&(ready, w)) = self.in_flight.front() {
            if ready <= self.tick_count && !io.outputs[0].is_full() {
                io.outputs[0].push(w).expect("checked not full");
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
        if self.to_consume == 0 && io.inputs[0].is_empty() && self.in_flight.is_empty() {
            self.busy = false; // end_op
        }
    }

    /// Closed form for the zero-delay steady state (no word in flight):
    /// each tick moves one waiting input word to the output. With `L`
    /// words waiting and `S` words of output space, the first
    /// `min(L, S)` ticks are pure moves; the event is the tick that
    /// takes the last waiting word (and may raise `end_op`) or the
    /// first one that finds the output full. A pipeline delay, a word
    /// in flight or an empty input single-steps.
    fn outlook(&self, inputs: &[SyncFifo<u32>], outputs: &[SyncFifo<u32>]) -> Outlook {
        if !self.busy {
            return Horizon::QUIESCENT.into();
        }
        self.stream_outlook(inputs[0].len(), self.to_consume, outputs)
    }

    /// An idle pipe has nothing in flight, so a start streams at once.
    fn outlook_after_start(
        &self,
        op: u16,
        landed: usize,
        inputs: &[SyncFifo<u32>],
        outputs: &[SyncFifo<u32>],
    ) -> Outlook {
        self.stream_outlook(inputs[0].len() + landed, usize::from(op), outputs)
    }

    fn advance(&mut self, cycles: Cycle, io: &mut RacIo<'_>) {
        if !self.busy {
            return; // idle ticks are no-ops
        }
        let n = cycles.count();
        let words = usize::try_from(n).expect("the horizon counted at most the waiting words");
        let scale = self.scale;
        io.inputs[0]
            .move_into(words, &mut io.outputs[0], |w| w.wrapping_mul(scale))
            .expect("horizon counted the waiting words and the output space");
        self.tick_count += n;
        self.to_consume = self.to_consume.saturating_sub(words);
    }
}

impl PassthroughRac {
    /// The outlook of a busy pipe with `waiting` input words and
    /// `to_consume` words still owed: the zero-delay closed form, whose
    /// event ends the operation when it takes the last waiting word with
    /// no word owed past it and every word finding output space (the
    /// next tick ends it with none waiting and none owed), having moved
    /// those words; a delay or a word in flight answers the next tick,
    /// not telling.
    fn stream_outlook(
        &self,
        waiting: usize,
        to_consume: usize,
        outputs: &[SyncFifo<u32>],
    ) -> Outlook {
        if self.delay > 0 || !self.in_flight.is_empty() {
            return Horizon::NEXT_TICK.into();
        }
        let space = outputs[0].space();
        let fits = waiting <= space && to_consume <= waiting;
        Outlook {
            horizon: Horizon::after(waiting.saturating_sub(1).min(space) as u64),
            ends: (fits && (waiting > 0 || to_consume == 0)).then_some(waiting),
        }
    }
}

/// A RAC whose core consumes and produces *wide* operands through the
/// serializing/deserializing FIFOs of the paper's Figure 2.
///
/// The controller-facing FIFOs stay 32 bits; internally a
/// [`WidthAdapter`] deserializes `in_width`-bit operands for the core
/// function and a second adapter serializes the `out_width`-bit results
/// back. With `in_width = out_width = 96` this is exactly the paper's
/// figure.
///
/// # Examples
///
/// ```
/// use ouessant_rac::passthrough::WideFunctionRac;
/// use ouessant_rac::rac::RacSocket;
///
/// // A 96-bit core that swaps the two outer 32-bit lanes.
/// let rac = WideFunctionRac::new("lane_swap", 96, 96, 3, |v| {
///     let lo = v & 0xFFFF_FFFF;
///     let mid = (v >> 32) & 0xFFFF_FFFF;
///     let hi = (v >> 64) & 0xFFFF_FFFF;
///     (lo << 64) | (mid << 32) | hi
/// });
/// let mut s = RacSocket::new(Box::new(rac), 64);
/// for w in [1u32, 2, 3] {
///     s.push_input(0, w)?;
/// }
/// s.start(1); // one 96-bit operand
/// s.run_until_done(1_000);
/// assert_eq!(s.pop_output(0)?, 3);
/// assert_eq!(s.pop_output(0)?, 2);
/// assert_eq!(s.pop_output(0)?, 1);
/// # Ok::<(), ouessant_rac::rac::RacError>(())
/// ```
pub struct WideFunctionRac {
    name: String,
    deserializer: WidthAdapter,
    serializer: WidthAdapter,
    core: Box<dyn FnMut(u128) -> u128>,
    latency: u64,
    busy: bool,
    operands_left: usize,
    compute_wait: u64,
}

impl std::fmt::Debug for WideFunctionRac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WideFunctionRac")
            .field("name", &self.name)
            .field("in_width", &self.deserializer.out_width())
            .field("out_width", &self.serializer.in_width())
            .finish()
    }
}

impl WideFunctionRac {
    /// Builds a wide-operand RAC around `core`.
    ///
    /// `latency` is charged per operand. The `start` operation tag gives
    /// the number of operands to process.
    ///
    /// # Panics
    ///
    /// Panics if a width is outside `1..=128` (see [`WidthAdapter`]).
    #[must_use]
    pub fn new(
        name: &str,
        in_width: u32,
        out_width: u32,
        latency: u64,
        core: impl FnMut(u128) -> u128 + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            deserializer: WidthAdapter::new(&format!("{name}.des"), 32, in_width, 4096),
            serializer: WidthAdapter::new(&format!("{name}.ser"), out_width, 32, 4096),
            core: Box::new(core),
            latency,
            busy: false,
            operands_left: 0,
            compute_wait: 0,
        }
    }
}

impl Rac for WideFunctionRac {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self) {
        self.deserializer.clear();
        self.serializer.clear();
        self.busy = false;
        self.operands_left = 0;
        self.compute_wait = 0;
    }

    fn start(&mut self, op: u16) {
        self.busy = true;
        self.operands_left = usize::from(op).max(1);
        self.compute_wait = 0;
    }

    fn busy(&self) -> bool {
        self.busy
    }

    fn tick(&mut self, io: &mut RacIo<'_>) {
        if !self.busy {
            return;
        }
        // Move bus words into the deserializer (one per cycle, like the
        // FIFO control block of Figure 2).
        if !self.deserializer.is_full() {
            if let Ok(w) = io.inputs[0].pop() {
                self.deserializer
                    .push(u128::from(w))
                    .expect("checked not full");
            }
        }
        // Latency countdown per operand.
        if self.compute_wait > 0 {
            self.compute_wait -= 1;
            return;
        }
        // Process one wide operand when available.
        if self.operands_left > 0 {
            if let Some(operand) = self.deserializer.pop() {
                let result = (self.core)(operand);
                self.serializer.push(result).expect("serializer sized");
                self.operands_left -= 1;
                self.compute_wait = self.latency;
            }
        }
        // Drain serializer into the 32-bit output FIFO.
        while self.serializer.has_output() && !io.outputs[0].is_full() {
            let w = self.serializer.pop().expect("has_output checked");
            let w = u32::try_from(w).expect("the serializer emits 32-bit words");
            io.outputs[0].push(w).expect("checked not full");
        }
        if self.operands_left == 0 && !self.serializer.has_output() {
            self.busy = false; // end_op
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rac::RacSocket;

    #[test]
    fn passthrough_is_identity() {
        let mut s = RacSocket::new(Box::new(PassthroughRac::new(0)), 64);
        for w in 0..16u32 {
            s.push_input(0, w).unwrap();
        }
        s.start(16);
        s.run_until_done(1000);
        for w in 0..16u32 {
            assert_eq!(s.pop_output(0).unwrap(), w);
        }
    }

    #[test]
    fn scaling_multiplies() {
        let mut s = RacSocket::new(Box::new(PassthroughRac::scaling(3, 0)), 64);
        for w in [5u32, 7] {
            s.push_input(0, w).unwrap();
        }
        s.start(2);
        s.run_until_done(1000);
        assert_eq!(s.pop_output(0).unwrap(), 15);
        assert_eq!(s.pop_output(0).unwrap(), 21);
    }

    #[test]
    fn delay_adds_cycles() {
        let mut fast = RacSocket::new(Box::new(PassthroughRac::new(0)), 64);
        let mut slow = RacSocket::new(Box::new(PassthroughRac::new(20)), 64);
        for s in [&mut fast, &mut slow] {
            for w in 0..8u32 {
                s.push_input(0, w).unwrap();
            }
            s.start(8);
        }
        let fast_cycles = fast.run_until_done(10_000);
        let slow_cycles = slow.run_until_done(10_000);
        assert!(slow_cycles >= fast_cycles + 20);
    }

    #[test]
    fn passthrough_throughput_is_one_word_per_cycle() {
        let n = 100u32;
        let mut s = RacSocket::new(Box::new(PassthroughRac::new(0)), 256);
        for w in 0..n {
            s.push_input(0, w).unwrap();
        }
        s.start(n as u16);
        let cycles = s.run_until_done(10_000);
        // One pop per cycle plus end detection slack.
        assert!(
            cycles >= u64::from(n) && cycles <= u64::from(n) + 3,
            "{cycles}"
        );
    }

    #[test]
    fn figure2_widths_round_trip() {
        // 96-bit identity core: the output words equal the input words.
        let rac = WideFunctionRac::new("id96", 96, 96, 0, |v| v);
        let mut s = RacSocket::new(Box::new(rac), 64);
        let words = [
            0x1111_1111u32,
            0x2222_2222,
            0x3333_3333,
            0x4444_4444,
            0x5555_5555,
            0x6666_6666,
        ];
        for &w in &words {
            s.push_input(0, w).unwrap();
        }
        s.start(2); // two 96-bit operands
        s.run_until_done(1000);
        for &w in &words {
            assert_eq!(s.pop_output(0).unwrap(), w);
        }
    }

    #[test]
    fn wide_function_applies_core() {
        // 64-bit adder core: adds the two 32-bit lanes, result 32 bits.
        let rac = WideFunctionRac::new("add64", 64, 32, 1, |v| {
            u128::from((v as u32).wrapping_add((v >> 32) as u32))
        });
        let mut s = RacSocket::new(Box::new(rac), 64);
        s.push_input(0, 100).unwrap();
        s.push_input(0, 23).unwrap();
        s.start(1);
        s.run_until_done(1000);
        assert_eq!(s.pop_output(0).unwrap(), 123);
    }

    #[test]
    fn reset_clears_wide_state() {
        let rac = WideFunctionRac::new("id96", 96, 96, 0, |v| v);
        let mut s = RacSocket::new(Box::new(rac), 64);
        s.push_input(0, 1).unwrap();
        s.start(1);
        s.tick();
        s.reset();
        assert!(!s.busy());
        assert!(s.all_fifos_empty());
    }
}
