//! A reusable "block processing" RAC skeleton.
//!
//! Both of the paper's evaluation accelerators follow the same protocol:
//! the microcode fills the input FIFO with one block of data (`mvtc`),
//! `exec` pulses `start_op`, the accelerator consumes the block, computes
//! for its characteristic latency (the *Lat.* column of Table I), pushes
//! the result block into the output FIFO and raises `end_op`.
//! [`BlockRac`] implements that protocol once, generically over a
//! [`BlockKernel`] supplying the data path and latency model.

use std::fmt;

use ouessant_sim::fifo::SyncFifo;
use ouessant_sim::{Cycle, Horizon};

use crate::rac::{Outlook, Rac, RacIo};

/// The data path and timing of a block-processing accelerator.
pub trait BlockKernel {
    /// Accelerator name.
    fn name(&self) -> &str;

    /// Words consumed from the input FIFO per operation.
    fn input_len(&self, op: u16) -> usize;

    /// Busy cycles per operation — the paper's *Lat.* figure: "the
    /// required number of cycles to process data \[with\] data transfer
    /// time not considered".
    fn latency(&self, op: u16) -> u64;

    /// Words produced per operation, if the kernel knows before it
    /// computes (then [`BlockKernel::compute`] produces exactly that
    /// many): it lets a leap run from `exec` through the drain. The
    /// default, `None`, is always safe.
    fn output_len(&self, op: u16) -> Option<usize> {
        let _ = op;
        None
    }

    /// Computes the output block of one input block, appending it to
    /// `output`, which arrives empty.
    fn compute(&mut self, op: u16, input: &[u32], output: &mut Vec<u32>);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    /// Waiting for the input FIFO to hold the whole block.
    Collecting,
    /// Data path busy; counting down the latency.
    Computing {
        cycles_left: u64,
    },
    /// Pushing results into the output FIFO (stalls while it is full).
    Draining,
}

/// A block-processing RAC built from a [`BlockKernel`].
pub struct BlockRac<K: BlockKernel> {
    kernel: K,
    state: State,
    op: u16,
    /// The input block of the current operation; like `staged_output`,
    /// kept across operations so that neither is allocated per block.
    block: Vec<u32>,
    staged_output: Vec<u32>,
    drained: usize,
}

impl<K: BlockKernel> BlockRac<K> {
    /// Wraps a kernel.
    #[must_use]
    pub fn from_kernel(kernel: K) -> Self {
        Self {
            kernel,
            state: State::Idle,
            op: 0,
            block: Vec::new(),
            staged_output: Vec::new(),
            drained: 0,
        }
    }

    /// The wrapped kernel.
    #[must_use]
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The horizon of `Collecting` operation `op` with `waiting` words
    /// in the input FIFO: with the whole block there, the collect tick
    /// and the latency countdown only move words nobody else reads
    /// inside the window, and the drain that raises `end_op` is the
    /// event. Short of a block, ticks change nothing until the
    /// controller delivers more words, which is its own event.
    fn collect_horizon(&self, op: u16, waiting: usize) -> Horizon {
        if waiting < self.kernel.input_len(op) {
            return Horizon::QUIESCENT;
        }
        let lat = self.kernel.latency(op).saturating_sub(1);
        Horizon::after(1 + lat.max(1))
    }

    /// The outlook of `horizon`, whose event drains `left` words (`None`
    /// when no drain is due or its size is not known yet): the drain
    /// ends the operation when they all fit the output FIFO, which
    /// nothing else fills inside a window.
    fn drain_outlook(horizon: Horizon, left: Option<usize>, outputs: &[SyncFifo<u32>]) -> Outlook {
        Outlook {
            horizon,
            ends: left.filter(|&words| words <= outputs[0].space()),
        }
    }
}

impl<K: BlockKernel> fmt::Debug for BlockRac<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockRac")
            .field("kernel", &self.kernel.name())
            .field("state", &self.state)
            .finish()
    }
}

impl<K: BlockKernel> Rac for BlockRac<K> {
    fn name(&self) -> &str {
        self.kernel.name()
    }

    fn reset(&mut self) {
        self.state = State::Idle;
        self.staged_output.clear();
        self.drained = 0;
    }

    fn start(&mut self, op: u16) {
        self.op = op;
        self.state = State::Collecting;
    }

    fn busy(&self) -> bool {
        self.state != State::Idle
    }

    fn tick(&mut self, io: &mut RacIo<'_>) {
        match self.state {
            State::Idle => {}
            State::Collecting => {
                let needed = self.kernel.input_len(self.op);
                if io.inputs[0].len() >= needed {
                    self.block.clear();
                    io.inputs[0]
                        .pop_into(needed, &mut self.block)
                        .expect("length checked");
                    self.staged_output.clear();
                    self.kernel
                        .compute(self.op, &self.block, &mut self.staged_output);
                    debug_assert!(
                        self.kernel
                            .output_len(self.op)
                            .is_none_or(|n| n == self.staged_output.len()),
                        "the kernel produced another count than its output_len"
                    );
                    self.drained = 0;
                    // The collect cycle itself counts as the first busy
                    // cycle; remaining latency follows.
                    let lat = self.kernel.latency(self.op).saturating_sub(1);
                    self.state = State::Computing { cycles_left: lat };
                }
            }
            State::Computing { cycles_left } => {
                if cycles_left > 1 {
                    self.state = State::Computing {
                        cycles_left: cycles_left - 1,
                    };
                } else {
                    self.state = State::Draining;
                }
            }
            State::Draining => {
                let end = self
                    .staged_output
                    .len()
                    .min(self.drained + io.outputs[0].space());
                io.outputs[0]
                    .push_slice(&self.staged_output[self.drained..end])
                    .expect("sized to the space");
                self.drained = end;
                if self.drained == self.staged_output.len() {
                    self.staged_output.clear();
                    self.state = State::Idle; // end_op
                }
            }
        }
    }

    fn outlook(&self, inputs: &[SyncFifo<u32>], outputs: &[SyncFifo<u32>]) -> Outlook {
        let horizon = match self.state {
            State::Idle => return Horizon::QUIESCENT.into(),
            // A collecting block stands where its start left it.
            State::Collecting => return self.outlook_after_start(self.op, 0, inputs, outputs),
            // `cycles_left` ticks (one for a zero-latency kernel) reach
            // `Draining`; the tick after drains.
            State::Computing { cycles_left } => Horizon::after(cycles_left.max(1)),
            // The drain pushes the outputs and drops `busy`.
            State::Draining => Horizon::NEXT_TICK,
        };
        let left = self.staged_output.len() - self.drained;
        Self::drain_outlook(horizon, Some(left), outputs)
    }

    /// `exec` finds the whole block in the FIFO, or waits for more.
    fn outlook_after_start(
        &self,
        op: u16,
        landed: usize,
        inputs: &[SyncFifo<u32>],
        outputs: &[SyncFifo<u32>],
    ) -> Outlook {
        let horizon = self.collect_horizon(op, inputs[0].len() + landed);
        let left = horizon.ticks().and(self.kernel.output_len(op));
        Self::drain_outlook(horizon, left, outputs)
    }

    fn advance(&mut self, cycles: Cycle, io: &mut RacIo<'_>) {
        let mut n = cycles.count();
        if n > 0 && self.state == State::Collecting {
            self.tick(io);
            n -= 1;
        }
        if n == 0 {
            return;
        }
        match self.state {
            State::Computing { cycles_left } => {
                let to_drain = cycles_left.max(1);
                debug_assert!(n <= to_drain, "advanced past the drain");
                self.state = if n == to_drain {
                    State::Draining
                } else {
                    State::Computing {
                        cycles_left: cycles_left - n,
                    }
                };
            }
            State::Idle | State::Collecting => {} // idle and starved ticks are no-ops
            State::Draining => debug_assert!(false, "advanced into the drain"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rac::RacSocket;

    struct Sum4;

    impl BlockKernel for Sum4 {
        fn name(&self) -> &str {
            "sum4"
        }
        fn input_len(&self, _op: u16) -> usize {
            4
        }
        fn latency(&self, _op: u16) -> u64 {
            10
        }
        fn compute(&mut self, _op: u16, input: &[u32], output: &mut Vec<u32>) {
            output.push(input.iter().copied().fold(0u32, u32::wrapping_add));
        }
    }

    #[test]
    fn latency_is_exact() {
        let mut s = RacSocket::new(Box::new(BlockRac::from_kernel(Sum4)), 16);
        for w in [1, 2, 3, 4] {
            s.push_input(0, w).unwrap();
        }
        s.start(0);
        // collect(1) + computing(9) + drain(1) = latency 10 + 1 drain.
        let cycles = s.run_until_done(100);
        assert_eq!(cycles, 11);
        assert_eq!(s.pop_output(0).unwrap(), 10);
    }

    #[test]
    fn waits_for_full_block() {
        let mut s = RacSocket::new(Box::new(BlockRac::from_kernel(Sum4)), 16);
        s.push_input(0, 1).unwrap();
        s.start(0);
        for _ in 0..50 {
            s.tick();
        }
        assert!(s.busy(), "must wait for the remaining words");
        for w in [2, 3, 4] {
            s.push_input(0, w).unwrap();
        }
        s.run_until_done(100);
        assert_eq!(s.pop_output(0).unwrap(), 10);
    }

    #[test]
    fn drain_stalls_on_full_output_fifo() {
        struct Producer;
        impl BlockKernel for Producer {
            fn name(&self) -> &str {
                "producer"
            }
            fn input_len(&self, _op: u16) -> usize {
                1
            }
            fn latency(&self, _op: u16) -> u64 {
                1
            }
            fn compute(&mut self, _op: u16, _input: &[u32], output: &mut Vec<u32>) {
                output.extend(0..8);
            }
        }
        let mut s = RacSocket::new(Box::new(BlockRac::from_kernel(Producer)), 4);
        s.push_input(0, 0).unwrap();
        s.start(0);
        for _ in 0..10 {
            s.tick();
        }
        assert!(s.busy(), "output fifo of 4 cannot hold 8 words");
        // Drain the output to unblock.
        for _ in 0..4 {
            s.pop_output(0).unwrap();
        }
        s.run_until_done(100);
        assert_eq!(s.output_available(0), 4);
    }
}
