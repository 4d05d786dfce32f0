//! The RAC contract and its FIFO harness.
//!
//! Figure 2 of the paper shows the accelerator sitting between an input
//! FIFO (`dout`/`rd_en`/`empty` on the accelerator side) and an output
//! FIFO (`din`/`wr_en`/`full`), launched by a `start_op` pulse and
//! signalling completion with `end_op`. [`Rac`] is that contract;
//! [`RacSocket`] is the surrounding harness, owning one 32-bit
//! [`SyncFifo`] per interface.

use std::error::Error;
use std::fmt;
use std::num::NonZeroU64;

use ouessant_sim::fifo::{FifoError, SyncFifo};
use ouessant_sim::{Cycle, Horizon};

/// Error type for RAC harness operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RacError {
    /// A FIFO index beyond the accelerator's interface count.
    NoSuchFifo {
        /// The offending index.
        index: usize,
        /// Whether an input (true) or output (false) FIFO was addressed.
        input: bool,
    },
    /// The underlying FIFO rejected the operation.
    Fifo(FifoError),
}

impl fmt::Display for RacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RacError::NoSuchFifo { index, input } => write!(
                f,
                "no {} fifo with index {index}",
                if *input { "input" } else { "output" }
            ),
            RacError::Fifo(e) => write!(f, "{e}"),
        }
    }
}

impl Error for RacError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RacError::Fifo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FifoError> for RacError {
    fn from(e: FifoError) -> Self {
        RacError::Fifo(e)
    }
}

/// The FIFO view handed to a RAC on each tick.
///
/// Indices match the `FIFO<n>` operands of `mvtc` (inputs) and `mvfc`
/// (outputs) in the microcode.
#[derive(Debug)]
pub struct RacIo<'a> {
    /// Input FIFOs: the accelerator pops (`rd_en`) from these.
    pub inputs: &'a mut [SyncFifo<u32>],
    /// Output FIFOs: the accelerator pushes (`wr_en`) into these.
    pub outputs: &'a mut [SyncFifo<u32>],
}

/// A Reconfigurable Acceleration Coprocessor.
///
/// The controller drives a RAC exclusively through this interface:
/// [`Rac::start`] is the `start_op` pulse (with the 16-bit operation tag
/// of `exec`), [`Rac::busy`] is the inverse of `end_op`, and
/// [`Rac::tick`] advances the accelerator one clock cycle with access to
/// its FIFOs.
///
/// Implementations must be deterministic: the same FIFO contents and
/// tick sequence always produce the same outputs.
pub trait Rac {
    /// The accelerator's name (used in traces and resource reports).
    fn name(&self) -> &str;

    /// Number of input FIFO interfaces (default 1; "the number of input
    /// and output interfaces can be adapted according to the accelerator
    /// requirements").
    fn num_input_fifos(&self) -> usize {
        1
    }

    /// Number of output FIFO interfaces (default 1).
    fn num_output_fifos(&self) -> usize {
        1
    }

    /// Returns the accelerator to its power-on state (FIFOs are cleared
    /// by the harness).
    fn reset(&mut self);

    /// The `start_op` pulse. `op` is the 16-bit operation tag from the
    /// `exec`/`execn` instruction; accelerators that need no
    /// configuration ignore it.
    fn start(&mut self, op: u16);

    /// Whether the accelerator is still processing (i.e. `end_op` has
    /// not fired since the last [`Rac::start`]).
    fn busy(&self) -> bool;

    /// Advances one clock cycle.
    fn tick(&mut self, io: &mut RacIo<'_>);

    /// Requests loading configuration `slot` into the accelerator
    /// region (dynamic partial reconfiguration, the paper's §VI work in
    /// progress).
    ///
    /// Static accelerators return [`ReconfigResponse::Unsupported`]
    /// (the default); reconfigurable slots switch their active
    /// configuration, report the bitstream load latency and hold
    /// [`Rac::busy`] asserted until the load ends (the controller's
    /// `rcfg` waits on `busy`, as `exec` does).
    fn reconfigure(&mut self, slot: u16) -> ReconfigResponse {
        let _ = slot;
        ReconfigResponse::Unsupported
    }

    /// Fast-forward outlook (see `ouessant_sim::event`): the earliest
    /// future tick at which the accelerator's observable state can
    /// change, given a read-only view of the socket's FIFOs, and what
    /// that tick does to `end_op` (see [`Outlook`]). A controller
    /// waiting on `end_op` retires on the tick that drops
    /// [`Rac::busy`], so when the outlook tells it, the controller may
    /// leap on through the retire and plan the transfers after it,
    /// counting the words the tick drains.
    ///
    /// Inside a busy accelerator's window nobody else touches those
    /// FIFOs, and nobody reads them: the controller moves words only
    /// on its own event ticks, every controller state that reads a
    /// FIFO single-steps, and a read it picks up mid-window lands only
    /// in an idle accelerator's inputs, which idle ticks ignore. So an
    /// accelerator may count its FIFO moves (a stream's words, a
    /// block's collect) as pure ticks and leave the event to the tick
    /// that empties, fills or ends something.
    ///
    /// The default is maximally conservative and always safe: the next
    /// tick while busy (single-step every cycle), quiescent when idle
    /// (idle ticks must be no-ops, which holds for every in-tree RAC),
    /// and no end told (the retire steps). Accelerators with a
    /// collect-compute-drain cycle (e.g. [`crate::block::BlockRac`]) or
    /// a closed-form stream (e.g. [`crate::passthrough::PassthroughRac`])
    /// override this to expose the whole window and its end.
    fn outlook(&self, inputs: &[SyncFifo<u32>], outputs: &[SyncFifo<u32>]) -> Outlook {
        let _ = (inputs, outputs);
        if self.busy() {
            Horizon::NEXT_TICK.into()
        } else {
            Horizon::QUIESCENT.into()
        }
    }

    /// The [`Rac::outlook`] the accelerator would have right after
    /// [`Rac::start`]`(op)` on these FIFOs with `landed` more words in
    /// input FIFO 0, asked of an idle accelerator: what a controller
    /// needs to leap an `exec` together with the compute it launches
    /// (and with the pickup of the read that lands the last input words
    /// a few ticks before). Counted from the tick after the start.
    ///
    /// The default is the next tick, not telling, which is always safe:
    /// the tick after the start steps.
    fn outlook_after_start(
        &self,
        op: u16,
        landed: usize,
        inputs: &[SyncFifo<u32>],
        outputs: &[SyncFifo<u32>],
    ) -> Outlook {
        let _ = (op, landed, inputs, outputs);
        Horizon::NEXT_TICK.into()
    }

    /// Bulk-applies `cycles` provably-pure ticks on the socket's FIFOs,
    /// leaving the accelerator and `io` exactly as `cycles` calls of
    /// [`Rac::tick`] would.
    ///
    /// Callers guarantee the ticks are pure: `cycles` is within
    /// [`Horizon::leap_bound`] of the [`Rac::outlook`]'s horizon (any
    /// count while idle). The default is a no-op, correct for RACs whose
    /// idle `tick` does not touch state; RACs that override
    /// [`Rac::outlook`] with a wider window override this to replay it.
    fn advance(&mut self, cycles: Cycle, io: &mut RacIo<'_>) {
        let _ = (cycles, io);
    }
}

/// A RAC's fast-forward window: when its next event comes, and what
/// that tick does to `end_op` (see [`Rac::outlook`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outlook {
    /// The accelerator's fast-forward horizon.
    pub horizon: Horizon,
    /// `Some(words)` when the horizon's tick drops busy (raises
    /// `end_op`), with the words output FIFO 0 gains over the ticks up
    /// to and including it, and no other output FIFO any; `None` when
    /// it does not, or the accelerator does not tell.
    pub ends: Option<usize>,
}

impl From<Horizon> for Outlook {
    /// A horizon whose tick is not told to end the operation.
    fn from(horizon: Horizon) -> Self {
        Self {
            horizon,
            ends: None,
        }
    }
}

/// Outcome of a [`Rac::reconfigure`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigResponse {
    /// The accelerator is static hardware; `rcfg` is a microcode error.
    Unsupported,
    /// The slot id does not exist.
    BadSlot {
        /// Number of configurations available.
        available: usize,
    },
    /// Reconfiguration started; the region is unusable for `cycles`
    /// clock cycles (bitstream transfer through the ICAP).
    Started {
        /// Reconfiguration latency in cycles.
        cycles: u64,
    },
}

/// The harness around a RAC: the FIFOs of Figure 2 plus tick plumbing.
///
/// [`RacSocket`] is what the OCP embeds; it is also directly usable in
/// tests and benchmarks to exercise an accelerator without a bus or
/// controller (as the paper's authors did in simulation before going to
/// the board).
#[derive(Debug)]
pub struct RacSocket {
    rac: Box<dyn Rac>,
    inputs: Vec<SyncFifo<u32>>,
    outputs: Vec<SyncFifo<u32>>,
    /// Injected slow-silicon stall: while nonzero the accelerator is
    /// frozen (no ticks reach it) but reports busy, stretching the
    /// compute latency by exactly this many cycles.
    stall_left: u64,
}

impl fmt::Debug for dyn Rac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rac({})", self.name())
    }
}

impl RacSocket {
    /// Wraps `rac`, creating one `fifo_depth`-word FIFO per interface.
    ///
    /// # Panics
    ///
    /// Panics if `fifo_depth == 0` or the RAC declares zero interfaces
    /// in both directions.
    #[must_use]
    pub fn new(rac: Box<dyn Rac>, fifo_depth: usize) -> Self {
        assert!(fifo_depth > 0, "fifo depth must be non-zero");
        let n_in = rac.num_input_fifos();
        let n_out = rac.num_output_fifos();
        assert!(n_in + n_out > 0, "RAC declares no FIFO interfaces");
        let inputs = (0..n_in)
            .map(|i| SyncFifo::new(&format!("{}.in{i}", rac.name()), fifo_depth))
            .collect();
        let outputs = (0..n_out)
            .map(|i| SyncFifo::new(&format!("{}.out{i}", rac.name()), fifo_depth))
            .collect();
        Self {
            rac,
            inputs,
            outputs,
            stall_left: 0,
        }
    }

    /// The wrapped accelerator.
    #[must_use]
    pub fn rac(&self) -> &dyn Rac {
        self.rac.as_ref()
    }

    /// Number of input FIFOs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Pushes one word into input FIFO `index` (the controller side of
    /// `mvtc`).
    ///
    /// # Errors
    ///
    /// [`RacError::NoSuchFifo`] or [`RacError::Fifo`] on overflow.
    pub fn push_input(&mut self, index: usize, word: u32) -> Result<(), RacError> {
        self.inputs
            .get_mut(index)
            .ok_or(RacError::NoSuchFifo { index, input: true })?
            .push(word)
            .map_err(RacError::from)
    }

    /// Pops one word from output FIFO `index` (the controller side of
    /// `mvfc`).
    ///
    /// # Errors
    ///
    /// [`RacError::NoSuchFifo`] or [`RacError::Fifo`] on underflow.
    pub fn pop_output(&mut self, index: usize) -> Result<u32, RacError> {
        self.outputs
            .get_mut(index)
            .ok_or(RacError::NoSuchFifo {
                index,
                input: false,
            })?
            .pop()
            .map_err(RacError::from)
    }

    /// Pushes `words` into input FIFO `index` in one copy, as one
    /// [`RacSocket::push_input`] per word would (the controller side of
    /// a `mvtc` burst's delivery).
    ///
    /// # Errors
    ///
    /// [`RacError::NoSuchFifo`], or [`RacError::Fifo`] if the words do
    /// not all fit (then none is pushed).
    pub fn push_inputs(&mut self, index: usize, words: &[u32]) -> Result<(), RacError> {
        self.inputs
            .get_mut(index)
            .ok_or(RacError::NoSuchFifo { index, input: true })?
            .push_slice(words)
            .map_err(RacError::from)
    }

    /// Pops `count` words from output FIFO `index` into `out` in one
    /// copy, as `count` calls of [`RacSocket::pop_output`] would (the
    /// controller side of `mvfc`).
    ///
    /// # Errors
    ///
    /// [`RacError::NoSuchFifo`], or [`RacError::Fifo`] if fewer than
    /// `count` words are held (then none is popped).
    pub fn pop_outputs(
        &mut self,
        index: usize,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), RacError> {
        self.outputs
            .get_mut(index)
            .ok_or(RacError::NoSuchFifo {
                index,
                input: false,
            })?
            .pop_into(count, out)
            .map_err(RacError::from)
    }

    /// Free space of input FIFO `index`, in words.
    #[must_use]
    pub fn input_space(&self, index: usize) -> usize {
        self.inputs.get(index).map_or(0, SyncFifo::space)
    }

    /// Occupancy of output FIFO `index`, in words.
    #[must_use]
    pub fn output_available(&self, index: usize) -> usize {
        self.outputs.get(index).map_or(0, SyncFifo::len)
    }

    /// Whether every FIFO in both directions is empty (the `sync`
    /// instruction's barrier condition).
    #[must_use]
    pub fn all_fifos_empty(&self) -> bool {
        self.inputs.iter().all(SyncFifo::is_empty) && self.outputs.iter().all(SyncFifo::is_empty)
    }

    /// Pulses `start_op` with operation tag `op`.
    pub fn start(&mut self, op: u16) {
        self.rac.start(op);
    }

    /// Whether the accelerator is processing (an injected stall holds
    /// `busy` asserted — frozen silicon still claims the handshake).
    #[must_use]
    pub fn busy(&self) -> bool {
        self.stall_left > 0 || self.rac.busy()
    }

    /// Injects a slow-compute stall: the accelerator freezes for
    /// `cycles` ticks while still reporting busy, so whatever is
    /// waiting on `end_op` waits that much longer. Stalls accumulate.
    ///
    /// This is the chaos seam for marginal silicon / thermally
    /// throttled fabric — latency faults the FSM-crash seams cannot
    /// model.
    pub fn inject_stall(&mut self, cycles: u64) {
        self.stall_left = self.stall_left.saturating_add(cycles);
    }

    /// Forwards a reconfiguration request to the accelerator.
    pub fn reconfigure(&mut self, slot: u16) -> ReconfigResponse {
        self.rac.reconfigure(slot)
    }

    /// Advances the accelerator one clock cycle (a stalled accelerator
    /// burns the cycle frozen: the RAC does not tick).
    pub fn tick(&mut self) {
        if self.stall_left > 0 {
            self.stall_left -= 1;
            return;
        }
        let mut io = RacIo {
            inputs: &mut self.inputs,
            outputs: &mut self.outputs,
        };
        self.rac.tick(&mut io);
    }

    /// Ticks until [`RacSocket::busy`] deasserts — through an injected
    /// stall as well as the accelerator's own work — returning the
    /// number of cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics if the accelerator is still busy after `max_cycles`.
    pub fn run_until_done(&mut self, max_cycles: u64) -> u64 {
        let mut cycles = 0;
        while self.busy() {
            self.tick();
            cycles += 1;
            assert!(
                cycles <= max_cycles,
                "{} still busy after {max_cycles} cycles",
                self.rac.name()
            );
        }
        cycles
    }

    /// The socket's fast-forward outlook (see [`Rac::outlook`]): while a
    /// stall is injected, its countdown (the frozen accelerator cannot
    /// change state any earlier), which ends busy when the frozen
    /// accelerator is idle; otherwise the wrapped accelerator's outlook
    /// over the socket's FIFOs.
    #[must_use]
    pub fn outlook(&self) -> Outlook {
        if let Some(stall) = NonZeroU64::new(self.stall_left) {
            return Outlook {
                horizon: Horizon::in_ticks(stall),
                ends: (!self.rac.busy()).then_some(0),
            };
        }
        self.rac.outlook(&self.inputs, &self.outputs)
    }

    /// The socket's [`RacSocket::outlook`] right after
    /// [`RacSocket::start`]`(op)`, with `landed` more words pushed into
    /// input FIFO 0 first, asked while it is idle (see
    /// [`Rac::outlook_after_start`]): the next tick, not telling, while
    /// a stall is injected, since the frozen accelerator would not
    /// start counting.
    #[must_use]
    pub fn outlook_after_start(&self, op: u16, landed: usize) -> Outlook {
        if self.stall_left > 0 {
            return Horizon::NEXT_TICK.into();
        }
        self.rac
            .outlook_after_start(op, landed, &self.inputs, &self.outputs)
    }

    /// Bulk-applies `cycles` pure ticks: forwards to the accelerator —
    /// unless a stall is pending, in which case the window burns down
    /// the stall with the RAC frozen, exactly as `cycles` real ticks
    /// would.
    pub fn advance(&mut self, cycles: Cycle) {
        if self.stall_left > 0 {
            debug_assert!(cycles.count() < self.stall_left, "advanced past the stall");
            self.stall_left -= cycles.count();
            return;
        }
        let mut io = RacIo {
            inputs: &mut self.inputs,
            outputs: &mut self.outputs,
        };
        self.rac.advance(cycles, &mut io);
    }

    /// Resets the accelerator and clears every FIFO.
    pub fn reset(&mut self) {
        self.rac.reset();
        for f in &mut self.inputs {
            f.clear();
        }
        for f in &mut self.outputs {
            f.clear();
        }
        self.stall_left = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy RAC that doubles each input word after a fixed delay.
    struct Doubler {
        busy: bool,
        delay_left: u64,
        pending: Vec<u32>,
    }

    impl Doubler {
        fn new() -> Self {
            Self {
                busy: false,
                delay_left: 0,
                pending: Vec::new(),
            }
        }
    }

    impl Rac for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn reset(&mut self) {
            self.busy = false;
            self.pending.clear();
        }
        fn start(&mut self, _op: u16) {
            self.busy = true;
            self.delay_left = 5;
        }
        fn busy(&self) -> bool {
            self.busy
        }
        fn tick(&mut self, io: &mut RacIo<'_>) {
            if !self.busy {
                return;
            }
            while let Ok(w) = io.inputs[0].pop() {
                self.pending.push(w.wrapping_mul(2));
            }
            if self.delay_left > 0 {
                self.delay_left -= 1;
                return;
            }
            for w in self.pending.drain(..) {
                io.outputs[0].push(w).expect("output fifo sized for test");
            }
            self.busy = false;
        }
    }

    #[test]
    fn socket_round_trip() {
        let mut s = RacSocket::new(Box::new(Doubler::new()), 16);
        s.push_input(0, 21).unwrap();
        s.start(0);
        let cycles = s.run_until_done(100);
        assert_eq!(cycles, 6);
        assert_eq!(s.pop_output(0).unwrap(), 42);
        assert!(s.all_fifos_empty());
    }

    #[test]
    fn run_until_done_waits_out_an_injected_stall() {
        let mut s = RacSocket::new(Box::new(Doubler::new()), 16);
        s.inject_stall(7);
        assert_eq!(
            s.run_until_done(100),
            7,
            "an idle RAC's stall still holds busy"
        );
        assert!(!s.busy());
        s.push_input(0, 21).unwrap();
        s.start(0);
        s.inject_stall(4);
        assert_eq!(s.run_until_done(100), 6 + 4);
        assert_eq!(s.pop_output(0).unwrap(), 42);
    }

    #[test]
    fn bad_fifo_index_rejected() {
        let mut s = RacSocket::new(Box::new(Doubler::new()), 16);
        assert_eq!(
            s.push_input(3, 0),
            Err(RacError::NoSuchFifo {
                index: 3,
                input: true
            })
        );
        assert_eq!(
            s.pop_output(1),
            Err(RacError::NoSuchFifo {
                index: 1,
                input: false
            })
        );
    }

    #[test]
    fn bulk_fifo_access_moves_whole_slices_or_nothing() {
        let mut s = RacSocket::new(Box::new(Doubler::new()), 4);
        assert_eq!(
            s.push_inputs(1, &[1]),
            Err(RacError::NoSuchFifo {
                index: 1,
                input: true
            })
        );
        s.push_inputs(0, &[1, 2, 3]).unwrap();
        assert_eq!(
            s.push_inputs(0, &[4, 5]),
            Err(RacError::Fifo(FifoError::Overflow))
        );
        assert_eq!(s.input_space(0), 1, "a rejected slice pushes nothing");
        s.start(0);
        s.run_until_done(100);
        let mut out = vec![0];
        assert_eq!(
            s.pop_outputs(0, 4, &mut out),
            Err(RacError::Fifo(FifoError::Underflow))
        );
        s.pop_outputs(0, 3, &mut out).unwrap();
        assert_eq!(out, [0, 2, 4, 6]);
        assert!(s.all_fifos_empty());
    }

    #[test]
    fn overflow_surfaces_as_rac_error() {
        let mut s = RacSocket::new(Box::new(Doubler::new()), 1);
        s.push_input(0, 1).unwrap();
        assert_eq!(s.push_input(0, 2), Err(RacError::Fifo(FifoError::Overflow)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = RacSocket::new(Box::new(Doubler::new()), 16);
        s.push_input(0, 1).unwrap();
        s.start(0);
        s.reset();
        assert!(!s.busy());
        assert!(s.all_fifos_empty());
    }

    #[test]
    fn space_and_available_accounting() {
        let mut s = RacSocket::new(Box::new(Doubler::new()), 4);
        assert_eq!(s.input_space(0), 4);
        s.push_input(0, 1).unwrap();
        assert_eq!(s.input_space(0), 3);
        assert_eq!(s.output_available(0), 0);
        s.start(0);
        s.run_until_done(100);
        assert_eq!(s.output_available(0), 1);
    }
}
