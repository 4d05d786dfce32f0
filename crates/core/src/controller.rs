//! The Ouessant controller: an unpipelined fetch/decode/execute
//! microcontroller.
//!
//! "Ouessant controller is responsible for instruction decoding and
//! actual control of data transfer and coprocessor operations based on
//! provided microcode. It is based on a classical unpipelined
//! Fetch/Decode/Execute microcontroller architecture. It roughly
//! consists of a Finite State Machine to control execution, and of
//! registers to store the state it is in." (§III-D)
//!
//! Timing model (one `tick` = one clock cycle):
//!
//! * start handshake: 1 cycle to observe the S bit, then a burst read of
//!   the whole program from bank 0 into the internal program store;
//! * each instruction costs 1 fetch + 1 decode cycle, plus its execute
//!   time: transfers occupy the bus for their burst, `exec` waits for the
//!   RAC, register operations take a single cycle.
//!
//! The simulator translates the program store once, when it is loaded
//! (see the `store` module), so the `Decode` cycle is a table read, a
//! fetch/decode pair ahead of a decodable word is a pure two-cycle
//! window for fast-forward, and a stretch of equal transfers is planned
//! and replayed as one segment of DMA bursts.
//!
//! For fast-forward the controller states which of its ticks it walks
//! through on its own, and the event its walk ends on
//! (`Controller::walk`): a burst's pickup, `Fetch`, `Decode` and a
//! `wait`, and, unless chaos is armed, the `exec` that starts an idle
//! RAC, the compute it starts and the `end_op` retire on the RAC's last
//! tick (as far as the socket tells them, see
//! [`RacSocket::outlook_after_start`] and [`RacSocket::outlook`]). So a
//! whole job leaps but for its launch and its `eop`: the controller's
//! horizon is its walk's event, or the bus event of the transfers a
//! window issues.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::error::Error;
use std::fmt;

use ouessant_isa::control::{ControlState, Flow};
use ouessant_isa::operands::{Bank, FifoId, MAX_PROGRAM_LEN, NUM_FIFOS};
use ouessant_isa::{DecodeError, Instruction, Transfer};
use ouessant_rac::rac::RacSocket;
use ouessant_sim::bus::{Addr, BusError, MasterId, TxnKind, TxnShape};
use ouessant_sim::{
    BusWindow, Cycle, Horizon, Instant, RunSegment, Strided, SystemBus, WindowIssue,
};

use crate::banks::{self, TranslateError, PROGRAM_BANK};
use crate::interface::{DmaPort, IrqLine};
use crate::regs::RegsHandle;
use crate::store::{ProgramStore, StridedRun};

/// A fatal condition that stops the controller (debug-visible; the D bit
/// is *not* set, so the host driver times out and reads the state
/// register).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program-size register is zero or beyond the program store.
    BadProgSize {
        /// Value found in the register.
        size: u32,
    },
    /// An instruction word failed to decode.
    BadInstruction {
        /// Program counter of the word.
        pc: u16,
        /// Decoder diagnosis.
        source: DecodeError,
    },
    /// Bank translation failed.
    Translate(TranslateError),
    /// The system bus reported an error.
    Bus(BusError),
    /// The program counter ran past the end of the program (missing
    /// `eop`/`halt` — prevented for assembled programs by validation).
    PcOverrun {
        /// The overrunning pc.
        pc: u16,
    },
    /// An `rcfg` instruction targeted a static accelerator or a
    /// non-existent configuration slot.
    Reconfig {
        /// The requested slot.
        slot: u16,
        /// Number of slots the accelerator offers (0 for static RACs).
        available: usize,
    },
    /// A fault forced from outside through
    /// [`Controller::inject_fault`] — a chaos-testing harness standing
    /// in for radiation upsets, clock glitches or logic bugs the
    /// simulation does not model organically. The controller itself
    /// never raises it.
    Injected {
        /// Harness-supplied cause tag.
        cause: &'static str,
    },
    /// The OCP watchdog expired: the controller made no observable
    /// progress (no instruction retired, no word transferred) for a
    /// whole cycle budget. Raised by the watchdog hardware, never by
    /// the FSM itself.
    Hang {
        /// The cycle budget that was exhausted.
        budget: u64,
    },
    /// The host cancelled the run through the OCP abort path. Like a
    /// hardware abort line: the FSM stops where it stands and recovery
    /// drains whatever the bus still owes.
    Aborted,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadProgSize { size } => {
                write!(f, "program size register holds invalid value {size}")
            }
            ExecError::BadInstruction { pc, source } => {
                write!(f, "instruction at pc {pc} failed to decode: {source}")
            }
            ExecError::Translate(e) => write!(f, "{e}"),
            ExecError::Bus(e) => write!(f, "bus error during transfer: {e}"),
            ExecError::PcOverrun { pc } => write!(f, "program counter overran program at {pc}"),
            ExecError::Reconfig { slot, available } => write!(
                f,
                "rcfg slot {slot} invalid ({available} configurations available)"
            ),
            ExecError::Injected { cause } => write!(f, "injected fault: {cause}"),
            ExecError::Hang { budget } => write!(
                f,
                "watchdog expired: no progress for {budget} cycles (hung handshake or runaway loop)"
            ),
            ExecError::Aborted => write!(f, "run aborted by host"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::BadInstruction { source, .. } => Some(source),
            ExecError::Translate(e) => Some(e),
            ExecError::Bus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TranslateError> for ExecError {
    fn from(e: TranslateError) -> Self {
        ExecError::Translate(e)
    }
}

impl From<BusError> for ExecError {
    fn from(e: BusError) -> Self {
        ExecError::Bus(e)
    }
}

/// The controller's FSM state (readable through the debug register
/// window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerState {
    /// Waiting for the S bit.
    Idle,
    /// Program burst-read from bank 0 in flight.
    LoadProgram,
    /// Reading the instruction at `pc` from the program store.
    Fetch,
    /// Decoding the fetched word.
    Decode,
    /// Dispatching the decoded instruction.
    Execute,
    /// Transfer waiting for FIFO space (mvtc) or occupancy (mvfc).
    TransferFifoWait,
    /// Transfer burst in flight on the system bus.
    TransferBusWait,
    /// Waiting for the RAC's `end_op`.
    RacWait,
    /// `wait` instruction counting down.
    WaitCycles {
        /// The bus cycle of the tick that retires it: the `Execute`
        /// tick's cycle plus the instruction's count. A leap that walks
        /// the `Execute` gives it that cycle as the leap's first plus
        /// the ticks before it, since the bus stands at the leap's start
        /// or on an issue's cycle (see [`BusWindow::leap`]).
        until: Instant,
    },
    /// `sync` instruction waiting for all FIFOs to drain.
    SyncWait,
    /// Partial bitstream loading into the RAC slot (`rcfg`): waits,
    /// like [`ControllerState::RacWait`], until the socket deasserts
    /// busy — the slot counts the load down itself.
    ReconfigWait,
    /// Stopped on a fatal error.
    Faulted(ExecError),
}

impl ControllerState {
    /// A stable numeric id for the debug state register.
    #[must_use]
    pub fn id(&self) -> u32 {
        match self {
            ControllerState::Idle => 0,
            ControllerState::LoadProgram => 1,
            ControllerState::Fetch => 2,
            ControllerState::Decode => 3,
            ControllerState::Execute => 4,
            ControllerState::TransferFifoWait => 5,
            ControllerState::TransferBusWait => 6,
            ControllerState::RacWait => 7,
            ControllerState::WaitCycles { .. } => 8,
            ControllerState::SyncWait => 9,
            ControllerState::ReconfigWait => 10,
            ControllerState::Faulted(_) => 15,
        }
    }
}

/// The controller's cumulative progress counters. The OCP watchdog
/// reads the first two as its progress signature, the debug register
/// window publishes them, and [`Ocp::tick`](crate::Ocp::tick) sees a
/// run complete on the tick `runs_completed` moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Instructions retired.
    pub instructions_retired: u64,
    /// Data words moved by mvtc/mvfc (excludes the program fetch).
    pub words_transferred: u64,
    /// Completed program runs.
    pub runs_completed: u64,
}

/// The FSM's walk to its next event through ticks of its own (see
/// [`Controller::walk`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    /// Ticks before the `Execute` tick.
    ticks: u64,
    /// The program entry the `Execute` tick dispatches.
    pc: u16,
    /// Its instruction, `None` when the entry lies past the program or
    /// does not decode.
    insn: Option<Instruction>,
    /// The input FIFO a read pickup on the way pushes its words into,
    /// with their count.
    pushed: Option<(FifoId, usize)>,
    /// When the walk passes an `end_op` retire, the words output FIFO 0
    /// gains from the RAC up to it; the RAC is idle after it.
    drained: Option<usize>,
    /// The walk's ticks that retire an instruction (a transfer's pickup,
    /// an `end_op` retire, a `wait`'s), ascending: observable progress.
    retires: [Option<u64>; 2],
    /// The walk's event: the `Execute` tick; the `Fetch` tick of an
    /// entry without an instruction, whose `Fetch` or `Decode` faults;
    /// or, for an `exec` into an idle socket that does not tell its
    /// end, the socket's horizon after the start.
    event: Horizon,
}

impl Walk {
    /// The walk to the `Execute` of entry `pc`, holding `insn`, after
    /// `ticks` ticks: that tick is its event, or, without an
    /// instruction, the `Fetch` two ticks before.
    fn reaching(ticks: u64, pc: u16, insn: Option<Instruction>) -> Self {
        let pure = ticks.saturating_sub(if insn.is_some() { 0 } else { 2 });
        Self {
            ticks,
            pc,
            insn,
            pushed: None,
            drained: None,
            retires: [None; 2],
            event: Horizon::after(pure),
        }
    }

    /// The walk's ticks that retire an instruction, ascending.
    pub(crate) fn retires(&self) -> impl Iterator<Item = u64> {
        self.retires.into_iter().flatten()
    }
}

/// Ticks a pickup takes to the next `Execute`: the pickup itself, then
/// `Fetch` and `Decode`.
pub(crate) const PICKUP_TICKS: u64 = 3;

/// The words the bursts of a run push into each input FIFO and pop from
/// each output FIFO ahead of an issue, and the words the RAC pushes into
/// each output FIFO up to an `end_op` retire the walk passes, which the
/// issue check counts.
#[derive(Debug, Clone, Copy, Default)]
struct FifoLedger {
    pushed: [usize; NUM_FIFOS as usize],
    popped: [usize; NUM_FIFOS as usize],
    drained: [usize; NUM_FIFOS as usize],
}

impl FifoLedger {
    /// The words transfer `t`'s FIFO side has ready once the words
    /// counted ahead of it have landed or left: the space in its input
    /// FIFO, or the words in its output FIFO.
    fn room(&self, t: &Transfer, socket: &RacSocket) -> usize {
        let fifo = t.fifo.index();
        if t.to_coprocessor {
            socket.input_space(fifo).saturating_sub(self.pushed[fifo])
        } else {
            (socket.output_available(fifo) + self.drained[fifo]).saturating_sub(self.popped[fifo])
        }
    }

    /// Counts `words` pushed into input FIFO `fifo` (a read) or popped
    /// from output FIFO `fifo` (a write).
    fn count(&mut self, read: bool, fifo: FifoId, words: usize) {
        let side = if read {
            &mut self.pushed
        } else {
            &mut self.popped
        };
        side[fifo.index()] += words;
    }
}

/// The controller: FSM + program store + extension registers.
#[derive(Debug)]
pub struct Controller {
    state: ControllerState,
    dma: DmaPort,
    /// The program store, translated once when it is loaded: entry
    /// `pc` is what the `Decode` cycle yields for the word at `pc`.
    program: ProgramStore,
    pc: u16,
    current: Option<Instruction>,
    /// The input FIFO the read in flight fills (`None` for a write,
    /// whose payload left its output FIFO at issue).
    pending_read: Option<FifoId>,
    control: ControlState,
    preloaded: bool,
    wedged: bool,
    stats: ControllerStats,
}

impl Controller {
    /// Creates an idle controller whose transfers go through `dma`.
    #[must_use]
    pub fn new(dma: DmaPort) -> Self {
        Self {
            state: ControllerState::Idle,
            dma,
            program: ProgramStore::default(),
            pc: 0,
            current: None,
            pending_read: None,
            control: ControlState::default(),
            preloaded: false,
            wedged: false,
            stats: ControllerStats::default(),
        }
    }

    /// The current FSM state.
    #[must_use]
    pub fn state(&self) -> &ControllerState {
        &self.state
    }

    /// The bus identity of the DMA master port (for per-master bus
    /// statistics).
    #[must_use]
    pub fn master(&self) -> MasterId {
        self.dma.master()
    }

    /// Whether the controller is executing a program.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !matches!(
            self.state,
            ControllerState::Idle | ControllerState::Faulted(_)
        )
    }

    /// The fault that stopped the controller, if any.
    #[must_use]
    pub fn fault(&self) -> Option<&ExecError> {
        match &self.state {
            ControllerState::Faulted(e) => Some(e),
            _ => None,
        }
    }

    /// Run statistics.
    #[must_use]
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Current program counter (for the debug window).
    #[must_use]
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// Pre-loads the program store directly, bypassing the bank-0 fetch
    /// (standalone mode: the paper's §VI mentions "standalone operation
    /// … to provide control for processor-free designs").
    pub fn preload_program(&mut self, words: &[u32]) {
        self.program.reload(words);
        self.preloaded = true;
    }

    fn set_fault(&mut self, e: ExecError) {
        self.state = ControllerState::Faulted(e);
        // A fault supersedes a wedge: the FSM is parked in `Faulted`
        // either way and recovery clears both.
        self.wedged = false;
    }

    /// Freezes the FSM mid-handshake without faulting it: the state
    /// stops dead (a wedged `wait` never retires), exactly like a DMA
    /// or FIFO handshake whose partner never answers. Only the
    /// watchdog, an injected fault, or a host abort gets out. No-op
    /// unless the controller is active.
    ///
    /// This is the chaos seam for *silent* hangs — the failure mode
    /// [`Controller::inject_fault`] cannot model, because a crash is
    /// host-visible through the state register while a wedge is not.
    pub fn inject_wedge(&mut self) {
        if self.is_active() {
            self.wedged = true;
        }
    }

    /// Whether the FSM is frozen by [`Controller::inject_wedge`].
    #[must_use]
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Forces the controller into [`ControllerState::Faulted`] with
    /// `error`, exactly as if the FSM had raised it itself.
    ///
    /// This is the fault-injection seam for chaos testing and
    /// fault-containment experiments: a serving layer can kill a worker
    /// mid-job and exercise its recovery path without building a broken
    /// bus or corrupt microcode first. Any bus transaction in flight
    /// keeps running to completion on the bus side (hardware cannot
    /// recall an issued burst); [`Controller::try_reset`] drains it.
    pub fn inject_fault(&mut self, error: ExecError) {
        self.set_fault(error);
    }

    /// Attempts to return a faulted (or idle) controller to
    /// [`ControllerState::Idle`] so it can accept a new start.
    ///
    /// Recovery must not leave a phantom bus transaction behind: if the
    /// DMA port still has a burst outstanding the reset is refused and
    /// `false` is returned — keep ticking the bus and retry. A waiting
    /// completion (the burst finished after the fault) is discarded.
    /// Program store, loop counters, offset registers and any pending
    /// transfer are cleared; cumulative statistics are kept. A program
    /// installed with [`Controller::preload_program`] survives the
    /// reset (standalone mode has no bank-0 copy to refetch).
    pub fn try_reset(&mut self, bus: &mut dyn SystemBus) -> bool {
        // Retire a completion that landed after the fault, then make
        // sure nothing is still in flight.
        let _ = self.dma.take_completion(bus);
        if self.dma.is_pending(bus) {
            return false;
        }
        self.state = ControllerState::Idle;
        self.wedged = false;
        self.current = None;
        self.pending_read = None;
        self.pc = 0;
        self.control = ControlState::default();
        if !self.preloaded {
            self.program.clear();
        }
        true
    }

    fn retire(&mut self) {
        self.stats.instructions_retired += 1;
        self.pc += 1;
        self.current = None;
        self.state = ControllerState::Fetch;
    }

    /// The walk the FSM makes to its next event through ticks of its
    /// own, if it makes one. It runs to the next `Execute`: 0 ticks in
    /// `Execute`, 1 from `Decode`, 2 from `Fetch`, 3 from the pickup of
    /// a burst that completed without error in `TransferBusWait` or
    /// `LoadProgram` (which leads to the next instruction or to word 0
    /// of the loaded program), and, from a `wait`'s `Execute` or its
    /// `WaitCycles`, through the ticks it holds, its retire (`n` ticks
    /// after the `Execute` of `wait n`, in it for `wait 0`), `Fetch`
    /// and `Decode`. That `Execute` is the walk's event, unless the
    /// entry reached lies past the program or does not decode: then its
    /// `Fetch` or `Decode` faults, and the `Fetch` is the event. A read
    /// pickup into a busy socket walks nowhere: the RAC would see its
    /// FIFOs change inside its own window. Neither does a wedged FSM.
    ///
    /// A `wait` rolls the chaos dice `Fetch` and `Decode` roll, so it
    /// walks with chaos armed. With `walks` (chaos off, see
    /// [`BusWindow::chains`]) the walk also crosses the handshakes
    /// around a compute, whose dice differ, each through the retire of
    /// its instruction and the next `Fetch` and `Decode`:
    ///
    /// * `RacWait` or `ReconfigWait`, through the ticks it holds, when
    ///   the socket tells the tick that ends its operation
    ///   ([`RacSocket::outlook`]; the next one when it is idle): the
    ///   RAC's last tick and the retire are one tick;
    /// * the `Execute` of an `exec` into an idle socket that tells when
    ///   the operation it starts ends ([`RacSocket::outlook_after_start`],
    ///   counting a read pickup's words as landed): the start, the
    ///   compute, and the retire on the RAC's last tick. Without an end,
    ///   the start is the walk's last tick, and the socket's horizon
    ///   after it is the event. A walk that changes the FIFOs otherwise
    ///   first (an `end_op` retire, a read into another FIFO) stops in
    ///   front of the `exec`.
    pub(crate) fn walk(
        &self,
        socket: &RacSocket,
        bus: &dyn SystemBus,
        walks: bool,
    ) -> Option<Walk> {
        let entry = self.entries(bus);
        let to = |ticks: u64, pc: u16| Walk::reaching(ticks, pc, entry(pc));
        // The instruction at `pc` retires on tick `at`, then `Fetch`
        // and `Decode` of the next.
        let retire_at = |at: u64| Walk {
            retires: [Some(at), None],
            ..to(at.saturating_add(2), self.pc + 1)
        };
        let walk = match &self.state {
            _ if self.wedged => return None,
            ControllerState::Execute => match self.current {
                Some(Instruction::Wait { cycles }) => retire_at(u64::from(cycles) + 1),
                insn => Walk::reaching(0, self.pc, insn),
            },
            ControllerState::Decode => to(1, self.pc),
            ControllerState::Fetch => to(2, self.pc),
            ControllerState::TransferBusWait => {
                let Some(Ok(c)) = self.dma.peek_completion(bus) else {
                    return None;
                };
                let pushed = self.pending_read.map(|fifo| (fifo, c.data.len()));
                if pushed.is_some() && socket.busy() {
                    return None;
                }
                Walk {
                    pushed,
                    ..retire_at(1)
                }
            }
            ControllerState::LoadProgram => {
                let Some(Ok(_)) = self.dma.peek_completion(bus) else {
                    return None;
                };
                to(PICKUP_TICKS, 0)
            }
            ControllerState::WaitCycles { until } => {
                retire_at(Horizon::starting_at(*until, bus.now()).ticks()?)
            }
            ControllerState::RacWait | ControllerState::ReconfigWait if walks => {
                let (at, drained) = if socket.busy() {
                    let outlook = socket.outlook();
                    (outlook.horizon.ticks()?, outlook.ends?)
                } else {
                    (1, 0)
                };
                Walk {
                    drained: Some(drained),
                    ..retire_at(at)
                }
            }
            _ => return None,
        };
        if !walks || socket.busy() {
            return Some(walk);
        }
        // On through an `exec` the walk reaches.
        let Walk {
            ticks,
            pc,
            insn: Some(Instruction::Exec { op }),
            pushed,
            drained: None,
            retires: [first, None],
            ..
        } = walk
        else {
            return Some(walk);
        };
        let landed = match pushed {
            None => 0,
            Some((fifo, words)) if fifo.index() == 0 => words,
            Some(_) => return Some(walk),
        };
        let outlook = socket.outlook_after_start(op, landed);
        let start = ticks.saturating_add(1);
        Some(match (outlook.horizon.ticks(), outlook.ends) {
            (Some(compute), Some(words)) => {
                let at = start.saturating_add(compute);
                Walk {
                    drained: Some(words),
                    pushed,
                    retires: [first, Some(at)],
                    ..to(at.saturating_add(2), pc + 1)
                }
            }
            _ => Walk {
                event: outlook.horizon.later(start),
                ..walk
            },
        })
    }

    /// The program entries as the FSM's next `Decode` ticks will find
    /// them: `None` for an entry past the program or one that does not
    /// decode. That is the program store, unless a program load waits to
    /// be picked up: then it is the program the pickup stores.
    fn entries<'a>(&'a self, bus: &'a dyn SystemBus) -> impl Fn(u16) -> Option<Instruction> + 'a {
        let loaded = self.loading(bus);
        move |pc| match loaded {
            Some(words) => Instruction::decode(*words.get(usize::from(pc))?).ok(),
            None => self.program.entry(pc)?.as_ref().ok().copied(),
        }
    }

    /// The words a program load waiting to be picked up stores, if one
    /// does.
    fn loading<'a>(&self, bus: &'a dyn SystemBus) -> Option<&'a [u32]> {
        match (&self.state, self.dma.peek_completion(bus)) {
            (ControllerState::LoadProgram, Some(Ok(c))) => Some(&c.data),
            _ => None,
        }
    }

    /// The program store the FSM's next `Decode` ticks will find: its
    /// own, unless a program load waits to be picked up that brings
    /// other words, which are then translated here.
    fn store<'a>(&'a self, bus: &'a dyn SystemBus) -> Cow<'a, ProgramStore> {
        match self.loading(bus) {
            Some(words) if !self.program.holds(words) => Cow::Owned(ProgramStore::load(words)),
            _ => Cow::Borrowed(&self.program),
        }
    }

    /// The latched instruction as a transfer, if it is one.
    fn current_transfer(&self) -> Option<Transfer> {
        Transfer::from_instruction(0, self.current.as_ref()?)
    }

    /// The one issue check of transfer `t`: `None` while its FIFO side
    /// is not ready (space for the burst in its input FIFO, or the
    /// burst's words in its output FIFO, once the words `ledger` counts
    /// ahead of it have landed or left), else the bus address its bank
    /// and offset translate to, or the translation's error.
    fn issue_check(
        &self,
        t: &Transfer,
        socket: &RacSocket,
        regs: &RegsHandle,
        ledger: &FifoLedger,
    ) -> Option<Result<Addr, TranslateError>> {
        let ready = ledger.room(t, socket) >= usize::from(t.burst.words());
        ready.then(|| regs.with(|r| banks::translate(r, t.bank, self.control.offset(t))))
    }

    /// The run of transfers this controller can issue inside the next
    /// fast-forward window (see [`BusWindow`]): its first issue, and
    /// the bursts of the later ones, lazily, stretch by stretch.
    ///
    /// The first is the `Execute` of `mvtc`/`mvfc`/`mvtcr`/`mvfcr` on
    /// the window's first tick, or, with `chain`, the one the FSM
    /// reaches through ticks of its own (its walk, see
    /// `Controller::walk`: a transfer pickup, the program load's, an
    /// `end_op` retire or a `wait`, then `Fetch` and `Decode`). Only an
    /// issue the tick would make qualifies; [`BusWindow::plan`] then
    /// asks the bus about its burst's shape. The RAC must be idle, or
    /// end its operation on the walk's first tick (the words its drain
    /// pushes count for an `mvfc`), so nothing but the controller
    /// touches its FIFOs in the window.
    ///
    /// The later ones are the program entries after it, each issued 3
    /// ticks (its pickup, `Fetch` and `Decode`) after the last one's
    /// completion, as the program the FSM will find holds them (see
    /// `Controller::store`), one strided run of the store at a time
    /// (see `Controller::strided`). Like the first, each must pass the
    /// issue check once the words of the pickup and of the bursts ahead
    /// of it have landed or left, and its bank must translate; unlike
    /// it, it must have an immediate offset, which no issue before it
    /// moves. [`BusWindow::extend_run`] then asks the bus about the
    /// bursts' shapes. The RAC stays idle: a run holds no `exec`. The
    /// run ends at the first entry that does not qualify (a `djnz` or
    /// any other instruction among them), which then steps as any
    /// other.
    #[must_use]
    pub fn window_issue<'a>(
        &'a self,
        socket: &'a RacSocket,
        bus: &'a dyn SystemBus,
        regs: &'a RegsHandle,
        chain: bool,
    ) -> Option<(WindowIssue, impl Iterator<Item = Strided> + 'a)> {
        // Without chains only an `Execute` can issue: on the first tick.
        if !chain && !matches!(self.state, ControllerState::Execute) {
            return None;
        }
        let walk = self
            .walk(socket, bus, chain)
            .filter(|w| chain || w.ticks == 0)?;
        if socket.busy() && walk.drained.is_none() {
            return None;
        }
        let mut ledger = FifoLedger::default();
        if let Some((fifo, words)) = walk.pushed {
            ledger.count(true, fifo, words);
        }
        ledger.drained[0] = walk.drained.unwrap_or(0);
        let first = WindowIssue {
            master: self.master(),
            prefix: walk.ticks,
            shape: self.issue(walk.insn, socket, regs, &mut ledger)?,
        };
        let later = self.later(bus, walk.pc + 1, socket, regs, ledger);
        Some((first, later))
    }

    /// The later issues of a run from entry `pc` on, of the program
    /// the FSM will find on `bus` (see `Controller::store`, asked once
    /// a later issue is), each strided run of the store at most one
    /// [`Strided`], with `ledger` counting the words of the issues
    /// ahead of them.
    fn later<'a>(
        &'a self,
        bus: &'a dyn SystemBus,
        pc: u16,
        socket: &'a RacSocket,
        regs: &'a RegsHandle,
        mut ledger: FifoLedger,
    ) -> impl Iterator<Item = Strided> + 'a {
        let (mut store, mut next) = (None, Some(pc));
        std::iter::from_fn(move || {
            let pc = next.take()?;
            let run = store.get_or_insert_with(|| self.store(bus)).run(pc)?;
            let bursts = self.strided(&run, socket, regs, &mut ledger)?;
            if bursts.count == u32::from(run.count) {
                next = pc.checked_add(run.count);
            }
            Some(bursts)
        })
    }

    /// The bursts of the first transfers of `run` that issue one after
    /// another: those whose words the FIFO side has room for (one
    /// division), once the words `ledger` counts have landed or left,
    /// and whose offsets translate (the first and the last checked,
    /// since the offsets ascend). `None` when the first does not. Their
    /// words join the ledger.
    fn strided(
        &self,
        run: &StridedRun,
        socket: &RacSocket,
        regs: &RegsHandle,
        ledger: &mut FifoLedger,
    ) -> Option<Strided> {
        let t = &run.transfer;
        let words = t.burst.words();
        let room = ledger.room(t, socket) / usize::from(words);
        let fit = u32::try_from(room).map_or(u32::from(run.count), |r| r.min(u32::from(run.count)));
        let offset = self.control.offset(t);
        let (addr, count) = regs.with(|r| {
            let translate = |j: u32| banks::translate(r, t.bank, offset + j * run.stride).ok();
            let addr = translate(0)?;
            // Past the address space's end only the overflowing offsets
            // fail: the ones that translate are a prefix.
            let count = if fit <= 1 || translate(fit - 1).is_some() {
                fit
            } else {
                (1..fit).find(|&j| translate(j).is_none()).unwrap_or(fit)
            };
            Some((addr, count))
        })?;
        if count == 0 {
            return None;
        }
        ledger.count(
            t.to_coprocessor,
            t.fifo,
            usize::from(words) * count as usize,
        );
        Some(Strided {
            shape: burst_shape(t, addr),
            stride: run.stride * 4,
            count,
        })
    }

    /// The burst `insn` issues, if it is a transfer the tick would
    /// issue: it passes the issue check, counting the words `ledger`
    /// holds, and its bank translates. The issue's words join the
    /// ledger.
    fn issue(
        &self,
        insn: Option<Instruction>,
        socket: &RacSocket,
        regs: &RegsHandle,
        ledger: &mut FifoLedger,
    ) -> Option<TxnShape> {
        let t = Transfer::from_instruction(0, &insn?)?;
        let addr = self.issue_check(&t, socket, regs, ledger)?.ok()?;
        ledger.count(t.to_coprocessor, t.fifo, usize::from(t.burst.words()));
        Some(burst_shape(&t, addr))
    }

    /// The fast-forward horizon (see [`ouessant_sim::event`] for the
    /// contract), given the RAC socket, the bus the controller waits on
    /// and the bus side of the window, which its leap loop planned for
    /// every master at once (see [`BusWindow::plan`]). `walk` holds the
    /// FSM's walk (see `Controller::walk`) once it is followed, for the
    /// embedding OCP to reuse; only the last arm follows it.
    ///
    /// * `Idle` reports quiescent *from the controller's own view*: a
    ///   pending S bit lives in the register file, so the embedding OCP
    ///   checks `start_pending` before trusting it.
    /// * A wedged FSM never changes state on its own: only the socket
    ///   and the watchdog (merged by the embedding OCP) bound the
    ///   window.
    /// * A burst in flight, and the transfers the window issues for this
    ///   controller (its [`Controller::window_issue`]), defer to the
    ///   window's bus event: the port cannot be seen to complete before
    ///   the tick after it.
    /// * Otherwise the walk's event. A state that walks nowhere steps,
    ///   unless it waits on a busy socket that does not tell its end
    ///   (`RacWait`, `ReconfigWait`): those ticks do nothing until the
    ///   socket deasserts busy, so the socket's horizon bounds the
    ///   window. A busy socket that is quiescent (a RAC starved of
    ///   input) never deasserts busy: the watchdog, or the embedding
    ///   OCP's single-step safety net, bounds that.
    ///
    /// The answer is the coprocessor's, the socket's own horizon merged
    /// in: a RAC computes beside an FSM that walks (after `execn`). A
    /// walk through the RAC's end leaves it out, since that tick is the
    /// socket's event and idles it.
    pub(crate) fn horizon(
        &self,
        socket: &RacSocket,
        bus: &dyn SystemBus,
        window: &BusWindow,
        walk: &OnceCell<Option<Walk>>,
    ) -> Horizon {
        if self.wedged {
            return socket.outlook().horizon;
        }
        if window.issue_of(self.master()).is_some() {
            return Horizon::observed(window.event());
        }
        let own = match &self.state {
            ControllerState::Idle | ControllerState::Faulted(_) => Horizon::QUIESCENT,
            ControllerState::TransferBusWait | ControllerState::LoadProgram
                if self.dma.is_pending(bus) =>
            {
                Horizon::observed(window.event())
            }
            state => match (
                walk.get_or_init(|| self.walk(socket, bus, window.chains())),
                state,
            ) {
                // The RAC's end, its own event, is inside the walk, and
                // leaves it idle.
                (Some(w), _) if w.drained.is_some() => return w.event,
                (Some(w), _) => w.event,
                // The busy socket's horizon bounds the window.
                (None, ControllerState::RacWait | ControllerState::ReconfigWait)
                    if socket.busy() =>
                {
                    Horizon::QUIESCENT
                }
                (None, _) => return Horizon::NEXT_TICK,
            },
        };
        own.min(socket.outlook().horizon)
    }

    /// Whether the next tick picks up a burst that completed without
    /// error, moving the FSM from `TransferBusWait` or `LoadProgram`
    /// to `Fetch`.
    #[must_use]
    pub fn picks_up(&self, bus: &dyn SystemBus) -> bool {
        !self.wedged
            && matches!(
                self.state,
                ControllerState::TransferBusWait | ControllerState::LoadProgram
            )
            && matches!(self.dma.peek_completion(bus), Some(Ok(_)))
    }

    /// The ticks from `now` that leave the FSM where it stands, 0 when
    /// the next one moves it: `u64::MAX` in `Idle`, `Faulted`, any
    /// wedged state, and `TransferBusWait` or `LoadProgram` with the
    /// burst still in flight (a window ends before the tick any of them
    /// leaves); a `WaitCycles` holds up to the tick that retires it, and
    /// a `RacWait` or `ReconfigWait` up to the busy socket's event,
    /// which may be its last tick and the retire.
    pub(crate) fn holds(&self, socket: &RacSocket, bus: &dyn SystemBus, now: Instant) -> u64 {
        if self.wedged {
            return u64::MAX;
        }
        match self.state {
            ControllerState::Idle | ControllerState::Faulted(_) => u64::MAX,
            ControllerState::RacWait | ControllerState::ReconfigWait if socket.busy() => {
                socket.outlook().horizon.leap_bound(u64::MAX)
            }
            ControllerState::WaitCycles { until } => until.count().saturating_sub(now.count()),
            ControllerState::TransferBusWait | ControllerState::LoadProgram
                if self.dma.is_pending(bus) =>
            {
                u64::MAX
            }
            _ => 0,
        }
    }

    /// Replays `segment`, whole later bursts of the run whose burst in
    /// flight has completed on the port, in one step, leaving the FSM
    /// where stepping would: on the last burst in `TransferBusWait`,
    /// its completion waiting on the port. The segment is the next
    /// entries' strided run, or its first transfers (see
    /// `ProgramStore`): one transfer tells every burst's direction,
    /// FIFO and words. Each burst costs its data move: the pickup of
    /// the burst before it lands a read's words in their input FIFO,
    /// and a write's issue pops its payload, both handed through the
    /// bus's [`SystemBus::replay_run`], which charges the bursts in
    /// closed form. The socket advances once, over every burst's ticks,
    /// before the words move: the RAC is idle through a run (a run
    /// holds no `exec`), and an idle RAC's ticks leave its FIFOs alone.
    /// The pc, the statistics and the latched instruction move once:
    /// every burst's pickup retires an instruction, and a later burst
    /// has an immediate offset, so no offset register moves.
    pub(crate) fn replay_run(
        &mut self,
        bus: &mut dyn SystemBus,
        socket: &mut RacSocket,
        origin: Instant,
        segment: RunSegment,
    ) {
        let Some(Ok(picked)) = self.dma.take_completion(bus) else {
            unreachable!("a run step starts on a completed burst");
        };
        if let Some(fifo) = self.pending_read.take() {
            socket
                .push_inputs(fifo.index(), &picked.data)
                .expect("space reserved before issue");
            self.stats.words_transferred += picked.data.len() as u64;
        }
        let run = self.program.run(self.pc + 1);
        let t = run.expect("the plan translated the run").transfer;
        debug_assert!(
            run.is_some_and(|r| segment.count <= u32::from(r.count)
                && (segment.count == 1 || segment.stride == r.stride * 4)),
            "a segment is the next entries' strided run"
        );
        debug_assert!(!socket.busy(), "the RAC idles through a run");
        // From the last burst's completion: its pickup, `Fetch`,
        // `Decode`, the issue and the burst.
        let b = segment.first;
        let count = u64::from(segment.count);
        socket.advance(Cycle::new(count * (b.event + 1 + PICKUP_TICKS - b.issue)));
        let (fifo, words) = (t.fifo.index(), usize::from(t.burst.words()));
        let last = segment.count as usize - 1;
        bus.replay_run(self.master(), origin, segment, &mut |k, data| {
            if !t.to_coprocessor {
                socket
                    .pop_outputs(fifo, words, data)
                    .expect("the plan counted the words");
            } else if k < last {
                // The last read's words wait on the port for its pickup.
                socket
                    .push_inputs(fifo, data)
                    .expect("the plan counted the space");
            }
        });
        let moved = if t.to_coprocessor { count - 1 } else { count };
        self.stats.instructions_retired += count;
        self.stats.words_transferred += moved * u64::from(t.burst.words());
        self.pc += u16::try_from(segment.count).expect("a run lies in the program store");
        self.current = self
            .program
            .entry(self.pc)
            .and_then(|e| e.as_ref().ok())
            .copied();
        self.pending_read = t.to_coprocessor.then_some(t.fifo);
    }

    /// Publishes the FSM state, pc, retired instructions and
    /// transferred words to the debug register window.
    #[allow(clippy::cast_possible_truncation)] // the 32-bit debug counters wrap, as in hardware
    pub(crate) fn publish_debug(&self, regs: &RegsHandle) {
        let (state_id, retired, words, pc) = (
            self.state.id(),
            self.stats.instructions_retired as u32,
            self.stats.words_transferred as u32,
            u32::from(self.pc),
        );
        regs.with_mut(|r| r.set_debug(state_id, retired, words, pc));
    }

    /// Advances the controller one clock cycle.
    ///
    /// `irq` is the GPP interrupt line, `regs` the shared register file,
    /// `socket` the RAC with its FIFOs (ticked separately by the OCP).
    pub fn tick(
        &mut self,
        bus: &mut dyn SystemBus,
        regs: &RegsHandle,
        socket: &mut RacSocket,
        irq: &IrqLine,
    ) {
        let now = bus.now();
        self.step_fsm(bus, regs, socket, irq, now);
        self.publish_debug(regs);
    }

    /// One FSM step on the tick that starts on cycle `now`; the public
    /// [`Controller::tick`] wraps it so the debug registers are
    /// refreshed on every exit path, and
    /// [`Ocp::advance`](crate::Ocp::advance) takes it for the ticks of a
    /// leap that walk, whose bus may stand ahead of them.
    #[allow(clippy::too_many_lines)] // one arm per FSM state, kept together deliberately
    pub(crate) fn step_fsm(
        &mut self,
        bus: &mut dyn SystemBus,
        regs: &RegsHandle,
        socket: &mut RacSocket,
        irq: &IrqLine,
        now: Instant,
    ) {
        if self.wedged {
            // Frozen handshake: the state holds. A wedge ends only in a
            // fault or a reset, so a wedged `wait` never resumes.
            return;
        }
        match std::mem::replace(&mut self.state, ControllerState::Idle) {
            ControllerState::Idle => {
                if regs.with_mut(|r| r.take_start()) {
                    let size = regs.with(|r| r.prog_size());
                    let len = match u16::try_from(size) {
                        Ok(len) if len != 0 && usize::from(len) <= MAX_PROGRAM_LEN => len,
                        _ => {
                            self.set_fault(ExecError::BadProgSize { size });
                            return;
                        }
                    };
                    self.control = ControlState::default();
                    if self.preloaded {
                        // Standalone mode (§VI): the microcode sits in an
                        // internal ROM, no bank-0 fetch needed.
                        self.pc = 0;
                        self.state = ControllerState::Fetch;
                        return;
                    }
                    // Burst-read the whole microcode from bank 0.
                    let bank0 = u8::try_from(PROGRAM_BANK)
                        .ok()
                        .and_then(|b| Bank::new(b).ok());
                    let bank0 = bank0.expect("bank 0 valid");
                    let addr = match regs.with(|r| banks::translate(r, bank0, 0)) {
                        Ok(a) => a,
                        Err(e) => {
                            self.set_fault(e.into());
                            return;
                        }
                    };
                    if let Err(e) = self.dma.begin_read(bus, addr, len) {
                        self.set_fault(e.into());
                        return;
                    }
                    self.state = ControllerState::LoadProgram;
                } else {
                    self.state = ControllerState::Idle;
                }
            }
            state @ (ControllerState::LoadProgram | ControllerState::TransferBusWait) => {
                self.await_burst(state, bus, socket);
            }
            ControllerState::Fetch => {
                if usize::from(self.pc) >= self.program.len() {
                    self.set_fault(ExecError::PcOverrun { pc: self.pc });
                    return;
                }
                self.state = ControllerState::Decode;
            }
            ControllerState::Decode => match *self.program.entry(self.pc).expect("fetched") {
                Ok(insn) => {
                    self.current = Some(insn);
                    self.state = ControllerState::Execute;
                }
                Err(source) => {
                    self.set_fault(ExecError::BadInstruction {
                        pc: self.pc,
                        source,
                    });
                }
            },
            ControllerState::Execute => {
                let insn = self.current.expect("decode set current");
                self.dispatch(insn, bus, regs, socket, irq, now);
            }
            ControllerState::TransferFifoWait => {
                let t = self.current_transfer().expect("transfer in progress");
                self.try_issue_transfer(t, bus, regs, socket);
            }
            state @ (ControllerState::RacWait | ControllerState::ReconfigWait) => {
                if socket.busy() {
                    self.state = state;
                } else {
                    self.retire();
                }
            }
            ControllerState::WaitCycles { until } => {
                if now >= until {
                    self.retire();
                } else {
                    self.state = ControllerState::WaitCycles { until };
                }
            }
            ControllerState::SyncWait => {
                if socket.all_fifos_empty() {
                    self.retire();
                } else {
                    self.state = ControllerState::SyncWait;
                }
            }
            ControllerState::Faulted(e) => {
                self.state = ControllerState::Faulted(e);
            }
        }
    }

    /// One `LoadProgram` or `TransferBusWait` tick (`state` is the
    /// state the tick started in): once the port has completed, it picks
    /// the burst up — the program is predecoded, or a read's payload
    /// lands in its input FIFO and the transfer retires.
    fn await_burst(
        &mut self,
        state: ControllerState,
        bus: &mut dyn SystemBus,
        socket: &mut RacSocket,
    ) {
        let loading = state == ControllerState::LoadProgram;
        match self.dma.take_completion(bus) {
            None => self.state = state,
            Some(Err(e)) => self.set_fault(e.into()),
            Some(Ok(c)) if loading => {
                self.program.reload(&c.data);
                self.pc = 0;
                self.state = ControllerState::Fetch;
            }
            Some(Ok(c)) => {
                // Reads deliver their payload into the input FIFO here;
                // writes were counted when their payload was popped at
                // issue time.
                if let Some(fifo) = self.pending_read.take() {
                    socket
                        .push_inputs(fifo.index(), &c.data)
                        .expect("space reserved before issue");
                    self.stats.words_transferred += c.data.len() as u64;
                }
                self.retire();
            }
        }
    }

    fn dispatch(
        &mut self,
        insn: Instruction,
        bus: &mut dyn SystemBus,
        regs: &RegsHandle,
        socket: &mut RacSocket,
        irq: &IrqLine,
        now: Instant,
    ) {
        match insn {
            Instruction::Nop => self.retire(),
            Instruction::Exec { op } => {
                socket.start(op);
                self.state = ControllerState::RacWait;
            }
            Instruction::Execn { op } => {
                socket.start(op);
                self.retire();
            }
            Instruction::Wrac => {
                self.state = ControllerState::RacWait;
            }
            Instruction::Eop => {
                regs.with_mut(|r| r.set_done());
                if regs.with(|r| r.irq_enabled()) {
                    irq.raise();
                }
                self.stats.instructions_retired += 1;
                self.stats.runs_completed += 1;
                self.current = None;
                self.state = ControllerState::Idle;
            }
            Instruction::Halt => {
                self.stats.instructions_retired += 1;
                self.current = None;
                self.state = ControllerState::Idle;
            }
            Instruction::Ldc { .. }
            | Instruction::Djnz { .. }
            | Instruction::Ldo { .. }
            | Instruction::Addo { .. } => {
                let flow = self.control.step(&insn);
                // A taken `djnz` retires too, then fetches its target.
                self.retire();
                if let Flow::Jump(target) = flow {
                    self.pc = target.value();
                }
            }
            Instruction::Wait { cycles } => {
                if cycles == 0 {
                    self.retire();
                } else {
                    self.state = ControllerState::WaitCycles {
                        until: now + Cycle::new(u64::from(cycles)),
                    };
                }
            }
            Instruction::Sync => {
                self.state = ControllerState::SyncWait;
            }
            Instruction::Rcfg { slot } => {
                use ouessant_rac::rac::ReconfigResponse;
                match socket.reconfigure(slot) {
                    ReconfigResponse::Started { cycles } if cycles > 0 => {
                        self.state = ControllerState::ReconfigWait;
                    }
                    ReconfigResponse::Started { .. } => self.retire(),
                    ReconfigResponse::Unsupported => {
                        self.set_fault(ExecError::Reconfig { slot, available: 0 });
                    }
                    ReconfigResponse::BadSlot { available } => {
                        self.set_fault(ExecError::Reconfig { slot, available });
                    }
                }
            }
            // `mvtc`/`mvfc`/`mvtcr`/`mvfcr`, through their common view.
            _ => {
                let t = Transfer::from_instruction(0, &insn)
                    .expect("every other instruction is a transfer");
                self.try_issue_transfer(t, bus, regs, socket);
            }
        }
    }

    /// Issues transfer `t` if its issue check passes: a read reserves
    /// its input FIFO, a write pops its payload from the output FIFO,
    /// and a register offset is post-incremented. A FIFO side that is
    /// not ready waits in `TransferFifoWait`; a bank that does not
    /// translate, or a burst the bus rejects, faults.
    fn try_issue_transfer(
        &mut self,
        t: Transfer,
        bus: &mut dyn SystemBus,
        regs: &RegsHandle,
        socket: &mut RacSocket,
    ) {
        let addr = match self.issue_check(&t, socket, regs, &FifoLedger::default()) {
            None => {
                self.state = ControllerState::TransferFifoWait;
                return;
            }
            Some(Err(e)) => {
                self.set_fault(e.into());
                return;
            }
            Some(Ok(addr)) => addr,
        };
        let words = t.burst.words();
        self.pending_read = t.to_coprocessor.then_some(t.fifo);
        let issue_result = if t.to_coprocessor {
            self.dma.begin_read(bus, addr, words)
        } else {
            let mut payload = Vec::with_capacity(usize::from(words));
            socket
                .pop_outputs(t.fifo.index(), usize::from(words), &mut payload)
                .expect("occupancy checked above");
            self.stats.words_transferred += u64::from(words);
            self.dma.begin_write(bus, addr, payload)
        };
        if let Err(e) = issue_result {
            self.set_fault(e.into());
            return;
        }
        self.control.resolve(&t);
        self.state = ControllerState::TransferBusWait;
    }
}

/// The burst transfer `t` makes at bus address `addr`: a read for
/// `mvtc`, a write for `mvfc`.
fn burst_shape(t: &Transfer, addr: Addr) -> TxnShape {
    let kind = if t.to_coprocessor {
        TxnKind::Read
    } else {
        TxnKind::Write
    };
    TxnShape {
        kind,
        addr,
        beats: t.burst.words(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_ids_are_distinct() {
        let states = [
            ControllerState::Idle,
            ControllerState::LoadProgram,
            ControllerState::Fetch,
            ControllerState::Decode,
            ControllerState::Execute,
            ControllerState::TransferFifoWait,
            ControllerState::TransferBusWait,
            ControllerState::RacWait,
            ControllerState::WaitCycles {
                until: Instant::new(1),
            },
            ControllerState::SyncWait,
            ControllerState::ReconfigWait,
            ControllerState::Faulted(ExecError::PcOverrun { pc: 0 }),
        ];
        let mut ids: Vec<u32> = states.iter().map(ControllerState::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), states.len());
    }

    #[test]
    fn exec_error_messages() {
        let e = ExecError::BadProgSize { size: 0 };
        assert!(e.to_string().contains("program size"));
        let e = ExecError::PcOverrun { pc: 7 };
        assert!(e.to_string().contains('7'));
    }

    impl Controller {
        /// The later issues of a run from entry `pc` on, planned one
        /// program entry at a time, as the planner did before the store
        /// was translated: the oracle `Controller::later` must equal burst
        /// by burst.
        fn later_oracle<'a>(
            &'a self,
            entry: impl Fn(u16) -> Option<Instruction> + 'a,
            pc: u16,
            socket: &'a RacSocket,
            regs: &'a RegsHandle,
            mut ledger: FifoLedger,
        ) -> impl Iterator<Item = TxnShape> + 'a {
            let mut pc = pc;
            std::iter::from_fn(move || {
                let insn = entry(pc)?;
                pc += 1;
                let t = Transfer::from_instruction(0, &insn)?;
                t.start_offset()?;
                self.issue(Some(insn), socket, regs, &mut ledger)
            })
        }
    }

    /// A drawn program of up to 64 entries before its `eop`: mostly
    /// transfers of a few shapes (banks 1, 2 and the unconfigured 3,
    /// FIFOs 0 and 1, bursts of 1 to 64 words, each offset the last
    /// one's plus a stride of 0, the burst, past it, or backwards),
    /// most of the last one's shape, a few at a drawn offset, among
    /// register-offset transfers, `nop`s and `wait`s.
    fn drawn_program(rng: &mut ouessant_sim::XorShift64) -> Vec<u32> {
        let mut source = String::new();
        let (mut shape, mut step, mut offset) = (("mvtc", 1, 0, 4), 4, 0);
        for _ in 0..rng.gen_range_u32(1..65) {
            let pick = rng.gen_range_u32(0..32);
            if pick < 3 {
                shape = (
                    ["mvtc", "mvfc"][rng.gen_range_u32(0..2) as usize],
                    [1, 1, 2, 3][rng.gen_range_u32(0..4) as usize],
                    [0, 0, 0, 1][rng.gen_range_u32(0..4) as usize],
                    [1, 4, 16, 64][rng.gen_range_u32(0..4) as usize],
                );
                step = [0, 1, 1, 2, -1][rng.gen_range_u32(0..5) as usize] * shape.3
                    + i32::from(rng.gen_range_u32(0..4) == 0);
            }
            let (dir, bank, fifo, words) = shape;
            match pick {
                30 => source.push_str("nop\n"),
                31 => source.push_str("wait 3\n"),
                29 => source.push_str(&format!("{dir}r BANK{bank},O0,DMA{words},FIFO{fifo}\n")),
                _ => {
                    offset = if pick == 28 {
                        rng.gen_range_u32(0..200) as i32
                    } else {
                        (offset + step).clamp(0, 16383)
                    };
                    source.push_str(&format!(
                        "{dir} BANK{bank},{offset},DMA{words},FIFO{fifo}\n"
                    ));
                }
            }
        }
        source.push_str("eop");
        ouessant_isa::assemble(&source).unwrap().to_words()
    }

    /// For drawn programs, FIFO fills and ledgers, and every entry pc,
    /// the runs the translated store plans equal, burst by burst, the
    /// ones the per-instruction planner plans: bank 2 sits near the end
    /// of the address space, so some of its offsets do not translate.
    #[test]
    fn the_translated_planner_matches_the_per_instruction_one() {
        use ouessant_rac::passthrough::PassthroughRac;
        use ouessant_sim::bus::{Bus, BusConfig};

        let (mut bursts, mut long) = (0, 0);
        for seed in 1..=300 {
            let mut rng = ouessant_sim::XorShift64::new(seed);
            let words = drawn_program(&mut rng);
            let mut bus = Bus::new(BusConfig::default());
            let master = bus.register_master();
            let mut c = Controller::new(DmaPort::new(master));
            c.preload_program(&words);
            let regs = RegsHandle::new();
            regs.set_bank(1, 0x4000_0000).unwrap();
            regs.set_bank(2, 0xFFFF_FC00).unwrap();
            let depth = rng.gen_range_u32(1..2000) as usize;
            let mut socket = RacSocket::new(Box::new(PassthroughRac::new(0)), depth);
            let (out, inp) = (
                rng.gen_range_u32(0..depth as u32 + 1),
                rng.gen_range_u32(0..depth as u32 / 4 + 1),
            );
            socket.push_inputs(0, &vec![7; out as usize]).unwrap();
            socket.start(u16::try_from(out).unwrap());
            socket.run_until_done(10_000);
            socket.push_inputs(0, &vec![9; inp as usize]).unwrap();
            let mut ledger = FifoLedger::default();
            ledger.pushed[0] = rng.gen_range_u32(0..65) as usize;
            ledger.popped[0] = rng.gen_range_u32(0..65) as usize;
            ledger.drained[0] = rng.gen_range_u32(0..65) as usize;
            let entry = |pc: u16| c.program.entry(pc)?.as_ref().ok().copied();
            for pc in 0..u16::try_from(words.len()).unwrap() {
                let translated: Vec<TxnShape> = c
                    .later(&bus, pc, &socket, &regs, ledger)
                    .inspect(|b| long += usize::from(b.count >= 8))
                    .flat_map(|b| {
                        (0..b.count).map(move |j| TxnShape {
                            addr: b.shape.addr + j * b.stride,
                            ..b.shape
                        })
                    })
                    .collect();
                let oracle: Vec<TxnShape> =
                    c.later_oracle(entry, pc, &socket, &regs, ledger).collect();
                assert_eq!(translated, oracle, "seed {seed}, pc {pc}");
                bursts += oracle.len();
            }
        }
        assert!(bursts > 15_000, "{bursts} bursts planned");
        assert!(long > 400, "{long} strides of 8 bursts or more");
    }

    // Full FSM behaviour is exercised through the Ocp in ocp.rs tests
    // and the cross-crate integration tests.
}
