//! An AHB-like system bus: arbiter, address decode, burst transfers.
//!
//! The paper integrates the OCP "in a classical way, meaning as a regular
//! peripheral (usually on the communication bus)" — on its Leon3 platform
//! that bus is AMBA2 AHB. This model reproduces the AHB timing structure
//! that the paper's transfer results (≈1.5 cycles per word, §V-B) depend
//! on:
//!
//! * a single shared data path with one active transaction at a time;
//! * fixed-priority arbitration: the lowest [`MasterId`] that requests
//!   wins (the paper's Leon3 CPU is registered first and thus outranks
//!   the OCP);
//! * an arbitration cycle (grant) followed by an address cycle;
//! * data beats of one word per cycle plus per-slave wait states (a
//!   higher first-access penalty models the external SRAM of the
//!   paper's Nexys4 board);
//! * long transfers split into sub-bursts of at most
//!   [`BusConfig::max_burst_beats`] beats (AHB INCR16), with
//!   re-arbitration between sub-bursts so other masters can interleave.
//!
//! Masters interact through a polling interface that mirrors bus-request/
//! bus-grant signalling: [`Bus::try_begin`] raises the request,
//! [`Bus::tick`] advances one clock cycle, [`Bus::poll`] samples the
//! port, and [`Bus::take_completion`] retires the finished transaction.
//!
//! For fast-forward, [`Bus::horizon`] is the next transaction
//! completion: the rest of the sub-burst holding the bus, then the
//! whole transaction of the top requester, which wins every
//! re-arbitration until it completes. [`Bus::advance`] leaps to it (or
//! through it, since no master sees it before the next tick) through
//! every grant, address phase, wait state, beat and re-arbitration on
//! the way; a lone requester's whole transaction is one closed-form
//! step.
//! [`Bus::time_burst`](SystemBus::time_burst) answers the same
//! question with one more burst issued, given by its [`TxnShape`], so a
//! master's issue can sit inside a leap too.
//!
//! The address map (`SlaveMap`: decode, the span check `try_begin` and
//! the what-if share, slave timing read at mapping, debug access) and
//! the accepted-transaction record (`Txn`) are shared with the AXI-like
//! [`crate::axi::AxiBus`]; each bus keeps only its own timing FSM.

use std::error::Error;
use std::fmt;
use std::num::NonZeroU64;

use crate::axi::SystemBus;
use crate::clock::{Cycle, Instant};
use crate::event::{Horizon, RunBurst, RunSegment, Strided};
use crate::trace::{BusEvent, Trace};

/// A byte address on the system bus.
pub type Addr = u32;

/// Identifies a registered bus master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MasterId(usize);

impl MasterId {
    /// The raw index (registration order, which is also the fixed
    /// arbitration priority).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    pub(crate) fn from_index(index: usize) -> Self {
        Self(index)
    }
}

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Transfer from slave to master.
    Read,
    /// Transfer from master to slave.
    Write,
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnKind::Read => f.write_str("read"),
            TxnKind::Write => f.write_str("write"),
        }
    }
}

/// A transaction request: a word-aligned address plus a burst of beats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRequest {
    shape: TxnShape,
    data: Vec<u32>,
}

impl TxnRequest {
    /// A burst read of `beats` words starting at `addr`.
    #[must_use]
    pub fn read(addr: Addr, beats: u16) -> Self {
        Self {
            shape: TxnShape {
                kind: TxnKind::Read,
                addr,
                beats,
            },
            data: Vec::new(),
        }
    }

    /// A single-word read.
    #[must_use]
    pub fn read_word(addr: Addr) -> Self {
        Self::read(addr, 1)
    }

    /// A burst write of `data` starting at `addr`. A payload longer
    /// than a burst can be (`u16::MAX` beats) is kept whole, so the bus
    /// rejects it with [`BusError::PayloadLength`] instead of moving
    /// part of it.
    #[must_use]
    pub fn write(addr: Addr, data: Vec<u32>) -> Self {
        let beats = u16::try_from(data.len()).unwrap_or(u16::MAX);
        Self {
            shape: TxnShape {
                kind: TxnKind::Write,
                addr,
                beats,
            },
            data,
        }
    }

    /// A single-word write.
    #[must_use]
    pub fn write_word(addr: Addr, value: u32) -> Self {
        Self::write(addr, vec![value])
    }

    /// The transaction kind.
    #[must_use]
    pub fn kind(&self) -> TxnKind {
        self.shape.kind
    }

    /// The start address.
    #[must_use]
    pub fn addr(&self) -> Addr {
        self.shape.addr
    }

    /// The request's shape: what the bus times and checks it by.
    #[must_use]
    pub fn shape(&self) -> TxnShape {
        self.shape
    }
}

/// A request without its payload: all the bus times a burst and checks
/// where it lands by, so a master can ask about a burst before it has
/// the words it will write ([`SystemBus::time_burst`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnShape {
    /// Read or write.
    pub kind: TxnKind,
    /// The start address.
    pub addr: Addr,
    /// Number of data beats.
    pub beats: u16,
}

/// The result of a finished transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Transaction kind.
    pub kind: TxnKind,
    /// Start address.
    pub addr: Addr,
    /// Read data (empty for writes).
    pub data: Vec<u32>,
    /// Cycle at which [`Bus::try_begin`] accepted the request.
    pub issued_at: Instant,
    /// Cycle at which the final beat completed.
    pub completed_at: Instant,
    /// Total cycles from issue to completion.
    pub cycles: u64,
}

/// State of a master port as seen by [`Bus::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortState {
    /// No transaction outstanding.
    Idle,
    /// A transaction is queued or in flight.
    Pending,
    /// A completion is waiting to be taken.
    Complete,
}

impl PortState {
    /// Whether a transaction is still in flight.
    #[must_use]
    pub fn is_pending(self) -> bool {
        matches!(self, PortState::Pending)
    }
}

/// A fault raised by a slave during a beat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlaveFault {
    /// Explanation (e.g. `"offset out of range"`).
    pub reason: String,
}

impl fmt::Display for SlaveFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slave fault: {}", self.reason)
    }
}

impl Error for SlaveFault {}

/// A memory-mapped peripheral or memory on the bus.
///
/// Offsets are byte offsets from the slave's base address, always
/// word-aligned. Wait states let a slave model its access latency; the
/// bus charges `first_access_wait_states` before the first beat of every
/// sub-burst and `sequential_wait_states` between subsequent beats.
///
/// The bus reads `first_access_wait_states`, `sequential_wait_states`
/// and `fault_free` once, when the slave is mapped, and times every
/// burst by those values: they must not change while the slave is
/// mapped.
pub trait BusSlave {
    /// Name used in error messages and debug output.
    fn name(&self) -> &str;

    /// Size of the slave's address window in bytes.
    fn size(&self) -> u32;

    /// Reads the word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns a [`SlaveFault`] for offsets the device cannot serve.
    fn read_word(&mut self, offset: u32) -> Result<u32, SlaveFault>;

    /// Writes the word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns a [`SlaveFault`] for offsets the device cannot serve.
    fn write_word(&mut self, offset: u32, value: u32) -> Result<(), SlaveFault>;

    /// Reads `count` consecutive words starting at `offset`, appending
    /// them to `out`, exactly as `count` calls of
    /// [`BusSlave::read_word`] would: the words before the first fault
    /// are appended, and that fault is returned.
    ///
    /// # Errors
    ///
    /// The [`SlaveFault`] of the first word that fails.
    fn read_words(
        &mut self,
        offset: u32,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), SlaveFault> {
        for word in (offset..).step_by(4).take(count) {
            out.push(self.read_word(word)?);
        }
        Ok(())
    }

    /// Writes `data` to consecutive words starting at `offset`, exactly
    /// as one [`BusSlave::write_word`] per word would: the words before
    /// the first fault are written.
    ///
    /// # Errors
    ///
    /// The index in `data` and the [`SlaveFault`] of the first word
    /// that fails.
    fn write_words(&mut self, offset: u32, data: &[u32]) -> Result<(), (usize, SlaveFault)> {
        for (i, (&value, word)) in data.iter().zip((offset..).step_by(4)).enumerate() {
            self.write_word(word, value).map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Wait states before the first beat of a sub-burst.
    fn first_access_wait_states(&self) -> u32 {
        0
    }

    /// Wait states between subsequent beats of a sub-burst.
    fn sequential_wait_states(&self) -> u32 {
        0
    }

    /// Whether every in-window access succeeds. The bus rejects bursts
    /// that leave the window at [`Bus::try_begin`], so for such a slave
    /// the beats of a transfer are fixed by the protocol alone and
    /// fast-forward may leap through them. The default `false` stops
    /// every leap at this slave's next beat, so a fault lands on its
    /// exact cycle.
    fn fault_free(&self) -> bool {
        false
    }
}

/// Errors surfaced by [`Bus::try_begin`] or recorded in a completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// The master already has a transaction outstanding.
    Busy,
    /// The address is not word-aligned.
    Unaligned {
        /// Offending address.
        addr: Addr,
    },
    /// A zero-beat transaction was requested.
    EmptyBurst,
    /// A write's payload is not exactly its burst's beats (a payload
    /// longer than `u16::MAX` words).
    PayloadLength {
        /// Beats of the burst.
        beats: u16,
        /// Words of the payload.
        words: usize,
    },
    /// No slave is mapped at the address range.
    Unmapped {
        /// Offending address.
        addr: Addr,
    },
    /// The burst would cross out of its slave's window (or a debug
    /// range would run past the top of the address space).
    CrossesSlaveBoundary {
        /// Start address.
        addr: Addr,
        /// Number of beats.
        beats: u16,
    },
    /// The slave faulted mid-transaction.
    Fault(SlaveFault),
    /// The master id was not obtained from this bus.
    UnknownMaster,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Busy => f.write_str("master already has a transaction outstanding"),
            BusError::Unaligned { addr } => write!(f, "address {addr:#010x} is not word-aligned"),
            BusError::EmptyBurst => f.write_str("burst of zero beats"),
            BusError::PayloadLength { beats, words } => write!(
                f,
                "write payload of {words} words does not fit its burst of {beats} beats"
            ),
            BusError::Unmapped { addr } => write!(f, "no slave mapped at {addr:#010x}"),
            BusError::CrossesSlaveBoundary { addr, beats } => write!(
                f,
                "burst of {beats} beats at {addr:#010x} crosses its slave's window"
            ),
            BusError::Fault(e) => write!(f, "{e}"),
            BusError::UnknownMaster => f.write_str("master id not registered on this bus"),
        }
    }
}

impl Error for BusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BusError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

/// Static bus parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Maximum beats per sub-burst before re-arbitration (AHB INCR16
    /// ⇒ 16).
    pub max_burst_beats: u16,
}

impl Default for BusConfig {
    fn default() -> Self {
        Self {
            max_burst_beats: 16,
        }
    }
}

/// Aggregate bus statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusStats {
    /// Cycles ticked.
    pub cycles: u64,
    /// Cycles with a transaction occupying the data path (including
    /// grant/address/wait cycles).
    pub busy_cycles: u64,
    /// Grants issued (one per sub-burst).
    pub grants: u64,
    /// Data beats completed.
    pub beats: u64,
    /// Cycles a master spent requesting while another held the bus,
    /// summed over masters. Charged on the owner's grant, address and
    /// non-final beat cycles only: its wait-state cycles and the final
    /// beat of each sub-burst charge nothing.
    pub contention_cycles: u64,
}

/// Per-master statistics — the arbitration-level view a pool scheduler
/// needs: which master is hogging the data path, and who is starving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MasterStats {
    /// Grants won (one per sub-burst).
    pub grants: u64,
    /// Data beats completed on this master's behalf.
    pub beats: u64,
    /// Cycles spent requesting while another master held the bus, as
    /// counted by [`BusStats::contention_cycles`] (wait-state cycles of
    /// the owner charge nothing).
    pub contention_cycles: u64,
}

/// A master's status reads inside fast-forward windows: one-word reads
/// of `addr`, each requested `every` cycles after the cycle the last
/// one completed on, which the master only counts.
///
/// Installed on a [`Bus`] for one window ([`SystemBus::set_polls`]),
/// the reads are a requester the bus times itself, in its contended
/// loop (see [`Bus::advance`](SystemBus::advance)): it requests each
/// read on its cycle, grants it by fixed priority against the other
/// master, and charges its grant, beat, busy cycles and contention as
/// stepping does. A read that completes is taken and counted in
/// `taken`, its word unread, unless `stop`: then it ends the window on
/// its cycle, its completion left on the port for the master to see.
/// So a read must have no side effect and never fault, and its data
/// must not matter while `stop` is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Polls {
    /// The polling master.
    pub master: MasterId,
    /// The word each read fetches.
    pub addr: Addr,
    /// Cycles from a read's completion to the request of the next, at
    /// least 1.
    pub every: u64,
    /// The cycle the next read is requested on (it stands from the
    /// tick after), `None` while one is outstanding.
    pub next: Option<Instant>,
    /// Whether a completed read ends the window.
    pub stop: bool,
    /// Reads taken inside windows.
    pub taken: u64,
}

/// Installed [`Polls`], with their slave's index and timing.
#[derive(Debug, Clone, Copy)]
struct PollLane {
    polls: Polls,
    slave_idx: usize,
    timing: SlaveTiming,
}

/// An accepted transaction, as both bus models hold it from
/// `try_begin` to its completion: the request, its progress and the
/// slave [`SlaveMap::validate`] found for it.
#[derive(Debug)]
pub(crate) struct Txn {
    req: TxnRequest,
    beats_done: u16,
    read_data: Vec<u32>,
    issued_at: Instant,
    pub(crate) slave_idx: usize,
}

impl Txn {
    /// Accepts `req` at cycle `now`, bound for slave `slave_idx`.
    pub(crate) fn new(req: TxnRequest, slave_idx: usize, now: Instant) -> Self {
        let capacity = match req.shape.kind {
            TxnKind::Read => usize::from(req.shape.beats),
            TxnKind::Write => 0,
        };
        Self {
            req,
            beats_done: 0,
            read_data: Vec::with_capacity(capacity),
            issued_at: now,
            slave_idx,
        }
    }

    /// Beats not yet moved.
    pub(crate) fn remaining(&self) -> u16 {
        self.req.shape.beats - self.beats_done
    }

    /// Whether every beat has moved.
    pub(crate) fn is_done(&self) -> bool {
        self.beats_done == self.req.shape.beats
    }

    /// Moves the next `count` data beats through the transaction's
    /// slave in one slave call, returning the beats moved and the
    /// slave's fault, if any. A faulting beat counts as moved and ends
    /// the run: the beats after it are not attempted.
    pub(crate) fn move_beats(
        &mut self,
        slaves: &mut SlaveMap,
        count: u16,
    ) -> (u16, Option<SlaveFault>) {
        let slave = &mut slaves.slaves[self.slave_idx];
        let offset = self.req.shape.addr + u32::from(self.beats_done) * 4 - slave.base;
        // A slave call moves at most `count` words before its fault.
        let through = |moved: usize| u16::try_from(moved).map_or(count, |m| m + 1);
        let (moved, fault) = match self.req.shape.kind {
            TxnKind::Read => {
                let before = self.read_data.len();
                match slave
                    .device
                    .read_words(offset, usize::from(count), &mut self.read_data)
                {
                    Ok(()) => (count, None),
                    Err(e) => (through(self.read_data.len() - before), Some(e)),
                }
            }
            TxnKind::Write => {
                let start = usize::from(self.beats_done);
                let data = &self.req.data[start..start + usize::from(count)];
                match slave.device.write_words(offset, data) {
                    Ok(()) => (count, None),
                    Err((i, e)) => (through(i), Some(e)),
                }
            }
        };
        self.beats_done += moved;
        (moved, fault)
    }

    /// The completion of a transaction whose last beat moved at `now`.
    pub(crate) fn finish(self, now: Instant) -> Completion {
        Completion {
            kind: self.req.shape.kind,
            addr: self.req.shape.addr,
            data: self.read_data,
            issued_at: self.issued_at,
            completed_at: now,
            cycles: (now - self.issued_at).count(),
        }
    }
}

#[derive(Debug)]
struct MasterPort {
    outstanding: Option<Txn>,
    completion: Option<Result<Completion, BusError>>,
    stats: MasterStats,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Grant issued this cycle; address phase next.
    Granted,
    /// Address phase done; counting down wait states before a beat.
    Beat { wait_left: u32, sub_beats_left: u16 },
}

#[derive(Debug, Clone, Copy)]
struct ActiveGrant {
    master: usize,
    phase: Phase,
}

/// The data-phase timing rule: cycles from a point with `wait` wait
/// states before the next beat through the `beat`-th beat from there
/// (1-based), each later beat preceded by `seq_wait` wait states. With
/// the grant and address cycles and [`Bus::sub_burst_beats`] it is the
/// whole timing of a sub-burst, and `tick`, `advance` and `horizon` all
/// read it from here.
fn beat_offset(wait: u32, seq_wait: u32, beat: u64) -> u64 {
    u64::from(wait) + beat + (beat - 1) * u64::from(seq_wait)
}

/// The inverse of [`beat_offset`]: how many beats, from a point with
/// `wait` wait states before the next one, end within `n` cycles.
fn beats_within(wait: u32, seq_wait: u32, n: u64) -> u64 {
    n.checked_sub(u64::from(wait) + 1)
        .map_or(0, |slack| slack / (1 + u64::from(seq_wait)) + 1)
}

/// A slave's [`BusSlave::first_access_wait_states`],
/// [`BusSlave::sequential_wait_states`] and [`BusSlave::fault_free`],
/// read once when it is mapped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlaveTiming {
    pub(crate) first_wait: u32,
    pub(crate) seq_wait: u32,
    pub(crate) fault_free: bool,
}

impl SlaveTiming {
    /// Cycles from the grant of a sub-burst of `beats` beats through
    /// its last beat.
    fn sub_burst_cycles(self, beats: u64) -> u64 {
        2 + beat_offset(self.first_wait, self.seq_wait, beats)
    }
}

struct SlaveEntry {
    base: Addr,
    size: u32,
    timing: SlaveTiming,
    device: Box<dyn BusSlave>,
}

impl fmt::Debug for SlaveEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlaveEntry")
            .field("base", &format_args!("{:#010x}", self.base))
            .field("size", &self.size)
            .field("device", &self.device.name())
            .finish()
    }
}

impl SlaveEntry {
    /// One past the last byte of the window.
    fn end(&self) -> u64 {
        u64::from(self.base) + u64::from(self.size)
    }
}

/// The address map both bus models share: the mapped slaves and every
/// rule that depends only on where they sit — integration asserts,
/// address decode, request validation and un-timed debug access. A bus
/// adds only its timing FSM on top.
#[derive(Debug, Default)]
pub(crate) struct SlaveMap {
    slaves: Vec<SlaveEntry>,
}

impl SlaveMap {
    /// Maps `device` at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned, the window is empty or it
    /// overlaps an existing slave — all static SoC integration errors.
    pub(crate) fn add(&mut self, base: Addr, device: Box<dyn BusSlave>) {
        assert_eq!(base % 4, 0, "slave base must be word-aligned");
        let size = device.size();
        assert!(size > 0, "slave window must be non-empty");
        let end = u64::from(base) + u64::from(size);
        for s in &self.slaves {
            assert!(
                end <= u64::from(s.base) || s.end() <= u64::from(base),
                "slave window {base:#010x}..{end:#010x} overlaps {}",
                s.device.name()
            );
        }
        let timing = SlaveTiming {
            first_wait: device.first_access_wait_states(),
            seq_wait: device.sequential_wait_states(),
            fault_free: device.fault_free(),
        };
        self.slaves.push(SlaveEntry {
            base,
            size,
            timing,
            device,
        });
    }

    /// The timing of the slave at index `idx`, as [`SlaveMap::span`]
    /// returned it.
    pub(crate) fn timing(&self, idx: usize) -> SlaveTiming {
        self.slaves[idx].timing
    }

    fn decode(&self, addr: Addr) -> Result<usize, BusError> {
        self.slaves
            .iter()
            .position(|s| addr >= s.base && u64::from(addr) < s.end())
            .ok_or(BusError::Unmapped { addr })
    }

    /// The slave a burst of `shape` from a master port that is `busy`
    /// or not is bound for: the port must be free, the address
    /// word-aligned, the burst at least one beat long, its start mapped
    /// and the whole burst inside that slave's window.
    pub(crate) fn span(&self, shape: TxnShape, busy: bool) -> Result<usize, BusError> {
        if busy {
            return Err(BusError::Busy);
        }
        if !shape.addr.is_multiple_of(4) {
            return Err(BusError::Unaligned { addr: shape.addr });
        }
        if shape.beats == 0 {
            return Err(BusError::EmptyBurst);
        }
        let idx = self.decode(shape.addr)?;
        if u64::from(shape.addr) + u64::from(shape.beats) * 4 > self.slaves[idx].end() {
            return Err(BusError::CrossesSlaveBoundary {
                addr: shape.addr,
                beats: shape.beats,
            });
        }
        Ok(idx)
    }

    /// How many of `bursts`, the first of which [`SlaveMap::span`]
    /// binds to slave `idx`, lie inside that slave's window, aligned:
    /// a prefix, since their addresses ascend from the first, so each
    /// is bound for the same slave. One bound check for them all.
    pub(crate) fn within(&self, idx: usize, bursts: Strided) -> u32 {
        if !bursts.stride.is_multiple_of(4) {
            return 1;
        }
        let shape = bursts.shape;
        let room = self.slaves[idx].end() - u64::from(shape.addr) - u64::from(shape.beats) * 4;
        let more = room
            .checked_div(u64::from(bursts.stride))
            .unwrap_or(u64::MAX);
        u32::try_from(more)
            .map_or(u32::MAX, |m| m.saturating_add(1))
            .min(bursts.count)
    }

    /// The slave a request is bound for: [`SlaveMap::span`] of its
    /// shape, and a write must carry exactly one payload word per beat.
    pub(crate) fn validate(&self, req: &TxnRequest, busy: bool) -> Result<usize, BusError> {
        let idx = self.span(req.shape, busy)?;
        if req.shape.kind == TxnKind::Write && req.data.len() != usize::from(req.shape.beats) {
            return Err(BusError::PayloadLength {
                beats: req.shape.beats,
                words: req.data.len(),
            });
        }
        Ok(idx)
    }

    /// The slave and offset of a debug access to `addr`, which must be
    /// word-aligned.
    fn debug_decode(&mut self, addr: Addr) -> Result<(&mut SlaveEntry, u32), BusError> {
        if !addr.is_multiple_of(4) {
            return Err(BusError::Unaligned { addr });
        }
        let idx = self.decode(addr)?;
        let s = &mut self.slaves[idx];
        let offset = addr - s.base;
        Ok((s, offset))
    }

    /// The slave, offset and words left in its window of the `done`-th
    /// word of a debug range starting at `addr`. A range that would
    /// run past the top of the address space ends there with
    /// [`BusError::CrossesSlaveBoundary`] (its start, and its length
    /// saturated to `u16`), as the slave mapped at the top ends it.
    fn debug_span(
        &mut self,
        addr: Addr,
        done: usize,
        count: usize,
    ) -> Result<(&mut SlaveEntry, u32, usize), BusError> {
        let word = u32::try_from(done)
            .ok()
            .and_then(|d| d.checked_mul(4))
            .and_then(|off| addr.checked_add(off))
            .ok_or(BusError::CrossesSlaveBoundary {
                addr,
                beats: u16::try_from(count).unwrap_or(u16::MAX),
            })?;
        let (s, offset) = self.debug_decode(word)?;
        let fit = (s.size - offset).div_ceil(4) as usize;
        Ok((s, offset, fit.min(count - done)))
    }

    /// Un-timed read of one word.
    pub(crate) fn debug_read(&mut self, addr: Addr) -> Result<u32, BusError> {
        let (s, offset) = self.debug_decode(addr)?;
        s.device.read_word(offset).map_err(BusError::Fault)
    }

    /// Un-timed write of one word.
    pub(crate) fn debug_write(&mut self, addr: Addr, value: u32) -> Result<(), BusError> {
        let (s, offset) = self.debug_decode(addr)?;
        s.device.write_word(offset, value).map_err(BusError::Fault)
    }

    /// Un-timed read of `count` words from `addr`, each slave's share
    /// in one [`BusSlave::read_words`] call.
    pub(crate) fn debug_read_words(
        &mut self,
        addr: Addr,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), BusError> {
        let mut done = 0;
        while done < count {
            let (s, offset, n) = self.debug_span(addr, done, count)?;
            s.device
                .read_words(offset, n, out)
                .map_err(BusError::Fault)?;
            done += n;
        }
        Ok(())
    }

    /// Un-timed write of `data` from `addr`, each slave's share in one
    /// [`BusSlave::write_words`] call.
    pub(crate) fn debug_write_words(&mut self, addr: Addr, data: &[u32]) -> Result<(), BusError> {
        let mut done = 0;
        while done < data.len() {
            let (s, offset, n) = self.debug_span(addr, done, data.len())?;
            s.device
                .write_words(offset, &data[done..done + n])
                .map_err(|(_, e)| BusError::Fault(e))?;
            done += n;
        }
        Ok(())
    }
}

/// The AHB-like system bus.
///
/// See the [module documentation](self) for the timing model and an
/// end-to-end example.
#[derive(Debug)]
pub struct Bus {
    config: BusConfig,
    now: Instant,
    masters: Vec<MasterPort>,
    slaves: SlaveMap,
    active: Option<ActiveGrant>,
    busy_cycles: u64,
    polls: Option<PollLane>,
    /// The event record (disabled by default).
    pub trace: Trace,
}

impl Bus {
    /// Creates an empty bus.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_burst_beats` is zero: a sub-burst moves at
    /// least one beat.
    #[must_use]
    pub fn new(config: BusConfig) -> Self {
        assert!(config.max_burst_beats > 0, "sub-bursts need a beat");
        Self {
            config,
            now: Instant::default(),
            masters: Vec::new(),
            slaves: SlaveMap::default(),
            active: None,
            busy_cycles: 0,
            polls: None,
            trace: Trace::disabled(),
        }
    }

    /// The bus configuration.
    #[must_use]
    pub fn config(&self) -> BusConfig {
        self.config
    }

    /// Per-master statistics (grants, beats, contention).
    ///
    /// # Panics
    ///
    /// Panics if `master` was not registered on this bus.
    #[must_use]
    pub fn master_stats(&self, master: MasterId) -> MasterStats {
        self.masters[master.0].stats
    }

    /// Maps `device` at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned, the window is empty or it
    /// overlaps an existing slave — all static SoC integration errors.
    pub fn add_slave(&mut self, base: Addr, device: impl BusSlave + 'static) {
        self.slaves.add(base, Box::new(device));
    }

    /// Un-timed read of `count` consecutive words from `addr`, appended
    /// to `out`: one [`Bus::debug_read`] per word, with each slave's
    /// share of the range copied in one [`BusSlave::read_words`] call.
    /// The words before the first error are appended.
    ///
    /// # Errors
    ///
    /// As [`Bus::debug_read`], for the first word that fails, and
    /// [`BusError::CrossesSlaveBoundary`] for a range that runs past
    /// the top of the address space (after the words below it).
    pub fn debug_read_words(
        &mut self,
        addr: Addr,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), BusError> {
        self.slaves.debug_read_words(addr, count, out)
    }

    /// Un-timed write of `data` to consecutive words from `addr`: one
    /// [`Bus::debug_write`] per word, with each slave's share of the
    /// range copied in one [`BusSlave::write_words`] call. The words
    /// before the first error are written.
    ///
    /// # Errors
    ///
    /// As [`Bus::debug_write`], for the first word that fails, and
    /// [`BusError::CrossesSlaveBoundary`] for a range that runs past
    /// the top of the address space (after the words below it).
    pub fn debug_write_words(&mut self, addr: Addr, data: &[u32]) -> Result<(), BusError> {
        self.slaves.debug_write_words(addr, data)
    }

    /// Charges `cycles` contention cycles to every requesting master
    /// other than `owner`.
    ///
    /// The contention rule: a cycle is charged when the owner spends it
    /// on its grant, its address phase or a non-final beat of its
    /// sub-burst. Its wait states charge nothing, and neither does the
    /// final (or faulting) beat of a sub-burst, the unowned cycle in
    /// which the bus is released to re-arbitration. The master granted
    /// in a cycle is never charged for the cycle it won. Contention thus
    /// measures time spent losing the bus to somebody else, which is
    /// what a pool scheduler wants attributed per worker.
    fn charge_contention(&mut self, owner: usize, cycles: u64) {
        for (i, p) in self.masters.iter_mut().enumerate() {
            if i != owner && p.outstanding.is_some() {
                p.stats.contention_cycles += cycles;
            }
        }
    }

    /// Beats in the next sub-burst of a transaction with `remaining`
    /// beats left (AHB INCR16 splitting).
    fn sub_burst_beats(&self, remaining: u16) -> u16 {
        remaining.min(self.config.max_burst_beats)
    }

    /// Runs `n` clock cycles, leaving the bus exactly as `n` calls to
    /// [`Bus::tick`] would: the rest of a lone requester's transaction
    /// in one step when it fits (see [`Bus::finish_alone`]), otherwise
    /// grant and address cycles one at a time, wait states and beats in
    /// bulk, with every completion, fault, release and grant (and its
    /// trace event) on its own cycle. Sound for any `n` as long as no
    /// master calls [`Bus::try_begin`] or [`Bus::take_completion`] in
    /// between, which is what the fast-forward contract guarantees.
    fn run(&mut self, mut n: u64) {
        if n > 1 {
            n -= self.finish_alone(n).unwrap_or(0);
        }
        while n > 0 {
            n -= match self.active {
                None => match self.arbitrate() {
                    Some(winner) => self.grant(winner),
                    None => {
                        // Nobody requests, and nobody can before `n` ends.
                        self.now += Cycle::new(n);
                        return;
                    }
                },
                Some(ActiveGrant {
                    master,
                    phase: Phase::Granted,
                }) => self.address(master),
                Some(ActiveGrant {
                    master,
                    phase:
                        Phase::Beat {
                            wait_left,
                            sub_beats_left,
                        },
                }) => self.data_phase(master, wait_left, sub_beats_left, n),
            };
        }
    }

    /// The rest of the transaction of the one master requesting, in
    /// one step, if it completes within `n` cycles on a
    /// [`BusSlave::fault_free`] slave: the beats move in one slave call,
    /// and `now`, the busy cycles and the master's grants (one per
    /// sub-burst still to start), beats and completed transactions are
    /// charged in closed form, the cycles as [`Bus::horizon`] reads the
    /// completion. Nobody else requests, so nobody is charged
    /// contention. Returns the cycles run, or `None` (and runs nothing)
    /// when the trace is on (the stepping loop records every grant,
    /// sub-burst boundary and completion), the bus is contended, the
    /// slave may fault or the transaction does not complete within `n`.
    fn finish_alone(&mut self, n: u64) -> Option<u64> {
        if self.trace.is_enabled() {
            return None;
        }
        let mut requesting =
            (0..self.masters.len()).filter(|&i| self.masters[i].outstanding.is_some());
        let owner = requesting.next()?;
        if requesting.next().is_some() {
            return None;
        }
        let txn = self.masters[owner]
            .outstanding
            .as_ref()
            .expect("requesting");
        let timing = self.slaves.timing(txn.slave_idx);
        if !timing.fault_free {
            return None;
        }
        // Alone on a slave that never faults, the bus's next event is
        // the completion.
        let cycles = self.next_event(None)?.get();
        if cycles > n {
            return None;
        }
        let in_flight = self.in_flight().map_or(0, |f| f.beats);
        let left = u64::from(txn.remaining() - in_flight);
        let port = &mut self.masters[owner];
        let mut txn = port.outstanding.take().expect("requesting");
        let (moved, _) = txn.move_beats(&mut self.slaves, txn.remaining());
        port.stats.grants += left.div_ceil(u64::from(self.config.max_burst_beats));
        port.stats.beats += u64::from(moved);
        self.active = None;
        self.elapse_busy(cycles);
        self.complete(owner, txn);
        Some(cycles)
    }

    /// Retires `owner`'s transaction `txn`, whose last beat moved on the
    /// cycle just run: its completion waits on the port.
    fn complete(&mut self, owner: usize, txn: Txn) {
        let completion = txn.finish(self.now);
        self.trace
            .record(self.now, MasterId(owner), BusEvent::Complete);
        self.masters[owner].completion = Some(Ok(completion));
    }

    /// The arbitration cycle that grants the bus to `winner`. Returns
    /// the one cycle run.
    fn grant(&mut self, winner: usize) -> u64 {
        self.elapse_busy(1);
        self.masters[winner].stats.grants += 1;
        self.trace
            .record(self.now, MasterId(winner), BusEvent::Grant);
        self.active = Some(ActiveGrant {
            master: winner,
            phase: Phase::Granted,
        });
        self.charge_contention(winner, 1);
        1
    }

    /// `owner`'s address phase, which fixes the sub-burst's length and
    /// its first-access wait states. Returns the one cycle run.
    fn address(&mut self, owner: usize) -> u64 {
        let txn = self.masters[owner]
            .outstanding
            .as_ref()
            .expect("granted master has an outstanding txn");
        self.active = Some(ActiveGrant {
            master: owner,
            phase: Phase::Beat {
                wait_left: self.slaves.timing(txn.slave_idx).first_wait,
                sub_beats_left: self.sub_burst_beats(txn.remaining()),
            },
        });
        self.elapse_busy(1);
        self.charge_contention(owner, 1);
        1
    }

    /// Moves `now` and the cycle counters over `cycles` owned cycles.
    fn elapse_busy(&mut self, cycles: u64) {
        self.now += Cycle::new(cycles);
        self.busy_cycles += cycles;
    }

    /// Runs at most `n` cycles of `owner`'s data phase, which has
    /// `wait_left` wait states before its next beat and `sub_beats_left`
    /// beats to go: wait states, then beats in bulk, ending early at the
    /// sub-burst's final beat or at a beat the slave faults. Every beat
    /// is still timed by [`beat_offset`]; only the data of the beats
    /// that fit moves in one slave call. Returns the cycles run.
    fn data_phase(&mut self, owner: usize, wait_left: u32, sub_beats_left: u16, n: u64) -> u64 {
        let port = &mut self.masters[owner];
        let txn = port
            .outstanding
            .as_mut()
            .expect("granted master has an outstanding txn");
        let seq_wait = self.slaves.timing(txn.slave_idx).seq_wait;
        let fit = u16::try_from(beats_within(wait_left, seq_wait, n))
            .map_or(sub_beats_left, |b| b.min(sub_beats_left));
        let (moved, fault) = if fit > 0 {
            txn.move_beats(&mut self.slaves, fit)
        } else {
            (0, None)
        };
        let beats = u64::from(moved);
        port.stats.beats += beats;
        let released = fault.is_some() || moved == sub_beats_left;
        let ran = if released {
            beat_offset(wait_left, seq_wait, beats)
        } else {
            n
        };
        self.elapse_busy(ran);
        if !released {
            // The next beat lies past the `n` cycles run, by at most its
            // own wait states.
            let wait_left = u32::try_from(beat_offset(wait_left, seq_wait, beats + 1) - n - 1)
                .expect("at most one beat's wait states are left");
            self.active = Some(ActiveGrant {
                master: owner,
                phase: Phase::Beat {
                    wait_left,
                    sub_beats_left: sub_beats_left - moved,
                },
            });
            self.charge_contention(owner, beats);
            return ran;
        }
        // The bus is released: it re-arbitrates next cycle, and its
        // final beat charges nobody.
        self.active = None;
        self.charge_contention(owner, beats - 1);
        let port = &mut self.masters[owner];
        let txn = port.outstanding.as_ref().expect("present");
        if let Some(fault) = fault {
            self.trace
                .record(self.now, MasterId(owner), BusEvent::Fault);
            port.outstanding = None;
            port.completion = Some(Err(BusError::Fault(fault)));
        } else if txn.is_done() {
            let txn = port.outstanding.take().expect("present");
            self.complete(owner, txn);
        } else {
            self.trace
                .record(self.now, MasterId(owner), BusEvent::SubBurstEnd);
        }
        ran
    }

    /// The lowest master that is requesting: fixed priority.
    fn arbitrate(&self) -> Option<usize> {
        (0..self.masters.len()).find(|&i| self.masters[i].outstanding.is_some())
    }

    /// Runs the bus until `master`'s transaction completes, returning
    /// the completion. Convenience for tests and simple masters.
    ///
    /// # Errors
    ///
    /// Propagates faults recorded during the burst.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is outstanding or after a defensive
    /// 10-million-cycle bound is exceeded.
    pub fn run_to_completion(&mut self, master: MasterId) -> Result<Completion, BusError> {
        assert!(
            self.poll(master) != PortState::Idle,
            "no transaction outstanding"
        );
        let mut fuel = 10_000_000u64;
        while self.poll(master).is_pending() {
            self.tick();
            fuel -= 1;
            assert!(fuel > 0, "bus transaction did not complete");
        }
        self.take_completion(master).expect("completion present")
    }
}

/// The sub-burst holding the bus, as [`Bus::horizon`] and the lone
/// requester's closed form see it.
struct InFlight {
    /// The master that owns it.
    master: usize,
    /// Its slave's timing.
    timing: SlaveTiming,
    /// Beats its transaction has left, this sub-burst's included.
    remaining: u16,
    /// Cycles before its data phase: 1 for the address cycle of a
    /// sub-burst granted on the last cycle, else 0.
    address: u64,
    /// Wait states before its next beat.
    wait: u32,
    /// Beats it has left.
    beats: u16,
}

impl InFlight {
    /// Cycles from now through its last beat.
    fn cycles(&self) -> u64 {
        self.address + beat_offset(self.wait, self.timing.seq_wait, u64::from(self.beats))
    }
}

/// A request [`SystemBus::time_burst`] adds to the requesting set: its
/// master's index, its beats and the slave it is bound for.
#[derive(Clone, Copy)]
struct Issuer {
    master: usize,
    beats: u16,
    slave_idx: usize,
}

impl Bus {
    /// The beats left and the slave of master `i`'s request: its
    /// outstanding transaction, or the `issuer`'s what-if request.
    fn request(&self, i: usize, issuer: Option<Issuer>) -> Option<(u16, usize)> {
        match issuer {
            Some(r) if r.master == i => Some((r.beats, r.slave_idx)),
            _ => {
                let txn = self.masters[i].outstanding.as_ref()?;
                Some((txn.remaining(), txn.slave_idx))
            }
        }
    }

    /// The sub-burst that holds the bus, if any: see [`InFlight`].
    fn in_flight(&self) -> Option<InFlight> {
        let ActiveGrant { master, phase } = self.active?;
        let txn = self.masters[master]
            .outstanding
            .as_ref()
            .expect("granted master has an outstanding txn");
        let timing = self.slaves.timing(txn.slave_idx);
        let remaining = txn.remaining();
        let (address, wait, beats) = match phase {
            Phase::Granted => (1, timing.first_wait, self.sub_burst_beats(remaining)),
            Phase::Beat {
                wait_left,
                sub_beats_left,
            } => (0, wait_left, sub_beats_left),
        };
        Some(InFlight {
            master,
            timing,
            remaining,
            address,
            wait,
            beats,
        })
    }

    /// The tick of [`Bus::horizon`] with `issuer`'s request added to
    /// the requesting set, `None` when nobody requests: the rest of the
    /// owner's sub-burst, then the top requester's whole transaction,
    /// since fixed priority re-grants it until it completes.
    fn next_event(&self, issuer: Option<Issuer>) -> Option<NonZeroU64> {
        // Every path counts at least one beat's cycle (`beat_offset`).
        let tick = |cycles: u64| Some(NonZeroU64::MIN.saturating_add(cycles - 1));
        // Cycles to the end of the owner's current sub-burst.
        let mut cycles = 0;
        let mut owner = None;
        if let Some(f) = self.in_flight() {
            if !f.timing.fault_free {
                return tick(f.address + beat_offset(f.wait, 0, 1));
            }
            cycles = f.cycles();
            if f.beats == f.remaining {
                return tick(cycles);
            }
            owner = Some((f.master, f.beats));
        }
        let (top, (remaining, slave_idx)) =
            (0..self.masters.len()).find_map(|i| Some((i, self.request(i, issuer)?)))?;
        // Only the owner's own transaction has beats in flight.
        let in_flight = match owner {
            Some((master, beats)) if master == top => beats,
            _ => 0,
        };
        let left = u64::from(remaining - in_flight);
        tick(cycles + self.lone_cycles(self.slaves.timing(slave_idx), left))
    }

    /// Cycles from the first grant of a transaction with `left` beats
    /// on a slave of `timing`, alone on the bus, to its event: its
    /// completion, its sub-bursts back to back, or its first beat on a
    /// slave that may fault.
    fn lone_cycles(&self, timing: SlaveTiming, left: u64) -> u64 {
        if !timing.fault_free {
            return timing.sub_burst_cycles(1);
        }
        let max = u64::from(self.config.max_burst_beats);
        let full = (left - 1) / max;
        full * timing.sub_burst_cycles(max) + timing.sub_burst_cycles(left - full * max)
    }
}

/// A master's request as the contended loop sees it: the cycle it is
/// made on (it stands from the tick after; 0 for one made before the
/// window), the beats its transaction has left (0: none), and its
/// slave's timing.
#[derive(Debug, Clone, Copy)]
struct Lane {
    from: u64,
    beats: u16,
    timing: SlaveTiming,
}

impl Lane {
    const NONE: Lane = Lane {
        from: 0,
        beats: 0,
        timing: SlaveTiming {
            first_wait: 0,
            seq_wait: 0,
            fault_free: true,
        },
    };
}

/// The contended loop's view of a bus of two masters, one of them
/// polling: the cycle it stands on, the sub-burst holding it (its
/// master and the cycle of its last beat), and each master's request,
/// by index, the poller's next read included.
#[derive(Debug, Clone, Copy)]
struct Contest {
    now: u64,
    held: Option<(usize, u64)>,
    lanes: [Lane; 2],
}

/// The event a dry run of the contended loop ends on: its cycle,
/// whether it is the other master's completion (else its beat that
/// may fault, or a read the polls stop at), and the loop's state then.
type ContestEvent = (u64, bool, Contest);

/// Ticks of the rest of a sub-burst, from cycle `base` (`address` 1
/// when its address cycle is still to come, `wait` wait states before
/// its next beat, `beats` beats left), that charge contention to a
/// master whose request is made on cycle `from`: the address cycle and
/// every beat but the last, from the tick after `from` on.
fn charged(base: u64, address: u64, wait: u32, seq_wait: u32, beats: u16, from: u64) -> u64 {
    let address_tick = u64::from(address == 1 && base + 1 > from);
    let before = from
        .checked_sub(base + address)
        .map_or(0, |d| beats_within(wait, seq_wait, d));
    let non_final = u64::from(beats) - 1;
    address_tick + non_final - before.min(non_final)
}

impl Bus {
    /// The polls and the other master's index.
    fn poll_lanes(lane: &PollLane) -> (usize, usize) {
        let p = lane.polls.master.0;
        (p, 1 - p)
    }

    /// The contended loop's state as the bus stands, or the cycle of
    /// its event when that is the next beat of the other master's
    /// sub-burst in flight on a slave that may fault.
    fn contest_now(&self, lane: &PollLane) -> Result<Contest, u64> {
        let now = self.now.count();
        let (p, o) = Self::poll_lanes(lane);
        let mut lanes = [Lane::NONE; 2];
        for (m, l) in lanes.iter_mut().enumerate() {
            if let Some(txn) = &self.masters[m].outstanding {
                *l = Lane {
                    from: 0,
                    beats: txn.remaining(),
                    timing: self.slaves.timing(txn.slave_idx),
                };
            }
        }
        if let Some(next) = lane.polls.next {
            lanes[p] = Lane {
                from: next.count(),
                beats: 1,
                timing: lane.timing,
            };
        }
        let mut held = None;
        if let Some(f) = self.in_flight() {
            if f.master == o && !f.timing.fault_free {
                return Err(now + f.address + beat_offset(f.wait, 0, 1));
            }
            lanes[f.master].beats -= f.beats;
            held = Some((f.master, now + f.cycles()));
        }
        Ok(Contest { now, held, lanes })
    }

    /// The contended loop, dry, from `s` to its first event: the other
    /// master's completion, or its first beat on a slave that may
    /// fault, or, when the polls stop at one, a read's completion.
    /// One step per sub-burst: when the bus is released, the lower
    /// master with a request standing holds it through its next
    /// sub-burst; a read that completes is followed by the next, `every`
    /// cycles on. `None` when the polls alone are left and never stop.
    ///
    /// It ends: each step advances the clock or retires a beat, and
    /// the other master, once it requests, waits on one read at most,
    /// since the next read stands only `every ≥ 1` cycles after the
    /// last one's completion, when the bus has re-arbitrated. A debug
    /// build checks both at every step, so a loop that would spin
    /// panics with its state instead.
    fn contest(&self, lane: &PollLane, mut s: Contest) -> Option<ContestEvent> {
        let (p, o) = Self::poll_lanes(lane);
        let max = self.config.max_burst_beats;
        let (mut last, mut reads_waited) = (None, 0);
        loop {
            if cfg!(debug_assertions) {
                let here = (
                    s.now,
                    s.lanes.map(|l| u32::from(l.beats)).iter().sum::<u32>(),
                );
                debug_assert!(
                    last.is_none_or(|(now, beats)| here.0 > now || here.1 < beats),
                    "a contended step advances the clock or retires a beat: {s:?}"
                );
                last = Some(here);
            }
            if let Some((m, end)) = s.held.take() {
                s.now = end;
                if s.lanes[m].beats == 0 {
                    if m == o || lane.polls.stop {
                        return Some((end, m == o, s));
                    }
                    s.lanes[p] = Lane {
                        from: end + lane.polls.every,
                        beats: 1,
                        timing: lane.timing,
                    };
                }
                continue;
            }
            if s.lanes[o].beats == 0 && !lane.polls.stop {
                return None;
            }
            let standing = |m: usize| s.lanes[m].beats > 0 && s.lanes[m].from <= s.now;
            let Some(m) = (0..2).find(|&m| standing(m)) else {
                s.now = (0..2)
                    .filter(|&m| s.lanes[m].beats > 0)
                    .map(|m| s.lanes[m].from)
                    .min()?;
                continue;
            };
            let l = s.lanes[m];
            if m == o && !l.timing.fault_free {
                return Some((s.now + l.timing.sub_burst_cycles(1), false, s));
            }
            reads_waited = if m == p && standing(o) {
                reads_waited + 1
            } else {
                0
            };
            debug_assert!(
                reads_waited <= 1,
                "the other master waits on one read at most: {s:?}"
            );
            let beats = l.beats.min(max);
            s.lanes[m].beats -= beats;
            s.held = Some((m, s.now + l.timing.sub_burst_cycles(u64::from(beats))));
        }
    }

    /// Runs `n` cycles with the polls installed: the contended loop,
    /// one step per sub-burst or idle stretch. A step runs in closed
    /// form (grant, beats, busy cycles and each master's statistics
    /// charged as stepping charges them, the other master's beats moved
    /// in one slave call, a read taken unread) when it ends within `n`
    /// on the bus's own slave timing; otherwise, and on a traced bus,
    /// the stepping FSM runs it, with the poll's read requested on its
    /// cycle. A debug build checks that each step advances the clock or
    /// retires a beat.
    fn contend(&mut self, n: u64) {
        let lane = self.polls.expect("polls installed");
        let (p, o) = Self::poll_lanes(&lane);
        let end = self.now.count() + n;
        let mut last = None;
        loop {
            let lane = self.polls.expect("polls installed");
            let now = self.now.count();
            if cfg!(debug_assertions) {
                // Each step advances the clock or retires a beat.
                let here = (now, self.masters.iter().map(|m| m.stats.beats).sum::<u64>());
                debug_assert!(
                    last.is_none_or(|(then, beats)| here.0 > then || here.1 > beats),
                    "a contended step advances the clock or retires a beat at cycle {now}"
                );
                last = Some(here);
            }
            if now == end {
                // A read requested by the end, and not yet granted,
                // stands on its port, as stepping leaves it: one
                // requested on the last cycle comes before any issue
                // the other master makes on it, in its next tick.
                if let Some(next) = lane.polls.next.filter(|c| c.count() <= end) {
                    self.request_poll(next);
                }
                return;
            }
            let phantom = lane.polls.next.map(Instant::count);
            // The step: the rest of the sub-burst holding the bus, or
            // the next one granted, as (owner, its grant's cycle if it
            // is still to come, the rest as `InFlight` fields).
            let step = match self.in_flight() {
                Some(f) => Some((f.master, None, f)),
                None => {
                    let standing = |m: usize| {
                        self.masters[m].outstanding.is_some()
                            || (m == p && phantom.is_some_and(|c| c <= now))
                    };
                    match (0..2).find(|&m| standing(m)) {
                        Some(m) => {
                            let (remaining, timing) = match &self.masters[m].outstanding {
                                Some(txn) => (txn.remaining(), self.slaves.timing(txn.slave_idx)),
                                None => (1, lane.timing),
                            };
                            let f = InFlight {
                                master: m,
                                timing,
                                remaining,
                                address: 1,
                                wait: timing.first_wait,
                                beats: self.sub_burst_beats(remaining),
                            };
                            Some((m, Some(now), f))
                        }
                        None => None,
                    }
                }
            };
            let Some((owner, grant, f)) = step else {
                // Idle up to the next read's request.
                let until = phantom.map_or(end, |c| c.min(end));
                self.now = Instant::new(until);
                continue;
            };
            let cycles = u64::from(grant.is_some()) + f.cycles();
            let completes = f.beats == f.remaining;
            let closed = !self.trace.is_enabled()
                && now + cycles <= end
                && (owner == p || f.timing.fault_free)
                && !(owner == p && lane.polls.stop);
            if !closed {
                self.fsm_step((now + cycles).min(end));
                continue;
            }
            // The other master's request, and the cycle it is made on.
            let other = 1 - owner;
            let from = if self.masters[other].outstanding.is_some() {
                Some(0)
            } else if other == p {
                phantom
            } else {
                None
            };
            let base = grant.map_or(now, |g| g + 1);
            if let Some(from) = from {
                let grant_tick = grant.map_or(0, |g| u64::from(g + 1 > from));
                let seq = f.timing.seq_wait;
                self.masters[other].stats.contention_cycles +=
                    grant_tick + charged(base, f.address, f.wait, seq, f.beats, from);
            }
            self.active = None;
            self.elapse_busy(cycles);
            let port = &mut self.masters[owner];
            port.stats.grants += u64::from(grant.is_some());
            port.stats.beats += u64::from(f.beats);
            if owner == o {
                let txn = port
                    .outstanding
                    .as_mut()
                    .expect("the other master requests");
                txn.move_beats(&mut self.slaves, f.beats);
                if completes {
                    let txn = port.outstanding.take().expect("present");
                    self.complete(o, txn);
                }
                continue;
            }
            // A read completes: taken, its word unread.
            port.outstanding = None;
            if cfg!(debug_assertions) {
                let slave = &mut self.slaves.slaves[lane.slave_idx];
                let offset = lane.polls.addr - slave.base;
                assert!(
                    slave.device.read_word(offset).is_ok(),
                    "a poll never faults"
                );
            }
            let polls = &mut self.polls.as_mut().expect("installed").polls;
            polls.taken += 1;
            polls.next = Some(self.now + Cycle::new(polls.every));
        }
    }

    /// Puts the polls' read, requested on cycle `at`, on its port: the
    /// request stepping would have made then.
    fn request_poll(&mut self, at: Instant) {
        let lane = self.polls.as_mut().expect("polls installed");
        lane.polls.next = None;
        let (p, slave_idx) = (lane.polls.master, lane.slave_idx);
        let req = TxnRequest::read_word(lane.polls.addr);
        self.trace.record(at, p, BusEvent::Request(req.shape));
        self.masters[p.0].outstanding = Some(Txn::new(req, slave_idx, at));
    }

    /// Whether the installed polls' reads leave `b`, a burst of a run
    /// from origin `origin`, alone: always with the reads stopped, else
    /// when it completes by the cycle the next read is requested on,
    /// and never while one is outstanding.
    fn alone_through(&self, origin: Instant, b: &RunBurst) -> bool {
        let lane = self.polls.as_ref().expect("polls installed");
        self.masters[lane.polls.master.0].outstanding.is_none()
            && lane
                .polls
                .next
                .is_none_or(|at| origin + Cycle::new(b.event) <= at)
    }

    /// Replays `segment`, whose master is alone on an idle bus through
    /// it, in closed form (see [`SystemBus::replay_run`]): one address
    /// decode, then each burst's words at its offset.
    fn replay_alone(
        &mut self,
        master: MasterId,
        origin: Instant,
        segment: RunSegment,
        data: &mut dyn FnMut(usize, &mut Vec<u32>),
    ) {
        debug_assert!(
            self.replays_runs()
                && self.active.is_none()
                && self.masters.iter().all(|p| p.outstanding.is_none())
                && self.masters[master.0].completion.is_none(),
            "a run replays on an idle bus, its last pickup made"
        );
        let shape = segment.first.shape;
        let idx = self
            .slaves
            .span(shape, false)
            .expect("the plan checked the burst");
        let slave = &mut self.slaves.slaves[idx];
        debug_assert!(slave.timing.fault_free, "a run's slave never faults");
        debug_assert!(
            segment.count == 1
                || u64::from(segment.last().shape.addr) + u64::from(shape.beats) * 4 <= slave.end(),
            "the plan checked the segment's span"
        );
        let beats = usize::from(shape.beats);
        let mut words = Vec::new();
        let mut offset = shape.addr - slave.base;
        for k in 0..segment.count {
            words.clear();
            match shape.kind {
                TxnKind::Read => {
                    slave
                        .device
                        .read_words(offset, beats, &mut words)
                        .expect("a fault-free slave moves every beat");
                    data(k as usize, &mut words);
                }
                TxnKind::Write => {
                    data(k as usize, &mut words);
                    debug_assert_eq!(words.len(), beats, "one word per beat");
                    slave
                        .device
                        .write_words(offset, &words)
                        .expect("a fault-free slave moves every beat");
                }
            }
            offset = offset.wrapping_add(segment.stride);
        }
        let count = u64::from(segment.count);
        let max = u64::from(self.config.max_burst_beats);
        let b = segment.first;
        let last = segment.last();
        self.now = origin + Cycle::new(last.event);
        self.busy_cycles += count * (b.event + 1 - b.issue);
        let port = &mut self.masters[master.0];
        port.stats.grants += count * u64::from(shape.beats).div_ceil(max);
        port.stats.beats += count * u64::from(shape.beats);
        let issued_at = origin + Cycle::new(last.issue - 1);
        if shape.kind == TxnKind::Write {
            words.clear();
        }
        port.completion = Some(Ok(Completion {
            kind: shape.kind,
            addr: last.shape.addr,
            data: words,
            issued_at,
            completed_at: self.now,
            cycles: (self.now - issued_at).count(),
        }));
    }

    /// Replays `b`, a burst of a run that a poll's read reaches: it
    /// issues on its cycle and the contended loop runs through it, so
    /// its timing is the one the plan read off the same loop.
    fn replay_contended(
        &mut self,
        master: MasterId,
        origin: Instant,
        b: &RunBurst,
        data: &mut dyn FnMut(usize, &mut Vec<u32>),
    ) {
        self.contend((origin + Cycle::new(b.issue - 1) - self.now).count());
        let req = match b.shape.kind {
            TxnKind::Read => TxnRequest::read(b.shape.addr, b.shape.beats),
            TxnKind::Write => {
                let mut words = Vec::new();
                data(0, &mut words);
                TxnRequest::write(b.shape.addr, words)
            }
        };
        self.try_begin(master, req)
            .expect("the plan checked the burst");
        self.contend((origin + Cycle::new(b.event) - self.now).count());
        let done = self.masters[master.0].completion.as_mut();
        let done = done.expect("a run's burst completes on its planned cycle");
        let done = done.as_mut().expect("a run's slave never faults");
        if b.shape.kind == TxnKind::Read {
            data(0, &mut done.data);
        }
    }

    /// One step of the contended loop through the stepping FSM, to
    /// cycle `stop`: the poll's read is requested on its cycle if that
    /// comes first, and a read that completes is taken, unless the
    /// polls stop at it.
    fn fsm_step(&mut self, stop: u64) {
        let lane = self.polls.expect("polls installed");
        let p = lane.polls.master;
        if let Some(next) = lane.polls.next.filter(|c| c.count() < stop) {
            self.run(next.count().saturating_sub(self.now.count()));
            self.request_poll(next);
        }
        self.run(stop - self.now.count());
        if lane.polls.stop {
            return;
        }
        if let Some(done) = self.masters[p.0].completion.take() {
            let done = done.expect("a poll never faults");
            let polls = &mut self.polls.as_mut().expect("installed").polls;
            polls.taken += 1;
            polls.next = Some(done.completed_at + Cycle::new(polls.every));
        }
    }
}

impl SystemBus for Bus {
    /// The returned id is also the master's fixed priority (lower =
    /// higher priority).
    fn register_master(&mut self) -> MasterId {
        self.masters.push(MasterPort {
            outstanding: None,
            completion: None,
            stats: MasterStats::default(),
        });
        MasterId(self.masters.len() - 1)
    }

    fn add_slave_boxed(&mut self, base: Addr, device: Box<dyn BusSlave>) {
        self.slaves.add(base, device);
    }

    /// Validation (alignment, mapping, boundary) happens immediately;
    /// timing starts at the next tick. On `Err` nothing is queued.
    fn try_begin(&mut self, master: MasterId, req: TxnRequest) -> Result<(), BusError> {
        let port = self.masters.get(master.0).ok_or(BusError::UnknownMaster)?;
        let busy = port.outstanding.is_some() || port.completion.is_some();
        let slave_idx = self.slaves.validate(&req, busy)?;
        self.trace
            .record(self.now, master, BusEvent::Request(req.shape));
        self.masters[master.0].outstanding = Some(Txn::new(req, slave_idx, self.now));
        Ok(())
    }

    fn tick(&mut self) {
        debug_assert!(self.polls.is_none(), "polls are installed for a window");
        self.run(1);
    }

    fn now(&self) -> Instant {
        self.now
    }

    // Panics on a master not registered on this bus, as do
    // `take_completion` and `peek_completion`.
    fn poll(&self, master: MasterId) -> PortState {
        let port = &self.masters[master.0];
        if port.completion.is_some() {
            PortState::Complete
        } else if port.outstanding.is_some() {
            PortState::Pending
        } else {
            PortState::Idle
        }
    }

    /// A slave that faulted mid-burst is reported as
    /// [`BusError::Fault`].
    fn take_completion(&mut self, master: MasterId) -> Option<Result<Completion, BusError>> {
        self.masters[master.0].completion.take()
    }

    fn peek_completion(&self, master: MasterId) -> Option<&Result<Completion, BusError>> {
        self.masters[master.0].completion.as_ref()
    }

    fn debug_read(&mut self, addr: Addr) -> Result<u32, BusError> {
        self.slaves.debug_read(addr)
    }

    fn debug_write(&mut self, addr: Addr, value: u32) -> Result<(), BusError> {
        self.slaves.debug_write(addr, value)
    }

    /// The grants, beats and contention cycles are the sums of the
    /// per-master ones.
    fn stats(&self) -> BusStats {
        let mut stats = BusStats {
            cycles: self.now.count(),
            busy_cycles: self.busy_cycles,
            ..BusStats::default()
        };
        for p in &self.masters {
            stats.grants += p.stats.grants;
            stats.beats += p.stats.beats;
            stats.contention_cycles += p.stats.contention_cycles;
        }
        stats
    }

    /// The tick of the next transaction completion, or of the next beat
    /// on a slave that is not [`BusSlave::fault_free`] if that comes
    /// first, so a fault lands on its exact cycle.
    ///
    /// Until then the requesting set cannot change: a master begins or
    /// retires a transaction only in its own tick, which its own horizon
    /// already counts as an event. So the window's timing is fixed by
    /// the protocol: the rest of the current sub-burst, then the top
    /// requester's sub-bursts back to back through its completion, each
    /// taking a grant cycle, an address cycle and `beat_offset` data
    /// cycles. O(masters), no allocation.
    ///
    /// With polls installed, their reads' completions are no events:
    /// the contended loop runs to the other master's.
    fn horizon(&self) -> Horizon {
        let cycles = match &self.polls {
            None => self.next_event(None).map(NonZeroU64::get),
            Some(lane) => match self.contest_now(lane) {
                Err(beat) => Some(beat),
                Ok(s) => self.contest(lane, s).map(|(at, ..)| at),
            }
            .map(|at| at - self.now.count()),
        };
        cycles
            .and_then(NonZeroU64::new)
            .map_or(Horizon::QUIESCENT, Horizon::in_ticks)
    }

    /// One address decode and one bound check per call, no clone.
    /// Without polls, the first burst is timed in closed form
    /// (O(masters)) on the bus as it stands, and the later bursts of a
    /// run, which issue on an idle bus, in closed form alone: each is
    /// its shape's lone cycles after its issue, so all of `bursts` that
    /// the slave holds are one segment, in O(1). With polls, the
    /// contended loop runs from the bus as it stands, or from `after`'s
    /// completion, through one burst's event, which is the segment. A
    /// write's payload length is the one `try_begin` check that needs
    /// the payload, so the shape cannot make it. A completion still
    /// waiting on `master`'s port does not move the timing, and a
    /// master picks its last burst up before it issues the next one.
    fn time_burst(
        &self,
        master: MasterId,
        bursts: Strided,
        issue: u64,
        gap: u64,
        after: Option<&RunBurst>,
    ) -> Option<RunSegment> {
        let shape = bursts.shape;
        let port = self.masters.get(master.0)?;
        let slave_idx = self.slaves.span(shape, port.outstanding.is_some()).ok()?;
        let timing = self.slaves.timing(slave_idx);
        let now = self.now.count();
        let from = now + issue - 1;
        let Some(lane) = &self.polls else {
            let cycles = match after {
                Some(_) => self.lone_cycles(timing, u64::from(shape.beats)),
                None => self
                    .next_event(Some(Issuer {
                        master: master.0,
                        beats: shape.beats,
                        slave_idx,
                    }))?
                    .get(),
            };
            let idle = after.is_some() || self.masters.iter().all(|p| p.outstanding.is_none());
            let first = RunBurst {
                shape,
                issue,
                event: from.saturating_add(cycles) - now,
                completes: idle && timing.fault_free,
                poll: 0,
            };
            // Only later bursts that complete follow each other alone.
            let count = if after.is_some() && first.completes {
                self.slaves.within(slave_idx, bursts)
            } else {
                1
            };
            return Some(RunSegment {
                first,
                stride: bursts.stride,
                period: cycles + gap,
                count,
            });
        };
        let (p, o) = Self::poll_lanes(lane);
        if master.0 != o {
            return None;
        }
        let mut s = match after {
            None => self.contest_now(lane).ok()?,
            Some(b) => {
                let mut lanes = [Lane::NONE; 2];
                lanes[p] = Lane {
                    from: now + b.poll,
                    beats: 1,
                    timing: lane.timing,
                };
                Contest {
                    now: now + b.event,
                    held: None,
                    lanes,
                }
            }
        };
        s.lanes[o] = Lane {
            from,
            beats: shape.beats,
            timing,
        };
        let (at, completes, s) = self.contest(lane, s)?;
        Some(RunSegment::one(RunBurst {
            shape,
            issue,
            event: at - now,
            completes,
            poll: s.lanes[p].from.saturating_sub(now),
        }))
    }

    fn set_polls(&mut self, polls: Option<Polls>) -> Option<Polls> {
        let lane = polls.map(|polls| {
            assert_eq!(self.masters.len(), 2, "polls share a bus of two masters");
            assert!(polls.every > 0, "a read follows the last one's completion");
            let shape = TxnRequest::read_word(polls.addr).shape();
            let slave_idx = self
                .slaves
                .span(shape, false)
                .expect("a poll reads a mapped word");
            PollLane {
                polls,
                slave_idx,
                timing: self.slaves.timing(slave_idx),
            }
        });
        std::mem::replace(&mut self.polls, lane).map(|l| l.polls)
    }

    /// Yes while the trace is off: a traced bus records every request,
    /// grant and completion of a run on its own cycle.
    fn replays_runs(&self) -> bool {
        !self.trace.is_enabled()
    }

    /// Each burst's beats move in one slave call. Its timing is the one
    /// [`SystemBus::advance`] charges a lone requester's whole burst
    /// with in one step, in closed form for the bursts no poll's read
    /// reaches (all of them without polls): `now` moves to the last
    /// completion, the busy cycles by each burst's issue-to-completion
    /// cycles, and `master`'s grants (one per sub-burst) and beats by
    /// theirs; nobody else requests, so nobody is charged contention.
    /// A burst a read reaches, which is a segment of its own, issues on
    /// its cycle and runs through the contended loop.
    fn replay_run(
        &mut self,
        master: MasterId,
        origin: Instant,
        segment: RunSegment,
        data: &mut dyn FnMut(usize, &mut Vec<u32>),
    ) {
        if self.polls.is_none() || self.alone_through(origin, &segment.first) {
            self.replay_alone(master, origin, segment, data);
        } else {
            debug_assert_eq!(segment.count, 1, "a polled run is one-burst segments");
            self.replay_contended(master, origin, &segment.first, data);
        }
    }

    /// Grants, address phases, wait states, beats and sub-burst
    /// releases, with every statistic, contention charge and trace event
    /// on the cycle `tick` would put it.
    fn advance(&mut self, cycles: Cycle) {
        if self.polls.is_some() {
            self.contend(cycles.count());
        } else {
            self.run(cycles.count());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Sram, SramConfig};

    fn bus_with_sram() -> (Bus, MasterId) {
        let mut bus = Bus::new(BusConfig::default());
        let m = bus.register_master();
        bus.add_slave(0x4000_0000, Sram::with_words(1024, SramConfig::no_wait()));
        (bus, m)
    }

    /// Equal later bursts are timed in one call as far as their slave
    /// holds them, each one period (its lone cycles and the gap) after
    /// the last; the next call, on the first burst past the slave's
    /// end, declines. An unaligned stride times the first burst alone.
    #[test]
    fn a_stretch_of_bursts_is_timed_as_far_as_its_slave_holds_it() {
        let (bus, m) = bus_with_sram();
        let at = |word: u32| 0x4000_0000 + word * 4;
        let after = RunBurst {
            shape: TxnRequest::read(at(0), 4).shape(),
            issue: 1,
            event: 6,
            completes: true,
            poll: 0,
        };
        // (first word, stride in bytes, bursts asked, bursts timed)
        for (word, stride, count, timed) in [
            (1000, 32, 10, 3),
            (1004, 32, 10, 3),
            (1005, 32, 10, 2),
            (1020, 0, 10, 10),
            (0, 4096, 10, 1),
            (0, 2, 10, 1),
        ] {
            let bursts = Strided {
                shape: TxnRequest::read(at(word), 4).shape(),
                stride,
                count,
            };
            let s = bus.time_burst(m, bursts, 10, 3, Some(&after)).unwrap();
            assert_eq!((s.count, s.period), (timed, 6 + 3), "{bursts:?}");
            assert_eq!((s.first.issue, s.first.event), (10, 15), "{bursts:?}");
            assert_eq!(s.last().event, 15 + u64::from(timed - 1) * 9, "{bursts:?}");
            if timed < count {
                let rest = Strided {
                    shape: TxnRequest::read(at(word) + timed * stride, 4).shape(),
                    count: count - timed,
                    ..bursts
                };
                assert_eq!(bus.time_burst(m, rest, 10, 3, Some(&after)), None);
            }
        }
    }

    #[test]
    fn single_write_then_read() {
        let (mut bus, m) = bus_with_sram();
        bus.try_begin(m, TxnRequest::write_word(0x4000_0010, 0xDEAD_BEEF))
            .unwrap();
        bus.run_to_completion(m).unwrap();
        bus.try_begin(m, TxnRequest::read_word(0x4000_0010))
            .unwrap();
        let c = bus.run_to_completion(m).unwrap();
        assert_eq!(c.data, vec![0xDEAD_BEEF]);
    }

    #[test]
    fn single_beat_timing_no_wait_states() {
        let (mut bus, m) = bus_with_sram();
        bus.try_begin(m, TxnRequest::write_word(0x4000_0000, 1))
            .unwrap();
        let c = bus.run_to_completion(m).unwrap();
        // grant + address + 1 beat = 3 cycles.
        assert_eq!(c.cycles, 3);
    }

    #[test]
    fn burst_timing_no_wait_states() {
        let (mut bus, m) = bus_with_sram();
        bus.try_begin(m, TxnRequest::write(0x4000_0000, vec![0; 16]))
            .unwrap();
        let c = bus.run_to_completion(m).unwrap();
        // grant + address + 16 beats = 18 cycles.
        assert_eq!(c.cycles, 18);
    }

    #[test]
    fn long_burst_splits_into_sub_bursts() {
        let (mut bus, m) = bus_with_sram();
        bus.try_begin(m, TxnRequest::write(0x4000_0000, vec![0; 64]))
            .unwrap();
        let c = bus.run_to_completion(m).unwrap();
        // 4 sub-bursts of (grant + address + 16 beats) = 4 * 18 = 72.
        assert_eq!(c.cycles, 72);
        assert_eq!(bus.stats().grants, 4);
    }

    #[test]
    fn wait_states_charged() {
        let mut bus = Bus::new(BusConfig::default());
        let m = bus.register_master();
        bus.add_slave(
            0,
            Sram::with_words(
                64,
                SramConfig {
                    first_access_wait_states: 3,
                    sequential_wait_states: 1,
                },
            ),
        );
        bus.try_begin(m, TxnRequest::read(0, 4)).unwrap();
        let c = bus.run_to_completion(m).unwrap();
        // grant + address + (3 wait + beat) + 3 * (1 wait + beat) = 12.
        assert_eq!(c.cycles, 12);
    }

    #[test]
    fn read_returns_data_in_order() {
        let (mut bus, m) = bus_with_sram();
        for i in 0..8u32 {
            bus.debug_write(0x4000_0000 + i * 4, i * 11).unwrap();
        }
        bus.try_begin(m, TxnRequest::read(0x4000_0000, 8)).unwrap();
        let c = bus.run_to_completion(m).unwrap();
        assert_eq!(c.data, (0..8u32).map(|i| i * 11).collect::<Vec<_>>());
    }

    #[test]
    fn busy_master_rejected() {
        let (mut bus, m) = bus_with_sram();
        bus.try_begin(m, TxnRequest::read_word(0x4000_0000))
            .unwrap();
        assert_eq!(
            bus.try_begin(m, TxnRequest::read_word(0x4000_0000)),
            Err(BusError::Busy)
        );
    }

    #[test]
    fn unaligned_rejected() {
        let (mut bus, m) = bus_with_sram();
        assert_eq!(
            bus.try_begin(m, TxnRequest::read_word(0x4000_0002)),
            Err(BusError::Unaligned { addr: 0x4000_0002 })
        );
    }

    #[test]
    fn unmapped_rejected() {
        let (mut bus, m) = bus_with_sram();
        assert_eq!(
            bus.try_begin(m, TxnRequest::read_word(0x9000_0000)),
            Err(BusError::Unmapped { addr: 0x9000_0000 })
        );
    }

    #[test]
    fn boundary_crossing_rejected() {
        let (mut bus, m) = bus_with_sram();
        // SRAM is 1024 words = 4096 bytes at 0x4000_0000.
        assert_eq!(
            bus.try_begin(m, TxnRequest::read(0x4000_0FFC, 2)),
            Err(BusError::CrossesSlaveBoundary {
                addr: 0x4000_0FFC,
                beats: 2
            })
        );
    }

    #[test]
    fn empty_burst_rejected() {
        let (mut bus, m) = bus_with_sram();
        assert_eq!(
            bus.try_begin(m, TxnRequest::read(0x4000_0000, 0)),
            Err(BusError::EmptyBurst)
        );
    }

    #[test]
    fn fixed_priority_prefers_lower_id() {
        let mut bus = Bus::new(BusConfig::default());
        let cpu = bus.register_master();
        let ocp = bus.register_master();
        bus.add_slave(0, Sram::with_words(256, SramConfig::no_wait()));
        bus.try_begin(ocp, TxnRequest::read(0, 16)).unwrap();
        bus.try_begin(cpu, TxnRequest::read_word(0x40)).unwrap();
        // CPU (id 0) should win arbitration even though OCP asked the
        // same cycle.
        let c_cpu = {
            while bus.poll(cpu).is_pending() {
                bus.tick();
            }
            bus.take_completion(cpu).unwrap().unwrap()
        };
        while bus.poll(ocp).is_pending() {
            bus.tick();
        }
        let c_ocp = bus.take_completion(ocp).unwrap().unwrap();
        assert!(c_cpu.completed_at < c_ocp.completed_at);
        assert!(bus.stats().contention_cycles > 0);
    }

    #[test]
    fn slave_fault_mid_burst_reported() {
        struct Flaky;
        impl BusSlave for Flaky {
            fn name(&self) -> &str {
                "flaky"
            }
            fn size(&self) -> u32 {
                64
            }
            fn read_word(&mut self, offset: u32) -> Result<u32, SlaveFault> {
                if offset >= 8 {
                    Err(SlaveFault {
                        reason: "beyond implemented range".into(),
                    })
                } else {
                    Ok(0)
                }
            }
            fn write_word(&mut self, _: u32, _: u32) -> Result<(), SlaveFault> {
                Ok(())
            }
        }
        let mut bus = Bus::new(BusConfig::default());
        let m = bus.register_master();
        bus.add_slave(0, Flaky);
        bus.try_begin(m, TxnRequest::read(0, 4)).unwrap();
        let err = bus.run_to_completion(m).unwrap_err();
        assert!(matches!(err, BusError::Fault(_)));
    }

    #[test]
    fn overlapping_slaves_panic() {
        let buses: [Box<dyn SystemBus>; 2] = [
            Box::new(Bus::new(BusConfig::default())),
            Box::new(crate::axi::AxiBus::new()),
        ];
        for mut bus in buses {
            bus.add_slave_boxed(0, Box::new(Sram::with_words(256, SramConfig::no_wait())));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bus.add_slave_boxed(
                    0x100,
                    Box::new(Sram::with_words(256, SramConfig::no_wait())),
                );
            }));
            assert!(result.is_err());
        }
    }

    #[test]
    #[should_panic(expected = "sub-bursts need a beat")]
    fn zero_beat_sub_bursts_are_rejected() {
        let _ = Bus::new(BusConfig { max_burst_beats: 0 });
    }

    #[test]
    fn stats_accumulate() {
        let (mut bus, m) = bus_with_sram();
        bus.try_begin(m, TxnRequest::write(0x4000_0000, vec![0; 32]))
            .unwrap();
        bus.run_to_completion(m).unwrap();
        let s = bus.stats();
        assert_eq!(s.beats, 32);
        assert_eq!(s.grants, 2);
        assert!(s.busy_cycles <= s.cycles);
    }

    #[test]
    fn per_master_stats_attribute_grants_beats_and_contention() {
        let mut bus = Bus::new(BusConfig::default());
        let cpu = bus.register_master();
        let ocp = bus.register_master();
        bus.add_slave(0, Sram::with_words(256, SramConfig::no_wait()));
        bus.try_begin(cpu, TxnRequest::write(0, vec![0; 32]))
            .unwrap();
        bus.try_begin(ocp, TxnRequest::read(0x100, 8)).unwrap();
        while bus.poll(cpu).is_pending() || bus.poll(ocp).is_pending() {
            bus.tick();
        }
        bus.take_completion(cpu).unwrap().unwrap();
        bus.take_completion(ocp).unwrap().unwrap();
        let c = bus.master_stats(cpu);
        let o = bus.master_stats(ocp);
        assert_eq!(c.beats, 32);
        assert_eq!(o.beats, 8);
        assert_eq!(c.grants, 2); // 32 beats = 2 sub-bursts
        assert_eq!(o.grants, 1);
        // Fixed priority: the OCP waited while the CPU held the bus.
        assert!(o.contention_cycles > 0);
        assert_eq!(c.contention_cycles, 0);
        assert_eq!(
            c.contention_cycles + o.contention_cycles,
            bus.stats().contention_cycles
        );
    }

    #[test]
    fn horizon_reaches_the_transaction_completion() {
        let mut bus = Bus::new(BusConfig::default());
        let m = bus.register_master();
        bus.add_slave(
            0,
            Sram::with_words(
                64,
                SramConfig {
                    first_access_wait_states: 3,
                    sequential_wait_states: 1,
                },
            ),
        );
        assert_eq!(bus.horizon(), Horizon::QUIESCENT);
        bus.try_begin(m, TxnRequest::read(0, 4)).unwrap();
        // Grant + address + (3 waits + beat) + 3 × (1 wait + beat): the
        // completion is 12 cycles out, `wait_states_charged`' total.
        assert_eq!(bus.horizon().ticks(), Some(12));
        bus.advance(Cycle::new(11));
        assert_eq!(bus.horizon().ticks(), Some(1));
        assert!(bus.poll(m).is_pending());
        bus.tick();
        let c = bus.take_completion(m).unwrap().unwrap();
        assert_eq!(c.cycles, 12);
        assert_eq!(bus.stats().beats, 4);
        assert_eq!(bus.horizon(), Horizon::QUIESCENT);
    }

    /// Two masters on sub-bursts of 4 beats over SRAM with 2 first and
    /// 1 sequential wait states: a full sub-burst is grant + address +
    /// 2 waits + 4 beats + 3 waits = 11 cycles.
    fn two_masters_on_short_sub_bursts() -> (Bus, [MasterId; 2]) {
        let mut bus = Bus::new(BusConfig { max_burst_beats: 4 });
        let ids = [bus.register_master(), bus.register_master()];
        bus.add_slave(
            0,
            Sram::with_words(
                64,
                SramConfig {
                    first_access_wait_states: 2,
                    sequential_wait_states: 1,
                },
            ),
        );
        (bus, ids)
    }

    /// Ticks until `done` completes, checking the horizon counts down to
    /// `at` and that nothing completes before; returns the ticks run.
    fn tick_to_completion(bus: &mut Bus, ids: [MasterId; 2], done: MasterId, at: u64) -> u64 {
        let mut ticks = 0;
        while ids.iter().all(|&m| bus.poll(m).is_pending()) {
            bus.tick();
            ticks += 1;
            if ticks < at {
                assert_eq!(bus.horizon().ticks(), Some(at - ticks));
            }
        }
        assert_eq!(bus.poll(done), PortState::Complete);
        ticks
    }

    #[test]
    fn horizon_spans_re_arbitrations_to_the_first_completion() {
        let (mut bus, [a, b]) = two_masters_on_short_sub_bursts();
        // `a` needs 4 + 4 + 2 beats and outranks `b`, so it keeps the
        // bus: 11 + 11 + 7.
        bus.try_begin(a, TxnRequest::read(0, 10)).unwrap();
        bus.try_begin(b, TxnRequest::write(0x80, vec![7; 5]))
            .unwrap();
        assert_eq!(bus.horizon().ticks(), Some(29));
        assert_eq!(tick_to_completion(&mut bus, [a, b], a, 29), 29);
        assert_eq!(bus.stats().grants, 3);
    }

    /// The owner of the bus is not its top requester: `b` holds a
    /// sub-burst when `a` issues, so only `a`'s own beats count once
    /// `b`'s sub-burst ends.
    #[test]
    fn horizon_behind_a_lower_priority_owner_counts_the_top_requester_whole() {
        let (mut bus, [a, b]) = two_masters_on_short_sub_bursts();
        bus.try_begin(b, TxnRequest::read(0, 10)).unwrap();
        // Grant, address and the first of 2 wait states.
        for _ in 0..3 {
            bus.tick();
        }
        bus.try_begin(a, TxnRequest::write(0x80, vec![7; 5]))
            .unwrap();
        // `b`'s sub-burst has 1 wait + 4 beats + 3 waits = 8 cycles
        // left, then `a` takes 11 + (grant + address + 2 waits + 1
        // beat) = 16.
        assert_eq!(bus.horizon().ticks(), Some(24));
        assert_eq!(tick_to_completion(&mut bus, [a, b], a, 24), 24);
        assert!(bus.poll(b).is_pending());
    }

    #[test]
    fn wait_state_cycles_charge_no_contention() {
        let mut bus = Bus::new(BusConfig::default());
        let a = bus.register_master();
        let b = bus.register_master();
        bus.add_slave(
            0,
            Sram::with_words(
                64,
                SramConfig {
                    first_access_wait_states: 5,
                    sequential_wait_states: 3,
                },
            ),
        );
        bus.try_begin(a, TxnRequest::read(0, 2)).unwrap();
        bus.try_begin(b, TxnRequest::read_word(0x40)).unwrap();
        let c = bus.run_to_completion(a).unwrap();
        // `a` holds the bus for grant + address + 5 waits + beat +
        // 3 waits + final beat = 12 cycles, but `b` is charged only for
        // the grant, the address and the non-final beat.
        assert_eq!(c.cycles, 12);
        assert_eq!(bus.master_stats(b).contention_cycles, 3);
        assert_eq!(bus.stats().contention_cycles, 3);
    }

    /// The closed form against the loop it replaced, which tried one
    /// more beat while the next one still ended within `n` cycles.
    #[test]
    fn closed_form_beat_count_matches_the_stepping_loop() {
        for wait in 0..=3 {
            for seq_wait in 0..=3 {
                for sub_beats in 1..=16u64 {
                    for n in 1..=80 {
                        let mut beats = 0;
                        while beats < sub_beats && beat_offset(wait, seq_wait, beats + 1) <= n {
                            beats += 1;
                        }
                        assert_eq!(
                            beats_within(wait, seq_wait, n).min(sub_beats),
                            beats,
                            "wait {wait}, seq {seq_wait}, sub-burst {sub_beats}, n {n}"
                        );
                    }
                }
            }
        }
    }

    /// A slave whose words from offset 8 on fault.
    struct Holey;

    impl BusSlave for Holey {
        fn name(&self) -> &str {
            "holey"
        }
        fn size(&self) -> u32 {
            64
        }
        fn read_word(&mut self, offset: u32) -> Result<u32, SlaveFault> {
            self.write_word(offset, 0).map(|()| offset)
        }
        fn write_word(&mut self, offset: u32, _: u32) -> Result<(), SlaveFault> {
            if offset >= 8 {
                return Err(SlaveFault {
                    reason: format!("hole at {offset}"),
                });
            }
            Ok(())
        }
    }

    #[test]
    fn a_faulting_beat_is_counted_and_ends_the_burst_on_its_own_cycle() {
        for req in [
            TxnRequest::read(0, 6),
            TxnRequest::write(0, vec![1, 2, 3, 4, 5, 6]),
        ] {
            let mut bus = Bus::new(BusConfig::default());
            let m = bus.register_master();
            bus.add_slave(0, Holey);
            bus.try_begin(m, req.clone()).unwrap();
            // Grant, address, two good beats and the faulting third.
            for _ in 0..4 {
                bus.tick();
                assert!(bus.poll(m).is_pending(), "{req:?}");
            }
            bus.tick();
            assert_eq!(
                bus.take_completion(m),
                Some(Err(BusError::Fault(SlaveFault {
                    reason: "hole at 8".into()
                })))
            );
            assert_eq!(bus.stats().beats, 3, "{req:?}");
            assert_eq!(bus.master_stats(m).beats, 3, "{req:?}");
            assert_eq!(bus.stats().busy_cycles, 5, "{req:?}");
        }
    }

    /// Two adjacent memories, an unmapped gap, then a third memory; each
    /// word holds its own address.
    fn patchwork() -> Bus {
        let mut bus = Bus::new(BusConfig::default());
        for base in [0x00, 0x10, 0x30] {
            bus.add_slave(base, Sram::with_words(4, SramConfig::no_wait()));
            for a in (base..base + 0x10).step_by(4) {
                bus.debug_write(a, a).unwrap();
            }
        }
        bus
    }

    fn mapped_words(bus: &mut Bus) -> Vec<Result<u32, BusError>> {
        (0..0x40).step_by(4).map(|a| bus.debug_read(a)).collect()
    }

    /// Every range from every word address: the bulk debug calls give
    /// the result, the memory contents and the read-back words of one
    /// single-word call per word.
    #[test]
    fn debug_words_equal_per_word_calls_across_slaves_and_gaps() {
        for addr in (0..0x44).step_by(4) {
            for count in 0..=14usize {
                let data: Vec<u32> = (0..count as u32).map(|i| 0xD000 + i).collect();
                let (mut bulk, mut single) = (patchwork(), patchwork());
                let bulk_write = bulk.debug_write_words(addr, &data);
                let single_write = data
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, &w)| single.debug_write(addr + (i as u32) * 4, w));
                assert_eq!(bulk_write, single_write, "write {addr:#x}+{count}");
                assert_eq!(mapped_words(&mut bulk), mapped_words(&mut single));

                let mut bulk_out = Vec::new();
                let bulk_read = bulk.debug_read_words(addr, count, &mut bulk_out);
                let mut single_out = Vec::new();
                let single_read = (0..count as u32).try_for_each(|i| {
                    single_out.push(single.debug_read(addr + i * 4)?);
                    Ok(())
                });
                assert_eq!(bulk_read, single_read, "read {addr:#x}+{count}");
                assert_eq!(bulk_out, single_out, "read {addr:#x}+{count}");
            }
        }
    }

    #[test]
    fn unaligned_debug_access_is_rejected() {
        let mut bus = patchwork();
        let unaligned = BusError::Unaligned { addr: 0x13 };
        assert_eq!(bus.debug_write(0x13, 0xBBBB), Err(unaligned.clone()));
        assert_eq!(bus.debug_read(0x13), Err(unaligned.clone()));
        assert_eq!(
            bus.debug_write_words(0x13, &[0xBBBB]),
            Err(unaligned.clone())
        );
        let mut out = Vec::new();
        assert_eq!(bus.debug_read_words(0x13, 1, &mut out), Err(unaligned));
        assert!(out.is_empty());
        assert_eq!(bus.debug_read(0x10), Ok(0x10), "the word below is intact");
    }

    /// SRAM at the bottom and at the top of the address space: a debug
    /// range that runs past the top stops there, after the words below
    /// it, instead of wrapping round to address 0.
    #[test]
    fn debug_ranges_stop_at_the_top_of_the_address_space() {
        let mut bus = Bus::new(BusConfig::default());
        bus.add_slave(0, Sram::with_words(64, SramConfig::no_wait()));
        bus.add_slave(0xFFFF_FF00, Sram::with_words(64, SramConfig::no_wait()));
        bus.debug_write(0, 0xDEAD).unwrap();
        bus.debug_write(0xFFFF_FFFC, 0xBEEF).unwrap();
        let past_top = BusError::CrossesSlaveBoundary {
            addr: 0xFFFF_FFFC,
            beats: 2,
        };
        let mut out = Vec::new();
        assert_eq!(
            bus.debug_read_words(0xFFFF_FFFC, 2, &mut out),
            Err(past_top.clone())
        );
        assert_eq!(out, [0xBEEF], "the word below the top is read");
        assert_eq!(bus.debug_write_words(0xFFFF_FFFC, &[1, 2]), Err(past_top));
        assert_eq!(
            bus.debug_read(0xFFFF_FFFC),
            Ok(1),
            "the top word is written"
        );
        assert_eq!(bus.debug_read(0), Ok(0xDEAD), "word 0 is intact");
    }

    #[test]
    fn idle_bus_ticks_without_work() {
        let (mut bus, m) = bus_with_sram();
        for _ in 0..10 {
            bus.tick();
        }
        assert_eq!(bus.poll(m), PortState::Idle);
        assert_eq!(bus.stats().busy_cycles, 0);
        assert_eq!(bus.now().count(), 10);
    }

    /// A write whose payload is longer than a burst can be is rejected
    /// whole on both buses and queues nothing: 65 536 words used to
    /// wrap to an empty burst and 65 537 to a one-beat burst that
    /// completed `Ok`.
    #[test]
    fn write_payloads_longer_than_a_burst_are_rejected() {
        fn check(bus: &mut dyn SystemBus) {
            let m = bus.register_master();
            bus.add_slave_boxed(0, Box::new(Sram::with_words(70_000, SramConfig::no_wait())));
            for words in [65_536, 65_537] {
                let req = TxnRequest::write(0, vec![7; words]);
                assert_eq!(req.shape().beats, u16::MAX);
                assert_eq!(
                    bus.try_begin(m, req),
                    Err(BusError::PayloadLength {
                        beats: u16::MAX,
                        words
                    }),
                    "{words} words"
                );
                assert_eq!(bus.poll(m), PortState::Idle, "{words} words queued nothing");
                assert_eq!(bus.debug_read(4), Ok(0), "{words} words wrote nothing");
            }
            // The longest burst still goes through.
            bus.try_begin(m, TxnRequest::write(0, vec![7; 65_535]))
                .expect("a full-length burst is valid");
        }
        check(&mut Bus::new(BusConfig::default()));
        check(&mut crate::axi::AxiBus::new());
    }

    #[test]
    fn the_issue_what_if_equals_the_horizon_after_the_issue() {
        let (mut bus, m) = bus_with_sram();
        let other = bus.register_master();
        let req = TxnRequest::read(0x4000_0000, 40);
        let shape = req.shape();
        // The event of an issue on the window's first tick.
        let what_if = |bus: &Bus, m, shape| {
            let first = bus.time_burst(m, Strided::one(shape), 1, 0, None);
            first.map(|s| s.first.event)
        };
        // Idle: a lone request, its sub-bursts back to back.
        let alone = what_if(&bus, m, shape);
        assert_eq!(alone, Some(2 * (2 + 16) + 2 + 8));
        // A waiting completion does not move it; an outstanding burst
        // makes the issue fail.
        bus.try_begin(m, TxnRequest::read_word(0x4000_0000))
            .unwrap();
        assert_eq!(what_if(&bus, m, shape), None);
        bus.run_to_completion(m).unwrap();
        bus.try_begin(m, TxnRequest::read_word(0x4000_0000))
            .unwrap();
        bus.tick();
        bus.tick();
        bus.tick();
        assert_eq!(bus.poll(m), PortState::Complete);
        assert_eq!(what_if(&bus, m, shape), alone);
        bus.take_completion(m);
        // Behind another master's burst, as `try_begin` then `horizon`
        // has it.
        bus.try_begin(other, TxnRequest::read(0x4000_0100, 20))
            .unwrap();
        bus.tick();
        let behind = what_if(&bus, m, shape);
        bus.try_begin(m, req).unwrap();
        assert_eq!(behind.map(|e| Horizon::after(e - 1)), Some(bus.horizon()));
        // Rejections match `try_begin`'s.
        let busy = TxnRequest::read(0x4000_0000, 1).shape();
        assert_eq!(what_if(&bus, other, busy), None);
        assert_eq!(what_if(&bus, m, TxnRequest::read_word(3).shape()), None);
    }
}
