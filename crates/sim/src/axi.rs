//! An AXI4-like alternative system bus with independent read and write
//! channels.
//!
//! The paper's §VI lists "complete Zynq (AXI4) integration" as work in
//! progress; the Ouessant interface was designed so that only the
//! bus-specific FSMs need replacing. [`AxiBus`] is that other bus: unlike
//! the AHB-like [`crate::bus::Bus`], it has **separate read and write
//! channels** that operate concurrently, address/data channel handshakes
//! of two cycles, and bursts that are not split into sub-bursts (AXI4
//! supports up to 256 beats per burst).
//!
//! Only that FSM is AXI's own. The address map (decode, request
//! validation, debug access) and the accepted-transaction record are
//! the ones [`crate::bus::Bus`] uses, so the two models differ exactly in
//! their handshake and arbitration phases.
//!
//! Both buses implement [`SystemBus`], so the Ouessant bus interface (in
//! the `ouessant` crate) runs unmodified on either — reproducing the
//! paper's portability claim as a compile-time fact.

use crate::bus::{
    Addr, BusError, BusSlave, BusStats, Completion, MasterId, Polls, PortState, SlaveMap, Txn,
    TxnKind, TxnRequest,
};

use crate::clock::{Cycle, Instant};
use crate::event::{Horizon, RunBurst, RunSegment, Strided};

/// Object-safe façade over a system bus, implemented by the AHB-like
/// [`crate::bus::Bus`] and the AXI-like [`AxiBus`].
///
/// The Ouessant bus interface is written against this trait; porting the
/// OCP to a new interconnect means implementing `SystemBus` (the "bus
/// master FSM / bus slave FSM" box of the paper's Figure 3), its
/// fast-forward horizon included, nothing else. The horizon lets a
/// master waiting on its burst defer to the bus when fast-forwarding.
pub trait SystemBus {
    /// Registers a master and returns its id.
    fn register_master(&mut self) -> MasterId;

    /// Maps a boxed slave at `base`.
    fn add_slave_boxed(&mut self, base: Addr, device: Box<dyn BusSlave>);

    /// Raises a bus request.
    ///
    /// # Errors
    ///
    /// See [`BusError`].
    fn try_begin(&mut self, master: MasterId, req: TxnRequest) -> Result<(), BusError>;

    /// Advances one clock cycle.
    fn tick(&mut self);

    /// Current simulation time.
    #[must_use]
    fn now(&self) -> Instant;

    /// Samples a master port.
    #[must_use]
    fn poll(&self, master: MasterId) -> PortState;

    /// Retires a finished transaction.
    fn take_completion(&mut self, master: MasterId) -> Option<Result<Completion, BusError>>;

    /// The finished transaction [`SystemBus::take_completion`] would
    /// retire next, left in place.
    #[must_use]
    fn peek_completion(&self, master: MasterId) -> Option<&Result<Completion, BusError>>;

    /// Un-timed read for test setup / inspection.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Unaligned`], [`BusError::Unmapped`] or a
    /// slave fault.
    fn debug_read(&mut self, addr: Addr) -> Result<u32, BusError>;

    /// Un-timed write for test setup.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Unaligned`], [`BusError::Unmapped`] or a
    /// slave fault.
    fn debug_write(&mut self, addr: Addr, value: u32) -> Result<(), BusError>;

    /// Aggregate statistics.
    #[must_use]
    fn stats(&self) -> BusStats;

    /// The earliest future tick at which the bus's observable state
    /// can change: a transaction completes or a slave faults.
    /// Quiescent when no master is requesting. See the
    /// [`event`](crate::event) module for the whole contract.
    #[must_use]
    fn horizon(&self) -> Horizon;

    /// The first bursts of `bursts` that `master` issues, the first on
    /// tick `issue` of a window that starts now, before this cycle's
    /// tick, each later one `gap` ticks after the last one's event:
    /// each one's tick of the bus's first event after its issue
    /// ([`SystemBus::horizon`] with the burst added), counted from now,
    /// and whether that event is its completion, as a segment of at
    /// least one burst. `after` is the burst of the same run in front
    /// of them, on whose completion the bus is idle but for its
    /// installed [`Polls`]; without it the burst is the run's first,
    /// and issues on tick 1 unless the bus is idle but for polls (an
    /// idle bus times a burst alike wherever it issues).
    ///
    /// A bus may time fewer bursts than `bursts` holds: the master asks
    /// again for the rest, after the last one it timed. It stops at a
    /// burst that `try_begin` would reject, and the next call, on that
    /// burst, is `None`.
    ///
    /// It lets a master issue inside a fast-forward window instead of
    /// on a stepped tick (see [`BusWindow`](crate::event::BusWindow)),
    /// so an answer must be exact, and `None` whenever `try_begin`
    /// would reject the first burst (a completion waiting on `master`'s
    /// port aside). The default declines every burst, which keeps each
    /// issue a stepped event.
    #[must_use]
    fn time_burst(
        &self,
        master: MasterId,
        bursts: Strided,
        issue: u64,
        gap: u64,
        after: Option<&RunBurst>,
    ) -> Option<RunSegment> {
        let _ = (master, bursts, issue, gap, after);
        None
    }

    /// Installs `polls`, a master's status reads, for the window to
    /// come, or removes them with `None`, and returns the polls it held.
    /// While they are installed, the bus requests, grants and takes
    /// each read itself (see [`Polls`]): its [`SystemBus::horizon`] and
    /// what-ifs count the reads' contention but not their completions,
    /// and [`SystemBus::advance`] and [`SystemBus::replay_run`] run
    /// them.
    ///
    /// # Panics
    ///
    /// The default, for a bus that cannot time polls, panics when given
    /// some.
    fn set_polls(&mut self, polls: Option<Polls>) -> Option<Polls> {
        assert!(polls.is_none(), "this bus does not time polls");
        None
    }

    /// Whether [`SystemBus::replay_run`] replays a run's whole bursts
    /// in one step, which is what lets a leap replay them without
    /// issuing each one (see [`BusWindow::leap`](crate::event::BusWindow::leap)).
    /// The default says no, and so does a bus that records each
    /// transaction in a trace: such a bus meets every burst of a run
    /// through its own issue and [`SystemBus::advance`].
    fn replays_runs(&self) -> bool {
        false
    }

    /// Replays `segment`, whole later bursts of `master`'s run, in one
    /// step, on a bus that stands on the completion of the run's burst
    /// before them, which `master` has picked up, with nothing else
    /// requesting. Each burst issues and completes on the window ticks
    /// the segment names, counted from `origin`. `data(k, words)` is
    /// called once per burst, in order (`k` from 0): before a write's
    /// beats move, to append its payload to the empty `words`; after a
    /// read's beats move, with the words read. Afterwards the bus is as
    /// if each burst had been issued with [`SystemBus::try_begin`] on
    /// its cycle and [`SystemBus::advance`]d through, and only the last
    /// one's completion taken: it waits on `master`'s port, a read's
    /// with the words last handed to `data`.
    ///
    /// Called only when [`SystemBus::replays_runs`] says yes, for
    /// bursts [`SystemBus::time_burst`] timed as completing. The
    /// default, for a bus that never says yes, is never called.
    fn replay_run(
        &mut self,
        master: MasterId,
        origin: Instant,
        segment: RunSegment,
        data: &mut dyn FnMut(usize, &mut Vec<u32>),
    ) {
        let _ = (master, origin, segment, data);
        unreachable!("only a bus that replays runs is asked to replay one");
    }

    /// Replays `cycles` ticks in bulk.
    ///
    /// Callers must guarantee `cycles ≤ horizon()` (a quiescent bus
    /// accepts any count): nothing observes a bus event on the tick it
    /// happens, so an owner may leap through it (see
    /// [`Horizon::observed`]), and no
    /// master calls [`SystemBus::try_begin`] or
    /// [`SystemBus::take_completion`] in between. Afterwards the bus is
    /// bit-identical to having been `tick()`ed `cycles` times.
    fn advance(&mut self, cycles: Cycle);
}

/// Cycles consumed by the address-channel handshake before the first
/// beat (ARVALID/ARREADY or AWVALID/AWREADY plus one pipeline stage).
const CHANNEL_SETUP_CYCLES: u32 = 2;

/// The transaction a channel is moving, and the cycles before its next
/// beat: address-channel setup first, then the slave's wait states.
#[derive(Debug)]
struct ChannelActive {
    master: usize,
    setup_left: u32,
    wait_left: u32,
}

/// One direction (read or write) of the AXI interconnect.
#[derive(Debug, Default)]
struct Channel {
    slots: Vec<Option<Txn>>,
    active: Option<ChannelActive>,
    beats: u64,
    grants: u64,
}

impl Channel {
    /// One cycle of this channel: a grant to the lowest queued master
    /// when idle, else a setup or wait-state cycle, else one beat. A
    /// finished or faulted transaction frees the channel and posts its
    /// completion to its master.
    fn tick(
        &mut self,
        now: Instant,
        slaves: &mut SlaveMap,
        completions: &mut [Vec<Result<Completion, BusError>>],
    ) {
        let Some(active) = self.active.as_mut() else {
            if let Some(master) = self.slots.iter().position(Option::is_some) {
                let txn = self.slots[master].as_ref().expect("present");
                self.grants += 1;
                self.active = Some(ChannelActive {
                    master,
                    setup_left: CHANNEL_SETUP_CYCLES,
                    wait_left: slaves.timing(txn.slave_idx).first_wait,
                });
            }
            return;
        };
        if active.setup_left > 0 {
            active.setup_left -= 1;
            return;
        }
        if active.wait_left > 0 {
            active.wait_left -= 1;
            return;
        }
        let master = active.master;
        let txn = self.slots[master].as_mut().expect("active slot");
        let (_, fault) = txn.move_beats(slaves, 1);
        self.beats += 1;
        if let Some(fault) = fault {
            self.slots[master] = None;
            self.active = None;
            completions[master].push(Err(BusError::Fault(fault)));
        } else if txn.is_done() {
            let txn = self.slots[master].take().expect("present");
            self.active = None;
            completions[master].push(Ok(txn.finish(now)));
        } else {
            active.wait_left = slaves.timing(txn.slave_idx).seq_wait;
        }
    }

    /// Whether the channel holds or queues any transaction.
    fn is_busy(&self) -> bool {
        self.active.is_some() || self.slots.iter().any(Option::is_some)
    }
}

/// The AXI-like bus: independent, concurrently active read and write
/// channels.
///
/// # Examples
///
/// A read and a write proceeding in the same cycles:
///
/// ```
/// use ouessant_sim::axi::{AxiBus, SystemBus};
/// use ouessant_sim::bus::TxnRequest;
/// use ouessant_sim::memory::{Sram, SramConfig};
///
/// let mut bus = AxiBus::new();
/// let m = bus.register_master();
/// bus.add_slave_boxed(0, Box::new(Sram::with_words(256, SramConfig::no_wait())));
///
/// bus.try_begin(m, TxnRequest::write(0x00, vec![7; 16]))?;
/// bus.try_begin(m, TxnRequest::read(0x80, 16))?; // concurrent: other channel
/// while bus.poll(m).is_pending() {
///     bus.tick();
/// }
/// # Ok::<(), ouessant_sim::bus::BusError>(())
/// ```
#[derive(Debug, Default)]
pub struct AxiBus {
    now: Instant,
    read: Channel,
    write: Channel,
    completions: Vec<Vec<Result<Completion, BusError>>>,
    slaves: SlaveMap,
    busy_cycles: u64,
}

impl AxiBus {
    /// Creates an empty AXI bus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl SystemBus for AxiBus {
    fn register_master(&mut self) -> MasterId {
        self.read.slots.push(None);
        self.write.slots.push(None);
        self.completions.push(Vec::new());
        MasterId::from_index(self.completions.len() - 1)
    }

    fn add_slave_boxed(&mut self, base: Addr, device: Box<dyn BusSlave>) {
        self.slaves.add(base, device);
    }

    fn try_begin(&mut self, master: MasterId, req: TxnRequest) -> Result<(), BusError> {
        let m = master.index();
        if m >= self.completions.len() {
            return Err(BusError::UnknownMaster);
        }
        let channel = match req.kind() {
            TxnKind::Read => &mut self.read,
            TxnKind::Write => &mut self.write,
        };
        let slave_idx = self.slaves.validate(&req, channel.slots[m].is_some())?;
        channel.slots[m] = Some(Txn::new(req, slave_idx, self.now));
        Ok(())
    }

    fn tick(&mut self) {
        self.now += Cycle::new(1);
        for channel in [&mut self.read, &mut self.write] {
            channel.tick(self.now, &mut self.slaves, &mut self.completions);
        }
        if self.read.active.is_some() || self.write.active.is_some() {
            self.busy_cycles += 1;
        }
    }

    fn now(&self) -> Instant {
        self.now
    }

    fn poll(&self, master: MasterId) -> PortState {
        let m = master.index();
        if !self.completions[m].is_empty() {
            PortState::Complete
        } else if self.read.slots[m].is_some() || self.write.slots[m].is_some() {
            PortState::Pending
        } else {
            PortState::Idle
        }
    }

    fn take_completion(&mut self, master: MasterId) -> Option<Result<Completion, BusError>> {
        let m = master.index();
        if self.completions[m].is_empty() {
            None
        } else {
            Some(self.completions[m].remove(0))
        }
    }

    fn peek_completion(&self, master: MasterId) -> Option<&Result<Completion, BusError>> {
        self.completions[master.index()].first()
    }

    fn debug_read(&mut self, addr: Addr) -> Result<u32, BusError> {
        self.slaves.debug_read(addr)
    }

    fn debug_write(&mut self, addr: Addr, value: u32) -> Result<(), BusError> {
        self.slaves.debug_write(addr, value)
    }

    fn stats(&self) -> BusStats {
        BusStats {
            cycles: self.now.count(),
            busy_cycles: self.busy_cycles,
            grants: self.read.grants + self.write.grants,
            beats: self.read.beats + self.write.beats,
            contention_cycles: 0,
        }
    }

    /// The next tick while either channel is active or any master has
    /// a transaction queued on either channel; quiescent when both
    /// channels are drained — idle ticks only advance `now` (pending
    /// completions are inert until a master collects them).
    fn horizon(&self) -> Horizon {
        if self.read.is_busy() || self.write.is_busy() {
            Horizon::NEXT_TICK
        } else {
            Horizon::QUIESCENT
        }
    }

    /// Idle ticks in O(1). A busy bus is advanced through at most its
    /// event tick (its owner leaps to [`Horizon::observed`]), which
    /// replays as a real tick.
    fn advance(&mut self, cycles: Cycle) {
        if self.horizon() != Horizon::QUIESCENT {
            for _ in 0..cycles.count() {
                self.tick();
            }
        } else {
            self.now += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Sram, SramConfig};

    fn axi_with_sram() -> (AxiBus, MasterId) {
        let mut bus = AxiBus::new();
        let m = bus.register_master();
        bus.add_slave_boxed(0, Box::new(Sram::with_words(1024, SramConfig::no_wait())));
        (bus, m)
    }

    fn run_until_idle(bus: &mut AxiBus, m: MasterId) {
        let mut fuel = 100_000;
        while bus.poll(m).is_pending() {
            bus.tick();
            fuel -= 1;
            assert!(fuel > 0);
        }
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut bus, m) = axi_with_sram();
        bus.try_begin(m, TxnRequest::write(0x10, vec![1, 2, 3]))
            .unwrap();
        run_until_idle(&mut bus, m);
        bus.take_completion(m).unwrap().unwrap();
        bus.try_begin(m, TxnRequest::read(0x10, 3)).unwrap();
        run_until_idle(&mut bus, m);
        let c = bus.take_completion(m).unwrap().unwrap();
        assert_eq!(c.data, vec![1, 2, 3]);
    }

    #[test]
    fn read_and_write_channels_overlap() {
        let (mut bus, m) = axi_with_sram();
        for i in 0..64u32 {
            bus.debug_write(0x400 + i * 4, i).unwrap();
        }
        bus.try_begin(m, TxnRequest::write(0x000, vec![9; 64]))
            .unwrap();
        bus.try_begin(m, TxnRequest::read(0x400, 64)).unwrap();
        run_until_idle(&mut bus, m);
        let total = bus.now().count();
        // 64 beats each; channels run concurrently, so total is far less
        // than a serialized 128+ beats.
        assert!(total < 100, "channels should overlap, took {total}");
        let stats = bus.stats();
        assert_eq!((stats.grants, stats.beats), (2, 128));
    }

    #[test]
    fn long_burst_not_split() {
        let (mut bus, m) = axi_with_sram();
        bus.try_begin(m, TxnRequest::read(0, 256)).unwrap();
        run_until_idle(&mut bus, m);
        bus.take_completion(m).unwrap().unwrap();
        // One grant for 256 beats (no sub-burst splitting).
        assert_eq!(bus.stats().grants, 1);
    }

    #[test]
    fn per_channel_busy_rejected() {
        let (mut bus, m) = axi_with_sram();
        bus.try_begin(m, TxnRequest::read(0, 4)).unwrap();
        assert_eq!(
            bus.try_begin(m, TxnRequest::read(0, 4)),
            Err(BusError::Busy)
        );
        // But a write is a different channel:
        assert!(bus.try_begin(m, TxnRequest::write(0, vec![1])).is_ok());
    }

    #[test]
    fn unaligned_debug_access_is_rejected() {
        let (mut bus, _) = axi_with_sram();
        bus.debug_write(0x100, 0xAAAA).unwrap();
        let unaligned = BusError::Unaligned { addr: 0x103 };
        assert_eq!(bus.debug_write(0x103, 0xBBBB), Err(unaligned.clone()));
        assert_eq!(bus.debug_read(0x103), Err(unaligned));
        assert_eq!(
            bus.debug_read(0x100),
            Ok(0xAAAA),
            "the word below is intact"
        );
    }

    /// Every `try_begin` rejection the two buses share, driven through
    /// the same trait object on each. (`Busy` differs by design: AXI
    /// accepts a read and a write at once.)
    #[test]
    fn validation_mirrors_ahb() {
        fn rejections(bus: &mut dyn SystemBus) {
            let m = bus.register_master();
            bus.add_slave_boxed(0, Box::new(Sram::with_words(1024, SramConfig::no_wait())));
            let crossing = |addr, beats| BusError::CrossesSlaveBoundary { addr, beats };
            for (req, err) in [
                (TxnRequest::read_word(2), BusError::Unaligned { addr: 2 }),
                (
                    TxnRequest::write_word(0x13, 1),
                    BusError::Unaligned { addr: 0x13 },
                ),
                (TxnRequest::read(0, 0), BusError::EmptyBurst),
                (TxnRequest::write(0x10, Vec::new()), BusError::EmptyBurst),
                (
                    TxnRequest::read_word(0x9000_0000),
                    BusError::Unmapped { addr: 0x9000_0000 },
                ),
                (TxnRequest::read(0xFFC, 2), crossing(0xFFC, 2)),
                (TxnRequest::write(0xFF8, vec![0; 3]), crossing(0xFF8, 3)),
            ] {
                assert_eq!(bus.try_begin(m, req.clone()), Err(err), "{req:?}");
                assert_eq!(bus.poll(m), PortState::Idle, "{req:?} queued nothing");
            }
            assert_eq!(
                bus.try_begin(MasterId::from_index(1), TxnRequest::read_word(0)),
                Err(BusError::UnknownMaster)
            );
        }
        rejections(&mut crate::bus::Bus::new(crate::bus::BusConfig::default()));
        rejections(&mut AxiBus::new());
    }

    #[test]
    fn system_bus_trait_object_works_for_both() {
        fn exercise(bus: &mut dyn SystemBus) {
            let m = bus.register_master();
            bus.add_slave_boxed(0, Box::new(Sram::with_words(64, SramConfig::no_wait())));
            bus.try_begin(m, TxnRequest::write_word(0, 5)).unwrap();
            let mut fuel = 1000;
            while bus.poll(m).is_pending() {
                bus.tick();
                fuel -= 1;
                assert!(fuel > 0);
            }
            bus.take_completion(m).unwrap().unwrap();
            assert_eq!(bus.debug_read(0).unwrap(), 5);
        }
        exercise(&mut crate::bus::Bus::new(crate::bus::BusConfig::default()));
        exercise(&mut AxiBus::new());
    }
}
