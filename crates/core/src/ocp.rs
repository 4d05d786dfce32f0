//! The assembled Ouessant coprocessor.
//!
//! [`Ocp`] wires the three blocks of Figure 1 together — bus interface,
//! controller, RAC — and is what a SoC instantiates: one slave window
//! for the configuration registers, one bus master for the DMA
//! transfers, one interrupt line, and a `tick` to advance everything one
//! clock cycle.
//!
//! Fast-forward leaps an OCP over the ticks before its next event
//! ([`Ocp::horizon_on`], [`Ocp::advance`], [`Ocp::leap`]). A leap runs
//! each tick the controller walks through (a pickup, `Fetch`, `Decode`,
//! a transfer's issue, an `exec`'s start, an `end_op` retire, a `wait`)
//! as [`Ocp::tick`] does, socket first, and leaps the socket over the
//! ticks between, so of one job only the launch and the `eop` step.

use std::cell::OnceCell;

use ouessant_rac::rac::{Rac, RacSocket};
use ouessant_sim::bus::{Addr, Polls, TxnKind};
use ouessant_sim::{
    Advancing, BusWindow, Cycle, Horizon, Instant, RunBurst, RunSegment, Strided, SystemBus,
    WindowIssue,
};

use crate::controller::{Controller, ControllerState, ControllerStats, ExecError, PICKUP_TICKS};
use crate::interface::{DmaPort, IrqLine, RegSlavePort};
use crate::regs::RegsHandle;

/// Static OCP parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OcpConfig {
    /// Depth of each RAC FIFO in 32-bit words.
    ///
    /// "FIFO memory is inferred as BRAM, and strongly dependent on the
    /// accelerator" — the DFT needs 512-word FIFOs, the IDCT 64.
    pub fifo_depth: usize,
}

impl Default for OcpConfig {
    fn default() -> Self {
        Self { fifo_depth: 1024 }
    }
}

/// The per-OCP hang watchdog.
///
/// Armed by the host with a cycle budget; pulsed by *observable
/// progress* — a retired instruction or a completed transfer word
/// (the DMA-beat proxy the controller exposes). When the budget runs
/// out with no progress the watchdog bites:
/// [`ExecError::Hang`] is raised exactly as a hardware watchdog would
/// pull the fault line, and the normal recovery path takes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Watchdog {
    /// Cycles of no progress tolerated before the bite.
    budget: u64,
    /// Cycles left until the bite (reloaded to `budget` on progress).
    remaining: u64,
    /// Progress signature: `(instructions_retired, words_transferred)`.
    progress: (u64, u64),
}

impl Watchdog {
    /// Reloads the budget if the controller's progress signature moved
    /// since the last look (a pulse), returning whether it did.
    fn pulse(&mut self, stats: ControllerStats) -> bool {
        let progress = (stats.instructions_retired, stats.words_transferred);
        if progress == self.progress {
            return false;
        }
        self.progress = progress;
        self.remaining = self.budget;
        true
    }
}

/// An Ouessant coprocessor instance.
///
/// See the [crate documentation](crate) for a full integration example.
pub struct Ocp {
    regs: RegsHandle,
    irq: IrqLine,
    controller: Controller,
    socket: RacSocket,
    base: Addr,
    /// A run completed (`eop` set D) and no dispatcher has polled it.
    completed: bool,
    watchdog: Option<Watchdog>,
}

impl std::fmt::Debug for Ocp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ocp")
            .field("base", &format_args!("{:#010x}", self.base))
            .field("controller", &self.controller)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

impl Ocp {
    /// Creates an OCP around `rac`, registers its master port on `bus`
    /// and maps its register window at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is unaligned or overlaps an existing slave
    /// (static integration errors, as in [`ouessant_sim::Bus::add_slave`]).
    #[must_use]
    pub fn attach(
        bus: &mut dyn SystemBus,
        base: Addr,
        rac: Box<dyn Rac>,
        config: OcpConfig,
    ) -> Self {
        let regs = RegsHandle::new();
        bus.add_slave_boxed(base, Box::new(RegSlavePort::new(regs.clone())));
        let master = bus.register_master();
        let controller = Controller::new(DmaPort::new(master));
        let socket = RacSocket::new(rac, config.fifo_depth);
        Self {
            regs,
            irq: IrqLine::new(),
            controller,
            socket,
            base,
            completed: false,
            watchdog: None,
        }
    }

    /// The register-file handle (host configuration side).
    #[must_use]
    pub fn regs(&self) -> &RegsHandle {
        &self.regs
    }

    /// The base address of the register window.
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The interrupt line (clone it into the CPU model).
    #[must_use]
    pub fn irq(&self) -> &IrqLine {
        &self.irq
    }

    /// The controller (state inspection).
    #[must_use]
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The RAC socket (FIFO inspection in tests).
    #[must_use]
    pub fn socket(&self) -> &RacSocket {
        &self.socket
    }

    /// The bus identity of the DMA master port, for attributing
    /// per-master bus statistics (grants, beats, contention) to this
    /// OCP.
    #[must_use]
    pub fn bus_master(&self) -> ouessant_sim::bus::MasterId {
        self.controller.master()
    }

    /// The fault that stopped the controller, if any.
    #[must_use]
    pub fn fault(&self) -> Option<&ExecError> {
        self.controller.fault()
    }

    /// Whether the coprocessor is mid-program.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.controller.is_active()
    }

    /// Pre-loads microcode directly into the program store (standalone
    /// mode; normal operation fetches it from bank 0 on start).
    pub fn preload_program(&mut self, words: &[u32]) {
        self.controller.preload_program(words);
    }

    /// Forces the controller into its faulted state with `error` (see
    /// [`Controller::inject_fault`]) — the chaos-testing seam a serving
    /// layer uses to exercise fault containment and recovery.
    pub fn inject_fault(&mut self, error: ExecError) {
        self.controller.inject_fault(error);
    }

    /// Freezes the controller FSM mid-handshake (see
    /// [`Controller::inject_wedge`]): the silent-hang chaos seam. Only
    /// the watchdog or a host [`Ocp::abort`] gets the worker back.
    pub fn inject_wedge(&mut self) {
        self.controller.inject_wedge();
    }

    /// Whether the controller FSM is frozen by [`Ocp::inject_wedge`].
    #[must_use]
    pub fn is_wedged(&self) -> bool {
        self.controller.is_wedged()
    }

    /// Stalls the RAC for `cycles` extra cycles (see
    /// [`RacSocket::inject_stall`]): the slow-compute chaos seam. The
    /// accelerator stays busy and frozen for the stall, so `exec`
    /// latency stretches by exactly `cycles`.
    pub fn inject_rac_stall(&mut self, cycles: u64) {
        self.socket.inject_stall(cycles);
    }

    /// Arms the hang watchdog with `budget` cycles: if the controller
    /// stays active for `budget` consecutive cycles without retiring an
    /// instruction or completing a transfer word, the run faults with
    /// [`ExecError::Hang`] and the normal recovery path applies.
    ///
    /// Re-arming reloads the budget. The budget must exceed the
    /// longest *legitimate* progress-free window of the microcode —
    /// `wait N` and a full RAC compute both count as no-progress, so a
    /// budget below Table I's compute latencies bites healthy runs.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn arm_watchdog(&mut self, budget: u64) {
        assert!(budget > 0, "watchdog budget must be nonzero");
        let stats = self.controller.stats();
        self.watchdog = Some(Watchdog {
            budget,
            remaining: budget,
            progress: (stats.instructions_retired, stats.words_transferred),
        });
    }

    /// Disarms the hang watchdog.
    pub fn disarm_watchdog(&mut self) {
        self.watchdog = None;
    }

    /// Host-side cancel of a running job: disarms the watchdog, faults
    /// an active controller with [`ExecError::Aborted`], and drives the
    /// [`Ocp::try_recover`] machinery (drain in-flight DMA, reset the
    /// controller, release the RAC and FIFOs).
    ///
    /// Returns `true` once the OCP is back to a clean idle state; an
    /// already-idle unfaulted OCP aborts trivially. Returns `false`
    /// while a DMA burst is still in flight — keep ticking the bus and
    /// retry (or re-call `try_recover`), exactly as after any fault.
    pub fn abort(&mut self, bus: &mut dyn SystemBus) -> bool {
        self.watchdog = None;
        if self.controller.is_active() {
            self.controller.inject_fault(ExecError::Aborted);
        }
        if self.controller.fault().is_none() {
            // Idle and clean (e.g. the microcode `halt`ed without
            // raising D): nothing to cancel, but scrub to the same
            // power-on contract a recovery gives — FIFOs empty, RAC
            // (and a DPR slot's configuration) reset, no stale event
            // or interrupt.
            self.socket.reset();
            self.completed = false;
            self.irq.clear();
            return true;
        }
        self.try_recover(bus)
    }

    /// Attempts to recover a faulted coprocessor to a clean idle state:
    /// the controller FSM is reset ([`Controller::try_reset`]), the RAC
    /// and both FIFOs are returned to power-on state (stale words from
    /// the dead job must never leak into the next one), and any
    /// pending completion event or raised interrupt is discarded.
    ///
    /// Returns `false` while a DMA burst issued before the fault is
    /// still in flight — keep ticking the bus and retry; the reset
    /// refuses to orphan a live transaction.
    pub fn try_recover(&mut self, bus: &mut dyn SystemBus) -> bool {
        if !self.controller.try_reset(bus) {
            return false;
        }
        self.socket.reset();
        self.completed = false;
        self.irq.clear();
        self.watchdog = None;
        true
    }

    /// Advances the whole coprocessor one clock cycle: the RAC always
    /// runs (it is an independent piece of hardware); the controller
    /// FSM steps alongside it.
    pub fn tick(&mut self, bus: &mut dyn SystemBus) {
        self.socket.tick();
        let runs = self.controller.stats().runs_completed;
        self.controller
            .tick(bus, &self.regs, &mut self.socket, &self.irq);
        // Completion: `eop`, the only writer of D, retired this cycle.
        if self.controller.stats().runs_completed != runs {
            self.completed = true;
        }
        self.watch();
    }

    /// The watchdog's rule for one tick, after the controller's step:
    /// pulse on progress, count down otherwise, bite at zero. Only an
    /// *active* controller is watched — an idle or already-faulted one
    /// holds the countdown.
    fn watch(&mut self) {
        if let Some(wd) = &mut self.watchdog {
            if self.controller.is_active() && !wd.pulse(self.controller.stats()) {
                wd.remaining -= 1;
                if wd.remaining == 0 {
                    let budget = wd.budget;
                    self.watchdog = None;
                    self.controller.inject_fault(ExecError::Hang { budget });
                }
            }
        }
    }

    /// Non-blocking completion poll for dispatchers: returns `true`
    /// for a finished run exactly once, acknowledging the interrupt
    /// line as a side effect (the dispatcher *is* the handler).
    ///
    /// A pool scheduler calls this every cycle instead of re-reading
    /// the D bit and manually clearing the IRQ.
    pub fn poll_completion(&mut self) -> bool {
        let completed = std::mem::take(&mut self.completed);
        if completed {
            self.irq.clear();
        }
        completed
    }

    /// Statistics of the controller's program runs.
    #[must_use]
    pub fn stats(&self) -> ControllerStats {
        self.controller.stats()
    }

    /// The run of transfers this coprocessor can issue inside the next
    /// fast-forward window (see [`Controller::window_issue`]): its first
    /// issue, for the leap loop to plan the window with
    /// ([`BusWindow::plan`]), and the rest, for [`Ocp::extend_run`].
    #[must_use]
    pub fn window_issue<'a>(
        &'a self,
        bus: &'a dyn SystemBus,
        chain: bool,
    ) -> Option<(WindowIssue, impl Iterator<Item = Strided> + 'a)> {
        self.controller
            .window_issue(&self.socket, bus, &self.regs, chain)
    }

    /// Adds `later`, the rest of the run whose first burst `window`
    /// issues (see [`Ocp::window_issue`]), to the window
    /// ([`BusWindow::extend_run`]), as far as it can reach before tick
    /// `limit`, the rest of the leap loop's merged horizon.
    pub fn extend_run(
        bus: &dyn SystemBus,
        window: &mut BusWindow,
        limit: Horizon,
        later: impl IntoIterator<Item = Strided>,
    ) {
        window.extend_run(bus, limit, PICKUP_TICKS, later);
    }

    /// Leaps this coprocessor and `bus` over the ticks before its next
    /// event, at most `limit` of them, for a loop in which it is the
    /// only master on `bus` that can issue. The window is
    /// [`BusWindow::plan`] over its [`Ocp::window_issue`], chains
    /// allowed, with its run as far as the leap can reach: an issue
    /// past `limit` (after a long walk through a compute) is left out,
    /// and so are the bursts past it. The horizon is [`Ocp::horizon_on`]
    /// merged with the tick after the window's bus event (see
    /// [`Horizon::observed`]), so a leap ends on the tick of the bus's
    /// next event at the latest, and the leap is its
    /// [`Horizon::leap_bound`]: `limit` for a quiescent coprocessor.
    /// Returns the ticks leapt, 0 when the next tick is an event.
    ///
    /// `polls` are the status reads of the bus's other master (a CPU
    /// polling `CTRL`): the bus times them inside the window (see
    /// [`SystemBus::set_polls`]), so they neither end it nor wait for
    /// it, and they come back with the reads the window took and the
    /// state of their master's port at its end (a read outstanding, or
    /// the cycle the next one is requested on).
    pub fn leap(&mut self, bus: &mut dyn SystemBus, limit: u64, polls: Option<&mut Polls>) -> u64 {
        let Some(polls) = polls else {
            return self.leap_window(bus, limit);
        };
        bus.set_polls(Some(*polls));
        let skip = self.leap_window(bus, limit);
        *polls = bus.set_polls(None).expect("installed above");
        skip
    }

    /// [`Ocp::leap`] on the bus as it stands.
    fn leap_window(&mut self, bus: &mut dyn SystemBus, limit: u64) -> u64 {
        let reachable = |(issue, _): &(WindowIssue, _)| issue.prefix < limit;
        let window = match BusWindow::plan(bus, true, |chain| {
            self.window_issue(bus, chain).filter(reachable)
        }) {
            (mut window, Some(later)) => {
                Ocp::extend_run(bus, &mut window, Horizon::after(limit), later);
                window
            }
            (window, None) => window,
        };
        let skip = self
            .horizon_on(bus, &window)
            .min(Horizon::observed(window.event()))
            .leap_bound(limit);
        if skip > 0 {
            window.leap(bus, skip, |bus, who, from, ticks| {
                self.advance(who, from, Cycle::new(ticks), bus);
            });
        }
        skip
    }

    /// The fast-forward horizon of the whole coprocessor on `bus` (see
    /// [`ouessant_sim::event`] for the contract), in the window
    /// `window` its leap loop planned: the controller's horizon, which
    /// holds the socket's (so `RacWait` and `ReconfigWait` expose the
    /// RAC's compute countdown and the bitstream load, and an `exec`
    /// the compute it starts) and the window's bus event (so a DMA
    /// burst in flight, or one the window issues, exposes the tick
    /// after the bus's next event, the first the controller can see it
    /// on, see [`Horizon::observed`]). Two guards apply:
    ///
    /// * an armed-but-unconsumed S bit or an unpolled completion
    ///   forces single-stepping (the next tick is an event);
    /// * an *active* controller whose combined horizon is quiescent (e.g.
    ///   `exec` waiting on a RAC starved of input) also single-steps —
    ///   the OCP never declares a busy worker quiescent, it just stops
    ///   predicting.
    ///
    /// An armed watchdog over an active controller bounds the window
    /// by the tick it would bite on, so the bite always lands on a real
    /// tick — identical cycle in single-step and fast-forward modes.
    /// That is its remaining budget, unless the window holds progress:
    /// each progress tick reached before the bite reloads the
    /// countdown, so the bound is the last such tick plus the budget.
    /// The progress ticks are read off the plan the leap replays: the
    /// walk's ticks that retire an instruction (a transfer's pickup, an
    /// `end_op` retire, a `wait`'s), then each burst of the window's
    /// run (see [`BusWindow::run_of`]), whose `mvfc` issue moves its
    /// words and whose pickup, the tick after its completion, retires
    /// it, read off each segment of equal bursts in O(1). The walk is
    /// the one the controller's horizon followed, and is followed here
    /// only when that answer did not need it, so one call walks the
    /// FSM at most once. A *wedged* controller is the one
    /// active state exempt from the single-step safety net: it
    /// provably cannot transition by itself, so the watchdog budget
    /// (or, unarmed, quiescence) is the honest horizon and a hang
    /// window can be leapt in one go.
    #[must_use]
    pub fn horizon_on(&self, bus: &dyn SystemBus, window: &BusWindow) -> Horizon {
        if self.completed || self.regs.start_pending() {
            return Horizon::NEXT_TICK;
        }
        let walk = OnceCell::new();
        let mut h = self.controller.horizon(&self.socket, bus, window, &walk);
        if let Some(wd) = &self.watchdog {
            if self.controller.is_active() {
                let walk =
                    walk.get_or_init(|| self.controller.walk(&self.socket, bus, window.chains()));
                let retires = walk.iter().flat_map(|w| w.retires());
                let due = reload(wd.remaining.max(1), wd.budget, retires);
                let bite = window
                    .run_of(self.bus_master())
                    .fold(due, |due, s| reload_over(due, wd.budget, &s));
                h = h.min(Horizon::after(bite - 1));
            }
        }
        if h == Horizon::QUIESCENT && self.controller.is_active() && !self.controller.is_wedged() {
            return Horizon::NEXT_TICK;
        }
        h
    }

    /// Replays this coprocessor's part of `step`, one step of
    /// [`BusWindow::leap`]: `cycles` ticks, the first starting on cycle
    /// `from`, inside a window bounded by [`Ocp::horizon_on`], leaving
    /// the coprocessor as `cycles` real ticks would have. A step that
    /// does not advance it (see [`Advancing::includes`]) does nothing.
    ///
    /// A run step ([`Advancing::Run`]) replays whole later bursts of
    /// the run in one go: per burst only its data move (see
    /// `Controller::replay_run`), then the watchdog and the debug
    /// register window once. The watchdog's countdown runs from the
    /// run's last progress tick (a write's issue, or the pickup in
    /// front of a read's); the window ends before it bites.
    ///
    /// Any other step walks and holds. Each tick that moves the
    /// controller's FSM (its walk: a pickup, `Fetch`, `Decode`, a run's
    /// issue, an `exec`'s start, an `end_op` retire, a `wait`'s
    /// `Execute` and retire) runs as [`Ocp::tick`] runs it: the socket
    /// ticks, then the controller steps, then the watchdog applies its
    /// per-tick rule. Between them the FSM holds (see
    /// `Controller::holds`), so the socket leaps those ticks and only
    /// the watchdog counts them down. The debug register window is
    /// refreshed once. Completion needs no replay — `eop` is never
    /// inside a window. A pickup retires the port's completion on `bus`
    /// and an issue begins a burst there: [`BusWindow::leap`] advances
    /// the issuer of a burst with the bus on the issue's cycle, and
    /// advances the bus over the burst afterwards. A walked `wait`
    /// takes its cycle from `from`, not from the bus.
    pub fn advance(
        &mut self,
        step: Advancing,
        from: Instant,
        cycles: Cycle,
        bus: &mut dyn SystemBus,
    ) {
        if !step.includes(self.bus_master()) {
            return;
        }
        if let Advancing::Run {
            origin, segment, ..
        } = step
        {
            self.controller
                .replay_run(bus, &mut self.socket, origin, segment);
            if let Some(wd) = &mut self.watchdog {
                // Ticks since the run's last progress tick: the last
                // burst's issue for a write, else the pickup in front of
                // it.
                let b = segment.last();
                let since = match b.shape.kind {
                    TxnKind::Write => b.event - b.issue,
                    TxnKind::Read => b.event + PICKUP_TICKS - b.issue,
                };
                debug_assert!(since < wd.budget, "advanced past the watchdog bite");
                let stats = self.controller.stats();
                wd.progress = (stats.instructions_retired, stats.words_transferred);
                wd.remaining = wd.budget - since;
            }
            self.controller.publish_debug(&self.regs);
            return;
        }
        let mut now = from;
        let end = from + cycles;
        while now < end {
            let hold = self
                .controller
                .holds(&self.socket, bus, now)
                .min((end - now).count());
            if hold == 0 {
                let before = self.controller.state().id();
                self.socket.tick();
                self.controller
                    .step_fsm(bus, &self.regs, &mut self.socket, &self.irq, now);
                debug_assert!(
                    !matches!(
                        self.controller.state(),
                        ControllerState::Idle | ControllerState::Faulted(_)
                    ),
                    "a leap stepped an event: {:?}",
                    self.controller.state()
                );
                // Every tick of a walk moves the FSM on; a tick that
                // stays put is a held one, so the walk's event was told
                // late.
                debug_assert_ne!(
                    self.controller.state().id(),
                    before,
                    "a leap stepped a tick that moved nothing: {:?}",
                    self.controller.state()
                );
                self.watch();
                now += Cycle::new(1);
                continue;
            }
            self.socket.advance(Cycle::new(hold));
            // The held ticks make no progress. The horizon keeps the
            // bite itself on a stepped tick.
            if let Some(wd) = &mut self.watchdog {
                if self.controller.is_active() {
                    debug_assert!(hold < wd.remaining, "advanced past the watchdog bite");
                    wd.remaining -= hold;
                }
            }
            now += Cycle::new(hold);
        }
        self.controller.publish_debug(&self.regs);
    }
}

/// The tick a watchdog whose countdown ends on tick `due` bites on
/// once each of the ascending progress `ticks` it reaches reloads its
/// `budget`.
fn reload(due: u64, budget: u64, ticks: impl IntoIterator<Item = u64>) -> u64 {
    ticks.into_iter().fold(
        due,
        |due, tick| if tick <= due { tick + budget } else { due },
    )
}

/// [`reload`] over the progress ticks of `segment`, equal bursts of a
/// window's run: each write's issue, which moves its words, and each
/// pickup, the tick after a completion, which retires a transfer. The
/// ticks repeat every period, so once the countdown reaches the second
/// burst's pickup it reaches every pickup after it, and the bite is
/// the last one's plus the budget: O(1) for the whole segment.
fn reload_over(due: u64, budget: u64, segment: &RunSegment) -> u64 {
    let ticks = |b: RunBurst| {
        let write = (b.shape.kind == TxnKind::Write).then_some(b.issue);
        write.into_iter().chain(b.completes.then_some(b.event + 1))
    };
    let mut due = reload(due, budget, ticks(segment.first));
    if segment.count > 1 {
        let second = segment.burst(1);
        due = reload(due, budget, ticks(second));
        if segment.count > 2 && due == second.event + 1 + budget {
            due = segment.last().event + 1 + budget;
        }
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouessant_isa::{assemble, Program, ProgramBuilder};
    use ouessant_rac::idct::{idct_2d_fixed, IdctRac, IDCT_LATENCY};
    use ouessant_rac::passthrough::PassthroughRac;
    use ouessant_rac::rac::{Outlook, RacIo};
    use ouessant_sim::axi::AxiBus;
    use ouessant_sim::bus::BusError;
    use ouessant_sim::bus::{Bus, BusConfig};
    use ouessant_sim::fifo::SyncFifo;
    use ouessant_sim::memory::{Sram, SramConfig};
    use ouessant_sim::XorShift64;

    const RAM_BASE: Addr = 0x4000_0000;
    const OCP_BASE: Addr = 0x8000_0000;

    struct Fixture<B = Bus> {
        bus: B,
        ocp: Ocp,
    }

    fn fixture(rac: Box<dyn Rac>) -> Fixture {
        fixture_on(Bus::new(BusConfig::default()), rac)
    }

    fn fixture_on<B: SystemBus>(bus: B, rac: Box<dyn Rac>) -> Fixture<B> {
        fixture_with(bus, rac, OcpConfig::default())
    }

    fn fixture_with<B: SystemBus>(mut bus: B, rac: Box<dyn Rac>, config: OcpConfig) -> Fixture<B> {
        let _cpu = bus.register_master();
        bus.add_slave_boxed(
            RAM_BASE,
            Box::new(Sram::with_words(16384, SramConfig::no_wait())),
        );
        let ocp = Ocp::attach(&mut bus, OCP_BASE, rac, config);
        Fixture { bus, ocp }
    }

    impl<B: SystemBus> Fixture<B> {
        fn load_program(&mut self, program: &Program) {
            self.load_words(&program.to_words());
        }

        fn load_words(&mut self, words: &[u32]) {
            for (i, w) in words.iter().enumerate() {
                self.bus.debug_write(RAM_BASE + (i as u32) * 4, *w).unwrap();
            }
            self.ocp.regs().set_bank(0, RAM_BASE).unwrap();
            self.ocp.regs().set_prog_size(words.len() as u32).unwrap();
        }

        fn step(&mut self) {
            self.ocp.tick(&mut self.bus);
            SystemBus::tick(&mut self.bus);
        }

        /// The debug register window (state, pc, retired, words) as the
        /// host reads it, plus the FSM state, statistics, watchdog and
        /// the FIFO view of the RAC (input space, output occupancy).
        fn observed(
            &self,
        ) -> (
            [u32; 4],
            ControllerState,
            ControllerStats,
            Option<u64>,
            (usize, usize),
        ) {
            use crate::regs::{REG_DBG_PC, REG_DBG_RETIRED, REG_DBG_STATE, REG_DBG_WORDS};
            let dbg = [REG_DBG_STATE, REG_DBG_PC, REG_DBG_RETIRED, REG_DBG_WORDS]
                .map(|r| self.ocp.regs().with(|f| f.bus_read(r).unwrap()));
            let socket = self.ocp.socket();
            (
                dbg,
                self.ocp.controller().state().clone(),
                self.ocp.stats(),
                self.ocp.watchdog.map(|w| w.remaining),
                (socket.input_space(0), socket.output_available(0)),
            )
        }

        /// Every word of the RAM, read through the bus's debug port.
        fn memory(&mut self) -> Vec<u32> {
            (0..16384)
                .map(|i| self.bus.debug_read(RAM_BASE + i * 4).unwrap())
                .collect()
        }

        fn run(&mut self, max_cycles: u64) -> u64 {
            self.ocp.regs().start();
            let mut cycles = 0;
            while !self.ocp.regs().done() {
                self.step();
                cycles += 1;
                if let Some(f) = self.ocp.fault() {
                    panic!("OCP faulted after {cycles} cycles: {f}");
                }
                assert!(cycles <= max_cycles, "OCP did not finish");
            }
            cycles
        }
    }

    #[test]
    fn dma_round_trip_through_passthrough() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let program =
            assemble("mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK2,0,DMA16,FIFO0\neop").unwrap();
        fx.load_program(&program);
        fx.ocp.regs().set_bank(1, RAM_BASE + 0x1000).unwrap();
        fx.ocp.regs().set_bank(2, RAM_BASE + 0x2000).unwrap();
        for i in 0..16u32 {
            fx.bus
                .debug_write(RAM_BASE + 0x1000 + i * 4, 0xA000_0000 + i)
                .unwrap();
        }
        fx.run(10_000);
        for i in 0..16u32 {
            assert_eq!(
                fx.bus.debug_read(RAM_BASE + 0x2000 + i * 4).unwrap(),
                0xA000_0000 + i
            );
        }
        let stats = fx.ocp.stats();
        assert_eq!(stats.words_transferred, 32);
        assert_eq!(stats.runs_completed, 1);
    }

    #[test]
    fn idct_offload_matches_data_path() {
        let mut fx = fixture(Box::new(IdctRac::new()));
        let program = ProgramBuilder::new()
            .mvtc(1, 0, 64, 0)
            .unwrap()
            .execs()
            .mvfc(2, 0, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        fx.load_program(&program);
        fx.ocp.regs().set_bank(1, RAM_BASE + 0x1000).unwrap();
        fx.ocp.regs().set_bank(2, RAM_BASE + 0x2000).unwrap();
        let coeffs: Vec<i32> = (0..64).map(|i| (i * 91 % 1001) - 500).collect();
        for (i, &c) in coeffs.iter().enumerate() {
            fx.bus
                .debug_write(RAM_BASE + 0x1000 + (i as u32) * 4, c as u32)
                .unwrap();
        }
        fx.run(100_000);
        let expected = idct_2d_fixed(&coeffs);
        for (i, &e) in expected.iter().enumerate() {
            let got = fx
                .bus
                .debug_read(RAM_BASE + 0x2000 + (i as u32) * 4)
                .unwrap() as i32;
            assert_eq!(got, e, "output word {i}");
        }
    }

    #[test]
    fn irq_raised_only_when_enabled() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let program = assemble("eop").unwrap();
        fx.load_program(&program);

        // Polling mode: IE clear → no interrupt.
        fx.run(10_000);
        assert!(!fx.ocp.irq().is_raised());

        // Interrupt mode.
        fx.ocp.regs().set_irq_enabled(true);
        fx.run(10_000);
        assert!(fx.ocp.irq().is_raised());
        fx.ocp.irq().clear();
        assert!(!fx.ocp.irq().is_raised());
    }

    #[test]
    fn halt_does_not_set_done() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let program = assemble("halt").unwrap();
        fx.load_program(&program);
        fx.ocp.regs().start();
        for _ in 0..1000 {
            fx.step();
        }
        assert!(!fx.ocp.regs().done());
        assert!(!fx.ocp.is_active());
        assert!(fx.ocp.fault().is_none());
    }

    #[test]
    fn looped_program_equals_unrolled() {
        // The extension ISA loop moves the same data as Figure 4's
        // unrolled form.
        let unrolled = ProgramBuilder::new()
            .transfer_to_coprocessor(1, 0, 256, 64, 0)
            .unwrap()
            .execs_op(256)
            .transfer_from_coprocessor(2, 0, 256, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let looped = assemble(
            "
            ldc R0,4
            ldo O0,0
            in_loop:
                mvtcr BANK1,O0,DMA64,FIFO0
                djnz R0,in_loop
            execs 256
            ldc R1,4
            ldo O1,0
            out_loop:
                mvfcr BANK2,O1,DMA64,FIFO0
                djnz R1,out_loop
            eop
            ",
        )
        .unwrap();

        let mut results = Vec::new();
        for program in [&unrolled, &looped] {
            let mut fx = fixture(Box::new(PassthroughRac::new(0)));
            fx.load_program(program);
            fx.ocp.regs().set_bank(1, RAM_BASE + 0x1000).unwrap();
            fx.ocp.regs().set_bank(2, RAM_BASE + 0x4000).unwrap();
            for i in 0..256u32 {
                fx.bus
                    .debug_write(RAM_BASE + 0x1000 + i * 4, i * 7)
                    .unwrap();
            }
            fx.run(100_000);
            let out: Vec<u32> = (0..256u32)
                .map(|i| fx.bus.debug_read(RAM_BASE + 0x4000 + i * 4).unwrap())
                .collect();
            results.push(out);
        }
        assert_eq!(results[0], results[1]);
    }

    /// The offset registers wrap at 2^14 under a transfer's
    /// post-increment and under `addo` alike: a burst from word 16 380
    /// leaves its register at 4, so the next burst reads bank word 4
    /// and leaves 12, and `addo -16` wraps that back to 16 380. The
    /// bank sits in an SRAM of its own that holds all three bursts.
    #[test]
    fn offset_registers_wrap_at_the_offset_range() {
        const BANK: Addr = 0x5000_0000;
        const WORDS: u32 = (1 << 14) + 8;
        let build = || {
            let mut fx = fixture(Box::new(PassthroughRac::new(0)));
            let sram = Sram::with_words(WORDS as usize, SramConfig::no_wait());
            fx.bus.add_slave(BANK, sram);
            for i in 0..WORDS {
                fx.bus.debug_write(BANK + i * 4, 0xB000_0000 + i).unwrap();
            }
            let program = assemble(
                "
                ldo O0,16380
                mvtcr BANK1,O0,DMA8,FIFO0
                mvtcr BANK1,O0,DMA8,FIFO0
                addo O0,-16
                mvtcr BANK1,O0,DMA8,FIFO0
                execs 24
                mvfc BANK2,0,DMA24,FIFO0
                eop
                ",
            )
            .unwrap();
            fx.load_program(&program);
            fx.ocp.regs().set_bank(1, BANK).unwrap();
            fx.ocp.regs().set_bank(2, RAM_BASE + 0x1000).unwrap();
            fx
        };
        let mut fx = build();
        fx.run(10_000);
        let out: Vec<u32> = (0..24)
            .map(|i| fx.bus.debug_read(RAM_BASE + 0x1000 + i * 4).unwrap())
            .collect();
        let burst = |from: u32| (from..from + 8).map(|i| 0xB000_0000 + i);
        let expected: Vec<u32> = burst(16_380).chain(burst(4)).chain(burst(16_380)).collect();
        assert_eq!(out, expected);
        // The same wraps inside fast-forward windows.
        let (_, fault, _) = leap_against_steps(build, 10_000);
        assert_eq!(fault, None);
    }

    #[test]
    fn unconfigured_bank_faults() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let program = assemble("mvtc BANK3,0,DMA8,FIFO0\neop").unwrap();
        fx.load_program(&program);
        fx.ocp.regs().start();
        let mut faulted = false;
        for _ in 0..10_000 {
            fx.step();
            if fx.ocp.fault().is_some() {
                faulted = true;
                break;
            }
        }
        assert!(faulted, "transfer to unconfigured bank must fault");
        assert!(!fx.ocp.regs().done());
    }

    #[test]
    fn bad_prog_size_faults() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        fx.ocp.regs().set_bank(0, RAM_BASE).unwrap();
        // Bypass the validated setter, as a buggy driver would.
        fx.ocp.regs().with_mut(|r| {
            r.bus_write(crate::regs::REG_PROG_SIZE, 0);
        });
        fx.ocp.regs().start();
        for _ in 0..10 {
            fx.step();
        }
        assert!(matches!(
            fx.ocp.fault(),
            Some(ExecError::BadProgSize { size: 0 })
        ));
    }

    #[test]
    fn wait_instruction_adds_exact_cycles() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let base_prog = assemble("eop").unwrap();
        fx.load_program(&base_prog);
        let base_cycles = fx.run(10_000);

        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let wait_prog = assemble("wait 100\neop").unwrap();
        fx.load_program(&wait_prog);
        let wait_cycles = fx.run(10_000);
        // `wait 100` adds its own `Fetch`, `Decode` and `Execute`, the
        // 100 ticks to the one that retires it, and the load burst's
        // extra beat for its program word.
        assert_eq!(wait_cycles - base_cycles, 3 + 100 + 1);
    }

    /// `wait n` leapt against `wait n` stepped, from its `Execute`
    /// tick, with leap limits that end inside the wait and past it: the
    /// twins observe the same after every leap and tick, a leap walks
    /// out of the wait through its retire on tick `n + 1` (`wait 0`
    /// retires in its `Execute`), and both dispatch the `eop` three
    /// ticks later.
    #[test]
    fn wait_leaps_retire_on_the_stepped_cycle() {
        use ControllerState::{Decode, Execute, Fetch, WaitCycles};
        let limits = [1, 2, 5, 31, 1_000, 0, 7];
        for n in [0u16, 1, 2, 3, 100, 16_383] {
            let (slow, fast) = start_wait(n);
            let mut limit = limits.iter().copied().cycle();
            let (cycle, fault, leaps) =
                leap_pair_with(slow, fast, u64::from(n) + 10, || limit.next().unwrap_or(0));
            assert_eq!(fault, None, "wait {n}");
            let out_of_wait = leaps.iter().any(|(from, pc, to)| {
                matches!((from, pc), (Execute, 0) | (WaitCycles { .. }, _))
                    && matches!(to, Fetch | Decode | Execute)
            });
            assert!(out_of_wait, "wait {n}: {leaps:?}");
            let retire = if n == 0 { 1 } else { u64::from(n) + 1 };
            assert_eq!(cycle, retire + 3, "wait {n}");
        }
    }

    /// A wedge injected mid-`wait` freezes it for good: with the
    /// watchdog armed at the wedge, both twins bite on the same tick,
    /// `budget` ticks later, even when the `wait` would have retired
    /// first.
    #[test]
    fn a_wedged_wait_never_retires_and_bites_on_the_stepped_cycle() {
        for (into, budget) in [(1, 30), (40, 30), (40, 200), (99, 2)] {
            let (mut slow, mut fast) = start_wait(100);
            for _ in 0..into {
                slow.step();
                fast.step();
            }
            assert!(matches!(
                fast.ocp.controller().state(),
                ControllerState::WaitCycles { .. }
            ));
            for fx in [&mut slow, &mut fast] {
                fx.ocp.inject_wedge();
                fx.ocp.arm_watchdog(budget);
            }
            let (cycle, fault, _) = leap_pair(slow, fast, 1_000);
            assert_eq!(
                (cycle, fault),
                (budget, Some(ExecError::Hang { budget })),
                "wedged {into} ticks into the wait, budget {budget}"
            );
        }
    }

    /// Twin fixtures running `wait n` then `eop`, single-stepped to the
    /// `wait`'s `Execute` tick.
    fn start_wait(n: u16) -> (Fixture, Fixture) {
        let source = format!("wait {n}\neop");
        start_pair(
            || {
                let mut fx = fixture(Box::new(PassthroughRac::new(0)));
                fx.load_program(&assemble(&source).unwrap());
                fx
            },
            |fx| *fx.ocp.controller().state() == ControllerState::Execute,
        )
    }

    #[test]
    fn back_to_back_runs() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let program =
            assemble("mvtc BANK1,0,DMA4,FIFO0\nexecs 4\nmvfc BANK2,0,DMA4,FIFO0\neop").unwrap();
        fx.load_program(&program);
        fx.ocp.regs().set_bank(1, RAM_BASE + 0x1000).unwrap();
        fx.ocp.regs().set_bank(2, RAM_BASE + 0x2000).unwrap();
        for run in 0..3u32 {
            for i in 0..4u32 {
                fx.bus
                    .debug_write(RAM_BASE + 0x1000 + i * 4, run * 100 + i)
                    .unwrap();
            }
            fx.run(10_000);
            for i in 0..4u32 {
                assert_eq!(
                    fx.bus.debug_read(RAM_BASE + 0x2000 + i * 4).unwrap(),
                    run * 100 + i,
                    "run {run} word {i}"
                );
            }
        }
        assert_eq!(fx.ocp.stats().runs_completed, 3);
    }

    #[test]
    fn completion_events_fire_once_per_run() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let program =
            assemble("mvtc BANK1,0,DMA4,FIFO0\nexecs 4\nmvfc BANK2,0,DMA4,FIFO0\neop").unwrap();
        fx.load_program(&program);
        fx.ocp.regs().set_bank(1, RAM_BASE + 0x1000).unwrap();
        fx.ocp.regs().set_bank(2, RAM_BASE + 0x2000).unwrap();
        fx.ocp.regs().set_irq_enabled(true);

        assert!(!fx.ocp.poll_completion(), "no event before a run");
        for _ in 0..3 {
            fx.run(10_000);
            assert!(fx.ocp.poll_completion(), "event after run");
            assert!(
                !fx.ocp.irq().is_raised(),
                "poll_completion acknowledges the IRQ"
            );
            assert!(!fx.ocp.poll_completion(), "event delivered once");
            // Ticking an idle, still-done OCP must not re-fire the edge.
            for _ in 0..50 {
                fx.step();
            }
            assert!(!fx.ocp.poll_completion());
        }
    }

    #[test]
    fn rcfg_waits_for_the_load_through_a_rac_stall() {
        use ouessant_rac::slot::ReconfigurableSlot;

        // Configuration 1 loads in 800 bytes / 4 per cycle = 200 cycles.
        let slot = ReconfigurableSlot::new()
            .with_config(Box::new(PassthroughRac::new(0)), 400)
            .with_config(Box::new(PassthroughRac::scaling(3, 0)), 800);
        let mut fx = fixture(Box::new(slot));
        fx.load_program(&assemble("rcfg 1\neop").unwrap());
        fx.ocp.regs().start();
        while *fx.ocp.controller().state() != ControllerState::ReconfigWait {
            fx.step();
        }
        for _ in 0..3 {
            fx.step();
        }
        // A stall freezes the slot, and with it the bitstream countdown.
        fx.ocp.inject_rac_stall(150);
        let mut ticks = 3;
        while fx.ocp.socket().rac().busy() {
            assert_eq!(
                *fx.ocp.controller().state(),
                ControllerState::ReconfigWait,
                "rcfg retired {ticks} ticks in, with the region still dark"
            );
            fx.step();
            ticks += 1;
        }
        assert_ne!(
            *fx.ocp.controller().state(),
            ControllerState::ReconfigWait,
            "rcfg retires on the tick the load ends"
        );
        assert_eq!(ticks, 200 + 150);
        for _ in 0..3 {
            fx.step();
        }
        assert!(fx.ocp.regs().done(), "eop follows the load");
    }

    /// A leap the fast twin took: FSM state and pc before it, FSM
    /// state after it.
    type Leap = (ControllerState, u16, ControllerState);

    /// Starts two fixtures from `build` and single-steps both until
    /// `until` holds for them (checked before every step).
    fn start_pair<B: SystemBus>(
        build: impl Fn() -> Fixture<B>,
        until: impl Fn(&Fixture<B>) -> bool,
    ) -> (Fixture<B>, Fixture<B>) {
        let (mut slow, mut fast) = (build(), build());
        slow.ocp.regs().start();
        fast.ocp.regs().start();
        while !until(&slow) {
            slow.step();
            fast.step();
            assert_eq!(fast.observed(), slow.observed());
        }
        (slow, fast)
    }

    /// Starts two fixtures from `build` and runs them through
    /// [`leap_pair`].
    fn leap_against_steps<B: SystemBus>(
        build: impl Fn() -> Fixture<B>,
        max: u64,
    ) -> (u64, Option<ExecError>, Vec<Leap>) {
        let (slow, fast) = start_pair(build, |_| true);
        leap_pair(slow, fast, max)
    }

    /// Runs `slow` single-stepped and `fast` through [`Ocp::leap`],
    /// stepping where it leaps none, as `Farm::leap_or_tick` does,
    /// comparing [`Fixture::observed`] after every leap and every tick.
    /// Returns the cycle the run ended on (done or faulted, counted
    /// from the call), the fault, and the leaps taken.
    fn leap_pair<B: SystemBus>(
        slow: Fixture<B>,
        fast: Fixture<B>,
        max: u64,
    ) -> (u64, Option<ExecError>, Vec<Leap>) {
        leap_pair_with(slow, fast, max, || u64::MAX)
    }

    /// [`leap_pair`], with each leap at most `limit()` ticks long.
    fn leap_pair_with<B: SystemBus>(
        mut slow: Fixture<B>,
        mut fast: Fixture<B>,
        max: u64,
        mut limit: impl FnMut() -> u64,
    ) -> (u64, Option<ExecError>, Vec<Leap>) {
        let (mut cycle, mut leaps) = (0, Vec::new());
        while cycle < max {
            let from = fast.ocp.controller().state().clone();
            let pc = fast.ocp.controller().pc();
            let skip = fast
                .ocp
                .leap(&mut fast.bus, limit().min(max - cycle - 1), None);
            if skip > 0 {
                for _ in 0..skip {
                    slow.step();
                }
                cycle += skip;
                leaps.push((from, pc, fast.ocp.controller().state().clone()));
                assert_eq!(fast.observed(), slow.observed(), "leap to cycle {cycle}");
                // A window can end on a bus completion, which the next
                // window picks up: leap again before stepping.
                continue;
            }
            fast.step();
            slow.step();
            cycle += 1;
            assert_eq!(fast.observed(), slow.observed(), "tick {cycle}");
            if slow.ocp.fault().is_some() || slow.ocp.regs().done() {
                break;
            }
        }
        assert!(
            fast.memory() == slow.memory(),
            "memory diverged by cycle {cycle}"
        );
        (cycle, slow.ocp.fault().cloned(), leaps)
    }

    /// Whether any leap left `TransferBusWait` (i.e. crossed a transfer
    /// pickup).
    fn any_transfer_pickup(leaps: &[Leap]) -> bool {
        leaps.iter().any(|(from, _, after)| {
            *from == ControllerState::TransferBusWait && *after != ControllerState::TransferBusWait
        })
    }

    #[test]
    fn fetch_decode_leaps_fault_on_the_stepped_cycle() {
        use ouessant_isa::Instruction;
        let (nop, eop) = (Instruction::Nop.encode(), Instruction::Eop.encode());
        let reserved = 31u32 << 27;
        let loaded = |words: Vec<u32>| {
            move || {
                let mut fx = fixture(Box::new(PassthroughRac::new(0)));
                fx.load_words(&words);
                fx
            }
        };

        // Predecoded at the bank-0 load; faults in its own Decode tick.
        let (_, fault, leaps) = leap_against_steps(loaded(vec![nop, nop, reserved, eop]), 1_000);
        assert!(
            matches!(fault, Some(ExecError::BadInstruction { pc: 2, .. })),
            "{fault:?}"
        );
        assert!(leaps.len() >= 2, "the two nops' fetch/decode pairs leap");

        // No `eop`: the Fetch tick past the end overruns.
        let (_, fault, _) = leap_against_steps(loaded(vec![nop, nop]), 1_000);
        assert_eq!(fault, Some(ExecError::PcOverrun { pc: 2 }));

        // Standalone, so the budget counts from the start tick (cycle
        // 1): budget 2 bites in the first Fetch tick, budget 3 in the
        // Decode tick right after a one-cycle leap, and from budget 4
        // every retired nop pulses the watchdog in time.
        let mut program = vec![nop; 8];
        program.push(eop);
        for (budget, bite_at) in [(1, Some(1)), (2, Some(2)), (3, Some(3)), (4, None)] {
            let (cycle, fault, _) = leap_against_steps(
                || {
                    let mut fx = fixture(Box::new(PassthroughRac::new(0)));
                    fx.ocp.preload_program(&program);
                    fx.ocp.regs().set_prog_size(program.len() as u32).unwrap();
                    fx.ocp.arm_watchdog(budget);
                    fx
                },
                1_000,
            );
            match bite_at {
                Some(at) => assert_eq!((cycle, fault), (at, Some(ExecError::Hang { budget }))),
                None => assert_eq!(fault, None, "budget {budget}"),
            }
        }
    }

    #[test]
    fn stream_and_decode_leaps_keep_the_debug_window_in_step() {
        let check = |rac: fn() -> Box<dyn Rac>, source: &str| {
            let (_, fault, leaps) = leap_against_steps(|| offload(fixture(rac()), source), 100_000);
            assert_eq!(fault, None, "{source}");
            assert!(!leaps.is_empty(), "{source}");
        };
        check(
            || Box::new(PassthroughRac::scaling(3, 0)),
            "mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK2,0,DMA16,FIFO0\neop",
        );
        check(
            || Box::new(IdctRac::new()),
            "ldc R0,3\nagain:\nnop\ndjnz R0,again\nwait 5\n\
             mvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop",
        );
    }

    /// Seeds of [`drawn_slave_maps_leap_as_they_step`].
    const DRAWN_SEEDS: u64 = 300;

    /// Drawn single-OCP systems, leapt against stepped, each to its
    /// `eop` or its first fault (see [`DrawnSystem`]).
    #[test]
    fn drawn_slave_maps_leap_as_they_step() {
        let (mut faults, mut leaps) = (0, 0);
        for seed in 1..=DRAWN_SEEDS {
            let system = DrawnSystem::draw(seed);
            let run = std::panic::catch_unwind(|| system.leap_against_steps());
            let (_, fault, taken) = run.unwrap_or_else(|_| panic!("seed {seed}: {system:#?}"));
            faults += u64::from(fault.is_some());
            leaps += taken.len();
        }
        // The draw reaches both ends of a run, and leaps on the way.
        assert!((DRAWN_SEEDS / 10..DRAWN_SEEDS * 9 / 10).contains(&faults));
        assert!(leaps as u64 > 10 * DRAWN_SEEDS);
    }

    /// Base of the drawn systems' slave that faults past a drawn word.
    const FLAKY_BASE: Addr = 0x9000_0000;

    /// Words in the flaky slave's window.
    const FLAKY_WORDS: u32 = 512;

    /// A slave that faults from word `limit` of its window on, and so
    /// is not [`BusSlave::fault_free`](ouessant_sim::bus::BusSlave::fault_free):
    /// the bus stops every leap at its beats.
    struct Flaky {
        words: Vec<u32>,
        limit: u32,
        wait: u32,
    }

    impl Flaky {
        fn word(&mut self, offset: u32) -> Result<&mut u32, ouessant_sim::bus::SlaveFault> {
            let i = offset / 4;
            match self.words.get_mut(i as usize).filter(|_| i < self.limit) {
                Some(w) => Ok(w),
                None => Err(ouessant_sim::bus::SlaveFault {
                    reason: format!("word {i} not implemented"),
                }),
            }
        }
    }

    impl ouessant_sim::bus::BusSlave for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn size(&self) -> u32 {
            FLAKY_WORDS * 4
        }
        fn read_word(&mut self, offset: u32) -> Result<u32, ouessant_sim::bus::SlaveFault> {
            self.word(offset).map(|w| *w)
        }
        fn write_word(
            &mut self,
            offset: u32,
            value: u32,
        ) -> Result<(), ouessant_sim::bus::SlaveFault> {
            self.word(offset).map(|w| *w = value)
        }
        fn first_access_wait_states(&self) -> u32 {
            self.wait
        }
    }

    /// A single-OCP system drawn from a seed: the bus's sub-burst
    /// length; a slave map of the program's SRAM with drawn
    /// wait states, the [`Flaky`] slave, the OCP's own register window
    /// and unmapped holes (above the SRAM and at `0x6000_0000`); banks
    /// 1–4 on the SRAM and 5–7 on any of these; a RAC, a pass-through
    /// with a drawn delay or the IDCT; and a program of offloads, `wait`s
    /// and `nop`s. An offload is a run of back-to-back reads, a launch
    /// and a run of writes; the launch is `execs` of the read words, the
    /// same after a `wait`, or `execn` then `wrac` with a `wait` between
    /// or none. The IDCT's runs move one 64-word block. A write never
    /// targets the register window, so the OCP never rewrites its own
    /// configuration. One system in four arms the watchdog: half of
    /// them at the start, with a budget of 5 to 199 cycles, half on the
    /// `Fetch` of the first launch, with a budget that ends inside its
    /// compute or at its `end_op` retire.
    #[derive(Debug)]
    struct DrawnSystem {
        bus: BusConfig,
        ram: SramConfig,
        flaky: (u32, u32),
        banks: [Addr; 7],
        /// The pass-through's delay, `None` for the IDCT.
        delay: Option<u64>,
        /// The watchdog's budget, and the pc of the instruction on
        /// whose `Fetch` it is armed (`None`: at the start).
        watchdog: Option<(u64, Option<u16>)>,
        source: String,
    }

    impl DrawnSystem {
        fn draw(seed: u64) -> Self {
            let mut rng = XorShift64::new(seed);
            let bus = BusConfig {
                max_burst_beats: [1, 4, 16][rng.gen_range_u32(0..3) as usize],
            };
            // This coin once picked the arbiter. Drawing it still keeps
            // every seed on the system it drew before, apart from its
            // arbiter.
            rng.gen_bool();
            let ram = SramConfig {
                first_access_wait_states: rng.gen_range_u32(0..4),
                sequential_wait_states: rng.gen_range_u32(0..3),
            };
            let flaky = (
                rng.gen_range_u32(0..FLAKY_WORDS + 1),
                rng.gen_range_u32(0..4),
            );
            // Banks 1-4 on the SRAM, 5-7 on any slave or hole.
            let banks: [Addr; 7] = std::array::from_fn(|b| match (b, rng.gen_range_u32(0..5)) {
                (0..=3, _) => RAM_BASE + 0x1000 * rng.gen_range_u32(1..15),
                (_, 0 | 1) => FLAKY_BASE,
                (_, 2) => OCP_BASE,
                (_, 3) => RAM_BASE + 0x10000 - 4 * rng.gen_range_u32(1..64),
                _ => 0x6000_0000,
            });
            // One transfer in five goes to banks 5-7.
            let bank = |rng: &mut XorShift64, write: bool| loop {
                let b = if rng.gen_range_u32(0..5) == 0 {
                    rng.gen_range_u32(5..8)
                } else {
                    rng.gen_range_u32(1..5)
                };
                if !(write && banks[b as usize - 1] == OCP_BASE) {
                    break b;
                }
            };
            let delay = (rng.gen_range_u32(0..4) > 0).then(|| u64::from(rng.gen_range_u32(0..3)));
            let mut source = String::new();
            // The first launch's pc and the cycles from its `Fetch` to
            // its compute's end.
            let mut first_launch = None;
            for _ in 0..rng.gen_range_u32(1..5) {
                let lens: Vec<u32> = match delay {
                    Some(_) => (0..rng.gen_range_u32(1..4))
                        .map(|_| rng.gen_range_u32(1..33))
                        .collect(),
                    None => {
                        let cut = rng.gen_range_u32(1..64);
                        if rng.gen_bool() {
                            vec![64]
                        } else {
                            vec![cut, 64 - cut]
                        }
                    }
                };
                let words = lens.iter().sum::<u32>();
                for (write, op) in [(false, "mvtc"), (true, "mvfc")] {
                    for &n in &lens {
                        let (b, off) = (bank(&mut rng, write), rng.gen_range_u32(0..40));
                        source += &format!("{op} BANK{b},{off},DMA{n},FIFO0\n");
                    }
                    if !write {
                        let wait = rng.gen_range_u32(0..30);
                        let form = rng.gen_range_u32(0..4);
                        let pc = source.lines().count() + usize::from(form == 0);
                        let compute = match delay {
                            Some(d) => u64::from(words) + d,
                            None => IDCT_LATENCY + 1,
                        };
                        first_launch.get_or_insert((pc as u16, 3 + compute));
                        source += &match form {
                            0 => format!("wait {wait}\nexecs {words}\n"),
                            1 => format!("execn {words}\nwait {wait}\nwrac\n"),
                            2 => format!("execn {words}\nwrac\n"),
                            _ => format!("execs {words}\n"),
                        };
                    }
                }
                match rng.gen_range_u32(0..4) {
                    0 => source += &format!("wait {}\n", rng.gen_range_u32(0..30)),
                    1 => source += "nop\n",
                    _ => {}
                }
            }
            source += "eop";
            let watchdog = match rng.gen_range_u32(0..8) {
                0 => Some((u64::from(rng.gen_range_u32(5..200)), None)),
                1 => first_launch
                    .map(|(pc, gap)| (gap - 3 + u64::from(rng.gen_range_u32(0..7)), Some(pc))),
                _ => None,
            };
            Self {
                bus,
                ram,
                flaky,
                banks,
                delay,
                watchdog,
                source,
            }
        }

        fn fixture(&self) -> Fixture {
            let mut bus = Bus::new(self.bus);
            let _cpu = bus.register_master();
            bus.add_slave(RAM_BASE, Sram::with_words(16384, self.ram));
            bus.add_slave(
                FLAKY_BASE,
                Flaky {
                    words: (0..FLAKY_WORDS).collect(),
                    limit: self.flaky.0,
                    wait: self.flaky.1,
                },
            );
            let rac: Box<dyn Rac> = match self.delay {
                Some(delay) => Box::new(PassthroughRac::scaling(3, delay)),
                None => Box::new(IdctRac::new()),
            };
            let mut fx = Fixture {
                ocp: Ocp::attach(&mut bus, OCP_BASE, rac, OcpConfig::default()),
                bus,
            };
            for i in 0..16384u32 {
                fx.bus.debug_write(RAM_BASE + i * 4, i ^ 0x5A5A).unwrap();
            }
            fx.load_program(&assemble(&self.source).unwrap());
            for (b, &base) in (1..).zip(&self.banks) {
                fx.ocp.regs().set_bank(b, base).unwrap();
            }
            if let Some((budget, None)) = self.watchdog {
                fx.ocp.arm_watchdog(budget);
            }
            fx
        }

        /// [`leap_against_steps`] on the system, the watchdog armed on
        /// the `Fetch` of its first launch if the draw says so.
        fn leap_against_steps(&self) -> (u64, Option<ExecError>, Vec<Leap>) {
            let Some((budget, Some(pc))) = self.watchdog else {
                return leap_against_steps(|| self.fixture(), 1_000_000);
            };
            let (mut slow, mut fast) = start_pair(
                || self.fixture(),
                |fx| {
                    let controller = fx.ocp.controller();
                    fx.ocp.fault().is_some()
                        || (controller.pc() == pc && *controller.state() == ControllerState::Fetch)
                },
            );
            slow.ocp.arm_watchdog(budget);
            fast.ocp.arm_watchdog(budget);
            leap_pair(slow, fast, 1_000_000)
        }
    }

    /// `fx` loaded with the program `source`, bank 1 on the input data
    /// and bank 2 on the output area.
    fn offload<B: SystemBus>(mut fx: Fixture<B>, source: &str) -> Fixture<B> {
        fx.load_program(&assemble(source).unwrap());
        fx.ocp.regs().set_bank(1, RAM_BASE + 0x1000).unwrap();
        fx.ocp.regs().set_bank(2, RAM_BASE + 0x2000).unwrap();
        fx
    }

    /// A RAC that sleeps while starved: busy from `start` until it has
    /// popped `op` input words, one per tick, and quiescent while its
    /// input FIFO is empty. That horizon is honest under the [`Rac`]
    /// contract, since only the accelerator touches its FIFOs inside a
    /// window — so a read must not land words in it mid-window.
    #[derive(Debug, Default)]
    struct SleepsWhileStarved {
        left: u16,
    }

    impl Rac for SleepsWhileStarved {
        fn name(&self) -> &str {
            "sleeps-while-starved"
        }

        fn reset(&mut self) {
            self.left = 0;
        }

        fn start(&mut self, op: u16) {
            self.left = op;
        }

        fn busy(&self) -> bool {
            self.left > 0
        }

        fn tick(&mut self, io: &mut RacIo<'_>) {
            if self.left > 0 && io.inputs[0].pop().is_ok() {
                self.left -= 1;
            }
        }

        fn outlook(&self, inputs: &[SyncFifo<u32>], _outputs: &[SyncFifo<u32>]) -> Outlook {
            if self.left > 0 && !inputs[0].is_empty() {
                Horizon::NEXT_TICK.into()
            } else {
                Horizon::QUIESCENT.into()
            }
        }
    }

    #[test]
    fn transfer_pickups_leap_through_fetch_and_decode() {
        use ControllerState::{Execute, LoadProgram, TransferBusWait};
        // The program load and the mvfc out of a finished RAC (pc 2)
        // each leap to the dispatch of the next instruction, and the
        // mvtc into an idle one (pc 0) on through the `execs` start, the
        // compute and its `end_op` retire to the mvfc's, on both buses.
        // On the AHB-like bus, which answers the issue what-if, the
        // load's window runs on through the mvtc's issue into its
        // burst, and the mvtc's pickup through the mvfc's issue into its
        // burst; the AXI-like bus declines it, so those issues stay
        // stepped events.
        let source = "mvtc BANK1,0,DMA16,FIFO0\nexecs 16\nmvfc BANK2,0,DMA16,FIFO0\neop";
        let passthrough = || Box::new(PassthroughRac::new(0));
        let (_, ahb_fault, ahb) =
            leap_against_steps(|| offload(fixture(passthrough()), source), 10_000);
        let (_, axi_fault, axi) = leap_against_steps(
            || {
                let bus = AxiBus::new();
                offload(fixture_on(bus, passthrough()), source)
            },
            10_000,
        );
        let pickups = [(TransferBusWait, 2, Execute)];
        let ahb_expected = [
            (LoadProgram, 0, TransferBusWait),
            (TransferBusWait, 0, TransferBusWait),
        ];
        let axi_expected = [(LoadProgram, 0, Execute), (TransferBusWait, 0, Execute)];
        for (fault, leaps, expected) in [
            (ahb_fault, ahb, &ahb_expected[..]),
            (axi_fault, axi, &axi_expected[..]),
        ] {
            assert_eq!(fault, None);
            for leap in pickups.iter().chain(expected) {
                assert!(leaps.contains(leap), "{leap:?} in {leaps:?}");
            }
        }
    }

    #[test]
    fn a_burst_in_flight_is_seen_the_tick_after_its_completion() {
        use ouessant_sim::bus::PortState;
        use ControllerState::TransferBusWait;
        let in_flight = |fx: &Fixture| {
            *fx.ocp.controller().state() == TransferBusWait
                && fx.bus.poll(fx.ocp.bus_master()) == PortState::Pending
        };
        let (mut slow, mut fx) = start_pair(
            || {
                offload(
                    fixture(Box::new(PassthroughRac::new(0))),
                    "mvtc BANK1,0,DMA16,FIFO0\neop",
                )
            },
            in_flight,
        );
        let event = fx.bus.horizon().ticks().expect("a burst is in flight");
        // The leap ends on the bus's completion; the pickup is the tick
        // after it.
        assert_eq!(fx.ocp.leap(&mut fx.bus, u64::MAX, None), event);
        for _ in 0..event {
            slow.step();
        }
        assert_eq!(fx.observed(), slow.observed());
        assert_eq!(fx.bus.poll(fx.ocp.bus_master()), PortState::Complete);
        assert_eq!(*fx.ocp.controller().state(), TransferBusWait);
        fx.step();
        assert_ne!(*fx.ocp.controller().state(), TransferBusWait);
    }

    #[test]
    fn a_read_into_a_busy_socket_single_steps_its_pickup() {
        let racs: [fn() -> Box<dyn Rac>; 2] = [
            || Box::new(SleepsWhileStarved::default()),
            || Box::new(PassthroughRac::new(0)),
        ];
        for rac in racs {
            let (_, fault, leaps) = leap_against_steps(
                || {
                    offload(
                        fixture(rac()),
                        "execn 4\nmvtc BANK1,0,DMA4,FIFO0\nwrac\neop",
                    )
                },
                10_000,
            );
            assert_eq!(fault, None);
            assert!(!any_transfer_pickup(&leaps), "{leaps:?}");
        }
    }

    #[test]
    fn pickup_faults_land_on_their_own_cycle() {
        use ControllerState::{Fetch, LoadProgram, TransferBusWait};
        let loaded = |words: Vec<u32>| {
            move || {
                let mut fx = offload(fixture(Box::new(PassthroughRac::new(0))), "eop");
                fx.load_words(&words);
                fx
            }
        };

        // Word 0 of the loaded program does not decode: the pickup
        // leaps alone and the Decode tick faults.
        let eop = ouessant_isa::Instruction::Eop.encode();
        let (_, fault, leaps) = leap_against_steps(loaded(vec![31 << 27, eop]), 1_000);
        assert!(
            matches!(fault, Some(ExecError::BadInstruction { pc: 0, .. })),
            "{fault:?}"
        );
        assert!(leaps.contains(&(LoadProgram, 0, Fetch)), "{leaps:?}");

        // No `eop` after the transfer: the pickup leaps alone and the
        // Fetch tick overruns.
        let mut words = assemble("mvtc BANK1,0,DMA4,FIFO0\neop").unwrap().to_words();
        words.pop();
        let (_, fault, leaps) = leap_against_steps(loaded(words), 1_000);
        assert_eq!(fault, Some(ExecError::PcOverrun { pc: 1 }));
        assert!(leaps.contains(&(TransferBusWait, 0, Fetch)), "{leaps:?}");

        // A burst over the register window, a slave that is not
        // `fault_free`, faults at its third beat: the failed pickup
        // single-steps into `Faulted`.
        let (_, fault, leaps) = leap_against_steps(
            || {
                let fx = offload(
                    fixture(Box::new(PassthroughRac::new(0))),
                    "mvtc BANK1,0,DMA8,FIFO0\neop",
                );
                fx.ocp.regs().set_bank(1, OCP_BASE + 0x20).unwrap();
                fx
            },
            1_000,
        );
        assert!(matches!(fault, Some(ExecError::Bus(_))), "{fault:?}");
        assert!(!any_transfer_pickup(&leaps), "{leaps:?}");
    }

    #[test]
    fn a_run_over_a_slave_that_may_fault_steps_each_pickup() {
        // The register window reads at 0x20 and 0x24 and faults at
        // 0x28. The bus's event for a burst over it is the burst's first
        // beat, not its completion, so no burst joins a run after one
        // of these: each pickup lands on its own cycle, whether the
        // burst after it reads or faults.
        for (second, faults) in [("DMA2", false), ("DMA4", true)] {
            let source = format!("mvtc BANK1,0,DMA2,FIFO0\nmvtc BANK1,0,{second},FIFO0\neop");
            let (_, fault, _) = leap_against_steps(
                || {
                    let fx = offload(fixture(Box::new(PassthroughRac::new(0))), &source);
                    fx.ocp.regs().set_bank(1, OCP_BASE + 0x20).unwrap();
                    fx
                },
                1_000,
            );
            assert_eq!(fault.is_some(), faults, "{second}: {fault:?}");
        }
    }

    #[test]
    fn a_transfer_pickup_pulses_the_watchdog_inside_its_leap() {
        use ouessant_sim::bus::PortState;
        use ControllerState::{Execute, TransferBusWait};
        let build = || {
            offload(
                fixture(Box::new(PassthroughRac::new(0))),
                "mvtc BANK1,0,DMA4,FIFO0\nnop\nnop\neop",
            )
        };
        let in_burst = |fx: &Fixture| *fx.ocp.controller().state() == TransferBusWait;
        let completed =
            |fx: &Fixture| in_burst(fx) && fx.bus.poll(fx.ocp.bus_master()) == PortState::Complete;
        let completing = |fx: &Fixture| in_burst(fx) && fx.bus.horizon() == Horizon::NEXT_TICK;
        let armed = |until: &dyn Fn(&Fixture) -> bool, budget: u64| {
            let (mut slow, mut fast) = start_pair(build, until);
            slow.ocp.arm_watchdog(budget);
            fast.ocp.arm_watchdog(budget);
            leap_pair(slow, fast, 1_000)
        };
        for budget in 1..=5 {
            // Armed on the completed burst: the pickup (cycle 1) pulses,
            // so budgets 1 and 2 bite in the Fetch and Decode ticks
            // right after it, and from budget 3 the nop retiring in
            // cycle 4 pulses in time.
            let (cycle, fault, leaps) = armed(&completed, budget);
            if budget <= 2 {
                assert_eq!(
                    (cycle, fault),
                    (budget + 1, Some(ExecError::Hang { budget }))
                );
            } else {
                assert_eq!(fault, None, "budget {budget}");
                assert!(leaps.contains(&(TransferBusWait, 0, Execute)), "{leaps:?}");
            }
            // Armed a cycle earlier, the countdown is one short at the
            // pickup (cycle 2), which reloads it: budget 1 bites before,
            // budget 2 in the Decode tick (cycle 4).
            let (cycle, fault, _) = armed(&completing, budget);
            match budget {
                1 => assert_eq!((cycle, fault), (1, Some(ExecError::Hang { budget }))),
                2 => assert_eq!((cycle, fault), (4, Some(ExecError::Hang { budget }))),
                _ => assert_eq!(fault, None, "budget {budget}"),
            }
        }
    }

    #[test]
    fn issues_leap_inside_windows_through_loops_and_post_increments() {
        use ControllerState::{Fetch, TransferBusWait};
        // `ldo` and each `djnz` step, and the window after each runs on
        // through `Fetch`, `Decode` and the `mvtcr`/`mvfcr` issue (pc 2
        // and 7) into its burst, post-incrementing the offset register:
        // four windows per loop.
        let source = "ldc R0,4\nldo O0,0\nin_loop:\nmvtcr BANK1,O0,DMA16,FIFO0\n\
                      djnz R0,in_loop\nexecs 64\nldc R1,4\nldo O1,0\nout_loop:\n\
                      mvfcr BANK2,O1,DMA16,FIFO0\ndjnz R1,out_loop\neop";
        let build = || {
            let mut fx = offload(fixture(Box::new(PassthroughRac::scaling(3, 0))), source);
            for i in 0..64u32 {
                fx.bus.debug_write(RAM_BASE + 0x1000 + i * 4, i).unwrap();
            }
            fx
        };
        let (_, fault, leaps) = leap_against_steps(build, 100_000);
        assert_eq!(fault, None);
        for chain in [(Fetch, 2, TransferBusWait), (Fetch, 7, TransferBusWait)] {
            let n = leaps.iter().filter(|&l| *l == chain).count();
            assert_eq!(n, 4, "{chain:?} in {leaps:?}");
        }
    }

    #[test]
    fn issues_that_fault_or_fail_their_fifo_check_step() {
        let build = |source: &'static str| {
            move || {
                let fx = offload(fixture(Box::new(PassthroughRac::new(0))), source);
                // Bank 4 translates to no slave, bank 5 to the last two
                // words of the RAM.
                fx.ocp.regs().set_bank(4, 0x1000_0000).unwrap();
                fx.ocp.regs().set_bank(5, RAM_BASE + 16382 * 4).unwrap();
                fx
            }
        };
        // Neither the pickup's window nor the window at `Execute` holds
        // an issue that faults: the fault lands on its own tick.
        for (source, bank) in [
            ("mvtc BANK1,0,DMA4,FIFO0\nmvtc BANK3,0,DMA4,FIFO0\neop", 3),
            ("mvtc BANK1,0,DMA4,FIFO0\nmvtc BANK4,0,DMA4,FIFO0\neop", 4),
            ("mvtc BANK1,0,DMA4,FIFO0\nmvtc BANK5,0,DMA4,FIFO0\neop", 5),
        ] {
            let (cycle, fault, _) = leap_against_steps(build(source), 1_000);
            let fault = fault.unwrap_or_else(|| panic!("bank {bank} must fault"));
            match bank {
                3 => assert!(matches!(fault, ExecError::Translate(_)), "{fault}"),
                4 => assert!(
                    matches!(fault, ExecError::Bus(BusError::Unmapped { .. })),
                    "{fault}"
                ),
                _ => assert!(
                    matches!(fault, ExecError::Bus(BusError::CrossesSlaveBoundary { .. })),
                    "{fault}"
                ),
            }
            assert!(cycle > 1, "bank {bank}");
        }
        // The fifth 256-word `mvtc` into a 1024-word FIFO finds it
        // full only once the fourth's pickup lands its words, and an
        // `mvfc` of more words than the FIFO holds finds it short: each
        // falls into `TransferFifoWait` on its own tick, and stays there.
        let fill = "mvtc BANK1,0,DMA256,FIFO0\nmvtc BANK1,256,DMA256,FIFO0\n\
                    mvtc BANK1,512,DMA256,FIFO0\nmvtc BANK1,768,DMA256,FIFO0\n\
                    mvtc BANK1,0,DMA256,FIFO0\neop";
        let (_, fault, leaps) = leap_against_steps(build(fill), 3_000);
        assert_eq!(fault, None);
        assert!(
            leaps
                .iter()
                .all(|(_, _, after)| *after != ControllerState::TransferFifoWait),
            "{leaps:?}"
        );
        let (_, fault, leaps) = leap_against_steps(
            build("mvtc BANK1,0,DMA4,FIFO0\nexecs 4\nmvfc BANK2,0,DMA8,FIFO0\neop"),
            200,
        );
        assert_eq!(fault, None);
        assert!(
            leaps
                .iter()
                .all(|(_, _, after)| *after != ControllerState::TransferFifoWait),
            "{leaps:?}"
        );
    }

    #[test]
    fn an_mvfc_issue_inside_a_window_pulses_the_watchdog() {
        use ouessant_sim::bus::PortState;
        use ControllerState::TransferBusWait;
        // The first mvfc's pickup (window tick 1) and the second's
        // issue (tick 4) both pulse, and the second burst completes on
        // tick 21: budgets 1 and 2 bite in the Fetch and Decode ticks
        // between the pulses, budgets 3 to 17 inside the burst, counted
        // from the issue, and from budget 18 the second pickup pulses
        // in time.
        let build = || {
            offload(
                fixture(Box::new(PassthroughRac::new(0))),
                "mvtc BANK1,0,DMA32,FIFO0\nexecs 32\nmvfc BANK2,0,DMA2,FIFO0\n\
                 mvfc BANK2,2,DMA16,FIFO0\nnop\neop",
            )
        };
        let first_mvfc_done = |fx: &Fixture| {
            fx.ocp.controller().pc() == 2
                && *fx.ocp.controller().state() == TransferBusWait
                && fx.bus.poll(fx.ocp.bus_master()) == PortState::Complete
        };
        for budget in 1..=20 {
            let (mut slow, mut fast) = start_pair(build, first_mvfc_done);
            slow.ocp.arm_watchdog(budget);
            fast.ocp.arm_watchdog(budget);
            let (cycle, fault, leaps) = leap_pair(slow, fast, 1_000);
            let hang = Some(ExecError::Hang { budget });
            match budget {
                1..=2 => assert_eq!((cycle, fault), (budget + 1, hang)),
                3..=17 => assert_eq!((cycle, fault), (4 + budget, hang)),
                _ => {
                    assert_eq!(fault, None, "budget {budget}");
                    assert!(
                        leaps.contains(&(TransferBusWait, 2, TransferBusWait)),
                        "{leaps:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_wedge_leaps_to_the_watchdog_bite_without_walking() {
        use ouessant_sim::bus::PortState;
        use std::cell::Cell;
        use ControllerState::{Decode, Execute, Fetch, LoadProgram, TransferBusWait};
        let budget = 30;
        let build = || {
            offload(
                fixture(Box::new(PassthroughRac::new(4))),
                "mvtc BANK1,0,DMA8,FIFO0\nexecs 8\nmvfc BANK2,0,DMA8,FIFO0\neop",
            )
        };
        let cycles = build().run(1_000);
        let mut walked = Vec::new();
        for t in 0..cycles {
            // Both twins single-stepped `t` cycles into the program,
            // then wedged with the watchdog reloaded.
            let steps = Cell::new(0);
            let (mut slow, mut fast) = start_pair(build, |_| {
                steps.set(steps.get() + 1);
                steps.get() > t
            });
            if !slow.ocp.is_active() {
                continue;
            }
            for fx in [&mut slow, &mut fast] {
                fx.ocp.inject_wedge();
                fx.ocp.arm_watchdog(budget);
            }
            let controller = slow.ocp.controller();
            let (state, pc) = (controller.state().clone(), controller.pc());
            let completed = slow.bus.poll(slow.ocp.bus_master()) == PortState::Complete;
            let walks = matches!(state, Fetch | Decode | Execute)
                || (matches!(state, TransferBusWait | LoadProgram) && completed);
            let (cycle, fault, leaps) = leap_pair(slow, fast, 1_000);
            let hang = Some(ExecError::Hang { budget });
            assert_eq!((cycle, fault), (budget, hang), "wedged at {t} in {state:?}");
            if walks {
                // A state the FSM would walk out of leaps to the bite
                // in one go, and stays put.
                assert_eq!(leaps, [(state.clone(), pc, state.clone())], "wedged at {t}");
                walked.push(state);
            }
        }
        for state in [Fetch, Decode, Execute, TransferBusWait, LoadProgram] {
            assert!(walked.contains(&state), "{state:?} in {walked:?}");
        }
    }

    /// A passthrough OCP with `fifo_depth`-word FIFOs running `source`
    /// from a program store that held another program before (so a run
    /// planned at the load's pickup must read the program the load
    /// brings), bank 1 on 4096 input words at word 4096 of the RAM,
    /// bank 2 on the output area at word 8192, and bank 4 on no slave.
    fn run_fixture(source: &str, fifo_depth: usize) -> Fixture {
        let bus = Bus::new(BusConfig::default());
        let rac = Box::new(PassthroughRac::scaling(3, 0));
        let mut fx = fixture_with(bus, rac, OcpConfig { fifo_depth });
        fx.load_program(&assemble("nop\nnop\nnop\nnop\nnop\nnop\nnop\neop").unwrap());
        fx.run(100);
        assert!(fx.ocp.poll_completion());
        fx.load_program(&assemble(source).unwrap());
        fx.ocp.regs().set_bank(1, RAM_BASE + 0x4000).unwrap();
        fx.ocp.regs().set_bank(2, RAM_BASE + 0x8000).unwrap();
        fx.ocp.regs().set_bank(4, 0x1000_0000).unwrap();
        for i in 0..4096u32 {
            fx.bus.debug_write(RAM_BASE + 0x4000 + i * 4, i).unwrap();
        }
        fx
    }

    /// `n` bursts of `dir` (`mvtc` or `mvfc`) of `words` words each,
    /// back to back through bank `bank`.
    fn bursts(dir: &str, bank: u8, n: u32, words: u32) -> String {
        (0..n)
            .map(|i| format!("{dir} BANK{bank},{},DMA{words},FIFO0\n", i * words))
            .collect()
    }

    #[test]
    fn each_transfer_run_leaps_in_one_window_on_an_idle_bus() {
        use ControllerState::{Execute, LoadProgram, TransferBusWait};
        // 16 `mvtc` of 256 words, `execs`, 16 `mvfc` of 256 words: each
        // run is one window, from the walk to its first issue through
        // its last completion, and the pickup after it walks to the
        // next `Execute`, or on through the `execs` start, the compute
        // and its `end_op` retire into the `mvfc` run.
        let source = format!(
            "{}execs 4096\n{}eop",
            bursts("mvtc", 1, 16, 256),
            bursts("mvfc", 2, 16, 256)
        );
        let (_, fault, leaps) = leap_against_steps(|| run_fixture(&source, 4096), 100_000);
        assert_eq!(fault, None);
        assert_eq!(
            leaps,
            [
                (LoadProgram, 7, LoadProgram),
                (LoadProgram, 7, TransferBusWait),
                (TransferBusWait, 15, TransferBusWait),
                (TransferBusWait, 32, Execute),
            ]
        );
    }

    /// One whole job on an idle bus, leapt as `Farm::leap_or_tick`
    /// leaps (the stepped twin checks every iteration): only its launch
    /// and its `eop` step. Between them, windows end only where the
    /// controller first sees a burst's completion, so the last `mvtc`'s
    /// pickup runs on through the `exec`, the compute, its `end_op`
    /// retire and the `mvfc` run in one window; a `wait` in front of
    /// the `exec` opens that window instead. A RAC that does not tell
    /// its end (a pipe with a delay) starts inside that window, which
    /// ends on the start tick, and steps each tick it is busy after it.
    /// Each iteration is recorded
    /// as the state and pc it starts from and the state a leap ends in,
    /// `None` for a stepped tick.
    #[test]
    fn one_job_steps_only_its_launch_and_its_eop() {
        use ControllerState::{Execute, Fetch, Idle, LoadProgram, RacWait, TransferBusWait};
        type Iteration = (ControllerState, u16, Option<ControllerState>);
        type Job = (&'static str, fn() -> Box<dyn Rac>, Vec<Iteration>);
        let idct = "mvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop";
        let sleeping = "mvtc BANK1,0,DMA16,FIFO0\nwait 50\nexecs 16\nmvfc BANK2,0,DMA16,FIFO0\neop";
        let untold = "mvtc BANK1,0,DMA4,FIFO0\nexecs 4\nmvfc BANK2,0,DMA4,FIFO0\neop";
        let pipe = || -> Box<dyn Rac> { Box::new(PassthroughRac::scaling(3, 0)) };
        let delayed = || -> Box<dyn Rac> { Box::new(PassthroughRac::new(1)) };
        let idct_rac = || -> Box<dyn Rac> { Box::new(IdctRac::new()) };
        let job: [Job; 3] = [
            (
                idct,
                idct_rac,
                vec![
                    (Idle, 0, None),
                    (LoadProgram, 0, Some(LoadProgram)),
                    (LoadProgram, 0, Some(TransferBusWait)),
                    (TransferBusWait, 0, Some(TransferBusWait)),
                    (TransferBusWait, 2, Some(Execute)),
                    (Execute, 3, None),
                ],
            ),
            (
                sleeping,
                pipe,
                vec![
                    (Idle, 0, None),
                    (LoadProgram, 0, Some(LoadProgram)),
                    (LoadProgram, 0, Some(TransferBusWait)),
                    (TransferBusWait, 0, Some(Execute)),
                    (Execute, 1, Some(TransferBusWait)),
                    (TransferBusWait, 3, Some(Execute)),
                    (Execute, 4, None),
                ],
            ),
            (
                untold,
                delayed,
                vec![
                    (Idle, 0, None),
                    (LoadProgram, 0, Some(LoadProgram)),
                    (LoadProgram, 0, Some(TransferBusWait)),
                    (TransferBusWait, 0, Some(RacWait)),
                    (RacWait, 1, None),
                    (RacWait, 1, None),
                    (RacWait, 1, None),
                    (RacWait, 1, None),
                    (RacWait, 1, None),
                    (Fetch, 2, Some(TransferBusWait)),
                    (TransferBusWait, 2, Some(Execute)),
                    (Execute, 3, None),
                ],
            ),
        ];
        for (source, rac, expected) in job {
            let (mut slow, mut fast) = start_pair(|| offload(fixture(rac()), source), |_| true);
            let mut iterations = Vec::new();
            while !fast.ocp.regs().done() {
                let controller = fast.ocp.controller();
                let from = (controller.state().clone(), controller.pc());
                let skip = fast.ocp.leap(&mut fast.bus, u64::MAX, None);
                let to = if skip == 0 {
                    fast.step();
                    slow.step();
                    None
                } else {
                    for _ in 0..skip {
                        slow.step();
                    }
                    Some(fast.ocp.controller().state().clone())
                };
                assert_eq!(fast.observed(), slow.observed(), "{source}");
                iterations.push((from.0, from.1, to));
            }
            assert_eq!(iterations, expected, "{source}");
        }
    }

    /// A kernel whose compute never ends in any run: a walk through it
    /// and the `mvfc` run after it saturate instead of overflowing, and
    /// a leap still takes its limit, against the stepped twin.
    #[test]
    fn a_walk_through_an_endless_compute_saturates() {
        use ouessant_rac::block::{BlockKernel, BlockRac};
        struct Endless;
        impl BlockKernel for Endless {
            fn name(&self) -> &str {
                "endless"
            }
            fn input_len(&self, _op: u16) -> usize {
                4
            }
            fn output_len(&self, _op: u16) -> Option<usize> {
                Some(4)
            }
            fn latency(&self, _op: u16) -> u64 {
                u64::MAX
            }
            fn compute(&mut self, _op: u16, input: &[u32], output: &mut Vec<u32>) {
                output.extend_from_slice(input);
            }
        }
        let source = "mvtc BANK1,0,DMA4,FIFO0\nexecs\nmvfc BANK2,0,DMA4,FIFO0\neop";
        let build = || offload(fixture(Box::new(BlockRac::from_kernel(Endless))), source);
        let (slow, fast) = start_pair(build, |_| true);
        let (cycle, fault, leaps) = leap_pair_with(slow, fast, 5_000, || 1_000);
        assert_eq!((cycle, fault), (5_000, None));
        assert!(
            leaps.contains(&(
                ControllerState::TransferBusWait,
                0,
                ControllerState::RacWait
            )),
            "{leaps:?}"
        );
    }

    #[test]
    fn a_run_stops_in_front_of_an_entry_that_cannot_join_it() {
        use ControllerState::{Execute, Fetch, LoadProgram, TransferBusWait, TransferFifoWait};
        let leaps = |source: &str, depth| {
            let (_, fault, leaps) = leap_against_steps(|| run_fixture(source, depth), 5_000);
            (fault, leaps)
        };
        let load = (LoadProgram, 7, LoadProgram);
        // A FIFO of 1024 words holds four 256-word bursts: the fifth
        // waits for space on its own `Execute` tick, and stays there.
        let (fault, runs) = leaps(&format!("{}eop", bursts("mvtc", 1, 5, 256)), 1024);
        assert_eq!(fault, None);
        assert_eq!(
            runs,
            [
                load.clone(),
                (LoadProgram, 7, TransferBusWait),
                (TransferBusWait, 3, Execute),
            ]
        );
        // A register offset ends the run in front of it, and starts the
        // next; its post-increment leaves the `mvtc` after it to join.
        let source = format!(
            "{}mvtcr BANK1,O0,DMA16,FIFO0\nmvtc BANK1,48,DMA16,FIFO0\neop",
            bursts("mvtc", 1, 2, 16)
        );
        let (fault, runs) = leaps(&source, 1024);
        assert_eq!(fault, None);
        assert_eq!(
            runs,
            [
                load.clone(),
                (LoadProgram, 7, TransferBusWait),
                (TransferBusWait, 1, TransferBusWait),
                (TransferBusWait, 3, Execute),
            ]
        );
        // A `djnz` ends the run: every loop pass is one window.
        let source = format!(
            "ldc R0,3\nagain:\n{}djnz R0,again\neop",
            bursts("mvtc", 1, 2, 16)
        );
        let (fault, runs) = leaps(&source, 1024);
        assert_eq!(fault, None);
        let pass = [(Fetch, 1, TransferBusWait), (TransferBusWait, 2, Execute)];
        let mut expected = vec![load.clone(), (LoadProgram, 7, Execute)];
        for _ in 0..3 {
            expected.extend(pass.clone());
        }
        expected.push((Fetch, 4, Execute));
        assert_eq!(runs, expected);
        // A bank on no slave: the bus declines the burst, which faults
        // on its own `Execute` tick.
        let source = format!("{}mvtc BANK4,0,DMA16,FIFO0\neop", bursts("mvtc", 1, 2, 16));
        let (fault, runs) = leaps(&source, 1024);
        assert!(
            matches!(fault, Some(ExecError::Bus(BusError::Unmapped { .. }))),
            "{fault:?}"
        );
        assert_eq!(
            runs,
            [
                load,
                (LoadProgram, 7, TransferBusWait),
                (TransferBusWait, 1, Execute),
            ]
        );
        assert!(!runs.iter().any(|l| l.2 == TransferFifoWait));
    }

    #[test]
    fn the_watchdog_bites_mid_run_on_its_cycle_and_spares_a_longer_budget() {
        // The cycles on which a single-stepped run makes progress: the
        // watchdog's budget counts from the last one.
        let source = format!(
            "{}execs 128\n{}eop",
            bursts("mvtc", 1, 8, 16),
            bursts("mvfc", 2, 8, 16)
        );
        let build = |budget: Option<u64>| {
            let source = source.clone();
            move || {
                let mut fx = run_fixture(&source, 1024);
                if let Some(budget) = budget {
                    fx.ocp.arm_watchdog(budget);
                }
                fx
            }
        };
        let mut fx = build(None)();
        fx.ocp.regs().start();
        let mut progress = vec![0];
        let stats = fx.ocp.stats();
        let mut signature = (stats.instructions_retired, stats.words_transferred);
        for cycle in 1..10_000 {
            fx.step();
            let stats = fx.ocp.stats();
            if (stats.instructions_retired, stats.words_transferred) != signature {
                signature = (stats.instructions_retired, stats.words_transferred);
                progress.push(cycle);
            }
            if fx.ocp.regs().done() {
                break;
            }
        }
        let gaps: Vec<u64> = progress.windows(2).map(|w| w[1] - w[0]).collect();
        // A burst's gap: its pickup, `Fetch`, `Decode`, then grant,
        // address and 16 beats to the next pickup.
        assert!(gaps.contains(&21), "{gaps:?}");
        let (_, _, unwatched) = leap_against_steps(build(None), 10_000);
        for budget in [5, 20] {
            // The first gap that outlasts the budget bites at its end.
            let (from, _) = progress
                .iter()
                .zip(&gaps)
                .find(|(_, &gap)| gap > budget)
                .expect("a gap outlasts the budget");
            let (cycle, fault, _) = leap_against_steps(build(Some(budget)), 10_000);
            assert_eq!(fault, Some(ExecError::Hang { budget }));
            assert_eq!(cycle, from + budget, "budget {budget}");
        }
        // A budget longer than every gap never bites, and costs no
        // window: each pickup and each `mvfc` issue reloads it mid-run.
        let budget = gaps.iter().max().copied().unwrap_or(0) + 1;
        let (_, fault, watched) = leap_against_steps(build(Some(budget)), 10_000);
        assert_eq!(fault, None);
        assert_eq!(watched, unwatched);
    }

    /// A bus that counts the bursts it replays in one step
    /// ([`SystemBus::replay_run`]), those of them in segments of
    /// [`LONG`] bursts or more, and the calls of its what-if
    /// ([`SystemBus::time_burst`]), and otherwise is the [`Bus`] it
    /// wraps.
    #[derive(Default)]
    struct Counts {
        bulk: usize,
        long: usize,
        timed: usize,
    }

    struct Counted {
        bus: Bus,
        cpu: ouessant_sim::bus::MasterId,
        counts: std::cell::RefCell<Counts>,
    }

    /// A segment this long is a long one.
    const LONG: u32 = 8;

    /// The words of a drawn run's RAM (see [`DrawnRun`]).
    const RUN_RAM_WORDS: usize = 16384;

    impl SystemBus for Counted {
        fn register_master(&mut self) -> ouessant_sim::bus::MasterId {
            self.bus.register_master()
        }
        fn add_slave_boxed(&mut self, base: Addr, device: Box<dyn ouessant_sim::bus::BusSlave>) {
            self.bus.add_slave_boxed(base, device);
        }
        fn try_begin(
            &mut self,
            master: ouessant_sim::bus::MasterId,
            req: ouessant_sim::bus::TxnRequest,
        ) -> Result<(), BusError> {
            self.bus.try_begin(master, req)
        }
        fn tick(&mut self) {
            SystemBus::tick(&mut self.bus);
        }
        fn now(&self) -> Instant {
            self.bus.now()
        }
        fn poll(&self, master: ouessant_sim::bus::MasterId) -> ouessant_sim::bus::PortState {
            self.bus.poll(master)
        }
        fn take_completion(
            &mut self,
            master: ouessant_sim::bus::MasterId,
        ) -> Option<Result<ouessant_sim::bus::Completion, BusError>> {
            self.bus.take_completion(master)
        }
        fn peek_completion(
            &self,
            master: ouessant_sim::bus::MasterId,
        ) -> Option<&Result<ouessant_sim::bus::Completion, BusError>> {
            self.bus.peek_completion(master)
        }
        fn debug_read(&mut self, addr: Addr) -> Result<u32, BusError> {
            self.bus.debug_read(addr)
        }
        fn debug_write(&mut self, addr: Addr, value: u32) -> Result<(), BusError> {
            self.bus.debug_write(addr, value)
        }
        fn stats(&self) -> ouessant_sim::bus::BusStats {
            self.bus.stats()
        }
        fn horizon(&self) -> Horizon {
            self.bus.horizon()
        }
        fn time_burst(
            &self,
            master: ouessant_sim::bus::MasterId,
            bursts: Strided,
            issue: u64,
            gap: u64,
            after: Option<&RunBurst>,
        ) -> Option<RunSegment> {
            self.counts.borrow_mut().timed += 1;
            let segment = self.bus.time_burst(master, bursts, issue, gap, after)?;
            // A run moves words from and to the RAM alone, so a plan
            // that counts a burst past its end fails here, in a release
            // build too, though no leap reaches that burst.
            let last = segment.burst(segment.count - 1).shape;
            let end = u64::from(last.addr) + u64::from(last.beats) * 4;
            assert!(
                last.addr >= RAM_BASE && end <= u64::from(RAM_BASE) + RUN_RAM_WORDS as u64 * 4,
                "a planned burst lies outside the RAM: {last:?}"
            );
            Some(segment)
        }
        fn set_polls(
            &mut self,
            polls: Option<ouessant_sim::bus::Polls>,
        ) -> Option<ouessant_sim::bus::Polls> {
            self.bus.set_polls(polls)
        }
        fn replays_runs(&self) -> bool {
            self.bus.replays_runs()
        }
        fn replay_run(
            &mut self,
            master: ouessant_sim::bus::MasterId,
            origin: Instant,
            segment: RunSegment,
            data: &mut dyn FnMut(usize, &mut Vec<u32>),
        ) {
            let mut counts = self.counts.borrow_mut();
            counts.bulk += segment.count as usize;
            if segment.count >= LONG {
                counts.long += segment.count as usize;
            }
            drop(counts);
            self.bus.replay_run(master, origin, segment, data);
        }
        fn advance(&mut self, cycles: Cycle) {
            self.bus.advance(cycles);
        }
    }

    /// What a drawn run's twins are compared on after every leap and
    /// every tick: [`Fixture::observed`] (the debug window, FSM state,
    /// statistics, watchdog and FIFO occupancy), the pc, the bus's
    /// statistics and both masters'.
    #[derive(Debug, PartialEq)]
    struct RunView {
        ocp: (
            [u32; 4],
            ControllerState,
            ControllerStats,
            Option<u64>,
            (usize, usize),
        ),
        pc: u16,
        bus: ouessant_sim::bus::BusStats,
        masters: [ouessant_sim::bus::MasterStats; 2],
    }

    impl Fixture<Counted> {
        fn run_view(&self) -> RunView {
            RunView {
                ocp: self.observed(),
                pc: self.ocp.controller().pc(),
                bus: self.bus.stats(),
                masters: [self.bus.cpu, self.ocp.bus_master()]
                    .map(|m| self.bus.bus.master_stats(m)),
            }
        }
    }

    /// Seeds of [`drawn_runs_replay_in_bulk_as_they_step`] whose bursts
    /// lie at drawn offsets.
    const RUN_SEEDS: u64 = 40;

    /// Seeds after [`RUN_SEEDS`] whose bursts are laid out at one
    /// stride (see [`laid_out_bursts`]).
    const STRIDED_SEEDS: u64 = 40;

    /// The most words a drawn run moves.
    const RUN_WORDS: u32 = 2048;

    /// Words of the drawn runs' input area (bank 1, at word 1024 of the
    /// RAM).
    const IN_WORDS: u32 = 7168;

    /// Words of the drawn runs' output area (bank 2, at word 8192).
    const OUT_WORDS: u32 = 8192;

    /// Bus cycles of a lone burst of `words` words, from its issue
    /// through its completion: one grant, one address cycle and the
    /// beats of each sub-burst.
    fn burst_cycles(words: u32, bus: BusConfig, ram: SramConfig) -> u64 {
        let (max, first, seq) = (
            u32::from(bus.max_burst_beats),
            ram.first_access_wait_states,
            ram.sequential_wait_states,
        );
        let sub = |beats: u32| u64::from(2 + first + beats + (beats - 1) * seq);
        let full = (words - 1) / max;
        u64::from(full) * sub(max) + sub(words - full * max)
    }

    /// A drawn system around a pass-through (delay 0, scaling by 3)
    /// whose FIFOs hold the words of its input run, or one or two more:
    /// a run of reads into input FIFO 0, the stream, then a run of
    /// writes from output FIFO 0. Each run has 2 to 130 bursts of 1 to
    /// 256 words, most of them one drawn length, at drawn offsets, or,
    /// for a seed past [`RUN_SEEDS`], all of one length at one stride
    /// (see [`laid_out_bursts`]); together the reads move at most
    /// [`RUN_WORDS`], and the writes at most what the reads moved. The
    /// stream is `execs` (it ends before the writes, which then run
    /// back to back through a FIFO as
    /// shallow as the run) or, one draw in four, `execn`, with a `wrac`
    /// after the writes, so the writes start while the pass-through
    /// streams into the output FIFO. The bus has sub-bursts of 1, 4 or
    /// 16 beats and an SRAM with 0–7 first and 0–2 sequential wait
    /// states. Three draws in four arm the watchdog on the `Fetch` of
    /// one run's first burst, with a budget that bites one tick before,
    /// on, or one tick after the pickup that ends the longest gap
    /// between the run's progress ticks.
    #[derive(Debug)]
    struct DrawnRun {
        bus: BusConfig,
        ram: SramConfig,
        depth: usize,
        streams: bool,
        /// Each read's word offset and words.
        reads: Vec<(u32, u32)>,
        /// Each write's word offset and words.
        writes: Vec<(u32, u32)>,
        /// The watchdog's budget and the pc on whose `Fetch` it is armed.
        watchdog: Option<(u64, u16)>,
    }

    impl DrawnRun {
        fn draw(seed: u64) -> Self {
            let mut rng = XorShift64::new(seed);
            let bus = BusConfig {
                max_burst_beats: [1, 4, 16][rng.gen_range_u32(0..3) as usize],
            };
            let ram = SramConfig {
                first_access_wait_states: rng.gen_range_u32(0..8),
                sequential_wait_states: rng.gen_range_u32(0..3),
            };
            let bursts = if seed > RUN_SEEDS {
                laid_out_bursts
            } else {
                drawn_bursts
            };
            let reads = bursts(&mut rng, RUN_WORDS, IN_WORDS);
            let moved: u32 = reads.iter().map(|r| r.1).sum();
            let writes = bursts(&mut rng, moved, OUT_WORDS);
            let streams = rng.gen_range_u32(0..4) == 0;
            let depth = moved as usize + rng.gen_range_u32(0..3) as usize;
            let watchdog = (rng.gen_range_u32(0..4) > 0).then(|| {
                let write = rng.gen_bool();
                let (bursts, pc, pickup) = if write {
                    (&writes, reads.len() + 1, 0)
                } else {
                    (&reads, 0, PICKUP_TICKS)
                };
                let gap = bursts
                    .iter()
                    .map(|b| burst_cycles(b.1, bus, ram) + pickup)
                    .max()
                    .expect("a run has bursts");
                let budget = gap + u64::from(rng.gen_range_u32(0..3)) - 1;
                (budget, u16::try_from(pc).expect("a short program"))
            });
            Self {
                bus,
                ram,
                depth,
                streams,
                reads,
                writes,
                watchdog,
            }
        }

        fn program(&self) -> Program {
            let transfers = |op: &str, bank: u8, bursts: &[(u32, u32)]| -> String {
                bursts
                    .iter()
                    .map(|(offset, words)| format!("{op} BANK{bank},{offset},DMA{words},FIFO0\n"))
                    .collect()
            };
            let moved: u32 = self.reads.iter().map(|r| r.1).sum();
            let (start, end) = if self.streams {
                (format!("execn {moved}\n"), "wrac\n")
            } else {
                (format!("execs {moved}\n"), "")
            };
            let source = format!(
                "{}{start}{}{end}eop",
                transfers("mvtc", 1, &self.reads),
                transfers("mvfc", 2, &self.writes)
            );
            assemble(&source).unwrap()
        }

        fn fixture(&self, program: &Program) -> Fixture<Counted> {
            let mut inner = Bus::new(self.bus);
            let cpu = inner.register_master();
            inner.add_slave(RAM_BASE, Sram::with_words(RUN_RAM_WORDS, self.ram));
            let mut bus = Counted {
                bus: inner,
                cpu,
                counts: std::cell::RefCell::default(),
            };
            let rac = Box::new(PassthroughRac::scaling(3, 0));
            let config = OcpConfig {
                fifo_depth: self.depth,
            };
            let mut fx = Fixture {
                ocp: Ocp::attach(&mut bus, OCP_BASE, rac, config),
                bus,
            };
            let input: Vec<u32> = (0..IN_WORDS).map(|i| i ^ 0x5A5A).collect();
            fx.bus
                .bus
                .debug_write_words(RAM_BASE + 0x1000, &input)
                .unwrap();
            fx.load_program(program);
            fx.ocp.regs().set_bank(1, RAM_BASE + 0x1000).unwrap();
            fx.ocp.regs().set_bank(2, RAM_BASE + 0x8000).unwrap();
            fx
        }
    }

    /// A run of 2 to 130 bursts (at most `total`) of 1 to 256 words
    /// that move at most `total` words, each at a drawn word offset in
    /// an area of `area` words: three bursts in four have one drawn
    /// length.
    fn drawn_bursts(rng: &mut XorShift64, total: u32, area: u32) -> Vec<(u32, u32)> {
        let count = rng.gen_range_u32(2..131).min(total);
        let cap = (total / count).clamp(1, 256);
        let base = rng.gen_range_u32(1..cap + 1);
        (0..count)
            .map(|_| {
                let words = if rng.gen_range_u32(0..4) == 0 {
                    rng.gen_range_u32(1..cap + 1)
                } else {
                    base
                };
                (rng.gen_range_u32(0..area - words + 1), words)
            })
            .collect()
    }

    /// A run of 2 to 130 bursts (at most `total`) of one drawn length
    /// of 1 to 256 words that move at most `total` words, at one stride
    /// in an area of `area` words from a drawn offset: back to back,
    /// all at one offset (stride 0), or apart by a drawn stride past
    /// the burst's length, as far as the area allows. One draw in two
    /// of bursts longer than a word lets the last burst cross the
    /// area's end by one word, which for the writes is the end of the
    /// RAM: the bus rejects that burst, and the run faults on it.
    fn laid_out_bursts(rng: &mut XorShift64, total: u32, area: u32) -> Vec<(u32, u32)> {
        let count = rng.gen_range_u32(2..131).min(total);
        let words = rng.gen_range_u32(1..(total / count).clamp(1, 256) + 1);
        let stride = match rng.gen_range_u32(0..3) {
            0 => words,
            1 => 0,
            _ => words + rng.gen_range_u32(1..words + 2),
        }
        .min((area - words) / (count - 1));
        let room = area - words - (count - 1) * stride;
        let start = if words > 1 && rng.gen_bool() {
            room + 1
        } else {
            rng.gen_range_u32(0..room + 1)
        };
        (0..count).map(|i| (start + i * stride, words)).collect()
    }

    /// The drawn system's stepped twin: every cycle's view from the
    /// start to its `eop` or fault, the cycle it arms the watchdog on,
    /// and the RAM at the end.
    struct Stepped {
        views: Vec<RunView>,
        armed_at: u64,
        memory: Vec<u32>,
    }

    fn memory_of(fx: &mut Fixture<Counted>) -> Vec<u32> {
        let mut words = Vec::new();
        fx.bus
            .bus
            .debug_read_words(RAM_BASE, RUN_RAM_WORDS, &mut words)
            .unwrap();
        words
    }

    impl DrawnRun {
        fn stepped(&self, program: &Program) -> Stepped {
            let mut fx = self.fixture(program);
            fx.ocp.regs().start();
            let mut views = vec![fx.run_view()];
            let mut armed_at = 0;
            let mut armed = self.watchdog.is_none();
            while views.len() < 1_000_000 {
                if !armed {
                    let (budget, pc) = self.watchdog.expect("drawn");
                    let c = fx.ocp.controller();
                    if c.pc() == pc && *c.state() == ControllerState::Fetch {
                        fx.ocp.arm_watchdog(budget);
                        armed_at = views.len() as u64 - 1;
                        armed = true;
                        *views.last_mut().expect("a view") = fx.run_view();
                    }
                }
                fx.step();
                views.push(fx.run_view());
                if fx.ocp.fault().is_some() || fx.ocp.regs().done() {
                    break;
                }
            }
            Stepped {
                views,
                armed_at,
                memory: memory_of(&mut fx),
            }
        }

        /// The leapt twin against `stepped`: it steps to the watchdog's
        /// arming, then leaps as [`Ocp::leap`] allows, stepping where it
        /// leaps none, no leap passing the cycle `cut`, and is compared
        /// after every leap and tick, and on its RAM at the end. Returns
        /// its bus's [`Counts`], and the most what-if calls one leap's
        /// window made.
        fn leapt(&self, program: &Program, stepped: &Stepped, cut: Option<u64>) -> (Counts, usize) {
            let mut fx = self.fixture(program);
            fx.ocp.regs().start();
            let end = stepped.views.len() as u64 - 1;
            let (mut cycle, mut most) = (0, 0);
            while cycle < stepped.armed_at {
                fx.step();
                cycle += 1;
            }
            if let Some((budget, _)) = self.watchdog {
                fx.ocp.arm_watchdog(budget);
            }
            while cycle < end {
                let limit = cut.filter(|&c| c > cycle).unwrap_or(end) - cycle;
                let timed = fx.bus.counts.borrow().timed;
                let skip = fx.ocp.leap(&mut fx.bus, limit, None);
                most = most.max(fx.bus.counts.borrow().timed - timed);
                if skip == 0 {
                    fx.step();
                }
                cycle += skip.max(1);
                assert_eq!(
                    fx.run_view(),
                    stepped.views[cycle as usize],
                    "cycle {cycle}, cut {cut:?}"
                );
            }
            assert!(memory_of(&mut fx) == stepped.memory, "memory, cut {cut:?}");
            (fx.bus.counts.take(), most)
        }

        /// The cycles of the last two bursts of the run at pcs `pcs`:
        /// from the pickup before them through the last one's pickup.
        fn last_two(
            &self,
            stepped: &Stepped,
            pcs: std::ops::Range<u16>,
        ) -> std::ops::RangeInclusive<u64> {
            let at = |pc: u16| {
                stepped
                    .views
                    .iter()
                    .position(|v| v.pc >= pc)
                    .unwrap_or(stepped.views.len() - 1) as u64
            };
            at(pcs.end - 2)..=at(pcs.end)
        }
    }

    /// Drawn runs (see [`DrawnRun`]) leapt against stepped: once
    /// leaping freely, and once for each tick of each run's last two
    /// bursts with the leap cut there, every twin agreeing with the
    /// stepped one after every leap and tick and on the RAM at the end.
    /// The runs laid out at one stride replay long segments, plan each
    /// window's run with at most three what-if calls, however many
    /// bursts it holds, and some of them fault on a burst that crosses
    /// the RAM's end.
    #[test]
    fn drawn_runs_replay_in_bulk_as_they_step() {
        let (mut bulk, mut bites, mut cuts) = (0, 0, 0);
        let (mut long, mut most, mut crossed) = (0, 0, 0);
        for seed in 1..=RUN_SEEDS + STRIDED_SEEDS {
            let system = DrawnRun::draw(seed);
            let program = system.program();
            let check = std::panic::AssertUnwindSafe(|| {
                let stepped = system.stepped(&program);
                let mut counts = vec![system.leapt(&program, &stepped, None)];
                let reads = u16::try_from(system.reads.len()).unwrap();
                let writes = u16::try_from(system.writes.len()).unwrap();
                let runs = [0..reads, reads + 1..reads + 1 + writes];
                for pcs in runs {
                    for cut in system.last_two(&stepped, pcs) {
                        counts.push(system.leapt(&program, &stepped, Some(cut)));
                    }
                }
                let fault = stepped.views.last().map(|v| v.ocp.1.clone());
                (counts, fault)
            });
            let (counts, fault) = std::panic::catch_unwind(check)
                .unwrap_or_else(|_| panic!("seed {seed}: {system:#?}"));
            let replayed: usize = counts.iter().map(|c| c.0.bulk).sum();
            let faulted = |hang: bool| match &fault {
                Some(ControllerState::Faulted(ExecError::Hang { .. })) => hang,
                Some(ControllerState::Faulted(ExecError::Bus(_))) => !hang,
                _ => false,
            };
            if seed <= RUN_SEEDS {
                bulk += replayed;
                bites += usize::from(faulted(true));
                cuts += counts.len() - 1;
            } else {
                long += counts.iter().map(|c| c.0.long).sum::<usize>();
                most = counts.iter().map(|c| c.1).fold(most, usize::max);
                crossed += usize::from(faulted(false));
            }
        }
        // The draw bites and spares, and replays runs in bulk on the way.
        assert!(
            (2..RUN_SEEDS as usize / 2).contains(&bites),
            "{bites} bites"
        );
        assert!(
            bulk > 5000 * RUN_SEEDS as usize,
            "{bulk} bursts replayed in bulk"
        );
        assert!(cuts > 100 * RUN_SEEDS as usize, "{cuts} cuts");
        assert!(
            long > 5000 * STRIDED_SEEDS as usize,
            "{long} bursts replayed in segments of {LONG} or more"
        );
        assert!(most <= 3, "a window's run took {most} what-if calls");
        assert!(crossed >= 6, "only {crossed} runs cross the RAM's end");
    }

    #[test]
    fn debug_registers_readable_over_bus() {
        let mut fx = fixture(Box::new(PassthroughRac::new(0)));
        let program =
            assemble("mvtc BANK1,0,DMA8,FIFO0\nexecs 8\nmvfc BANK2,0,DMA8,FIFO0\neop").unwrap();
        fx.load_program(&program);
        fx.ocp.regs().set_bank(1, RAM_BASE + 0x1000).unwrap();
        fx.ocp.regs().set_bank(2, RAM_BASE + 0x2000).unwrap();
        fx.run(10_000);
        let retired = fx
            .bus
            .debug_read(OCP_BASE + crate::regs::REG_DBG_RETIRED)
            .unwrap();
        assert_eq!(retired, 4);
        let words = fx
            .bus
            .debug_read(OCP_BASE + crate::regs::REG_DBG_WORDS)
            .unwrap();
        assert_eq!(words, 16);
    }
}
