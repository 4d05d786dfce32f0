//! Event-horizon fast-forwarding: skip provably-pure cycles in bulk.
//!
//! A cycle-level simulation of the paper's platform spends most of its
//! host time ticking FSMs that *cannot* change observable state for a
//! statically-knowable number of cycles: a DMA transfer whose grants,
//! wait states and beats the bus protocol fixes up to its completion,
//! a RAC counting down its Table I compute latency, a DPR slot
//! streaming a bitstream through the ICAP, a farm worker parked in
//! retry backoff or quarantine cooldown. A component *declares* that
//! window so a driver loop can leap over it instead of looping through
//! it — the same lever fast ISA simulators pull to beat naive
//! interpreters, applied to a SoC.
//!
//! For the bus the contract is part of
//! [`SystemBus`]: its
//! [`horizon`](SystemBus::horizon) and
//! [`advance`](SystemBus::advance), which `Bus` and
//! `AxiBus` implement, so an OCP can ask whatever bus it sits on. The
//! OCP layers state the same contract through one query each, because
//! their horizons depend on the socket and the bus around them: a RAC's
//! `outlook` (its horizon, and whether that tick ends its operation)
//! and `advance`, which `RacSocket` wraps; the controller's walk, which
//! answers the event it walks to; and `Ocp::horizon_on` and
//! `Ocp::advance`. Each layer states a pure window once: a controller
//! waiting on its RAC defers to the socket's countdown rather than
//! keeping a second one.
//!
//! # Contract
//!
//! For a component whose per-cycle behaviour is `tick()`:
//!
//! * `horizon()` returns a [`Horizon`]: the earliest *future* tick at
//!   which the component's observable state can change. A horizon of
//!   `k` ticks means the next `k - 1` ticks are **pure**: nothing
//!   another component can observe changes before tick `k`, which is
//!   the first that may (retire an FSM state, complete a bus
//!   transaction, raise an interrupt …). A pure tick may still change
//!   the component's own state — counters, countdowns, even data a bus
//!   burst moves between a master's transaction and a slave — as long
//!   as no other component can read it before tick `k`.
//!   [`Horizon::NEXT_TICK`] is always a safe answer for a busy
//!   component — it simply forces the driver to single-step.
//!   [`Horizon::QUIESCENT`] means no number of ticks will ever change
//!   its observable state (it still tolerates `advance`, which must
//!   replay idle ticks). The type has no zero horizon.
//! * `advance(n)` replays `n` ticks exactly, under the promise that
//!   all of them are pure, i.e. `n` is within [`Horizon::leap_bound`]
//!   (`horizon() − 1` ticks, any count when quiescent). After
//!   `advance(n)` the component must be **bit-identical** to the state
//!   after `n` real `tick()` calls — including cycle counters,
//!   utilization statistics, countdowns and any data moved — so that a
//!   fast-forwarded run and a cycle-by-cycle run can never be told
//!   apart. Countdowns replay in O(1); work that moves data (a bus
//!   burst's beats) is replayed in bulk, skipping only the per-tick
//!   overhead.
//!
//! A driver combines horizons with [`Ord::min`] (quiescent is the
//! largest), leaps [`Horizon::leap_bound`] cycles with `advance`, then
//! executes the event cycle with a real `tick()`. Components may
//! *underestimate* their horizon (costing speed, never correctness);
//! they must never overestimate it. An event due at an absolute cycle
//! takes the constructor of its firing rule ([`Horizon::starting_at`],
//! [`Horizon::starting_after`], [`Horizon::ending_at`]), each of which
//! saturates, so a timer at the end of time leaps as far as the clock
//! goes instead of overflowing.
//!
//! One rule refines this for the bus: nothing observes a bus event on
//! the tick it happens. Masters tick before the bus and read their
//! ports in their own tick, so a bus's owner merges its horizon through
//! [`Horizon::observed`] (one tick later) and leaps *through* the bus's
//! event tick; a bus's `advance` accepts `n ≤ horizon()` for that.
//!
//! A window may also hold one master's *run* (see [`BusWindow`]): the
//! DMA bursts it issues back to back while nothing else touches the
//! bus but installed polls (see [`Polls`](crate::bus::Polls)). The leap
//! loop asks the bus to time the first burst ([`SystemBus::time_burst`],
//! given its [`TxnShape`]) and, on a bus idle but for its polls, adds
//! the later bursts, each after the ticks its master takes to get from
//! one completion to the next issue, as far as the rest of the window
//! reaches and only while each burst's event is its completion (a slave
//! that may fault is watched beat by beat). The master states them as
//! stretches of equal bursts ([`Strided`]), and the bus times a stretch
//! at once, as a [`RunSegment`], wherever no poll's read can land
//! between its bursts. [`BusWindow::leap`] then advances every other
//! master over the window once, and replays the run: its first burst
//! alone (the bus over the ticks before the issue, the issuer through
//! its issue and the burst, then the bus over the burst), the later
//! bursts of each segment it reaches whole in one step
//! ([`SystemBus::replay_run`]: a data move per burst, the timing in
//! closed form), and a burst it cuts alone, as the first. A bus that
//! records every transaction replays each burst alone.

use std::cmp::Ordering;
use std::num::NonZeroU64;

use crate::axi::SystemBus;
use crate::bus::{MasterId, TxnShape};
use crate::clock::{Cycle, Instant};

/// When a component's observable state can next change, seen from the
/// current cycle: the fast-forward contract as a type.
///
/// A horizon is one of three cases: the next tick
/// ([`Horizon::NEXT_TICK`]), the tick `n ≥ 2` ticks from now, or never
/// ([`Horizon::QUIESCENT`]). A horizon of `k` ticks promises that the
/// `k − 1` ticks before tick `k` are pure, so a driver may leap
/// [`Horizon::leap_bound`] ticks and step the event itself. Horizons
/// order by when their event comes, quiescent last, so the horizon of
/// two components is the [`Ord::min`] of theirs. The default is
/// quiescent.
///
/// A component states when its event fires with the constructor that
/// names its rule ([`Horizon::starting_at`], [`Horizon::starting_after`],
/// [`Horizon::ending_at`] for an absolute cycle, [`Horizon::after`] for
/// a count of pure ticks, [`Horizon::observed`] for a bus event), so no
/// caller writes an offset. No horizon is zero ticks away: an event is
/// always on a tick still to come, so the one constructor from a tick
/// count, [`Horizon::in_ticks`], takes a [`NonZeroU64`], and
/// [`Horizon::after`] and the rule constructors are built on it.
///
/// ```compile_fail
/// use ouessant_sim::Horizon;
///
/// let _ = Horizon::in_ticks(0);
/// ```
///
/// ```
/// use ouessant_sim::{Horizon, Instant};
///
/// let now = Instant::new(100);
/// // An event due once the clock has passed cycle 104 fires on the
/// // tick that starts at 105, the sixth from now.
/// let deadline = Horizon::starting_after(Instant::new(104), now);
/// assert_eq!(deadline.ticks(), Some(6));
/// assert_eq!(deadline.min(Horizon::QUIESCENT), deadline);
/// assert_eq!(deadline.leap_bound(3), 3);
/// assert_eq!(deadline.leap_bound(100), 5);
/// assert_eq!(deadline.at(now), Some(Instant::new(106)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Horizon(Option<NonZeroU64>);

impl Horizon {
    /// The next tick may change observable state: the driver steps it.
    pub const NEXT_TICK: Horizon = Horizon(Some(NonZeroU64::MIN));

    /// No number of ticks changes observable state.
    pub const QUIESCENT: Horizon = Horizon(None);

    /// The event is on the `ticks`-th tick from now.
    #[must_use]
    pub const fn in_ticks(ticks: NonZeroU64) -> Self {
        Self(Some(ticks))
    }

    /// The event is on the tick after `pure` pure ticks (saturating):
    /// [`Horizon::in_ticks`] for a count that may be 0.
    #[must_use]
    pub const fn after(pure: u64) -> Self {
        Self::in_ticks(NonZeroU64::MIN.saturating_add(pure))
    }

    /// The first tick, from `now`, whose pre-tick cycle reaches `at`: a
    /// rule checked at the start of a tick as `now >= at` (a parked
    /// retry's unpark, the chaos squat's release, a `wait`'s retire).
    /// An event already due fires on the next tick.
    #[must_use]
    pub fn starting_at(at: Instant, now: Instant) -> Self {
        Self::due(at.count().saturating_add(1), now)
    }

    /// The first tick, from `now`, whose pre-tick cycle passes `at`: a
    /// rule checked at the start of a tick as `now > at` (a deadline's
    /// drop or abort).
    #[must_use]
    pub fn starting_after(at: Instant, now: Instant) -> Self {
        Self::due(at.count().saturating_add(2), now)
    }

    /// The first tick, from `now`, whose post-tick cycle reaches `at`: a
    /// timer checked after the clock moves (a quarantine's lift, a
    /// degraded worker's heal).
    #[must_use]
    pub fn ending_at(at: Instant, now: Instant) -> Self {
        Self::due(at.count(), now)
    }

    /// The tick whose post-tick cycle is `end`, at least the next one.
    /// Saturated rules land early, which is safe: a horizon may
    /// underestimate, never overestimate.
    fn due(end: u64, now: Instant) -> Self {
        Self::after(end.saturating_sub(now.count()).saturating_sub(1))
    }

    /// The first tick at which an owner that ticks *before* the bus can
    /// observe `bus_event`, the bus's [`SystemBus::horizon`]: the tick
    /// after it.
    ///
    /// A master reads its port in its own tick, which runs before the
    /// bus's, so a completion (or a slave fault) the bus records in tick
    /// `c` is first seen in tick `c + 1`. The completion tick is
    /// therefore pure for everyone but the bus, and an owner may leap
    /// through it: the bus replays its own event inside
    /// [`SystemBus::advance`]. An owner that reads a port *after* the
    /// bus ticks (a CPU polling inside the same cycle) must keep the
    /// raw horizon instead.
    #[must_use]
    pub fn observed(bus_event: Horizon) -> Self {
        Self(bus_event.0.map(|k| k.saturating_add(1)))
    }

    /// This horizon as seen `ticks` ticks earlier: its event `ticks`
    /// ticks further away (saturating), quiescent still quiescent. A
    /// component that ends up, after `ticks` ticks of its own, where
    /// another's horizon applies answers it this way.
    #[must_use]
    pub fn later(self, ticks: u64) -> Self {
        Self(self.0.map(|k| k.saturating_add(ticks)))
    }

    /// The event's tick as an offset from now, `None` when quiescent.
    #[must_use]
    pub fn ticks(self) -> Option<u64> {
        self.0.map(NonZeroU64::get)
    }

    /// The cycle the clock reads once the event's tick has run, `None`
    /// when quiescent.
    #[must_use]
    pub fn at(self, now: Instant) -> Option<Instant> {
        self.ticks()
            .map(|k| Instant::new(now.count().saturating_add(k)))
    }

    /// The ticks a driver may leap before it steps the event: the pure
    /// ticks in front of it, at most `limit`, and `limit` when
    /// quiescent. 0 means step the next tick.
    #[must_use]
    pub fn leap_bound(self, limit: u64) -> u64 {
        self.ticks().map_or(limit, |k| (k - 1).min(limit))
    }
}

impl Ord for Horizon {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.0, other.0) {
            (Some(a), Some(b)) => a.cmp(&b),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        }
    }
}

impl PartialOrd for Horizon {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A transfer a bus master can issue inside a fast-forward window: its
/// burst's shape, and the window ticks before the one that issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowIssue {
    /// The issuing master.
    pub master: MasterId,
    /// The window ticks before the issue's own: 0 when the window's
    /// first tick issues, more when the master gets there through ticks
    /// of its own first, which only a window on an idle bus may hold.
    pub prefix: u64,
    /// The burst's kind, address and beats: all the bus times and
    /// checks it by, so a write needs none of the words the master
    /// reads only when it issues.
    pub shape: TxnShape,
}

/// One burst of a window's run, on the window's ticks (the first is
/// tick 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBurst {
    /// Its kind, address and beats: what the bus moves when it replays
    /// the burst in one step (see [`SystemBus::replay_run`]).
    pub shape: TxnShape,
    /// The tick its master issues it on.
    pub issue: u64,
    /// The tick of the bus's first event after the issue.
    pub event: u64,
    /// Whether that event is the burst's completion, which its master
    /// picks up on the tick after: so on a bus idle but for its polls,
    /// for a burst on a slave that never faults (see
    /// [`BusSlave::fault_free`](crate::bus::BusSlave::fault_free)).
    /// Otherwise it may be another master's completion, or a beat that
    /// may fault, and the run ends there.
    pub completes: bool,
    /// The tick on whose end the next read of the bus's installed
    /// [`Polls`](crate::bus::Polls) is requested, after the burst's
    /// event (0 without polls, or for one requested before the window):
    /// where the bus stands for the run's next burst.
    pub poll: u64,
}

/// Equal bursts of a master's run, as the master plans them: the first
/// one's shape, and `count` bursts of its kind and beats, each `stride`
/// bytes after the last. A master states a stretch of its program this
/// way once (see [`BusWindow::extend_run`]), so the bus times and
/// replays the stretch in one step instead of one burst at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strided {
    /// The first burst's kind, address and beats.
    pub shape: TxnShape,
    /// Bytes from one burst's address to the next's.
    pub stride: u32,
    /// The bursts, at least 1.
    pub count: u32,
}

impl Strided {
    /// One burst of `shape`.
    #[must_use]
    pub fn one(shape: TxnShape) -> Self {
        Self {
            shape,
            stride: 0,
            count: 1,
        }
    }

    /// The bursts after the first `n` of them, `n < count`.
    fn skip(self, n: u32) -> Self {
        debug_assert!(n < self.count, "a stride keeps a burst");
        Self {
            shape: TxnShape {
                addr: self.shape.addr + n * self.stride,
                ..self.shape
            },
            count: self.count - n,
            ..self
        }
    }
}

/// Equal bursts of a window's run, as the bus timed them: the first,
/// then `count − 1` more, each `stride` bytes and `period` ticks after
/// the last (see [`SystemBus::time_burst`]). Every burst completes
/// when the first does, and only a segment of one burst holds a poll's
/// phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSegment {
    /// The first burst, on the window's ticks.
    pub first: RunBurst,
    /// Bytes from one burst's address to the next's.
    pub stride: u32,
    /// Ticks from one burst's issue, and event, to the next's.
    pub period: u64,
    /// The bursts, at least 1.
    pub count: u32,
}

impl RunSegment {
    /// The segment of `first` alone.
    #[must_use]
    pub fn one(first: RunBurst) -> Self {
        Self {
            first,
            stride: 0,
            period: 0,
            count: 1,
        }
    }

    /// Its `j`-th burst, `j < count`.
    #[must_use]
    pub fn burst(&self, j: u32) -> RunBurst {
        debug_assert!(j < self.count, "burst {j} of a segment of {}", self.count);
        let ticks = u64::from(j) * self.period;
        RunBurst {
            shape: TxnShape {
                addr: self.first.shape.addr + j * self.stride,
                ..self.first.shape
            },
            issue: self.first.issue + ticks,
            event: self.first.event + ticks,
            ..self.first
        }
    }

    /// Its last burst.
    #[must_use]
    pub fn last(&self) -> RunBurst {
        self.burst(self.count - 1)
    }

    /// The `count` bursts from its `from`-th on.
    #[must_use]
    pub fn part(&self, from: u32, count: u32) -> Self {
        debug_assert!(
            count > 0 && from + count <= self.count,
            "a part of the segment"
        );
        Self {
            first: self.burst(from),
            count,
            ..*self
        }
    }

    /// How many of its bursts from the `from`-th on a leap of `n`
    /// ticks reaches whole: each whose event, its completion, is on
    /// tick `n` at the latest.
    fn reached(&self, from: u32, n: u64) -> u32 {
        let b = self.burst(from);
        if !b.completes || b.event > n {
            return 0;
        }
        let more = (n - b.event).checked_div(self.period).unwrap_or(u64::MAX);
        u32::try_from(more)
            .map_or(u32::MAX, |m| m.saturating_add(1))
            .min(self.count - from)
    }

    /// How many of its bursts a run draws before tick `limit`: the
    /// first, and each after a burst its master picks up (the tick
    /// after its completion) before `limit`.
    fn drawn(&self, limit: Horizon) -> u32 {
        let Some(l) = limit.ticks() else {
            return self.count;
        };
        // Burst `j` is picked up on tick `first.event + j·period + 1`.
        let more = l
            .checked_sub(self.first.event.saturating_add(2))
            .map_or(0, |slack| {
                slack
                    .checked_div(self.period)
                    .map_or(u64::MAX, |k| k.saturating_add(1))
            });
        u32::try_from(more)
            .map_or(u32::MAX, |m| m.saturating_add(1))
            .min(self.count)
    }
}

/// The masters one step of [`BusWindow::leap`] advances, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advancing {
    /// The run's issuer alone, over the ticks of one of its bursts:
    /// through its walk and its issue, which begins the burst on the
    /// bus.
    Issuer(MasterId),
    /// The run's issuer alone, over `segment`, later bursts of its run
    /// that the leap reaches whole, in one step: the issuer picks up
    /// the burst before them and hands every burst's words to the bus,
    /// which replays them with [`SystemBus::replay_run`]. Their ticks
    /// count from `origin`, the cycle the window starts on.
    Run {
        /// The issuer.
        master: MasterId,
        /// The cycle before the window's first tick.
        origin: Instant,
        /// The bursts, on the window's ticks.
        segment: RunSegment,
    },
    /// Every master but the run's issuer (if any), over the whole leap.
    AllBut(Option<MasterId>),
}

impl Advancing {
    /// Whether this step advances `master`.
    #[must_use]
    pub fn includes(self, master: MasterId) -> bool {
        match self {
            Advancing::Issuer(m) | Advancing::Run { master: m, .. } => m == master,
            Advancing::AllBut(issuer) => issuer != Some(master),
        }
    }
}

/// The bus side of one fast-forward window, worked out once by the
/// leap loop for every master on the bus: the bus's next event, and the
/// run of transfers the window issues, if any.
///
/// The rules that keep the window sound:
///
/// * at most one master issues in a window. Of the masters that can,
///   the one with the fewest ticks to go issues; if two tie, none does
///   (each candidate's own horizon ends the window before its issue,
///   so two first-tick issuers single-step);
/// * a window issues after ticks of its own (`prefix > 0`) only when
///   the leap loop allows chains and no master is requesting, so the bus
///   state the issue meets is the one it has now;
/// * the issuer's later bursts join its run (see
///   [`BusWindow::extend_run`]), as segments of equal bursts
///   ([`RunSegment`]), only on such an idle bus, where nothing but the
///   issuer (and the bus's installed polls, whose phase each burst
///   hands the next, [`RunBurst::poll`]) requests until the window
///   ends, and only after a burst whose event is its completion (see
///   [`RunBurst::completes`]), so the issuer picks it up on the tick
///   after;
/// * the bus must answer [`SystemBus::time_burst`] for every burst
///   of the run: a request it declines or would reject stays a stepped
///   event, and ends the run in front of it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusWindow {
    event: Horizon,
    /// The run's first burst, as a candidate and on the window's ticks.
    issue: Option<(WindowIssue, RunBurst)>,
    /// The run's later bursts, segment by segment.
    later: Vec<RunSegment>,
    chain: bool,
    chains: bool,
}

impl BusWindow {
    /// Plans the window on `bus`, with at most the first burst of its
    /// run. `candidates(chain)` lists the issues the masters can make
    /// inside it, each with the rest of its master's run, and may leave
    /// out those with a prefix when `chain` is false; `chains` says
    /// whether the leap loop lets a window chain an issue after ticks
    /// of its own at all. Returns the window and the rest of the
    /// issuer's run, for [`BusWindow::extend_run`].
    pub fn plan<I, R>(
        bus: &dyn SystemBus,
        chains: bool,
        candidates: impl FnOnce(bool) -> I,
    ) -> (Self, Option<R>)
    where
        I: IntoIterator<Item = (WindowIssue, R)>,
    {
        let event = bus.horizon();
        let chain = chains && event == Horizon::QUIESCENT;
        let mut first: Option<(WindowIssue, R)> = None;
        let mut tied = false;
        for (c, rest) in candidates(chain) {
            if c.prefix > 0 && !chain {
                continue;
            }
            match &first {
                Some((f, _)) if c.prefix > f.prefix => {}
                Some((f, _)) if c.prefix == f.prefix => tied = true,
                _ => {
                    first = Some((c, rest));
                    tied = false;
                }
            }
        }
        let issue = first.filter(|_| !tied);
        let timed = issue.and_then(|(i, rest)| {
            let one = Strided::one(i.shape);
            let first = bus.time_burst(i.master, one, i.prefix.saturating_add(1), 0, None)?;
            Some((i, first.first, rest))
        });
        match timed {
            Some((i, first, rest)) => {
                let window = Self {
                    event: Horizon::after(first.event - 1),
                    issue: Some((i, first)),
                    later: Vec::new(),
                    chain,
                    chains,
                };
                (window, Some(rest))
            }
            None => (
                Self {
                    event,
                    chains,
                    ..Self::default()
                },
                None,
            ),
        }
    }

    /// Adds the bursts of `later`, the rest of the issuer's run, in
    /// order, each issued `gap` ticks after the last one's completion.
    /// A burst joins only in a window that may chain (see
    /// [`BusWindow`]), after a burst that completes, and only if the
    /// bus answers [`SystemBus::time_burst`] for it, after the burst
    /// in front of it; the run ends at the first that does not. The
    /// bus times a stretch of `later` at once, all of it on a bus idle
    /// but for the issuer, so a run of equal bursts costs one call.
    /// Bursts join only while the run's last pickup comes before tick
    /// `limit`, the rest of the merged horizon: a leap never reaches
    /// past it, so the plan holds at most one burst it does not
    /// replay, and none when the first burst reaches it. The window's
    /// event becomes the last burst's.
    pub fn extend_run(
        &mut self,
        bus: &dyn SystemBus,
        limit: Horizon,
        gap: u64,
        later: impl IntoIterator<Item = Strided>,
    ) {
        let Some((issue, first)) = self.issue.filter(|_| self.chain) else {
            return;
        };
        // Whether a burst can follow `b` inside the window: the issuer
        // picks `b` up on the tick after its event, before `limit`.
        let continues = |b: &RunBurst| {
            b.completes && limit.ticks().is_none_or(|l| b.event.saturating_add(1) < l)
        };
        let mut last = self.later.last().map_or(first, RunSegment::last);
        if !continues(&last) {
            return;
        }
        'run: for mut bursts in later {
            loop {
                let at = last.event.saturating_add(gap + 1);
                let Some(timed) = bus.time_burst(issue.master, bursts, at, gap, Some(&last)) else {
                    break 'run;
                };
                let drawn = timed.drawn(limit);
                let joined = timed.part(0, drawn);
                last = joined.last();
                self.later.push(joined);
                if drawn < timed.count || !continues(&last) {
                    break 'run;
                }
                if drawn == bursts.count {
                    break;
                }
                bursts = bursts.skip(drawn);
            }
        }
        self.event = Horizon::after(last.event - 1);
    }

    /// The bus's next event, as an offset from now, with the window's
    /// run included: the run's last completion when it has one, and
    /// what every master waiting on the bus defers to.
    #[must_use]
    pub fn event(&self) -> Horizon {
        self.event
    }

    /// Whether the leap loop lets a master carry on through ticks of
    /// its own inside the window, past a change of what chaos dice it
    /// would roll (the `chains` of [`BusWindow::plan`]): off while chaos
    /// is armed. It covers only the crossings whose dice differ: chained
    /// issues follow it, and so do the controller's walks through a RAC
    /// start and an `end_op` retire, but not a walk whose dice stay the
    /// same (`Fetch`, `Decode`, a `wait`).
    #[must_use]
    pub fn chains(&self) -> bool {
        self.chains
    }

    /// The first burst of the window's run, if `master` issues it.
    #[must_use]
    pub fn issue_of(&self, master: MasterId) -> Option<&WindowIssue> {
        self.issue
            .as_ref()
            .map(|(i, _)| i)
            .filter(|i| i.master == master)
    }

    /// The window's run in segments, in order, if `master` issues it
    /// (else none): its first burst alone, then its later bursts.
    pub fn run_of(&self, master: MasterId) -> impl Iterator<Item = RunSegment> + '_ {
        let run = self.issue.as_ref().filter(|(i, _)| i.master == master);
        let later = run.map_or(&[][..], |_| &self.later[..]);
        run.map(|&(_, first)| RunSegment::one(first))
            .into_iter()
            .chain(later.iter().copied())
    }

    /// The master that issues in the window, if any.
    #[must_use]
    pub fn issuer(&self) -> Option<MasterId> {
        self.issue.as_ref().map(|(i, _)| i.master)
    }

    /// Leaps `bus` and the masters on it over the first `n` ticks of
    /// the window, which must not pass the window's event. `masters`
    /// advances the masters a step names (see [`Advancing`]) over the
    /// ticks it is given, from the cycle the step's first tick starts
    /// on, and may issue on the bus. That cycle is the bus's own only
    /// for the first step: the bus meets each issue on its cycle, so it
    /// may stand ahead of the issuer's first tick. Every master but the
    /// issuer advances first, over all `n` ticks: inside the window
    /// none of them touches the bus or the issuer's side of it.
    ///
    /// Then the run replays. The later bursts of a segment that the
    /// leap reaches whole, each of which completes, replay in one
    /// [`Advancing::Run`] step when the bus replays runs
    /// ([`SystemBus::replays_runs`]): the issuer moves each one's words
    /// and the bus charges them in closed form. Which bursts the leap
    /// reaches is arithmetic on the segment. The run's first burst, a
    /// burst the leap cuts, and every burst on a bus that does not
    /// replay runs (a traced one) replay alone, in the one order that
    /// puts the issue on its own cycle: the bus over the ticks before
    /// the issue, the issuer ([`Advancing::Issuer`]) through its issue
    /// and the burst, then the bus over the burst, so the issuer still
    /// sees it in flight on its last tick.
    pub fn leap<B: SystemBus + ?Sized>(
        &self,
        bus: &mut B,
        n: u64,
        mut masters: impl FnMut(&mut B, Advancing, Instant, u64),
    ) {
        let start = bus.now();
        masters(bus, Advancing::AllBut(self.issuer()), start, n);
        let Some((issue, first)) = &self.issue else {
            bus.advance(Cycle::new(n));
            return;
        };
        let master = issue.master;
        let bulk = bus.replays_runs();
        // The run's `i`-th segment: `first` alone, then `later[i - 1]`.
        let segment = |i: usize| {
            if i == 0 {
                Some(RunSegment::one(*first))
            } else {
                self.later.get(i - 1).copied()
            }
        };
        // The leap stands after burst `j` of segment `i`, on tick `done`.
        let (mut done, mut i, mut j) = (0, 0, 0);
        while done < n {
            let Some(s) = segment(i) else {
                break;
            };
            let whole = if bulk && i > 0 { s.reached(j, n) } else { 0 };
            if whole > 0 {
                let segment = s.part(j, whole);
                let end = segment.last().event;
                let step = Advancing::Run {
                    master,
                    origin: start,
                    segment,
                };
                masters(bus, step, start + Cycle::new(done), end - done);
                debug_assert_eq!(
                    bus.now(),
                    start + Cycle::new(end),
                    "a run step leaves the bus on its last completion"
                );
                done = end;
                j += whole;
            } else {
                let b = s.burst(j);
                let before = (b.issue - 1).min(n);
                bus.advance(Cycle::new(before - done));
                let end = b.event.min(n);
                masters(
                    bus,
                    Advancing::Issuer(master),
                    start + Cycle::new(done),
                    end - done,
                );
                debug_assert!(
                    end < b.issue || bus.horizon() == Horizon::after(b.event - b.issue),
                    "the issuer issues its run's burst on the tick planned for it"
                );
                bus.advance(Cycle::new(end - before));
                done = end;
                j += 1;
            }
            if j == s.count {
                (i, j) = (i + 1, 0);
            }
        }
        bus.advance(Cycle::new(n - done));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(n: u64) -> Horizon {
        Horizon::in_ticks(NonZeroU64::new(n).expect("a horizon is at least one tick"))
    }

    #[test]
    fn the_earlier_horizon_wins_and_quiescent_is_last() {
        assert_eq!(ticks(5).min(ticks(3)), ticks(3));
        assert_eq!(ticks(5).min(Horizon::QUIESCENT), ticks(5));
        assert_eq!(Horizon::QUIESCENT.min(ticks(7)), ticks(7));
        assert_eq!(
            Horizon::QUIESCENT.min(Horizon::QUIESCENT),
            Horizon::QUIESCENT
        );
        assert!(Horizon::NEXT_TICK < ticks(2) && ticks(u64::MAX) < Horizon::QUIESCENT);
        assert_eq!(Horizon::after(0), Horizon::NEXT_TICK);
        assert_eq!(Horizon::after(u64::MAX), ticks(u64::MAX));
    }

    #[test]
    fn each_firing_rule_lands_on_its_tick() {
        let now = Instant::new(10);
        // Pre-tick cycle reaches `at`: the tick starting at 12 is the third.
        assert_eq!(Horizon::starting_at(Instant::new(12), now), ticks(3));
        // Pre-tick cycle passes `at`: the tick starting at 13.
        assert_eq!(Horizon::starting_after(Instant::new(12), now), ticks(4));
        // Post-tick cycle reaches `at`: the tick ending at 12.
        assert_eq!(Horizon::ending_at(Instant::new(12), now), ticks(2));
        // Each rule on the tick that first satisfies it, by stepping.
        for at in 0..20 {
            let at = Instant::new(at);
            let first = |holds: &dyn Fn(u64, u64) -> bool| {
                (1..).find(|&k| holds(now.count() + k - 1, now.count() + k))
            };
            let due = |h: Horizon| h.ticks();
            assert_eq!(
                due(Horizon::starting_at(at, now)),
                first(&|pre, _| pre >= at.count())
            );
            assert_eq!(
                due(Horizon::starting_after(at, now)),
                first(&|pre, _| pre > at.count())
            );
            assert_eq!(
                due(Horizon::ending_at(at, now)),
                first(&|_, post| post >= at.count())
            );
        }
        // At the end of time every rule saturates instead of overflowing.
        let end = Instant::new(u64::MAX);
        for h in [
            Horizon::starting_at(end, now),
            Horizon::starting_after(end, now),
            Horizon::ending_at(end, now),
        ] {
            assert_eq!(h, ticks(u64::MAX - 10));
        }
        assert_eq!(Horizon::starting_after(end, end), Horizon::NEXT_TICK);
    }

    #[test]
    fn a_driver_leaps_the_pure_ticks_within_its_limit() {
        assert_eq!(Horizon::NEXT_TICK.leap_bound(100), 0);
        assert_eq!(ticks(7).leap_bound(100), 6);
        assert_eq!(ticks(7).leap_bound(4), 4);
        assert_eq!(Horizon::QUIESCENT.leap_bound(100), 100);
        let now = Instant::new(5);
        assert_eq!(ticks(7).at(now), Some(Instant::new(12)));
        assert_eq!(ticks(u64::MAX).at(now), Some(Instant::new(u64::MAX)));
        assert_eq!(Horizon::QUIESCENT.at(now), None);
        // Seen from earlier, an event is further away; never is never.
        assert_eq!(ticks(3).later(2), ticks(5));
        assert_eq!(Horizon::NEXT_TICK.later(0), Horizon::NEXT_TICK);
        assert_eq!(ticks(u64::MAX).later(1), ticks(u64::MAX));
        assert_eq!(Horizon::QUIESCENT.later(4), Horizon::QUIESCENT);
    }

    mod window {
        use super::super::*;
        use crate::axi::AxiBus;
        use crate::bus::{Bus, BusConfig, TxnRequest};
        use crate::memory::{Sram, SramConfig};

        /// An idle bus with three masters, a wait-free SRAM at 0 and a
        /// slave that may fault at [`MAY_FAULT`].
        fn bus() -> (Bus, [MasterId; 3]) {
            let mut bus = Bus::new(BusConfig::default());
            let ids = [(); 3].map(|()| bus.register_master());
            bus.add_slave(0, Sram::with_words(1024, SramConfig::no_wait()));
            bus.add_slave(MAY_FAULT, MayFault);
            (bus, ids)
        }

        const MAY_FAULT: u32 = 0x1_0000;

        /// A slave that reads zeros, but does not promise
        /// [`BusSlave::fault_free`](crate::bus::BusSlave::fault_free).
        struct MayFault;

        impl crate::bus::BusSlave for MayFault {
            fn name(&self) -> &str {
                "may-fault"
            }
            fn size(&self) -> u32 {
                64
            }
            fn read_word(&mut self, _: u32) -> Result<u32, crate::bus::SlaveFault> {
                Ok(0)
            }
            fn write_word(&mut self, _: u32, _: u32) -> Result<(), crate::bus::SlaveFault> {
                Ok(())
            }
        }

        /// The read of four words at 0x40 every test issues.
        fn shape() -> TxnShape {
            TxnRequest::read(0x40, 4).shape()
        }

        fn issue(master: MasterId, prefix: u64) -> WindowIssue {
            WindowIssue {
                master,
                prefix,
                shape: shape(),
            }
        }

        /// Grant, address and four beats.
        const ALONE: u64 = 6;

        /// Ticks from a completion to the next issue of a run: the
        /// master's pickup, `Fetch` and `Decode`.
        const GAP: u64 = 3;

        fn at(cycles: u64) -> Horizon {
            super::ticks(cycles)
        }

        /// A read of [`shape`] issued on tick `issue`, which completes
        /// on tick `event`.
        fn burst(issue: u64, event: u64) -> RunBurst {
            RunBurst {
                shape: shape(),
                issue,
                event,
                completes: true,
                poll: 0,
            }
        }

        /// The bursts of `w`'s run that `master` issues.
        fn bursts_of(w: &BusWindow, master: MasterId) -> Vec<RunBurst> {
            w.run_of(master)
                .flat_map(|s| (0..s.count).map(move |j| s.burst(j)))
                .collect()
        }

        /// The rest of a run: `n` more bursts of [`shape`], at its
        /// address.
        fn later(n: u32) -> impl Iterator<Item = Strided> {
            (n > 0)
                .then_some(Strided {
                    count: n,
                    ..Strided::one(shape())
                })
                .into_iter()
        }

        /// The candidates `issues`, each the whole of its run.
        fn lone(issues: Vec<WindowIssue>) -> Vec<(WindowIssue, [Strided; 0])> {
            issues.into_iter().map(|i| (i, [])).collect()
        }

        /// The window of `issues`, none of them with a run.
        fn plan(bus: &dyn SystemBus, chains: bool, issues: Vec<WindowIssue>) -> BusWindow {
            BusWindow::plan(bus, chains, |_| lone(issues)).0
        }

        /// The window of `first` on `bus`, with `n` more bursts of its
        /// run drawn up to `limit`.
        fn run(bus: &Bus, first: WindowIssue, n: u32, limit: Horizon) -> BusWindow {
            let (mut w, rest) = BusWindow::plan(bus, true, |_| [(first, later(n))]);
            w.extend_run(bus, limit, GAP, rest.expect("the bus answers"));
            w
        }

        #[test]
        fn runs_add_later_bursts_on_an_idle_bus_up_to_the_limit() {
            let (mut bus, [a, b, _]) = bus();
            let w = run(&bus, issue(a, 2), 2, Horizon::QUIESCENT);
            // Each later burst issues on the 4th tick after the last
            // completion: the master's pickup, `Fetch` and `Decode`
            // come first.
            let run3 = [
                burst(3, ALONE + 2),
                burst(ALONE + 6, 2 * ALONE + 5),
                burst(2 * ALONE + 9, 3 * ALONE + 8),
            ];
            assert_eq!(
                (bursts_of(&w, a), w.event()),
                (run3.to_vec(), at(3 * ALONE + 8))
            );
            // A leap ends before tick `limit`: bursts join only while
            // the run's end, seen the tick after its last completion,
            // comes before it.
            for (limit, len) in [
                (ALONE + 3, 1),
                (ALONE + 4, 2),
                (2 * ALONE + 6, 2),
                (2 * ALONE + 7, 3),
            ] {
                let w = run(&bus, issue(a, 2), 2, at(limit));
                assert_eq!(bursts_of(&w, a), &run3[..len], "limit {limit}");
                assert_eq!(w.event(), at(run3[len - 1].event));
            }
            // A burst the bus declines ends the run in front of it, and
            // the bursts after it are not drawn.
            let (mut w, _) = BusWindow::plan(&bus, true, |_| lone(vec![issue(a, 2)]));
            let unmapped = TxnRequest::read(0x10_0000, 4).shape();
            let mut drawn = 0;
            let bursts = [shape(), unmapped, shape()].map(Strided::one).into_iter();
            w.extend_run(
                &bus,
                Horizon::QUIESCENT,
                GAP,
                bursts.inspect(|_| drawn += 1),
            );
            assert_eq!((bursts_of(&w, a), drawn), (run3[..2].to_vec(), 2));
            // Chains off, or a master requesting: no later burst joins.
            let (mut w, rest) = BusWindow::plan(&bus, false, |_| [(issue(a, 0), later(2))]);
            w.extend_run(
                &bus,
                Horizon::QUIESCENT,
                GAP,
                rest.expect("the bus answers"),
            );
            assert_eq!(bursts_of(&w, a), [burst(1, ALONE)]);
            bus.try_begin(b, TxnRequest::read(0, 4)).unwrap();
            let w = run(&bus, issue(a, 0), 2, Horizon::QUIESCENT);
            assert_eq!(bursts_of(&w, a).len(), 1);
        }

        #[test]
        fn a_run_ends_at_a_burst_that_may_fault() {
            let (bus, [a, _, _]) = bus();
            // The bus's event for a burst over a slave that may fault is
            // its first beat (after grant and address), not its
            // completion: the run ends there, whether that burst is the
            // first or a later one.
            let risky = TxnRequest::read(MAY_FAULT, 4).shape();
            let first_beat = |issue| RunBurst {
                shape: risky,
                completes: false,
                ..burst(issue, issue + 2)
            };
            let w = run(
                &bus,
                WindowIssue {
                    shape: risky,
                    ..issue(a, 0)
                },
                2,
                Horizon::QUIESCENT,
            );
            assert_eq!((bursts_of(&w, a), w.event()), (vec![first_beat(1)], at(3)));
            let (mut w, _) = BusWindow::plan(&bus, true, |_| lone(vec![issue(a, 0)]));
            w.extend_run(
                &bus,
                Horizon::QUIESCENT,
                GAP,
                [risky, shape()].map(Strided::one),
            );
            let then = ALONE + GAP + 1;
            assert_eq!(
                (bursts_of(&w, a), w.event()),
                (vec![burst(1, ALONE), first_beat(then)], at(then + 2))
            );
            // On an idle bus, a burst's event is its completion only
            // on a slave that never faults; a bus that declines every
            // what-if times no burst.
            let completes = |shape| {
                let first = bus.time_burst(a, Strided::one(shape), 1, 0, None);
                first.map(|s| s.first.completes)
            };
            assert_eq!(
                (completes(shape()), completes(risky)),
                (Some(true), Some(false))
            );
            let mut axi = AxiBus::new();
            let m = axi.register_master();
            axi.add_slave_boxed(0, Box::new(Sram::with_words(64, SramConfig::no_wait())));
            assert_eq!(axi.time_burst(m, Strided::one(shape()), 1, 0, None), None);
        }

        /// Leaps a fresh bus of [`bus`], traced or not, over the first
        /// `n` ticks of `w`, `a`'s run of reads of [`shape`], as its
        /// issuer would: each step picks its last burst up, then an
        /// issuer step issues its burst if the leap reaches it, and a
        /// run step replays its bursts. Returns the bus and the steps,
        /// each with its ticks and the cycles the bus and its first tick
        /// start on.
        fn leap_run(w: &BusWindow, n: u64, traced: bool) -> (Bus, Vec<(Advancing, u64, u64, u64)>) {
            let (mut bus, [a, _, _]) = bus();
            if traced {
                bus.trace = crate::trace::Trace::enabled();
            }
            let run = bursts_of(w, a);
            let (mut steps, mut next) = (Vec::new(), 0);
            w.leap(&mut bus, n, |bus, who, from, ticks| {
                steps.push((who, ticks, bus.now().count(), from.count()));
                if who == Advancing::AllBut(Some(a)) {
                    return;
                }
                let _ = bus.take_completion(a);
                match who {
                    Advancing::Run {
                        origin, segment, ..
                    } => {
                        bus.replay_run(a, origin, segment, &mut |_, _| {});
                        next += segment.count as usize;
                    }
                    _ if run[next].issue <= n => {
                        bus.try_begin(a, TxnRequest::read(0x40, 4)).unwrap();
                        next += 1;
                    }
                    _ => {}
                }
            });
            (bus, steps)
        }

        #[test]
        fn a_leap_replays_the_run_s_whole_later_bursts_in_one_step() {
            let (bus0, [a, b, _]) = bus();
            let w = run(&bus0, issue(a, 2), 3, Horizon::QUIESCENT);
            let run = bursts_of(&w, a);
            for n in 1..=w.event().ticks().unwrap_or(0) {
                let (traced, steps) = leap_run(&w, n, true);
                let (bulk, bulk_steps) = leap_run(&w, n, false);
                // Both leave the bus as stepping would: on its cycle,
                // with the same statistics and the same completion.
                for bus in [&traced, &bulk] {
                    assert_eq!(bus.now().count(), n, "leap of {n}");
                }
                assert_eq!(bulk.stats(), traced.stats(), "leap of {n}");
                assert_eq!(bulk.master_stats(a), traced.master_stats(a));
                assert_eq!(bulk.peek_completion(a), traced.peek_completion(a));
                for steps in [&steps, &bulk_steps] {
                    assert_eq!(steps[0], (Advancing::AllBut(Some(a)), n, 0, 0));
                    let issuer = &steps[1..];
                    assert_eq!(issuer.iter().map(|s| s.1).sum::<u64>(), n, "leap of {n}");
                    // Each step starts where the last one ended.
                    let mut from = 0;
                    for step in issuer {
                        assert_eq!(step.3, from, "leap of {n}");
                        from += step.1;
                    }
                }
                // Traced: one step per burst whose ticks the leap
                // enters, and the bus meets each issue on its own cycle.
                let entered = (1 + run.iter().filter(|b| b.event < n).count()).min(run.len());
                assert_eq!(steps.len(), 1 + entered, "leap of {n}");
                for (step, b) in steps[1..].iter().zip(&run) {
                    assert_eq!(step.0, Advancing::Issuer(a));
                    assert_eq!(step.2, (b.issue - 1).min(n), "leap of {n}");
                }
                // Untraced: the first burst alone, the later bursts the
                // leap reaches whole in one run step, then the one it
                // cuts alone.
                let whole = run[1..].iter().filter(|b| b.event <= n).count();
                let mut expected = vec![Advancing::Issuer(a)];
                if whole > 0 {
                    let later = w.run_of(a).nth(1).expect("a segment of later bursts");
                    expected.push(Advancing::Run {
                        master: a,
                        origin: Instant::new(0),
                        segment: later.part(0, u32::try_from(whole).unwrap()),
                    });
                }
                if run[whole].event < n && whole + 1 < run.len() {
                    expected.push(Advancing::Issuer(a));
                }
                let kinds: Vec<_> = bulk_steps[1..].iter().map(|s| s.0).collect();
                assert_eq!(kinds, expected, "leap of {n}");
            }
            assert!(Advancing::AllBut(Some(a)).includes(b));
            assert!(!Advancing::AllBut(Some(a)).includes(a));
            assert!(Advancing::AllBut(None).includes(a));
            assert!(!Advancing::Issuer(a).includes(b));
            let step = Advancing::Run {
                master: a,
                origin: Instant::new(0),
                segment: RunSegment::one(run[0]),
            };
            assert!(step.includes(a) && !step.includes(b));
        }

        #[test]
        fn one_issue_per_window_the_earliest_and_never_a_tie() {
            let (bus, [a, b, c]) = bus();
            let plan = |issues| plan(&bus, true, issues);
            let none = plan(vec![]);
            assert_eq!((none.issuer(), none.event()), (None, Horizon::QUIESCENT));
            assert!(none.chains() && !BusWindow::default().chains());
            let w = plan(vec![issue(a, 3), issue(b, 0)]);
            assert_eq!((w.issuer(), w.event()), (Some(b), at(ALONE)));
            assert_eq!(bursts_of(&w, b), [burst(1, ALONE)]);
            assert_eq!(bursts_of(&w, a), []);
            let w = plan(vec![issue(a, 3), issue(b, 1), issue(c, 3)]);
            assert_eq!((w.issuer(), w.event()), (Some(b), at(ALONE + 1)));
            assert!(w.issue_of(b).is_some() && w.issue_of(a).is_none());
            // Two first-tick issuers, or two chains reaching their
            // issue together: neither issues inside the window.
            assert_eq!(plan(vec![issue(a, 0), issue(c, 0)]).issuer(), None);
            assert_eq!(plan(vec![issue(a, 3), issue(c, 3)]).issuer(), None);
            assert_eq!(
                plan(vec![issue(a, 3), issue(c, 3), issue(b, 4)]).issuer(),
                None
            );
        }

        #[test]
        fn chains_need_an_idle_bus_and_the_loops_leave() {
            let (mut bus, [a, b, _]) = bus();
            let (w, _) = BusWindow::plan(&bus, true, |chain| {
                assert!(chain, "an idle bus chains");
                lone(vec![issue(a, 3)])
            });
            assert_eq!(w.event(), at(ALONE + 3));
            assert_eq!(bursts_of(&w, a), [burst(4, ALONE + 3)]);
            // Chaos armed: chains are left out.
            let (w, _) = BusWindow::plan(&bus, false, |chain| {
                assert!(!chain);
                lone(vec![issue(a, 3)])
            });
            assert_eq!((w.issuer(), w.chains()), (None, false));
            // A master requesting: chains are left out, first-tick
            // issues still count the requester ahead of them.
            bus.try_begin(b, TxnRequest::read(0, 4)).unwrap();
            let (w, _) = BusWindow::plan(&bus, true, |chain| {
                assert!(!chain, "a busy bus does not chain");
                lone(vec![issue(a, 3)])
            });
            assert_eq!((w.issuer(), w.event()), (None, bus.horizon()));
            let w = plan(&bus, true, vec![issue(a, 0)]);
            assert_eq!(w.issuer(), Some(a));
            let alone = bus.time_burst(a, Strided::one(issue(a, 0).shape), 1, 0, None);
            assert_eq!(
                Some(w.event()),
                alone.map(|s| Horizon::after(s.first.event - 1))
            );
            assert_eq!(w.event(), at(ALONE));
        }

        #[test]
        fn a_request_the_bus_rejects_or_declines_stays_an_event() {
            let (bus, [a, _, _]) = bus();
            let unmapped = WindowIssue {
                shape: TxnRequest::read(0x10_0000, 4).shape(),
                ..issue(a, 0)
            };
            assert_eq!(plan(&bus, true, vec![unmapped]).issuer(), None);
            let mut axi = AxiBus::new();
            let m = axi.register_master();
            axi.add_slave_boxed(0, Box::new(Sram::with_words(64, SramConfig::no_wait())));
            assert_eq!(plan(&axi, true, vec![issue(m, 0)]).issuer(), None);
        }
    }

    #[test]
    fn a_bus_event_is_observed_on_the_next_tick() {
        assert_eq!(Horizon::observed(Horizon::NEXT_TICK), ticks(2));
        assert_eq!(Horizon::observed(ticks(9)), ticks(10));
        assert_eq!(Horizon::observed(ticks(u64::MAX)), ticks(u64::MAX));
        assert_eq!(Horizon::observed(Horizon::QUIESCENT), Horizon::QUIESCENT);
    }
}
