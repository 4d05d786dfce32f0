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
//! OCP layers state the same contract through their own
//! `horizon`/`advance` methods (the `Rac` trait's, then inherent ones
//! on `RacSocket`, `Controller` and `Ocp`), because their horizons
//! depend on the socket and the bus around them. Each layer states a
//! pure window once: a controller waiting on its RAC defers to the
//! socket's countdown rather than keeping a second one.
//!
//! # Contract
//!
//! For a component whose per-cycle behaviour is `tick()`:
//!
//! * `horizon()` returns the earliest *future* cycle, as an
//!   offset from now, at which the component's observable state can
//!   change. `Some(k)` (with `k ≥ 1`) means the next `k - 1` ticks are
//!   **pure**: nothing another component can observe changes before
//!   tick `k`, which is the first that may (retire an FSM state,
//!   complete a bus transaction, raise an interrupt …). A pure tick may
//!   still change the component's own state — counters, countdowns,
//!   even data a bus burst moves between a master's transaction and a
//!   slave — as long as no other component can read it before tick `k`.
//!   `Some(1)` is always a safe answer for a busy component — it simply
//!   forces the driver to single-step. `None` means the component is
//!   quiescent: no number of ticks will ever change its observable
//!   state (it still tolerates `advance`, which must
//!   replay idle ticks).
//! * `advance(n)` replays `n` ticks exactly, under the
//!   promise that all of them are pure, i.e. `n ≤ horizon() - 1` (or
//!   the component is quiescent). After `advance(n)` the component must
//!   be **bit-identical** to the state after `n` real `tick()` calls —
//!   including cycle counters, utilization statistics, countdowns and
//!   any data moved — so that a fast-forwarded run and a cycle-by-cycle
//!   run can never be told apart. Countdowns replay in O(1); work that
//!   moves data (a bus burst's beats) is replayed in bulk, skipping only
//!   the per-tick overhead.
//!
//! A driver combines horizons with [`min_horizon`] (treating `None` as
//! +∞), leaps `min - 1` cycles with `advance`, then executes the event
//! cycle with a real `tick()`. Components may *underestimate* their
//! horizon (costing speed, never correctness); they must never
//! overestimate it.
//!
//! One rule refines this for the bus: nothing observes a bus event on
//! the tick it happens. Masters tick before the bus and read their
//! ports in their own tick, so a bus's owner merges its horizon through
//! [`observed_horizon`] (one tick later) and leaps *through* the bus's
//! event tick; a bus's `advance` accepts `n ≤ horizon()` for that.
//!
//! A window may also hold one master's *issue* (see [`BusWindow`]):
//! the leap loop works out the bus's horizon with that burst added
//! ([`SystemBus::horizon_with`], given its [`TxnShape`]), then
//! [`BusWindow::leap`] advances the bus over the ticks before the
//! issue, the masters (the issuer issues in its own `advance`), then
//! the bus over the rest of the window.

use crate::axi::SystemBus;
use crate::bus::{MasterId, TxnShape};
use crate::clock::Cycle;

/// Combines two horizons, treating `None` as "never" (+∞).
///
/// The result is the earlier of the two events: the horizon a driver
/// must respect when it owns both components.
#[must_use]
pub fn min_horizon(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// The first tick at which an owner that ticks *before* the bus can
/// observe the bus event at `bus_event` (the bus's
/// [`SystemBus::horizon`]): the tick
/// after it.
///
/// A master reads its port in its own tick, which runs before the
/// bus's, so a completion (or a slave fault) the bus records in tick
/// `c` is first seen in tick `c + 1`. The completion tick is therefore
/// pure for everyone but the bus, and an owner may leap through it:
/// the bus replays its own event inside
/// [`SystemBus::advance`]. An
/// owner that reads a port *after* the bus ticks (a CPU polling
/// inside the same cycle) must keep the raw horizon instead.
#[must_use]
pub fn observed_horizon(bus_event: Option<Cycle>) -> Option<Cycle> {
    bus_event.map(|c| c + Cycle::new(1))
}

/// A transfer a bus master can issue inside a fast-forward window: its
/// burst's shape, and the window ticks before the one that issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowIssue {
    /// The issuing master.
    pub master: MasterId,
    /// Window ticks before the issue's own: 0 when the window's first
    /// tick issues, more when the master gets there through ticks of
    /// its own first (which only a window on an idle bus may hold).
    pub prefix: u64,
    /// The burst's kind, address and beats: all the bus times and
    /// checks it by, so a write needs none of the words the master
    /// reads only when it issues.
    pub shape: TxnShape,
}

/// The bus side of one fast-forward window, worked out once by the
/// leap loop for every master on the bus: the bus's next event, and the
/// one transfer the window issues, if any.
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
/// * the bus must answer [`SystemBus::horizon_with`]: a request it
///   declines or would reject stays a stepped event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusWindow {
    event: Option<Cycle>,
    issue: Option<WindowIssue>,
}

impl BusWindow {
    /// Plans the window on `bus`. `candidates(chain)` lists the issues
    /// the masters can make inside it, and may leave out those with a
    /// prefix when `chain` is false; `chains` says whether the leap loop
    /// lets a window chain an issue after ticks of its own at all.
    pub fn plan<I>(bus: &dyn SystemBus, chains: bool, candidates: impl FnOnce(bool) -> I) -> Self
    where
        I: IntoIterator<Item = WindowIssue>,
    {
        let event = bus.horizon();
        let chain = chains && event.is_none();
        let mut first: Option<WindowIssue> = None;
        let mut tied = false;
        for c in candidates(chain) {
            if c.prefix > 0 && !chain {
                continue;
            }
            match &first {
                Some(f) if c.prefix > f.prefix => {}
                Some(f) if c.prefix == f.prefix => tied = true,
                _ => {
                    first = Some(c);
                    tied = false;
                }
            }
        }
        let issue = first.filter(|_| !tied);
        match issue.and_then(|i| bus.horizon_with(i.master, i.shape).map(|h| (i, h))) {
            Some((i, h)) => Self {
                event: Some(h + Cycle::new(i.prefix)),
                issue: Some(i),
            },
            None => Self { event, issue: None },
        }
    }

    /// The bus's next event, as an offset from now, with the window's
    /// issue included: what every master waiting on the bus defers to.
    #[must_use]
    pub fn event(&self) -> Option<Cycle> {
        self.event
    }

    /// The window's issue, if `master` makes it.
    #[must_use]
    pub fn issue_of(&self, master: MasterId) -> Option<&WindowIssue> {
        self.issue.as_ref().filter(|i| i.master == master)
    }

    /// The master that issues in the window, if any.
    #[must_use]
    pub fn issuer(&self) -> Option<MasterId> {
        self.issue.as_ref().map(|i| i.master)
    }

    /// Leaps `bus` and the masters on it over the first `n` ticks of
    /// the window, in the one order that puts the window's issue on its
    /// own cycle: the bus over the ticks before the issue, then
    /// `masters`, which advance over all `n` ticks and may issue on the
    /// bus, then the bus over the rest.
    pub fn leap<B: SystemBus + ?Sized>(&self, bus: &mut B, n: u64, masters: impl FnOnce(&mut B)) {
        let prefix = self.bus_prefix(n);
        bus.advance(Cycle::new(prefix));
        masters(bus);
        bus.advance(Cycle::new(n - prefix));
    }

    /// Ticks the bus leaps before the masters advance over the window,
    /// so that the issue meets the bus on its own cycle: the issue's
    /// prefix, capped at the window's `leap`.
    fn bus_prefix(&self, leap: u64) -> u64 {
        self.issue.as_ref().map_or(0, |i| i.prefix.min(leap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_horizon_treats_none_as_infinity() {
        let c = |n| Some(Cycle::new(n));
        assert_eq!(min_horizon(c(5), c(3)), c(3));
        assert_eq!(min_horizon(c(5), None), c(5));
        assert_eq!(min_horizon(None, c(7)), c(7));
        assert_eq!(min_horizon(None, None), None);
    }

    mod window {
        use super::super::*;
        use crate::axi::{AxiBus, AxiConfig};
        use crate::bus::{Bus, BusConfig, TxnRequest};
        use crate::memory::{Sram, SramConfig};

        /// An idle bus with three masters and a wait-free SRAM at 0.
        fn bus() -> (Bus, [MasterId; 3]) {
            let mut bus = Bus::new(BusConfig::default());
            let ids = ["a", "b", "c"].map(|n| bus.register_master(n));
            bus.add_slave(0, Sram::with_words(1024, SramConfig::no_wait()));
            (bus, ids)
        }

        fn issue(master: MasterId, prefix: u64) -> WindowIssue {
            WindowIssue {
                master,
                prefix,
                shape: TxnRequest::read(0x40, 4).shape(),
            }
        }

        /// Grant, address and four beats.
        const ALONE: u64 = 6;

        fn at(cycles: u64) -> Option<Cycle> {
            Some(Cycle::new(cycles))
        }

        #[test]
        fn one_issue_per_window_the_earliest_and_never_a_tie() {
            let (bus, [a, b, c]) = bus();
            let plan = |issues: Vec<WindowIssue>| BusWindow::plan(&bus, true, |_| issues);
            assert_eq!(plan(vec![]), BusWindow::default());
            let w = plan(vec![issue(a, 3), issue(b, 0)]);
            assert_eq!((w.issuer(), w.event()), (Some(b), at(ALONE)));
            assert_eq!(w.bus_prefix(100), 0);
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
            let w = BusWindow::plan(&bus, true, |chain| {
                assert!(chain, "an idle bus chains");
                vec![issue(a, 3)]
            });
            assert_eq!(w.event(), at(ALONE + 3));
            assert_eq!((w.bus_prefix(100), w.bus_prefix(2)), (3, 2));
            // Chaos armed: chains are left out.
            let w = BusWindow::plan(&bus, false, |chain| {
                assert!(!chain);
                vec![issue(a, 3)]
            });
            assert_eq!(w, BusWindow::default());
            // A master requesting: chains are left out, first-tick
            // issues still count the requester ahead of them.
            bus.try_begin(b, TxnRequest::read(0, 4)).unwrap();
            let w = BusWindow::plan(&bus, true, |chain| {
                assert!(!chain, "a busy bus does not chain");
                vec![issue(a, 3)]
            });
            assert_eq!((w.issuer(), w.event()), (None, bus.horizon()));
            let w = BusWindow::plan(&bus, true, |_| vec![issue(a, 0)]);
            assert_eq!(w.issuer(), Some(a));
            assert_eq!(w.event(), bus.horizon_with(a, issue(a, 0).shape));
            assert_eq!(w.event(), at(ALONE));
        }

        #[test]
        fn a_request_the_bus_rejects_or_declines_stays_an_event() {
            let (bus, [a, _, _]) = bus();
            let unmapped = WindowIssue {
                shape: TxnRequest::read(0x10_0000, 4).shape(),
                ..issue(a, 0)
            };
            assert_eq!(
                BusWindow::plan(&bus, true, |_| vec![unmapped]),
                BusWindow::default()
            );
            let mut axi = AxiBus::new(AxiConfig::default());
            let m = axi.register_master("m");
            axi.add_slave_boxed(0, Box::new(Sram::with_words(64, SramConfig::no_wait())));
            assert_eq!(
                BusWindow::plan(&axi, true, |_| vec![issue(m, 0)]),
                BusWindow::default()
            );
        }
    }

    #[test]
    fn a_bus_event_is_observed_on_the_next_tick() {
        assert_eq!(observed_horizon(Some(Cycle::new(1))), Some(Cycle::new(2)));
        assert_eq!(observed_horizon(Some(Cycle::new(9))), Some(Cycle::new(10)));
        assert_eq!(observed_horizon(None), None);
    }
}
