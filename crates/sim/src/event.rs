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
//! [`SystemBus`](crate::axi::SystemBus): its
//! [`horizon`](crate::axi::SystemBus::horizon) and
//! [`advance`](crate::axi::SystemBus::advance), which `Bus` and
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
/// [`SystemBus::horizon`](crate::axi::SystemBus::horizon)): the tick
/// after it.
///
/// A master reads its port in its own tick, which runs before the
/// bus's, so a completion (or a slave fault) the bus records in tick
/// `c` is first seen in tick `c + 1`. The completion tick is therefore
/// pure for everyone but the bus, and an owner may leap through it:
/// the bus replays its own event inside
/// [`SystemBus::advance`](crate::axi::SystemBus::advance). An
/// owner that reads a port *after* the bus ticks (a CPU polling
/// inside the same cycle) must keep the raw horizon instead.
#[must_use]
pub fn observed_horizon(bus_event: Option<Cycle>) -> Option<Cycle> {
    bus_event.map(|c| c + Cycle::new(1))
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

    #[test]
    fn a_bus_event_is_observed_on_the_next_tick() {
        assert_eq!(observed_horizon(Some(Cycle::new(1))), Some(Cycle::new(2)));
        assert_eq!(observed_horizon(Some(Cycle::new(9))), Some(Cycle::new(10)));
        assert_eq!(observed_horizon(None), None);
    }
}
