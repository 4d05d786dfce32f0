//! The bus's event record.
//!
//! Tracing is off by default, and off costs one flag test per event.
//! When on, [`Bus`](crate::bus::Bus) records every request, grant,
//! sub-burst end, completion and fault as a [`TraceEvent`] that tests
//! and debugging sessions can inspect, much like a simulation waveform.

use crate::bus::{MasterId, TxnShape};
use crate::clock::Instant;

/// What happened on the bus.
///
/// A completion or a fault carries nothing of its own: its burst is the
/// master's last [`BusEvent::Request`], and the port's
/// [`Completion`](crate::bus::Completion) holds the kind, beats and
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusEvent {
    /// The bus accepted a request of this shape.
    Request(TxnShape),
    /// The arbiter granted the bus.
    Grant,
    /// A sub-burst ended with beats of its transaction still to move.
    SubBurstEnd,
    /// The transaction's last beat moved.
    Complete,
    /// The slave faulted a beat, ending the transaction.
    Fault,
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub cycle: Instant,
    /// The master it concerns.
    pub master: MasterId,
    /// What happened.
    pub what: BusEvent,
}

/// An on/off record of [`TraceEvent`]s.
///
/// # Examples
///
/// ```
/// use ouessant_sim::bus::{Bus, BusConfig, TxnRequest};
/// use ouessant_sim::memory::{Sram, SramConfig};
/// use ouessant_sim::{BusEvent, SystemBus, Trace};
///
/// let mut bus = Bus::new(BusConfig::default());
/// bus.trace = Trace::enabled();
/// let cpu = bus.register_master();
/// bus.add_slave(0, Sram::with_words(16, SramConfig::no_wait()));
/// bus.try_begin(cpu, TxnRequest::read(0, 1)).unwrap();
/// bus.tick();
/// let what: Vec<BusEvent> = bus.trace.events().iter().map(|e| e.what).collect();
/// assert!(matches!(what[..], [BusEvent::Request(_), BusEvent::Grant]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A disabled trace ([`Trace::record`] is a no-op).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled trace, which keeps every event.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, cycle: Instant, master: MasterId, what: BusEvent) {
        if self.enabled {
            self.events.push(TraceEvent {
                cycle,
                master,
                what,
            });
        }
    }

    /// The recorded events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(Instant::new(1), MasterId::from_index(0), BusEvent::Grant);
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }
}
