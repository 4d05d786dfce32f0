//! Lightweight event tracing shared by all simulated components.
//!
//! Tracing is off by default (zero allocation per event); when enabled it
//! records a bounded ring of [`TraceEvent`]s that tests and debugging
//! sessions can inspect, similar to reading a simulation waveform.

use std::collections::VecDeque;
use std::fmt;

use crate::clock::Instant;

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub cycle: Instant,
    /// Component that emitted it (e.g. `"bus"`, `"ocp.controller"`).
    pub source: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] {:<16} {}",
            self.cycle.count(),
            self.source,
            self.message
        )
    }
}

/// A bounded trace buffer.
///
/// # Examples
///
/// ```
/// use ouessant_sim::{Instant, Trace};
///
/// let mut trace = Trace::enabled(16);
/// trace.record(Instant::new(3), "bus", "grant to master 1");
/// assert_eq!(trace.events().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    limit: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// A disabled trace ([`Trace::record`] is a no-op).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled trace keeping the most recent `limit` events.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    #[must_use]
    pub fn enabled(limit: usize) -> Self {
        assert!(limit > 0, "trace limit must be non-zero");
        Self {
            enabled: true,
            limit,
            events: VecDeque::with_capacity(limit.min(4096)),
            dropped: 0,
        }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled). The oldest event is
    /// dropped once the limit is reached.
    pub fn record(&mut self, cycle: Instant, source: &str, message: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.limit {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            cycle,
            source: source.to_string(),
            message: message.into(),
        });
    }

    /// The recorded events, oldest first.
    #[must_use]
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Number of events evicted due to the ring limit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events whose source starts with `prefix`.
    pub fn from_source<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.source.starts_with(prefix))
    }

    /// Clears all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(Instant::new(1), "x", "hello");
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_and_evicts() {
        let mut t = Trace::enabled(2);
        t.record(Instant::new(1), "a", "one");
        t.record(Instant::new(2), "a", "two");
        t.record(Instant::new(3), "b", "three");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.events()[0].message, "two");
    }

    #[test]
    fn source_filter() {
        let mut t = Trace::enabled(8);
        t.record(Instant::new(1), "bus", "grant");
        t.record(Instant::new(2), "ocp.controller", "fetch");
        t.record(Instant::new(3), "ocp.interface", "xlate");
        assert_eq!(t.from_source("ocp").count(), 2);
        assert_eq!(t.from_source("bus").count(), 1);
    }

    #[test]
    fn display_format() {
        let e = TraceEvent {
            cycle: Instant::new(7),
            source: "bus".into(),
            message: "grant".into(),
        };
        let s = e.to_string();
        assert!(s.contains('7'));
        assert!(s.contains("bus"));
        assert!(s.contains("grant"));
    }

    #[test]
    fn clear_resets() {
        let mut t = Trace::enabled(1);
        t.record(Instant::new(1), "a", "x");
        t.record(Instant::new(2), "a", "y");
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
