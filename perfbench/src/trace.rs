//! Host-time spans around the benchmark's calls into the program, kept
//! in memory and exported as Chrome trace-event JSON (opens in
//! Perfetto) together with per-job simulated-time spans.

use std::fmt::Write as _;
use std::time::Instant;

use ouessant_farm::JobRecord;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Host ns since the tracer started.
    pub start_ns: u64,
    /// Host ns since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one batch or pass.
    pub group: u64,
    /// Public counters read when the span closed.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Host duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. While off, `enter` and `exit` only test a flag.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder, off until [`Tracer::set_enabled`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, group: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            group,
            counters: Vec::new(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, attaching `counters`.
    pub fn exit(&mut self, open: Open, counters: &[(&'static str, u64)]) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans close innermost first");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.counters.extend_from_slice(counters);
    }

    /// Every closed span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The closed spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration in µs of the spans called `name` (0 if none).
    #[must_use]
    pub fn mean_us(&self, name: &str) -> f64 {
        let (count, total) = self
            .named(name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration_ns()));
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64 / 1e3
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Chrome trace-event JSON: the host spans on process 1, and per-job
/// simulated-time segments on process 2, one thread per worker
/// (timestamps there are simulated cycles, shown as µs). Service is a
/// complete event on the worker's track; queue waits overlap, so they
/// are async slices keyed by job id.
#[must_use]
pub fn chrome_trace(spans: &[Span], jobs: &[JobRecord], worker_names: &[String]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let mut events: Vec<String> = Vec::new();
    events.push(meta("process_name", 1, 0, "host (benchmark calls)"));
    for (i, span) in spans.iter().enumerate() {
        let mut args = format!("\"id\": {}, \"span\": {i}", span.group);
        if let Some(parent) = span.parent {
            write!(args, ", \"parent\": {parent}").expect("writing to a String");
        }
        for (key, value) in &span.counters {
            write!(args, ", \"{key}\": {value}").expect("writing to a String");
        }
        events.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3
        ));
    }
    if !jobs.is_empty() {
        events.push(meta("process_name", 2, 0, "simulated cycles (per worker)"));
        for (tid, name) in worker_names.iter().enumerate() {
            events.push(meta("thread_name", 2, tid, name));
        }
    }
    for job in jobs {
        let args = format!(
            "\"job\": {}, \"kind\": \"{}\", \"outcome\": \"{:?}\"",
            job.id.0, job.kind, job.outcome
        );
        let name = format!("{} {}", job.kind, job.id);
        let wait_end = if job.outcome.is_completed() {
            job.started_at
        } else {
            job.completed_at
        };
        events.push(format!(
            "{{\"name\": \"queue-wait\", \"cat\": \"queue\", \"ph\": \"b\", \"id\": {id}, \"pid\": 2, \"tid\": {tid}, \"ts\": {}, \"args\": {{{args}}}}}",
            job.submitted_at,
            id = job.id.0,
            tid = job.worker
        ));
        events.push(format!(
            "{{\"name\": \"queue-wait\", \"cat\": \"queue\", \"ph\": \"e\", \"id\": {id}, \"pid\": 2, \"tid\": {tid}, \"ts\": {wait_end}}}",
            id = job.id.0,
            tid = job.worker
        ));
        if job.outcome.is_completed() {
            events.push(format!(
                "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 2, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{{args}}}}}",
                job.worker,
                job.started_at,
                job.service_cycles()
            ));
        }
    }
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn meta(kind: &str, pid: u32, tid: usize, name: &str) -> String {
    format!("{{\"name\": \"{kind}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \"{name}\"}}}}")
}
