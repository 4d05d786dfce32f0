//! Differential test of transaction-level fast-forward on the AHB-like
//! bus.
//!
//! Twin buses replay the same seeded traffic: one is ticked every
//! cycle, the other leaps `horizon − 1` cycles with
//! [`Bus::advance`] and then ticks, and a third leaps *through* each
//! event (`horizon` cycles, as an owner that observes the bus a tick
//! later does), so a lone requester's whole transaction runs in one
//! closed-form step. At every completion all must agree on the
//! completion itself (data, `issued_at`, `completed_at`), the aggregate
//! [`BusStats`] and every master's [`MasterStats`]; at the end, the
//! memory contents must match too. Every scenario runs twice: with the
//! [`Trace`] on, where the typed [`TraceEvent`]s (every request, grant,
//! sub-burst end, completion and fault, with its cycle and master) must
//! match as well and the leaps step every cycle in bulk, and with it
//! off, which is where the closed form runs. The traced, ticked twin's
//! events are also checked against the bus's other records: the
//! grants counted in [`MasterStats`] and the completions observed.
//!
//! The twins alone show only that a leap never passes an event. So on
//! scenarios without the faulting slave, where every event is a
//! completion, a leap of the whole horizon that no issue cuts short
//! must also leave a port `Complete`: at once in the twin that leaps
//! through the event, and after the event tick in the twin that leaps
//! up to it. A horizon that comes too early fails that.
//!
//! Every issue of either twin also checks the issue what-if against the
//! bus itself: [`SystemBus::time_burst`]'s event for an issue on the
//! window's first tick, before [`Bus::try_begin`], must equal
//! [`Bus::horizon`] right after it (and be `None` for a request the bus
//! rejects), and on an idle bus the what-if taken ahead of the issue,
//! any number of idle cycles before, must not change.

use std::num::NonZeroU64;

use ouessant_sim::bus::{
    Bus, BusConfig, BusError, BusSlave, BusStats, Completion, MasterId, MasterStats, Polls,
    PortState, SlaveFault, TxnKind, TxnRequest, TxnShape,
};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::{
    Advancing, BusEvent, BusWindow, Cycle, Horizon, Instant, Strided, SystemBus, Trace, TraceEvent,
    WindowIssue, XorShift64,
};

const SRAM_BASE: u32 = 0x4000_0000;
const SRAM_WORDS: u32 = 4096;
const FLAKY_BASE: u32 = 0x9000_0000;
const FLAKY_WORDS: u32 = 512;
/// Word offsets at and beyond this fault on the flaky slave.
const FLAKY_LIMIT: u32 = 256;

/// A slave that faults on part of its window, so the bus must stop
/// every leap at its beats (the default `fault_free() == false`).
struct Flaky {
    words: Vec<u32>,
}

impl BusSlave for Flaky {
    fn name(&self) -> &str {
        "flaky"
    }
    fn size(&self) -> u32 {
        FLAKY_WORDS * 4
    }
    fn read_word(&mut self, offset: u32) -> Result<u32, SlaveFault> {
        let i = offset / 4;
        if i >= FLAKY_LIMIT {
            return Err(SlaveFault {
                reason: format!("word {i} not implemented"),
            });
        }
        Ok(self.words[i as usize])
    }
    fn write_word(&mut self, offset: u32, value: u32) -> Result<(), SlaveFault> {
        let i = offset / 4;
        if i >= FLAKY_LIMIT {
            return Err(SlaveFault {
                reason: format!("word {i} not implemented"),
            });
        }
        self.words[i as usize] = value;
        Ok(())
    }
    fn first_access_wait_states(&self) -> u32 {
        2
    }
}

/// One master's scripted transaction: issued `delay` cycles after the
/// master's previous completion was taken (or after cycle 0).
#[derive(Clone)]
struct Step {
    delay: u64,
    req: TxnRequest,
}

#[derive(Clone)]
struct Scenario {
    config: BusConfig,
    sram: SramConfig,
    with_flaky: bool,
    scripts: Vec<Vec<Step>>,
}

/// What the harness observes at a completion.
#[derive(Debug, PartialEq)]
struct Observation {
    now: u64,
    master: usize,
    completion: Result<Completion, BusError>,
    bus: BusStats,
    masters: Vec<MasterStats>,
}

/// Scripts for `masters` masters: up to `txns` transactions each, of
/// `beats` beats, `delay` cycles apart, a quarter of them on the flaky
/// slave when it is mapped.
fn scripts(
    rng: &mut XorShift64,
    masters: usize,
    txns: u32,
    beats: std::ops::Range<u32>,
    delay: u64,
    with_flaky: bool,
) -> Vec<Vec<Step>> {
    (0..masters)
        .map(|_| {
            (0..1 + rng.gen_range_u32(0..txns))
                .map(|_| {
                    let delay = rng.gen_range_u64(0..delay);
                    let flaky = with_flaky && rng.gen_range_u32(0..4) == 0;
                    let (base, words) = if flaky {
                        (FLAKY_BASE, FLAKY_WORDS)
                    } else {
                        (SRAM_BASE, SRAM_WORDS)
                    };
                    let beats = rng.gen_range_u32(beats.clone());
                    let start = rng.gen_range_u32(0..words - beats + 1);
                    let addr = base + start * 4;
                    let req = if rng.gen_bool() {
                        TxnRequest::read(addr, beats as u16)
                    } else {
                        TxnRequest::write(addr, rng.vec_u32(beats as usize))
                    };
                    Step { delay, req }
                })
                .collect()
        })
        .collect()
}

fn wait_states(rng: &mut XorShift64) -> SramConfig {
    SramConfig {
        first_access_wait_states: rng.gen_range_u32(0..8),
        sequential_wait_states: rng.gen_range_u32(0..8),
    }
}

/// Broad traffic: 1–4 masters, any sub-burst length, long idle gaps.
fn scenario(seed: u64) -> Scenario {
    let mut rng = XorShift64::new(seed);
    let masters = 1 + rng.gen_range_u32(0..4) as usize;
    let max_burst_beats = [1u16, 3, 4, 16, 64, 256][rng.gen_range_u32(0..6) as usize];
    let config = BusConfig { max_burst_beats };
    // This coin once picked the arbiter. Drawing it still keeps every
    // seed on the system it drew before, apart from its arbiter.
    rng.gen_bool();
    let sram = wait_states(&mut rng);
    let with_flaky = rng.gen_range_u32(0..3) == 0;
    let scripts = scripts(&mut rng, masters, 6, 1..301, 40, with_flaky);
    Scenario {
        config,
        sram,
        with_flaky,
        scripts,
    }
}

/// One master issuing back-to-back bursts of 1–200 beats, each 3 idle
/// cycles after the last completion (an OCP's pickup, `Fetch` and
/// `Decode`), over wait-state SRAM and, in a third of the scenarios,
/// over the faulting slave too.
fn lone(seed: u64) -> Scenario {
    let mut rng = XorShift64::new(seed);
    let max_burst_beats = [1u16, 3, 16, 64, 256][rng.gen_range_u32(0..5) as usize];
    let config = BusConfig { max_burst_beats };
    // The arbiter's old coin, as in `scenario`.
    rng.gen_bool();
    let sram = wait_states(&mut rng);
    let with_flaky = rng.gen_range_u32(0..3) == 0;
    let mut scripts = scripts(&mut rng, 1, 12, 1..201, 1, with_flaky);
    for step in &mut scripts[0] {
        step.delay = 3;
    }
    Scenario {
        config,
        sram,
        with_flaky,
        scripts,
    }
}

/// Contended traffic: 2–4 masters back to back, every transaction
/// several sub-bursts of 1–4 beats long, so most of a leap is
/// re-arbitration: the top requester is re-granted after each of its
/// sub-bursts, and the others queue behind it.
fn contended(seed: u64) -> Scenario {
    let mut rng = XorShift64::new(seed);
    let masters = 2 + rng.gen_range_u32(0..3) as usize;
    let max_burst_beats = 1 + rng.gen_range_u32(0..4) as u16;
    let config = BusConfig { max_burst_beats };
    let sram = wait_states(&mut rng);
    let with_flaky = rng.gen_range_u32(0..4) == 0;
    let min_beats = u32::from(max_burst_beats) + 1;
    let scripts = scripts(&mut rng, masters, 4, min_beats..65, 3, with_flaky);
    Scenario {
        config,
        sram,
        with_flaky,
        scripts,
    }
}

struct Run {
    observations: Vec<Observation>,
    memory: Vec<u32>,
    trace: Vec<TraceEvent>,
    cycles: u64,
    leaped: u64,
    /// Leaps of a whole horizon, each checked to end on a completion.
    full_leaps: u64,
    /// Issues whose what-if was checked, and those checked from idle
    /// cycles before the issue.
    what_ifs: (u64, u64),
}

/// Requests the bus must reject, derived from `req`: unaligned, and
/// running past the end of the address map.
fn rejected_variants(req: &TxnRequest) -> [TxnRequest; 2] {
    let beats = req.shape().beats;
    [
        TxnRequest::read(req.addr() + 2, beats),
        TxnRequest::read(SRAM_BASE + (SRAM_WORDS - 1) * 4, 2),
    ]
}

/// The tick of the bus's first event if `m` issued a burst of `shape`
/// now, as [`SystemBus::time_burst`] times it.
fn what_if(bus: &Bus, m: MasterId, shape: TxnShape) -> Option<NonZeroU64> {
    bus.time_burst(m, Strided::one(shape), 1, 0, None)
        .and_then(|s| NonZeroU64::new(s.first.event))
}

/// Issues `req` for master `m`, checking the what-if first: it equals
/// the horizon right after the issue, a rejected variant of the
/// request has none (and queues nothing), and `ahead` — a what-if
/// taken on the idle bus some cycles before — matches too.
fn issue_checked(bus: &mut Bus, m: MasterId, req: TxnRequest, ahead: Option<Option<NonZeroU64>>) {
    for bad in rejected_variants(&req) {
        assert_eq!(what_if(bus, m, bad.shape()), None, "{bad:?}");
        assert!(bus.try_begin(m, bad).is_err());
        assert_eq!(bus.poll(m), PortState::Idle);
    }
    let timed = what_if(bus, m, req.shape());
    bus.try_begin(m, req).expect("scripted request is valid");
    assert_eq!(
        timed.map(Horizon::in_ticks),
        Some(bus.horizon()),
        "what-if at cycle {}",
        bus.now().count()
    );
    if let Some(ahead) = ahead {
        assert_eq!(ahead, timed, "what-if ahead of cycle {}", bus.now().count());
    }
}

fn build(s: &Scenario, traced: bool) -> (Bus, Vec<MasterId>) {
    let mut bus = Bus::new(s.config);
    if traced {
        bus.trace = Trace::enabled();
    }
    let ids = (0..s.scripts.len())
        .map(|_| bus.register_master())
        .collect();
    let mut sram = Sram::with_words(SRAM_WORDS as usize, s.sram);
    let mut rng = XorShift64::new(0x5EED);
    for (i, word) in rng.vec_u32(SRAM_WORDS as usize).into_iter().enumerate() {
        sram.store(i, word).unwrap();
    }
    bus.add_slave(SRAM_BASE, sram);
    if s.with_flaky {
        bus.add_slave(
            FLAKY_BASE,
            Flaky {
                words: (0..FLAKY_WORDS).collect(),
            },
        );
    }
    (bus, ids)
}

/// How a twin drives the bus between the harness's issues.
#[derive(Clone, Copy, PartialEq)]
enum Drive {
    /// One tick at a time.
    Tick,
    /// Leaps `horizon − 1` cycles, then ticks the event.
    Leap,
    /// Leaps `horizon` cycles, through the event.
    Through,
}

/// Runs `s` to completion, driven by `drive`, with the trace on or off.
fn run(s: &Scenario, drive: Drive, traced: bool) -> Run {
    let (mut bus, ids) = build(s, traced);
    let mut next = vec![0usize; ids.len()];
    let mut issue_at: Vec<Option<u64>> = s
        .scripts
        .iter()
        .map(|script| script.first().map(|step| step.delay))
        .collect();
    let mut observations = Vec::new();
    let mut leaped = 0;
    let mut full_leaps = 0;
    let mut what_ifs = (0, 0);
    // The what-if of the next issue on an idle bus, taken when the bus
    // went idle, per master.
    let mut ahead: Vec<Option<Option<NonZeroU64>>> = vec![None; ids.len()];
    loop {
        let now = bus.now().count();
        for (i, &m) in ids.iter().enumerate() {
            if bus.poll(m) == PortState::Complete {
                let completion = bus.take_completion(m).expect("complete");
                observations.push(Observation {
                    now,
                    master: i,
                    completion,
                    bus: bus.stats(),
                    masters: ids.iter().map(|&id| bus.master_stats(id)).collect(),
                });
                next[i] += 1;
                issue_at[i] = s.scripts[i].get(next[i]).map(|step| now + step.delay);
            }
            if bus.poll(m) == PortState::Idle && issue_at[i].is_some_and(|t| t <= now) {
                let idle = bus.horizon() == Horizon::QUIESCENT;
                let ahead = ahead[i].take().filter(|_| idle);
                what_ifs.0 += 1;
                what_ifs.1 += u64::from(ahead.is_some());
                issue_checked(&mut bus, m, s.scripts[i][next[i]].req.clone(), ahead);
                issue_at[i] = None;
            }
        }
        let pending = ids.iter().any(|&m| bus.poll(m) != PortState::Idle);
        let next_issue = issue_at.iter().flatten().min().copied();
        if !pending && next_issue.is_none() {
            break;
        }
        if !pending {
            // Idle until the next issue: its what-if holds from here.
            for (i, &m) in ids.iter().enumerate() {
                if issue_at[i] == next_issue && ahead[i].is_none() {
                    ahead[i] = Some(what_if(&bus, m, s.scripts[i][next[i]].req.shape()));
                }
            }
        }
        // Leap the bus's pure window, but never past a cycle at which
        // the harness issues a request.
        let through = u64::from(drive == Drive::Through);
        let full = bus.horizon().ticks().map(|h| h - 1 + through);
        let mut window = full.unwrap_or(u64::MAX);
        if let Some(t) = next_issue {
            window = window.min(t - now - 1 + through);
        }
        // With every slave fault free, a leap of the whole horizon ends
        // on a completion (see the module documentation).
        let tight = !s.with_flaky && full == Some(window);
        let mut check_tight = |bus: &Bus| {
            assert!(
                ids.iter().any(|&m| bus.poll(m) == PortState::Complete),
                "a leap of the whole horizon from cycle {now} completed nothing"
            );
            full_leaps += 1;
        };
        if drive != Drive::Tick && window > 0 && window < u64::MAX {
            bus.advance(Cycle::new(window));
            leaped += window;
            if drive == Drive::Through {
                if tight {
                    check_tight(&bus);
                }
                continue;
            }
        }
        bus.tick();
        if drive == Drive::Leap && tight {
            check_tight(&bus);
        }
        assert!(bus.now().count() < 10_000_000, "scenario did not drain");
    }
    let memory = (0..SRAM_WORDS)
        .map(|i| bus.debug_read(SRAM_BASE + i * 4).unwrap())
        .collect();
    Run {
        observations,
        memory,
        trace: bus.trace.events().to_vec(),
        cycles: bus.now().count(),
        leaped,
        full_leaps,
        what_ifs,
    }
}

/// Runs the twins of `s`, traced and untraced, and asserts they cannot
/// be told apart; returns the traced ticked and leaping twins.
fn assert_twins_agree(s: &Scenario, seed: u64) -> (Run, Run) {
    let mut traced = None;
    for trace in [true, false] {
        let ticked = run(s, Drive::Tick, trace);
        assert_eq!(ticked.leaped, 0);
        let leaping = [Drive::Leap, Drive::Through].map(|drive| run(s, drive, trace));
        for fast in &leaping {
            assert_eq!(
                fast.observations, ticked.observations,
                "completions or stats diverged (seed {seed}, trace {trace})"
            );
            assert!(
                fast.memory == ticked.memory,
                "memory contents diverged (seed {seed}, trace {trace})"
            );
            assert_eq!(fast.trace, ticked.trace, "traces diverged (seed {seed})");
        }
        if trace {
            let [fast, _] = leaping;
            traced = Some((ticked, fast));
        } else {
            assert!(ticked.trace.is_empty());
        }
    }
    traced.expect("the traced twins ran")
}

/// Checks the traced, ticked `run`'s events against the bus's other
/// records, per master: its grants number [`MasterStats::grants`]; each
/// grant closes with exactly one sub-burst end, completion or fault
/// before its next grant; each completion or fault lies on the cycle
/// the harness observed the completion (`completed_at` for a
/// completion); and a completion lies as far after the master's last
/// request as its `completed_at` lies after its `issued_at`. Returns
/// the sub-burst ends, completions and faults checked.
fn assert_trace_matches_records(run: &Run, seed: u64) -> [u64; 3] {
    let mut closes = [0; 3];
    let stats = &run
        .observations
        .last()
        .expect("every script completes")
        .masters;
    for (m, stats) in stats.iter().enumerate() {
        let mut observed = run.observations.iter().filter(|o| o.master == m);
        let (mut grants, mut open, mut request) = (0, false, None);
        for e in run.trace.iter().filter(|e| e.master.index() == m) {
            let at = e.cycle.count();
            let what = match e.what {
                BusEvent::Request(shape) => {
                    assert!(
                        request.is_none(),
                        "seed {seed}: M{m} requests twice at {at}"
                    );
                    request = Some((e.cycle, shape));
                    continue;
                }
                BusEvent::Grant => {
                    assert!(!open, "seed {seed}: M{m} granted again at {at}");
                    grants += 1;
                    open = true;
                    continue;
                }
                what => what,
            };
            assert!(open, "seed {seed}: M{m}'s {what:?} at {at} closes no grant");
            open = false;
            if what == BusEvent::SubBurstEnd {
                closes[0] += 1;
                continue;
            }
            let o = observed.next().expect("a traced completion was observed");
            assert_eq!(at, o.now, "seed {seed}: M{m}'s {what:?} is off its cycle");
            let (requested, shape) = request.take().expect("a completion follows a request");
            match &o.completion {
                Ok(c) => {
                    assert_eq!(what, BusEvent::Complete, "seed {seed}: M{m} at {at}");
                    assert_eq!(c.completed_at, e.cycle, "seed {seed}: M{m} at {at}");
                    assert_eq!(
                        c.completed_at - c.issued_at,
                        e.cycle - requested,
                        "seed {seed}: M{m}'s request at {}",
                        requested.count()
                    );
                    assert_eq!((c.kind, c.addr), (shape.kind, shape.addr));
                    closes[1] += 1;
                }
                Err(_) => {
                    assert_eq!(what, BusEvent::Fault, "seed {seed}: M{m} at {at}");
                    closes[2] += 1;
                }
            }
        }
        assert!(!open, "seed {seed}: M{m}'s last grant never closed");
        assert!(
            observed.next().is_none(),
            "seed {seed}: M{m}: untraced completion"
        );
        assert_eq!(grants, stats.grants, "seed {seed}: M{m}'s grants");
    }
    closes
}

fn faults(run: &Run) -> usize {
    run.observations
        .iter()
        .filter(|o| o.completion.is_err())
        .count()
}

#[test]
fn leaping_the_bus_matches_ticking_it() {
    let (mut leaped, mut full_leaps) = (0, 0);
    let mut faulted = 0;
    for seed in 1..=300u64 {
        let (ticked, fast) = assert_twins_agree(&scenario(seed), seed);
        leaped += fast.leaped;
        full_leaps += fast.full_leaps;
        faulted += faults(&ticked);
    }
    assert!(leaped > 100_000, "the bus barely leaped ({leaped} cycles)");
    assert!(
        full_leaps > 1_000,
        "only {full_leaps} leaps of a whole horizon"
    );
    assert!(faulted > 0, "no scenario exercised a slave fault");
}

/// The typed trace of every scenario family's traced, ticked twin
/// agrees with the grant counts and the completions the harness saw
/// (see [`assert_trace_matches_records`]). The twins are compared only
/// with each other, so this is what pins the trace's cycles.
#[test]
fn the_trace_matches_the_grants_and_the_completions() {
    let mut closes = [0; 3];
    for seed in 1..=300u64 {
        for s in [scenario(seed), contended(seed), lone(seed)] {
            let ticked = run(&s, Drive::Tick, true);
            for (total, n) in closes
                .iter_mut()
                .zip(assert_trace_matches_records(&ticked, seed))
            {
                *total += n;
            }
        }
    }
    let [sub_bursts, completions, faults] = closes;
    assert!(sub_bursts > 100_000, "only {sub_bursts} sub-burst ends");
    assert!(completions > 5_000, "only {completions} completions");
    assert!(faults > 200, "only {faults} faults");
}

/// The issue what-if, checked at every issue of both twins of every
/// scenario family (see [`issue_checked`]): one to four masters, every
/// wait-state and sub-burst configuration, the faulting slave, busy
/// and idle buses, and idle buses seen cycles ahead of the issue.
#[test]
fn the_issue_what_if_matches_the_bus_after_the_issue() {
    let (mut checked, mut ahead, mut flaky) = (0, 0, 0);
    for seed in 1..=100u64 {
        for s in [scenario(seed), contended(seed)] {
            let (ticked, fast) = assert_twins_agree(&s, seed);
            for run in [&ticked, &fast] {
                checked += run.what_ifs.0;
                ahead += run.what_ifs.1;
            }
            flaky += u64::from(s.with_flaky);
        }
    }
    assert!(checked > 2_000, "only {checked} issues checked");
    assert!(
        ahead > 500,
        "only {ahead} issues checked from idle cycles ahead"
    );
    assert!(flaky > 20, "only {flaky} scenarios map the faulting slave");
}

/// 2–4 masters hold multi-sub-burst transactions at once, so every leap
/// crosses grants, address phases and re-arbitrations. On SRAM-only
/// scenarios the only cycles left to tick are completions and the
/// harness's issue cycles, so the leaping twin must leap most of the
/// run: a horizon that fell back to one cycle (or stopped at sub-burst
/// boundaries) fails the floor.
#[test]
fn contended_multi_sub_burst_leaps_match_ticking() {
    let mut faulted = 0;
    let mut sram_only = 0;
    for seed in 1..=300u64 {
        let s = contended(seed);
        let (ticked, fast) = assert_twins_agree(&s, seed);
        faulted += faults(&ticked);
        if !s.with_flaky {
            let share = fast.leaped as f64 / fast.cycles as f64;
            assert!(
                share >= 0.9,
                "seed {seed} leaped only {:.3} of {} cycles",
                share,
                fast.cycles
            );
            sram_only += 1;
        }
    }
    assert!(faulted > 0, "no scenario exercised a slave fault");
    assert!(sram_only > 100, "only {sram_only} SRAM-only scenarios");
}

/// Beats on a slave that may fault stop every leap, so the fault lands
/// on the same cycle whether the driver leaps or not; the grant,
/// address and wait-state cycles before the first beat still leap.
#[test]
fn faulting_slave_pins_the_horizon_and_faults_on_its_beat() {
    let mut s = scenario(1);
    s.with_flaky = true;
    s.config.max_burst_beats = 16;
    // One read crossing into the faulting words at beat 5.
    s.scripts = vec![vec![Step {
        delay: 0,
        req: TxnRequest::read(FLAKY_BASE + (FLAKY_LIMIT - 4) * 4, 32),
    }]];
    let (mut bus, ids) = build(&s, true);
    bus.try_begin(ids[0], s.scripts[0][0].req.clone()).unwrap();
    // Grant, address and 2 wait states: the first beat is at cycle 5.
    assert_eq!(bus.horizon().at(bus.now()), Some(Instant::new(5)));
    while bus.poll(ids[0]).is_pending() {
        let at = bus.horizon().at(bus.now()).expect("a request is pending");
        let next_beat = 5 + bus.stats().beats;
        assert!(
            at.count() <= next_beat,
            "horizon at cycle {} reaches past the beat at {next_beat}",
            at.count()
        );
        bus.tick();
    }
    let (ticked, fast) = assert_twins_agree(&s, 1);
    assert_eq!(fast.leaped, 4);
    let first = &ticked.observations[0];
    assert!(matches!(first.completion, Err(BusError::Fault(_))));
    // grant + address + 2 wait states + 5 beats: the fault is on beat 5.
    assert_eq!(first.now, 9);
    assert_eq!(first.bus.beats, 5);
}

/// A lone master's back-to-back bursts: the untraced leaping-through
/// twin runs each transaction that fits its leap in one closed-form
/// step, over every sub-burst length and wait-state configuration, and
/// keeps stepping the beats on the faulting slave. Grants, beats, busy
/// cycles, completions, memory and (traced) every grant and sub-burst
/// boundary must match the ticked twin.
#[test]
fn a_lone_master_s_back_to_back_bursts_match_ticking() {
    let (mut txns, mut multi, mut faulted, mut flaky) = (0, 0, 0, 0);
    for seed in 1..=200u64 {
        let s = lone(seed);
        let (ticked, _) = assert_twins_agree(&s, seed);
        txns += ticked.observations.len();
        multi += s.scripts[0]
            .iter()
            .filter(|step| step.req.shape().beats > s.config.max_burst_beats)
            .count();
        faulted += faults(&ticked);
        flaky += u64::from(s.with_flaky);
    }
    assert!(txns > 1_000, "only {txns} transactions");
    assert!(multi > 500, "only {multi} multi-sub-burst transactions");
    assert!(faulted > 0, "no scenario exercised a slave fault");
    assert!(flaky > 30, "only {flaky} scenarios map the faulting slave");
}

/// A status register: one word that reads without wait states or side
/// effects but, like an OCP's register window, does not promise
/// [`BusSlave::fault_free`].
struct Status;

const STATUS_BASE: u32 = 0x8000_0000;

impl BusSlave for Status {
    fn name(&self) -> &str {
        "status"
    }
    fn size(&self) -> u32 {
        4
    }
    fn read_word(&mut self, _: u32) -> Result<u32, SlaveFault> {
        Ok(0x5)
    }
    fn write_word(&mut self, _: u32, _: u32) -> Result<(), SlaveFault> {
        Ok(())
    }
}

/// Contended runs: master 0 polls a word every `every` cycles at the
/// top priority while master 1, below it, runs DMA bursts back to back,
/// each requested 3 cycles after the last one's completion (an OCP's
/// pickup, `Fetch` and `Decode`).
struct PolledRun {
    config: BusConfig,
    sram: SramConfig,
    /// The polled word: the status register or a word of the SRAM.
    poll_addr: u32,
    every: u64,
    /// The cycles the first read and the first burst are requested on.
    first_poll: u64,
    first_burst: u64,
    /// The run: each burst's shape and, for a write, its payload.
    bursts: Vec<(TxnShape, Vec<u32>)>,
}

fn polled_run(seed: u64) -> PolledRun {
    let mut rng = XorShift64::new(seed);
    let config = BusConfig {
        max_burst_beats: [1u16, 2, 3, 4, 8, 16][rng.gen_range_u32(0..6) as usize],
    };
    let sram = wait_states(&mut rng);
    let poll_addr = if rng.gen_range_u32(0..3) == 0 {
        SRAM_BASE + 4 * rng.gen_range_u32(0..SRAM_WORDS)
    } else {
        STATUS_BASE
    };
    // A polling period of 0–40 cycles, as a CPU's interval.
    let every = rng.gen_range_u64(0..41).max(1);
    let first_poll = rng.gen_range_u64(1..30);
    let first_burst = rng.gen_range_u64(0..30);
    let bursts = (0..1 + rng.gen_range_u32(0..12))
        .map(|_| {
            let beats = 1 + rng.gen_range_u32(0..64);
            let addr = SRAM_BASE + 4 * rng.gen_range_u32(0..SRAM_WORDS - beats + 1);
            if rng.gen_bool() {
                (TxnRequest::read(addr, beats as u16).shape(), Vec::new())
            } else {
                let words = rng.vec_u32(beats as usize);
                (TxnRequest::write(addr, words.clone()).shape(), words)
            }
        })
        .collect();
    PolledRun {
        config,
        sram,
        poll_addr,
        every,
        first_poll,
        first_burst,
        bursts,
    }
}

impl PolledRun {
    fn bus(&self, traced: bool) -> (Bus, MasterId, MasterId) {
        let mut bus = Bus::new(self.config);
        if traced {
            bus.trace = Trace::enabled();
        }
        let (p, o) = (bus.register_master(), bus.register_master());
        bus.add_slave(SRAM_BASE, Sram::with_words(SRAM_WORDS as usize, self.sram));
        bus.add_slave(STATUS_BASE, Status);
        (bus, p, o)
    }

    fn request(&self, k: usize) -> TxnRequest {
        let (shape, words) = &self.bursts[k];
        match shape.kind {
            TxnKind::Read => TxnRequest::read(shape.addr, shape.beats),
            TxnKind::Write => TxnRequest::write(shape.addr, words.clone()),
        }
    }
}

/// What both twins of a polled run must agree on at a cycle: the bus's
/// statistics, each master's, the reads completed (one waiting on the
/// poller's port included), whether one is outstanding, and the DMA
/// master's port.
#[derive(Debug, PartialEq)]
struct PolledSnap {
    bus: BusStats,
    poller: MasterStats,
    dma: MasterStats,
    reads: u64,
    read_pending: bool,
    dma_port: Option<Result<Completion, BusError>>,
    dma_pending: bool,
}

fn polled_snap(bus: &Bus, p: MasterId, o: MasterId, reads: u64) -> PolledSnap {
    PolledSnap {
        bus: bus.stats(),
        poller: bus.master_stats(p),
        dma: bus.master_stats(o),
        reads: reads + u64::from(bus.poll(p) == PortState::Complete),
        read_pending: bus.poll(p) == PortState::Pending,
        dma_port: bus.peek_completion(o).cloned(),
        dma_pending: bus.poll(o) == PortState::Pending,
    }
}

/// The stepped twin: both masters act on every cycle, before the bus
/// ticks. Returns the snapshot of every cycle, the trace and memory.
fn polled_stepped(s: &PolledRun, traced: bool) -> (Vec<PolledSnap>, Vec<TraceEvent>, Vec<u32>) {
    let (mut bus, p, o) = s.bus(traced);
    let (mut reads, mut next_read) = (0, Some(s.first_poll));
    let (mut issued, mut next_burst) = (0, Some(s.first_burst));
    let mut snaps = Vec::new();
    loop {
        let now = bus.now().count();
        if bus.poll(p) == PortState::Complete {
            bus.take_completion(p).unwrap().unwrap();
            reads += 1;
            next_read = Some(now + s.every);
        }
        if bus.poll(p) == PortState::Idle && next_read.is_some_and(|c| c <= now) {
            bus.try_begin(p, TxnRequest::read_word(s.poll_addr))
                .unwrap();
            next_read = None;
        }
        snaps.push(polled_snap(&bus, p, o, reads));
        if bus.poll(o) == PortState::Complete {
            bus.take_completion(o).unwrap().unwrap();
            if issued == s.bursts.len() {
                break;
            }
            next_burst = Some(now + 3);
        }
        if next_burst == Some(now) {
            bus.try_begin(o, s.request(issued)).unwrap();
            issued += 1;
            next_burst = None;
        }
        bus.tick();
    }
    let mut memory = Vec::new();
    bus.debug_read_words(SRAM_BASE, SRAM_WORDS as usize, &mut memory)
        .unwrap();
    (snaps, bus.trace.events().to_vec(), memory)
}

/// How much of a polled run the leaping twin leapt.
#[derive(Default)]
struct PolledLeaps {
    leaps: u64,
    /// Leaps in which both masters moved beats.
    both: u64,
    /// Bursts replayed in a run step.
    bulk: u64,
}

/// The leaping twin: the polls installed on the bus, the DMA master's
/// run planned into windows ([`BusWindow::plan`],
/// [`BusWindow::extend_run`]) and leapt, each leap drawn up to the
/// window's event. Every leap must end where the stepped twin stood on
/// that cycle, and a leap through the event must end on the DMA
/// master's completion.
fn polled_leapt(
    s: &PolledRun,
    traced: bool,
    seed: u64,
    snaps: &[PolledSnap],
) -> (PolledLeaps, Vec<TraceEvent>, Vec<u32>) {
    let (mut bus, p, o) = s.bus(traced);
    let mut rng = XorShift64::new(seed ^ 0x1EA9);
    let mut polls = Polls {
        master: p,
        addr: s.poll_addr,
        every: s.every,
        next: Some(Instant::new(s.first_poll)),
        stop: false,
        taken: 0,
    };
    let (mut issued, mut done_at) = (0, None::<u64>);
    let mut stats = PolledLeaps::default();
    loop {
        let now = bus.now().count();
        // The poller, as a CPU after a leap: the windows take every
        // read, and request those due by their last cycle.
        assert!(
            bus.poll(p) != PortState::Complete && polls.next.is_none_or(|c| c.count() > now),
            "seed {seed}: cycle {now} left a read to the poller"
        );
        assert_eq!(
            polled_snap(&bus, p, o, polls.taken),
            snaps[now as usize],
            "seed {seed}, traced {traced}: cycle {now}"
        );
        if let Some(Ok(c)) = bus.take_completion(o) {
            done_at = Some(c.completed_at.count());
        }
        if issued == s.bursts.len() && bus.poll(o) == PortState::Idle {
            break;
        }
        bus.set_polls(Some(polls));
        let candidate = (bus.poll(o) == PortState::Idle && issued < s.bursts.len()).then(|| {
            let at = done_at.map_or(s.first_burst, |c| c + 3);
            let issue = WindowIssue {
                master: o,
                prefix: at - now,
                shape: s.bursts[issued].0,
            };
            (
                issue,
                s.bursts[issued + 1..].iter().map(|b| Strided::one(b.0)),
            )
        });
        let (mut w, later) = BusWindow::plan(&bus, true, |_| candidate);
        if let Some(later) = later {
            w.extend_run(&bus, Horizon::QUIESCENT, 3, later);
        }
        let event = w.event().ticks().expect("the DMA master has work");
        let n = if rng.gen_bool() {
            event
        } else {
            1 + rng.gen_range_u64(0..event)
        };
        let run: Vec<_> = w
            .run_of(o)
            .flat_map(|s| (0..s.count).map(move |j| s.burst(j)))
            .collect();
        let before = (polls.taken, bus.master_stats(o).beats);
        let mut next = 0;
        w.leap(&mut bus, n, |bus, who, _, _| {
            if who == Advancing::AllBut(Some(o)) {
                return;
            }
            if let Some(Ok(c)) = bus.take_completion(o) {
                done_at = Some(c.completed_at.count());
            }
            match who {
                Advancing::Run {
                    origin, segment, ..
                } => {
                    let first = issued;
                    bus.replay_run(o, origin, segment, &mut |k, words| {
                        words.extend_from_slice(&s.bursts[first + k].1);
                    });
                    issued += segment.count as usize;
                    next += segment.count as usize;
                    stats.bulk += u64::from(segment.count);
                }
                _ if run.get(next).is_some_and(|b| b.issue <= n) => {
                    bus.try_begin(o, s.request(issued)).unwrap();
                    issued += 1;
                    next += 1;
                }
                _ => {}
            }
        });
        polls = bus.set_polls(None).expect("installed");
        stats.leaps += 1;
        stats.both += u64::from(polls.taken > before.0 && bus.master_stats(o).beats > before.1);
        if n == event {
            assert_eq!(
                bus.poll(o),
                PortState::Complete,
                "seed {seed}: a leap through the window's event ends on the DMA completion"
            );
        }
    }
    let mut memory = Vec::new();
    bus.debug_read_words(SRAM_BASE, SRAM_WORDS as usize, &mut memory)
        .unwrap();
    (stats, bus.trace.events().to_vec(), memory)
}

/// A top-priority master polling a word inside the windows of a lower
/// master's DMA run: the bus times the reads itself (its contended
/// loop), closed form untraced and through its stepping FSM traced.
/// Every leap, cut anywhere up to its window's event, must leave both
/// masters' statistics, the bus's, the reads completed and both ports
/// as stepping does; traced, the events must match too, and the memory
/// at the end.
#[test]
fn polls_inside_a_dma_run_s_windows_match_stepping() {
    let (mut leaps, mut both, mut bulk, mut status) = (0, 0, 0, 0);
    for seed in 1..=300u64 {
        let s = polled_run(seed);
        status += u64::from(s.poll_addr == STATUS_BASE);
        for traced in [false, true] {
            let (snaps, trace, memory) = polled_stepped(&s, traced);
            let (stats, leapt_trace, leapt_memory) = polled_leapt(&s, traced, seed, &snaps);
            assert_eq!(leapt_trace, trace, "seed {seed}, traced {traced}");
            assert_eq!(leapt_memory, memory, "seed {seed}, traced {traced}");
            leaps += stats.leaps;
            both += stats.both;
            bulk += stats.bulk;
        }
    }
    assert!(
        both * 2 >= leaps,
        "only {both} of {leaps} leaps hold both masters' beats"
    );
    assert!(bulk > 600, "only {bulk} bursts replayed in run steps");
    assert!(status > 150, "only {status} runs poll the status register");
}
