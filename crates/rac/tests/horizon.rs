//! Differential check of the RAC fast-forward contract over the
//! socket's FIFOs.
//!
//! Each scenario draws a RAC (`PassthroughRac` with delay 0/1/3 and
//! scale 1/3, or a `BlockRac` kernel: the IDCT, the DFT, or [`Square`],
//! whose block size follows the op, bare or inside a
//! `ReconfigurableSlot` that first loads it), FIFO depths small enough
//! for the output to fill, and random fills. The scenario then walks
//! window by window, moving words in and out between windows the way
//! the controller's transfers would. At every window with horizon `h`
//! and for every `k < h`, twin A ticks `k` times and twin B calls
//! `advance(k)`; both FIFOs (contents and statistics), `busy` and the
//! next outlook must be equal, and stay equal while both tick on
//! through the event. Every end an outlook tells, and every end
//! `outlook_after_start` tells before a start, is held to the live
//! twin's ticks.
//!
//! A `Box<dyn Rac>` cannot be cloned, so twins are rebuilt from the
//! scenario and replayed through its action log.

use ouessant_rac::block::{BlockKernel, BlockRac};
use ouessant_rac::dft::DftRac;
use ouessant_rac::fir::FirRac;
use ouessant_rac::idct::IdctRac;
use ouessant_rac::passthrough::{PassthroughRac, WideFunctionRac};
use ouessant_rac::rac::{Outlook, Rac, RacIo, RacSocket};
use ouessant_rac::slot::ReconfigurableSlot;
use ouessant_sim::fifo::SyncFifo;
use ouessant_sim::rng::XorShift64;
use ouessant_sim::{Cycle, Horizon};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Passthrough { delay: u64, scale: u32 },
    Idct,
    Dft,
    Square,
}

/// A block kernel whose block size follows the op, as a matrix
/// multiply's does: `exec n` takes two `n×n` blocks of words and gives
/// one, after `4n² + n + 8` cycles (a systolic row of `n` MACs with its
/// loads and unloads). Each output word is the wrapping sum of the two
/// input words at its index.
#[derive(Debug)]
struct Square;

impl Square {
    fn side(op: u16) -> usize {
        usize::from(op).clamp(1, 64)
    }
}

impl BlockKernel for Square {
    fn name(&self) -> &str {
        "square"
    }

    fn input_len(&self, op: u16) -> usize {
        2 * Self::side(op).pow(2)
    }

    fn output_len(&self, op: u16) -> Option<usize> {
        Some(Self::side(op).pow(2))
    }

    fn latency(&self, op: u16) -> u64 {
        let n = Self::side(op) as u64;
        4 * n * n + n + 8
    }

    fn compute(&mut self, op: u16, input: &[u32], output: &mut Vec<u32>) {
        let (a, b) = input.split_at(Self::side(op).pow(2));
        output.extend(a.iter().zip(b).map(|(x, y)| x.wrapping_add(*y)));
    }
}

#[derive(Debug, Clone, Copy)]
struct Scenario {
    kind: Kind,
    in_slot: bool,
    in_depth: usize,
    out_depth: usize,
    op: u16,
}

impl Scenario {
    fn draw(rng: &mut XorShift64) -> Self {
        let kind = match rng.gen_range_u32(0..6) {
            0 => Kind::Idct,
            1 => Kind::Dft,
            2 => Kind::Square,
            _ => Kind::Passthrough {
                delay: [0, 1, 3][rng.gen_range_u32(0..3) as usize],
                scale: [1, 3][rng.gen_range_u32(0..2) as usize],
            },
        };
        // (words one operation consumes, words it produces)
        let (block_in, block_out, op) = match kind {
            Kind::Idct => (64, 64, 0),
            Kind::Dft => (16, 16, 0),
            Kind::Square => {
                let n = rng.gen_range_u32(1..4) as usize;
                (2 * n * n, n * n, n as u16)
            }
            Kind::Passthrough { .. } => (1, 1, rng.gen_range_u32(0..24) as u16),
        };
        Self {
            kind,
            in_slot: rng.gen_bool(),
            in_depth: block_in + rng.gen_range_u32(0..16) as usize,
            out_depth: 1 + rng.gen_range_u32(0..(block_out as u32 + 4)) as usize,
            op,
        }
    }

    fn rac(&self) -> Box<dyn Rac> {
        let rac: Box<dyn Rac> = match self.kind {
            Kind::Passthrough { delay, scale } => Box::new(PassthroughRac::scaling(scale, delay)),
            Kind::Idct => Box::new(IdctRac::new()),
            Kind::Dft => Box::new(DftRac::new(8)),
            Kind::Square => Box::new(BlockRac::from_kernel(Square)),
        };
        if !self.in_slot {
            return rac;
        }
        // A 30-cycle bitstream load of the RAC under test comes first.
        let mut slot = ReconfigurableSlot::new()
            .with_config(Box::new(PassthroughRac::new(0)), 400)
            .with_config(rac, 120);
        let _ = slot.reconfigure(1);
        Box::new(slot)
    }
}

#[derive(Debug, Clone)]
enum Action {
    Tick,
    /// The controller's side between windows: an `mvfc` drains output
    /// words, an `mvtc` delivers input words.
    Io {
        pops: usize,
        pushes: Vec<u32>,
    },
    Start(u16),
}

struct Twin {
    rac: Box<dyn Rac>,
    inputs: Vec<SyncFifo<u32>>,
    outputs: Vec<SyncFifo<u32>>,
}

#[derive(Debug, PartialEq)]
struct Observed {
    inputs: String,
    outputs: String,
    busy: bool,
    outlook: Outlook,
}

impl Twin {
    fn replay(scenario: &Scenario, log: &[Action]) -> Self {
        let mut twin = Self {
            rac: scenario.rac(),
            inputs: vec![SyncFifo::new("in0", scenario.in_depth)],
            outputs: vec![SyncFifo::new("out0", scenario.out_depth)],
        };
        for action in log {
            twin.apply(action);
        }
        twin
    }

    fn apply(&mut self, action: &Action) {
        match action {
            Action::Tick => {
                let mut io = RacIo {
                    inputs: &mut self.inputs,
                    outputs: &mut self.outputs,
                };
                self.rac.tick(&mut io);
            }
            Action::Io { pops, pushes } => {
                for _ in 0..*pops {
                    self.outputs[0].pop().expect("pops drawn within occupancy");
                }
                for &w in pushes {
                    self.inputs[0].push(w).expect("pushes drawn within space");
                }
            }
            Action::Start(op) => self.rac.start(*op),
        }
    }

    fn advance(&mut self, cycles: u64) {
        let mut io = RacIo {
            inputs: &mut self.inputs,
            outputs: &mut self.outputs,
        };
        self.rac.advance(Cycle::new(cycles), &mut io);
    }

    fn outlook(&self) -> Outlook {
        self.rac.outlook(&self.inputs, &self.outputs)
    }

    fn horizon(&self) -> Horizon {
        self.outlook().horizon
    }

    /// The end `outlook` tells, if it tells one: the tick from now on
    /// which busy drops, and output FIFO 0's occupancy then.
    fn told_end(&self, outlook: Outlook) -> Option<(u64, usize)> {
        let words = outlook.ends?;
        let at = outlook.horizon.ticks().expect("an end is on a tick");
        Some((at, self.outputs[0].len() + words))
    }

    fn observe(&self) -> Observed {
        Observed {
            inputs: format!("{:?}", self.inputs),
            outputs: format!("{:?}", self.outputs),
            busy: self.rac.busy(),
            outlook: self.outlook(),
        }
    }

    /// Random controller-side traffic within the FIFOs' bounds.
    fn draw_io(&self, rng: &mut XorShift64) -> Action {
        let pops = rng.gen_range_u32(0..self.outputs[0].len() as u32 + 1) as usize;
        let pushes = rng.gen_range_u32(0..self.inputs[0].space() as u32 + 1) as usize;
        Action::Io {
            pops,
            pushes: rng.vec_u32(pushes),
        }
    }
}

/// Checks every `k < h` of the window in front of the replayed `log`;
/// returns how many `k` were checked.
fn check_window(scenario: &Scenario, log: &[Action], h: u64) -> u64 {
    for k in 1..h {
        let mut ticked = Twin::replay(scenario, log);
        let mut leapt = Twin::replay(scenario, log);
        for _ in 0..k {
            ticked.apply(&Action::Tick);
        }
        leapt.advance(k);
        assert_eq!(
            ticked.observe(),
            leapt.observe(),
            "{scenario:?}: advance({k}) inside a window of {h}"
        );
        for t in k..=h + 2 {
            ticked.apply(&Action::Tick);
            leapt.apply(&Action::Tick);
            assert_eq!(
                ticked.observe(),
                leapt.observe(),
                "{scenario:?}: advance({k}) inside a window of {h}, tick {t} after"
            );
        }
    }
    h - 1
}

/// Applies `action` to the live twin and records it for replay.
fn act(action: Action, live: &mut Twin, log: &mut Vec<Action>) {
    live.apply(&action);
    log.push(action);
}

/// An end an outlook told the live twin: ticks left to it, output FIFO
/// 0's occupancy then, and whether `outlook_after_start` told it.
type Due = (u64, usize, bool);

/// Starts `op` on the live twin, first holding it to the end
/// `outlook_after_start` tells for it.
fn start(op: u16, live: &mut Twin, log: &mut Vec<Action>, due: &mut Vec<Due>) {
    let predicted = live
        .rac
        .outlook_after_start(op, 0, &live.inputs, &live.outputs);
    due.extend(live.told_end(predicted).map(|(at, held)| (at, held, true)));
    act(Action::Start(op), live, log);
}

/// Ticks the live twin once, holding it to every end in `due`: busy
/// stays high before it and drops on it, with the told words in output
/// FIFO 0. Returns the ends reached, the `outlook_after_start` ones
/// second.
fn tick_held(
    scenario: &Scenario,
    live: &mut Twin,
    log: &mut Vec<Action>,
    due: &mut Vec<Due>,
) -> (usize, usize) {
    act(Action::Tick, live, log);
    let mut reached = (0, 0);
    for (left, held, after_start) in due.iter_mut() {
        *left -= 1;
        assert_eq!(
            live.rac.busy(),
            *left > 0,
            "{scenario:?}: busy {} ticks before a told end",
            *left
        );
        if *left == 0 {
            assert_eq!(live.outputs[0].len(), *held, "{scenario:?}: drained words");
            if *after_start {
                reached.1 += 1;
            } else {
                reached.0 += 1;
            }
        }
    }
    due.retain(|&(left, ..)| left > 0);
    reached
}

#[test]
fn advance_matches_ticking_below_the_horizon() {
    let mut rng = XorShift64::new(0x4AC_1EAF);
    let mut leapt_passthrough = 0;
    let mut leapt_block = 0;
    let (mut ends_held, mut starts_held) = (0, 0);
    for _ in 0..96 {
        let scenario = Scenario::draw(&mut rng);
        let mut live = Twin::replay(&scenario, &[]);
        let mut log = Vec::new();
        // A told end holds for the FIFOs it was told on: a transfer
        // between windows drops the ends still due.
        let mut due = Vec::new();
        act(live.draw_io(&mut rng), &mut live, &mut log);
        start(scenario.op, &mut live, &mut log, &mut due);
        for _ in 0..24 {
            let outlook = live.outlook();
            let Some(h) = outlook.horizon.ticks() else {
                // A block short of words waits for more; at the end of
                // the operation, refill and start the next `exec`.
                act(live.draw_io(&mut rng), &mut live, &mut log);
                due.clear();
                if !live.rac.busy() {
                    start(scenario.op, &mut live, &mut log, &mut due);
                }
                continue;
            };
            let checked = check_window(&scenario, &log, h);
            if matches!(scenario.kind, Kind::Passthrough { .. }) {
                leapt_passthrough += checked;
            } else {
                leapt_block += checked;
            }
            due.extend(live.told_end(outlook).map(|(at, held)| (at, held, false)));
            for _ in 0..h {
                let (ends, starts) = tick_held(&scenario, &mut live, &mut log, &mut due);
                ends_held += ends;
                starts_held += starts;
            }
            if rng.gen_bool() {
                act(live.draw_io(&mut rng), &mut live, &mut log);
                due.clear();
            }
        }
    }
    assert!(
        leapt_passthrough > 500 && leapt_block > 500,
        "scenarios too tame: {leapt_passthrough} passthrough and {leapt_block} block leaps"
    );
    assert!(
        ends_held > 150 && starts_held > 40,
        "too few ends told: {ends_held} by outlooks and {starts_held} by starts"
    );
}

#[test]
fn streaming_passthrough_answers_in_closed_form() {
    // (waiting input words, output space) -> horizon
    for (waiting, space, expected) in [(5, 8, 5), (8, 8, 8), (9, 8, 9), (12, 3, 4), (4, 0, 1)] {
        let mut rac = PassthroughRac::scaling(3, 0);
        let mut inputs = vec![SyncFifo::new("in0", 16)];
        let mut outputs = vec![SyncFifo::new("out0", 16)];
        for w in 0..waiting {
            inputs[0].push(w).unwrap();
        }
        for w in 0..16 - space {
            outputs[0].push(w).unwrap();
        }
        rac.start(0);
        assert_eq!(
            rac.outlook(&inputs, &outputs).horizon.ticks(),
            Some(expected),
            "{waiting} waiting, {space} free"
        );
    }
    let idle = PassthroughRac::new(0);
    assert_eq!(
        idle.outlook(&[SyncFifo::new("in0", 1)], &[]),
        Horizon::QUIESCENT.into()
    );
}

/// A one-word-in, one-word-out kernel of a chosen latency.
struct Latency(u64);

impl BlockKernel for Latency {
    fn name(&self) -> &str {
        "latency"
    }
    fn input_len(&self, _op: u16) -> usize {
        2
    }
    fn latency(&self, _op: u16) -> u64 {
        self.0
    }
    fn compute(&mut self, _op: u16, input: &[u32], output: &mut Vec<u32>) {
        output.push(input[0] + input[1]);
    }
}

#[test]
fn block_rac_leaps_from_exec_to_its_drain() {
    for lat in [0, 1, 2, 3, 10] {
        let mut twin = Twin {
            rac: Box::new(BlockRac::from_kernel(Latency(lat))),
            inputs: vec![SyncFifo::new("in0", 4)],
            outputs: vec![SyncFifo::new("out0", 4)],
        };
        twin.rac.start(0);
        twin.apply(&Action::Io {
            pops: 0,
            pushes: vec![5],
        });
        // Short of a block: quiescent, and ticks change nothing.
        let starved = twin.observe();
        assert_eq!(starved.outlook.horizon, Horizon::QUIESCENT, "latency {lat}");
        for _ in 0..5 {
            twin.apply(&Action::Tick);
        }
        assert_eq!(twin.observe(), starved, "latency {lat}");
        assert!(twin.rac.busy());

        // A full block: the collect tick, the countdown, then the drain.
        twin.apply(&Action::Io {
            pops: 0,
            pushes: vec![6],
        });
        let drain = 2 + lat.saturating_sub(1).max(1);
        assert_eq!(twin.horizon().ticks(), Some(drain), "latency {lat}");
        twin.apply(&Action::Tick);
        // `Computing { c }` with `c = lat - 1` answers `max(c, 1) + 1`.
        let computing = lat.saturating_sub(1).max(1) + 1;
        assert_eq!(twin.horizon().ticks(), Some(computing), "latency {lat}");
        for left in (1..computing).rev() {
            twin.apply(&Action::Tick);
            assert!(twin.rac.busy() && twin.outputs[0].is_empty());
            assert_eq!(twin.horizon().ticks(), Some(left), "latency {lat}");
        }
        twin.apply(&Action::Tick);
        assert!(!twin.rac.busy(), "latency {lat}: end_op on tick {drain}");
        assert_eq!(twin.outputs[0].pop(), Ok(11));
    }
}

/// One accelerator under the start and `end_op` queries: a socket of
/// `depth`-word FIFOs around it, `waiting` words in input FIFO 0 and
/// `landed` more pushed between the prediction and the start (a read
/// the controller picks up first), and the `exec` operand `op`.
struct StartCase {
    name: &'static str,
    rac: fn() -> Box<dyn Rac>,
    depth: usize,
    waiting: usize,
    landed: usize,
    op: u16,
    /// Whether the accelerator tells, after the start, the tick that
    /// ends the operation. One that keeps the default answer (the next
    /// tick, not telling) or whose operation does not end on its
    /// horizon's tick (a starved stream, a block short of words) does
    /// not.
    tells: bool,
}

impl StartCase {
    /// The socket with its input words in place, and a stall of
    /// `stall` cycles injected.
    fn socket(&self, stall: u64) -> RacSocket {
        let mut socket = RacSocket::new((self.rac)(), self.depth);
        let words: Vec<u32> = (0..self.waiting as u32).map(|w| w * 7 + 1).collect();
        socket
            .push_inputs(0, &words)
            .expect("the case fits its FIFO");
        socket.inject_stall(stall);
        socket
    }

    /// The words the prediction counts as landed, pushed.
    fn land(&self, socket: &mut RacSocket) {
        let words: Vec<u32> = (0..self.landed as u32).map(|w| w ^ 0x55).collect();
        socket.push_inputs(0, &words).expect("the landed words fit");
    }
}

/// Everything of a socket another layer could read.
fn seen(socket: &RacSocket) -> (String, bool, Outlook) {
    (format!("{socket:?}"), socket.busy(), socket.outlook())
}

/// The `k` checked inside a window of `h`, ascending: every one for a
/// short window; the first and last 16 and 16 drawn ones between for a
/// long one (a 4096-point DFT computes for 55 349 cycles, and each
/// leaping twin pays its transform).
fn ks(h: u64, rng: &mut XorShift64) -> Vec<u64> {
    if h <= 512 {
        return (1..h).collect();
    }
    let mut ks: Vec<u64> = (1..=16).chain(h - 16..h).collect();
    ks.extend((0..16).map(|_| 17 + rng.gen_range_u64(0..h - 33)));
    ks.sort_unstable();
    ks
}

/// A socket ticked one tick at a time, holding it to every end it
/// announces ([`RacSocket::outlook`] with `ends: Some(words)`): busy
/// stays high until the announced tick, drops on it, and output FIFO 0
/// has gained the announced words by then.
struct EndWatch {
    label: &'static str,
    /// Ticks so far.
    t: u64,
    /// Announced ends still due: (tick, output occupancy then).
    due: Vec<(u64, usize)>,
    /// Announced ends held to, a repeat (a socket repeats an end on
    /// every tick before it) counted as it comes.
    kept: usize,
}

impl EndWatch {
    fn new(label: &'static str) -> Self {
        Self {
            label,
            t: 0,
            due: Vec::new(),
            kept: 0,
        }
    }

    /// Holds `socket` to the end `outlook` announces, counted from now.
    fn expect(&mut self, outlook: Outlook, socket: &RacSocket) {
        if let (Some(h), Some(words)) = (outlook.horizon.ticks(), outlook.ends) {
            let end = (self.t + h, socket.output_available(0) + words);
            if self.due.last() == Some(&end) {
                // The same end again, one tick closer.
                self.kept += 1;
            } else {
                self.due.push(end);
            }
        }
    }

    /// Ticks once, after holding the socket to its own announcement.
    /// Returns whether busy dropped on the tick.
    fn tick(&mut self, socket: &mut RacSocket) -> bool {
        let busy = socket.busy();
        if busy {
            self.expect(socket.outlook(), socket);
        }
        socket.tick();
        self.t += 1;
        let (t, label) = (self.t, self.label);
        for &(at, held) in &self.due {
            if t < at {
                assert!(
                    socket.busy(),
                    "{label}: busy dropped on tick {t}, before {at}"
                );
            } else if t == at {
                assert!(
                    !socket.busy(),
                    "{label}: busy on tick {t}, announced to drop"
                );
                assert_eq!(socket.output_available(0), held, "{label}: drained words");
            }
        }
        let before = self.due.len();
        self.due.retain(|&(at, _)| at > t);
        self.kept += before - self.due.len();
        busy && !socket.busy()
    }
}

fn start_cases() -> Vec<StartCase> {
    let case = |name, rac, depth, waiting, landed, op, tells| StartCase {
        name,
        rac,
        depth,
        waiting,
        landed,
        op,
        tells,
    };
    fn wide() -> Box<dyn Rac> {
        Box::new(WideFunctionRac::new("lane_swap", 96, 96, 3, |v| {
            v.rotate_left(32)
        }))
    }
    fn idct_slot() -> Box<dyn Rac> {
        let mut slot = ReconfigurableSlot::new()
            .with_config(Box::new(PassthroughRac::new(0)), 400)
            .with_config(Box::new(IdctRac::new()), 120);
        let _ = slot.reconfigure(1);
        // Load it, as the `rcfg` before the `exec` does.
        let mut io = RacIo {
            inputs: &mut [SyncFifo::new("in0", 1)],
            outputs: &mut [SyncFifo::new("out0", 1)],
        };
        while slot.busy() {
            slot.tick(&mut io);
        }
        Box::new(slot)
    }
    vec![
        case("idct", || Box::new(IdctRac::new()), 64, 64, 0, 0, true),
        case(
            "idct, landed",
            || Box::new(IdctRac::new()),
            64,
            40,
            24,
            0,
            true,
        ),
        case(
            "idct, short",
            || Box::new(IdctRac::new()),
            64,
            40,
            0,
            0,
            false,
        ),
        case("dft64", || Box::new(DftRac::new(64)), 128, 128, 0, 0, true),
        case(
            "dft4096",
            || Box::new(DftRac::new(4096)),
            8192,
            8000,
            192,
            0,
            true,
        ),
        case(
            "square 3",
            || Box::new(BlockRac::from_kernel(Square)),
            32,
            18,
            0,
            3,
            true,
        ),
        case(
            "pipe",
            || Box::new(PassthroughRac::scaling(3, 0)),
            16,
            5,
            3,
            8,
            true,
        ),
        case(
            "pipe, op 0",
            || Box::new(PassthroughRac::new(0)),
            16,
            16,
            0,
            0,
            true,
        ),
        case(
            "pipe, empty",
            || Box::new(PassthroughRac::new(0)),
            16,
            0,
            0,
            0,
            true,
        ),
        case(
            "pipe, starved",
            || Box::new(PassthroughRac::new(0)),
            16,
            2,
            0,
            9,
            false,
        ),
        case(
            "pipe, delayed",
            || Box::new(PassthroughRac::new(2)),
            16,
            6,
            0,
            6,
            false,
        ),
        case("wide", wide, 64, 6, 0, 2, false),
        case("fir", || Box::new(FirRac::new()), 64, 8, 0, 8, false),
        case("idct in a loaded slot", idct_slot, 64, 64, 0, 0, true),
    ]
}

/// The `exec` twins, RAC by RAC: twin A starts and ticks `k` times,
/// twin B starts and trusts the prediction `h` (see
/// `RacSocket::outlook_after_start`), leaping `k`; for every `k < h`
/// (sampled in a long window, see [`ks`]) they are equal and busy is
/// high. Busy drops on tick `h` itself, with the announced words in
/// output FIFO 0, where the prediction tells the end, and not before
/// `h` otherwise. Every tick holds the socket to the ends it announces
/// on the way (see [`EndWatch`]), and a second `exec` right after the
/// first, with the first's outputs still in the FIFO, drains into less
/// space.
#[test]
fn exec_predictions_hold_for_every_rac() {
    let mut rng = XorShift64::new(0x57A2_7E0C);
    for case in start_cases() {
        let label = case.name;
        let idle = case.socket(0);
        let outlook = idle.outlook_after_start(case.op, case.landed);
        assert_eq!(outlook.ends.is_some(), case.tells, "{label}: {outlook:?}");
        let Some(h) = outlook.horizon.ticks() else {
            continue;
        };
        let started = || {
            let mut socket = case.socket(0);
            case.land(&mut socket);
            socket.start(case.op);
            socket
        };
        let (mut ticked, mut t) = (started(), 0);
        for k in ks(h, &mut rng) {
            while t < k {
                ticked.tick();
                t += 1;
                assert!(ticked.busy(), "{label}: busy dropped on tick {t} < {h}");
            }
            let mut leapt = started();
            leapt.advance(Cycle::new(k));
            assert_eq!(seen(&ticked), seen(&leapt), "{label}: {k} of {h}");
        }
        let mut socket = started();
        let mut watch = EndWatch::new(label);
        watch.expect(outlook, &socket);
        let mut dropped_at = None;
        for _ in 0..h + 64 {
            if watch.tick(&mut socket) {
                dropped_at = Some(watch.t);
                break;
            }
        }
        assert!(
            dropped_at.is_none_or(|t| t >= h),
            "{label}: {dropped_at:?} < {h}"
        );
        if case.tells {
            assert_eq!(dropped_at, Some(h), "{label}: end_op on the predicted tick");
        }
        // A second operation on the first's leftovers, where the
        // output FIFO keeps the first's results.
        if dropped_at.is_some() {
            socket
                .push_inputs(0, &vec![3; socket.input_space(0)])
                .unwrap();
            socket.start(case.op);
            for _ in 0..2 * h + 64 {
                watch.tick(&mut socket);
            }
        }
        assert!(
            watch.kept > 0 || !case.tells,
            "{label}: no end announced and kept"
        );
    }
}

/// A stalled socket answers the next tick after a start, and tells no
/// end while its accelerator is busy; a stall over an idle one, and a
/// slot's load, tell their last tick, which drains no words.
#[test]
fn stalls_and_loads_tell_their_end() {
    let idct = StartCase {
        name: "idct",
        rac: || Box::new(IdctRac::new()),
        depth: 64,
        waiting: 64,
        landed: 0,
        op: 0,
        tells: true,
    };
    let mut stalled = idct.socket(5);
    let after_start = stalled.outlook_after_start(0, 0);
    assert_eq!(
        (after_start.horizon, after_start.ends),
        (Horizon::NEXT_TICK, None)
    );
    let ticks = |n| Horizon::in_ticks(std::num::NonZeroU64::new(n).unwrap());
    assert_eq!(
        (stalled.outlook().horizon, stalled.outlook().ends),
        (ticks(5), Some(0))
    );
    stalled.start(0);
    assert_eq!(
        (stalled.outlook().horizon, stalled.outlook().ends),
        (ticks(5), None)
    );
    let mut watch = EndWatch::new("stalled");
    for _ in 0..5 {
        assert!(!watch.tick(&mut stalled));
    }
    // The stall is over: the frozen IDCT answers as one just started.
    let mut unstalled = idct.socket(0);
    unstalled.start(0);
    assert_eq!(stalled.outlook(), unstalled.outlook());
    while !watch.tick(&mut stalled) {}
    assert!(
        watch.kept > 0,
        "the IDCT tells its end once the stall is over"
    );
    let mut idle_stall = idct.socket(3);
    let mut watch = EndWatch::new("an idle stall");
    while !watch.tick(&mut idle_stall) {}
    assert_eq!((watch.t, watch.kept), (3, 3));

    let slot = ReconfigurableSlot::new()
        .with_config(Box::new(PassthroughRac::new(0)), 400)
        .with_config(Box::new(IdctRac::new()), 120);
    let mut socket = RacSocket::new(Box::new(slot), 64);
    let ouessant_rac::rac::ReconfigResponse::Started { cycles } = socket.reconfigure(1) else {
        panic!("configuration 1 exists");
    };
    let mut watch = EndWatch::new("loading");
    for _ in 0..cycles {
        let after_start = socket.outlook_after_start(0, 64);
        assert_eq!(
            (after_start.horizon, after_start.ends),
            (Horizon::NEXT_TICK, None)
        );
        watch.tick(&mut socket);
    }
    assert!(!socket.busy());
    assert_eq!((watch.t, watch.kept), (cycles, cycles as usize));
}
