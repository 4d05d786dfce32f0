//! Differential check of the RAC fast-forward contract over the
//! socket's FIFOs.
//!
//! Each scenario draws a RAC (`PassthroughRac` with delay 0/1/3 and
//! scale 1/3, or one of the `BlockRac` kernels, bare or inside a
//! `ReconfigurableSlot` that first loads it), FIFO depths small enough
//! for the output to fill, and random fills. The scenario then walks
//! window by window, moving words in and out between windows the way
//! the controller's transfers would. At every window with horizon `h`
//! and for every `k < h`, twin A ticks `k` times and twin B calls
//! `advance(k)`; both FIFOs (contents and statistics), `busy` and the
//! next horizon must be equal, and stay equal while both tick on
//! through the event.
//!
//! A `Box<dyn Rac>` cannot be cloned, so twins are rebuilt from the
//! scenario and replayed through its action log.

use ouessant_rac::block::{BlockKernel, BlockRac};
use ouessant_rac::dft::DftRac;
use ouessant_rac::idct::IdctRac;
use ouessant_rac::matmul::MatMulRac;
use ouessant_rac::passthrough::PassthroughRac;
use ouessant_rac::rac::{Rac, RacIo};
use ouessant_rac::slot::ReconfigurableSlot;
use ouessant_sim::fifo::SyncFifo;
use ouessant_sim::rng::XorShift64;
use ouessant_sim::{Cycle, Horizon};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Passthrough { delay: u64, scale: u32 },
    Idct,
    Dft,
    MatMul,
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
            2 => Kind::MatMul,
            _ => Kind::Passthrough {
                delay: [0, 1, 3][rng.gen_range_u32(0..3) as usize],
                scale: [1, 3][rng.gen_range_u32(0..2) as usize],
            },
        };
        // (words one operation consumes, words it produces)
        let (block_in, block_out, op) = match kind {
            Kind::Idct => (64, 64, 0),
            Kind::Dft => (16, 16, 0),
            Kind::MatMul => {
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
            Kind::MatMul => Box::new(MatMulRac::new()),
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
    horizon: Horizon,
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

    fn horizon(&self) -> Horizon {
        self.rac.horizon(&self.inputs, &self.outputs)
    }

    fn observe(&self) -> Observed {
        Observed {
            inputs: format!("{:?}", self.inputs),
            outputs: format!("{:?}", self.outputs),
            busy: self.rac.busy(),
            horizon: self.horizon(),
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

#[test]
fn advance_matches_ticking_below_the_horizon() {
    let mut rng = XorShift64::new(0x4AC_1EAF);
    let mut leapt_passthrough = 0;
    let mut leapt_block = 0;
    for _ in 0..96 {
        let scenario = Scenario::draw(&mut rng);
        let mut live = Twin::replay(&scenario, &[]);
        let mut log = Vec::new();
        act(live.draw_io(&mut rng), &mut live, &mut log);
        act(Action::Start(scenario.op), &mut live, &mut log);
        for _ in 0..24 {
            let Some(h) = live.horizon().ticks() else {
                // A block short of words waits for more; at the end of
                // the operation, refill and start the next `exec`.
                act(live.draw_io(&mut rng), &mut live, &mut log);
                if !live.rac.busy() {
                    act(Action::Start(scenario.op), &mut live, &mut log);
                }
                continue;
            };
            let checked = check_window(&scenario, &log, h);
            if matches!(scenario.kind, Kind::Passthrough { .. }) {
                leapt_passthrough += checked;
            } else {
                leapt_block += checked;
            }
            for _ in 0..h {
                act(Action::Tick, &mut live, &mut log);
            }
            if rng.gen_bool() {
                act(live.draw_io(&mut rng), &mut live, &mut log);
            }
        }
    }
    assert!(
        leapt_passthrough > 500 && leapt_block > 500,
        "scenarios too tame: {leapt_passthrough} passthrough and {leapt_block} block leaps"
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
            rac.horizon(&inputs, &outputs).ticks(),
            Some(expected),
            "{waiting} waiting, {space} free"
        );
    }
    let idle = PassthroughRac::new(0);
    assert_eq!(
        idle.horizon(&[SyncFifo::new("in0", 1)], &[]),
        Horizon::QUIESCENT
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
        assert_eq!(starved.horizon, Horizon::QUIESCENT, "latency {lat}");
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
