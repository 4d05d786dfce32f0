//! Deterministic fault injection for the farm.
//!
//! A [`FaultPlan`] is a seeded chaos campaign: every cycle it rolls a
//! per-seam die for each busy worker and, on a hit, forces a fault
//! through the same interfaces a real integration bug would use. The
//! generator is the repo's own XorShift64, so a campaign is fully
//! reproducible from its [`ChaosConfig`] — a failing CI seed replays
//! bit-exact on a laptop.
//!
//! Four fault seams are armed, matching the failure modes the paper's
//! OCP isolates the host from:
//!
//! * **controller** — the FSM dies mid-job in a compute state
//!   ([`ExecError::Injected`]), standing in for decode faults and logic
//!   upsets;
//! * **bus** — a DMA burst comes back with a slave error
//!   ([`BusError::Fault`]) while the controller is in a transfer state;
//! * **bitstream** — a DPR load is poisoned mid-`rcfg`
//!   ([`ExecError::Reconfig`]), leaving the slot in a dead
//!   configuration until recovery reloads configuration 0;
//! * **allocator** — a rogue tenant squats on the largest free extent
//!   of shared job memory for a while, forcing admission-time
//!   exhaustion ([`AllocError::OutOfMemory`] surfacing as dispatch
//!   stalls).
//!
//! The first three are *worker* faults and exercise the
//! quarantine/retry machinery; the fourth is a *resource* fault and
//! exercises backpressure. Injection only targets workers that are
//! busy and not already faulted — faulting an idle worker would test
//! nothing the job path cares about.
//!
//! Two further seams *stall* instead of crashing, exercising the
//! liveness layer (watchdogs, deadlines) rather than the crash
//! circuit breaker — both disarmed by default so existing seeded
//! campaigns replay unchanged:
//!
//! * **wedge** — the controller FSM freezes mid-handshake
//!   ([`Ocp::inject_wedge`](ouessant::Ocp::inject_wedge)): busy
//!   forever, no fault raised. Only the watchdog gets the worker back;
//! * **slow RAC** — the accelerator freezes for a stretch while
//!   holding `busy`
//!   ([`Ocp::inject_rac_stall`](ouessant::Ocp::inject_rac_stall)),
//!   multiplying compute latency; repeated hits compound. A stall
//!   longer than the watchdog budget becomes a hang; a shorter one
//!   just makes the job late (the deadline path).
//!
//! [`AllocError::OutOfMemory`]: ouessant_soc::alloc::AllocError::OutOfMemory

use std::ops::Range;

use ouessant::ExecError;
use ouessant_sim::bus::{Bus, BusError, MasterId, SlaveFault};
use ouessant_sim::rng::{OneIn, XorShift64};
use ouessant_soc::alloc::{BankAllocator, Region};

use crate::worker::Worker;
use ouessant::ControllerState;

/// Fault rates for one chaos campaign.
///
/// Each `*_one_in` field is the per-cycle, per-eligible-worker odds of
/// that seam faulting: `one_in = 5000` arms roughly one fault per 5000
/// eligible cycles; `0` disarms the seam.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// RNG seed; two campaigns with equal configs replay identically.
    pub seed: u64,
    /// Odds of a mid-job controller fault per busy-worker cycle.
    pub controller_one_in: u32,
    /// Odds of a DMA slave fault per transfer-state cycle.
    pub bus_one_in: u32,
    /// Odds of a poisoned bitstream per `rcfg`-in-flight cycle.
    pub bitstream_one_in: u32,
    /// Odds per cycle (while work is pending) of squatting on shared
    /// job memory.
    pub alloc_one_in: u32,
    /// How long an allocator squat holds its lease, in cycles.
    pub alloc_hold: u64,
    /// Odds of wedging a handshake state (FIFO/DMA/RAC wait) per
    /// busy-worker cycle. Disarmed (0) by default: wedges are silent
    /// hangs and need a watchdog to be survivable.
    pub wedge_one_in: u32,
    /// Odds of freezing the RAC per `RacWait` cycle.
    pub slow_one_in: u32,
    /// Cycles each slow-RAC hit freezes the accelerator for.
    pub slow_stall: u64,
}

impl ChaosConfig {
    /// A campaign with the four crash seams armed at moderate rates
    /// (stall seams disarmed — arm them via the fields or use
    /// [`ChaosConfig::hang`]).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            controller_one_in: 25_000,
            bus_one_in: 18_000,
            bitstream_one_in: 3_000,
            alloc_one_in: 10_000,
            alloc_hold: 3_000,
            wedge_one_in: 0,
            slow_one_in: 0,
            slow_stall: 0,
        }
    }

    /// A liveness campaign: only the stall seams are armed, so every
    /// injected failure is a silent hang or a latency fault — the
    /// watchdog and deadline paths do all the work.
    #[must_use]
    pub fn hang(seed: u64) -> Self {
        Self {
            seed,
            controller_one_in: 0,
            bus_one_in: 0,
            bitstream_one_in: 0,
            alloc_one_in: 0,
            alloc_hold: 0,
            wedge_one_in: 60_000,
            slow_one_in: 15_000,
            slow_stall: 30_000,
        }
    }
}

/// What a campaign actually injected, by seam.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Mid-job controller faults forced.
    pub controller_faults: u64,
    /// DMA slave faults forced.
    pub bus_faults: u64,
    /// Bitstream loads poisoned.
    pub bitstream_faults: u64,
    /// Shared-memory squats taken.
    pub alloc_squats: u64,
    /// Controller FSMs wedged (silent hangs).
    pub wedges: u64,
    /// RAC stalls injected (latency faults).
    pub rac_stalls: u64,
}

impl ChaosStats {
    /// Total *crash* faults injected on workers (squats stress
    /// admission, not workers; wedges and stalls are silent and only
    /// become faults if a watchdog bites).
    #[must_use]
    pub fn worker_faults(&self) -> u64 {
        self.controller_faults + self.bus_faults + self.bitstream_faults
    }

    /// Counts one landed injection against its seam.
    fn count(&mut self, hit: Injection) {
        let count = match hit {
            Injection::Bitstream { .. } => &mut self.bitstream_faults,
            Injection::Bus { .. } => &mut self.bus_faults,
            Injection::Controller { .. } => &mut self.controller_faults,
            Injection::Wedge { .. } => &mut self.wedges,
            Injection::SlowRac { .. } => &mut self.rac_stalls,
        };
        *count += 1;
    }
}

/// Every seam's odds, made once per plan; `None` disarms a seam.
#[derive(Debug, Clone, Copy)]
struct SeamOdds {
    controller: Option<OneIn>,
    bus: Option<OneIn>,
    bitstream: Option<OneIn>,
    alloc: Option<OneIn>,
    wedge: Option<OneIn>,
    slow: Option<OneIn>,
}

impl SeamOdds {
    fn new(c: &ChaosConfig) -> Self {
        let odds = |n: u32| (n > 0).then(|| OneIn::new(n));
        Self {
            controller: odds(c.controller_one_in),
            bus: odds(c.bus_one_in),
            bitstream: odds(c.bitstream_one_in),
            alloc: odds(c.alloc_one_in),
            wedge: odds(c.wedge_one_in),
            slow: odds(c.slow_one_in),
        }
    }
}

/// An allocator squat in progress.
#[derive(Debug)]
struct Squat {
    lease: Region,
    release_at: u64,
}

impl Squat {
    /// Squats on `alloc`'s largest free extent, if there is one, until
    /// `release_at`, counting it in `stats`; returns the release cycle.
    #[cold]
    fn take(
        squat: &mut Option<Squat>,
        stats: &mut ChaosStats,
        alloc: &mut BankAllocator,
        release_at: u64,
    ) -> Option<u64> {
        let words = alloc.largest_free();
        if words == 0 {
            return None;
        }
        let lease = alloc.alloc(words).expect("largest_free is allocatable");
        *squat = Some(Squat { lease, release_at });
        stats.alloc_squats += 1;
        Some(release_at)
    }

    /// Gives a held squat's lease back to `alloc`.
    #[cold]
    fn release(squat: &mut Option<Squat>, alloc: &mut BankAllocator) {
        if let Some(squat) = squat.take() {
            alloc.free(squat.lease).expect("squat lease is live");
        }
    }
}

/// One worker fault the campaign decided to inject.
///
/// Rolling and applying are split so the farm's fast-forward path can
/// replay the campaign's per-cycle dice over a skipped window (keeping
/// the RNG stream bit-identical to single-stepping) and then land the
/// injection at exactly the cycle the dice chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injection {
    /// Poison the DPR load in flight on `worker`.
    Bitstream {
        worker: usize,
        slot: u16,
        available: usize,
    },
    /// Fault the DMA burst in flight on `worker`.
    Bus { worker: usize },
    /// Upset `worker`'s controller mid-job.
    Controller { worker: usize },
    /// Freeze `worker`'s controller FSM mid-handshake (silent hang).
    Wedge { worker: usize },
    /// Hold `worker`'s RAC busy for `stall` extra cycles.
    SlowRac { worker: usize, stall: u64 },
}

/// One armed die of a window's schedule: the odds it rolls at every
/// cycle and the injection a hit lands.
#[derive(Debug, Clone, Copy)]
struct Die {
    odds: OneIn,
    hit: Injection,
}

/// A seeded, armed chaos campaign. Build one from a [`ChaosConfig`]
/// and hand it to [`Farm::arm_chaos`].
///
/// [`Farm::arm_chaos`]: crate::Farm::arm_chaos
#[derive(Debug)]
pub struct FaultPlan {
    rng: XorShift64,
    config: ChaosConfig,
    odds: SeamOdds,
    stats: ChaosStats,
    squat: Option<Squat>,
    /// The armed dice of the current window (reused across windows).
    dice: Vec<Die>,
}

impl FaultPlan {
    /// Arms a campaign.
    #[must_use]
    pub fn new(config: ChaosConfig) -> Self {
        Self {
            rng: XorShift64::new(config.seed),
            odds: SeamOdds::new(&config),
            config,
            stats: ChaosStats::default(),
            squat: None,
            dice: Vec::new(),
        }
    }

    /// What has been injected so far.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Lists the window's armed dice, in the order every cycle rolls
    /// them: workers by pool index, and for each its crash die, then
    /// its wedge die, then its slow-RAC die. A disarmed seam draws
    /// nothing, so its die is left out.
    ///
    /// Each worker's dice follow the category of the state it is in
    /// after the window's first tick, which a window keeps to its end
    /// (a category change is an event bounding the window). That is
    /// its current state, except before the first tick of a
    /// fast-forward window: a controller still at a pickup, which that
    /// tick picks up, counts as `Fetch`, and the `issuer`, whose
    /// `Execute` begins its burst on that tick, as `TransferBusWait`.
    fn arm_dice(&mut self, workers: &[Worker], bus: &Bus, issuer: Option<MasterId>) {
        let (c, odds) = (&self.config, &self.odds);
        self.dice.clear();
        for (wi, worker) in workers.iter().enumerate() {
            if worker.is_idle() || worker.ocp.fault().is_some() || worker.ocp.is_wedged() {
                continue;
            }
            let controller = worker.ocp.controller();
            let state = if controller.picks_up(bus) {
                &ControllerState::Fetch
            } else if issuer == Some(controller.master()) {
                &ControllerState::TransferBusWait
            } else {
                controller.state()
            };
            let die = |odds: Option<OneIn>, hit| odds.map(|odds| Die { odds, hit });
            let crash = match state {
                ControllerState::ReconfigWait => die(
                    odds.bitstream,
                    Injection::Bitstream {
                        worker: wi,
                        slot: u16::try_from(worker.loaded_config())
                            .expect("config index fits rcfg operand"),
                        available: worker.caps().len(),
                    },
                ),
                ControllerState::LoadProgram | ControllerState::TransferBusWait => {
                    die(odds.bus, Injection::Bus { worker: wi })
                }
                ControllerState::Idle | ControllerState::Faulted(_) => None,
                // Fetch, Decode and Execute share this category (and no
                // stall die below), so a fetch/decode leap keeps the
                // dice constant across its window.
                _ => die(odds.controller, Injection::Controller { worker: wi }),
            };
            // The wedge seam targets handshake states — places a real
            // FSM can deadlock on a peer that never answers.
            let handshake = matches!(
                state,
                ControllerState::LoadProgram
                    | ControllerState::TransferFifoWait
                    | ControllerState::TransferBusWait
                    | ControllerState::SyncWait
                    | ControllerState::RacWait
            );
            let wedge = die(
                odds.wedge.filter(|_| handshake),
                Injection::Wedge { worker: wi },
            );
            let slow = die(
                odds.slow
                    .filter(|_| matches!(state, ControllerState::RacWait)),
                Injection::SlowRac {
                    worker: wi,
                    stall: c.slow_stall,
                },
            );
            self.dice.extend([crash, wedge, slow].into_iter().flatten());
        }
    }

    /// Lands previously rolled injections on their workers.
    pub(crate) fn apply(workers: &mut [Worker], injections: &[Injection]) {
        for inj in injections {
            match *inj {
                Injection::Bitstream {
                    worker,
                    slot,
                    available,
                } => {
                    workers[worker]
                        .ocp
                        .inject_fault(ExecError::Reconfig { slot, available });
                }
                Injection::Bus { worker } => {
                    workers[worker]
                        .ocp
                        .inject_fault(ExecError::Bus(BusError::Fault(SlaveFault {
                            reason: "chaos: slave error response on DMA burst".to_string(),
                        })));
                }
                Injection::Controller { worker } => {
                    workers[worker].ocp.inject_fault(ExecError::Injected {
                        cause: "chaos: controller upset",
                    });
                }
                Injection::Wedge { worker } => {
                    workers[worker].ocp.inject_wedge();
                }
                Injection::SlowRac { worker, stall } => {
                    workers[worker].ocp.inject_rac_stall(stall);
                }
            }
        }
    }

    /// Replays the cycles of `window` in tick order, stopping after the
    /// first cycle that injects. Returns the number of cycles consumed
    /// (at most the whole window); hits land on `out`.
    ///
    /// Each cycle runs `dispatch` first, then the armed dice, then the
    /// allocator squat: its release and its take touch only the
    /// allocator, so the squat timeline is exact in a leap too. A window
    /// that stalls dispatch passes the cycle's pick and failed lease as
    /// `dispatch`, which ends the window in front of a cycle by
    /// returning `false`; every other window passes `|_, _| true`.
    ///
    /// Worker states are read but never written, before the window's
    /// first tick: the dice are listed once, from the state each worker
    /// will be in after that tick (`issuer` is the worker whose
    /// transfer the window issues on it, if any), and the list is
    /// rolled every cycle — exactly the dice single-stepping would
    /// roll, drawn from the same stream.
    #[allow(clippy::too_many_arguments)] // the window, the pool it reads and the ledger it writes
    pub(crate) fn fast_forward(
        &mut self,
        window: Range<u64>,
        workers: &[Worker],
        bus: &Bus,
        issuer: Option<MasterId>,
        alloc: &mut BankAllocator,
        work_pending: bool,
        out: &mut Vec<Injection>,
        dispatch: impl FnMut(u64, &mut BankAllocator) -> bool,
    ) -> u64 {
        self.arm_dice(workers, bus, issuer);
        self.roll_window(window, alloc, work_pending, out, dispatch)
    }

    /// The kernel of [`FaultPlan::fast_forward`], over the listed dice.
    /// The generator lives in a local for the whole window and is
    /// written back once, the held squat's release cycle is kept in
    /// another, and a hit, a squat's take and its release leave the
    /// loop's hot path.
    fn roll_window(
        &mut self,
        window: Range<u64>,
        alloc: &mut BankAllocator,
        work_pending: bool,
        out: &mut Vec<Injection>,
        mut dispatch: impl FnMut(u64, &mut BankAllocator) -> bool,
    ) -> u64 {
        let Self {
            rng: plan_rng,
            config,
            odds,
            stats,
            squat,
            dice,
        } = self;
        let mut rng = plan_rng.clone();
        // The squat die draws only while work is pending and no squat
        // is held.
        let squat_odds = odds.alloc.filter(|_| work_pending);
        let mut release_at = squat.as_ref().map(|s| s.release_at);
        let start = window.start;
        let mut end = window.end;
        for now in window {
            if !dispatch(now, alloc) {
                end = now;
                break;
            }
            let mut hit = false;
            for die in dice.iter() {
                if rng.one_in(die.odds) {
                    hit = true;
                    land(stats, die.hit, out);
                }
            }
            if release_at.is_some_and(|at| now >= at) {
                Squat::release(squat, alloc);
                release_at = None;
            }
            if let (None, Some(odds)) = (release_at, squat_odds) {
                if rng.one_in(odds) {
                    release_at = Squat::take(squat, stats, alloc, now + config.alloc_hold);
                }
            }
            if hit {
                end = now + 1;
                break;
            }
        }
        *plan_rng = rng;
        end - start
    }

    /// When the held squat (if any) will release its lease.
    pub(crate) fn squat_release_at(&self) -> Option<u64> {
        self.squat.as_ref().map(|s| s.release_at)
    }

    /// Whether the plan is still holding a shared-memory squat (the
    /// farm keeps ticking until it lets go, so the lease ledger drains
    /// to zero).
    pub(crate) fn holding_squat(&self) -> bool {
        self.squat.is_some()
    }

    /// Releases a held squat early (end of run).
    pub(crate) fn release_squat(&mut self, alloc: &mut BankAllocator) {
        Squat::release(&mut self.squat, alloc);
    }
}

/// Counts a die's hit and queues its injection.
#[cold]
fn land(stats: &mut ChaosStats, hit: Injection, out: &mut Vec<Injection>) {
    stats.count(hit);
    out.push(hit);
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// The per-cycle roller the kernel replaced, kept as its oracle:
        /// every die through `gen_range_u32` and a 64-bit `%`.
        fn roll(&mut self, one_in: u32) -> bool {
            one_in > 0 && self.rng.gen_range_u32(0..one_in) == 0
        }

        fn roll_cycle(
            &mut self,
            dice: &[(u32, Injection)],
            now: u64,
            alloc: &mut BankAllocator,
            work_pending: bool,
            out: &mut Vec<Injection>,
        ) {
            for &(one_in, hit) in dice {
                if self.rng.gen_range_u32(0..one_in) == 0 {
                    self.stats.count(hit);
                    out.push(hit);
                }
            }
            if let Some(squat) = &self.squat {
                if now >= squat.release_at {
                    let squat = self.squat.take().expect("checked above");
                    alloc.free(squat.lease).expect("squat lease is live");
                }
            }
            if self.squat.is_none() && work_pending && self.roll(self.config.alloc_one_in) {
                let words = alloc.largest_free();
                if words > 0 {
                    let lease = alloc.alloc(words).expect("largest_free is allocatable");
                    self.squat = Some(Squat {
                        lease,
                        release_at: now + self.config.alloc_hold,
                    });
                    self.stats.alloc_squats += 1;
                }
            }
        }

        /// The oracle's window: one `roll_cycle` a cycle, stopping after
        /// the first that injects.
        fn oracle_window(
            &mut self,
            dice: &[(u32, Injection)],
            window: Range<u64>,
            alloc: &mut BankAllocator,
            work_pending: bool,
            out: &mut Vec<Injection>,
        ) -> u64 {
            let start = window.start;
            for now in window.clone() {
                self.roll_cycle(dice, now, alloc, work_pending, out);
                if !out.is_empty() {
                    return now - start + 1;
                }
            }
            window.end - start
        }
    }

    /// The xorshift64* output multiplier and its inverse mod 2^64.
    const MUL: u64 = 0x2545_F491_4F6C_DD1D;

    /// The seed whose generator draws `x` first (`x` nonzero): the
    /// output multiply and the three xorshift steps run backwards.
    fn seed_drawing(x: u64) -> u64 {
        let mut inv = MUL;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(MUL.wrapping_mul(inv)));
        }
        let undo_right = |y: u64, s: u32| (0..64 / s).fold(y, |v, _| y ^ (v >> s));
        let undo_left = |y: u64, s: u32| (0..64 / s).fold(y, |v, _| y ^ (v << s));
        let seed = undo_right(undo_left(undo_right(x.wrapping_mul(inv), 27), 25), 12);
        assert_eq!(XorShift64::new(seed).next_u64(), x, "seed search");
        seed
    }

    /// The squat a scenario starts with.
    #[derive(Debug, Clone, Copy)]
    enum SquatStart {
        None,
        /// Held past the window's end.
        Held,
        /// Held, released inside the window.
        Releasing,
    }

    /// One drawn kernel-vs-oracle case.
    #[derive(Debug, Clone)]
    struct Scenario {
        config: ChaosConfig,
        dice: Vec<(u32, Injection)>,
        window: Range<u64>,
        /// The cycle `dispatch` ends the window in front of, if any.
        stop_at: Option<u64>,
        squat: SquatStart,
        /// Words leased before the window, fragmenting the allocator.
        leases: Vec<u32>,
        work_pending: bool,
    }

    impl Scenario {
        fn draw(r: &mut XorShift64) -> Self {
            const ODDS: [u32; 9] = [1, 2, 3, 5, 8, 64, 1_000, u32::MAX - 1, u32::MAX];
            let mut pick = |xs: &[u32]| xs[r.gen_range_u32(0..xs.len() as u32) as usize];
            let alloc_one_in = pick(&[0, 1, 2, 7, 40, 1_000]);
            let alloc_hold = u64::from(pick(&[1, 3, 25, 100]));
            let len = r.gen_range_u32(0..6) as usize;
            let dice = (0..len)
                .map(|i| {
                    let hit = match r.gen_range_u32(0..5) {
                        0 => Injection::Bitstream {
                            worker: i,
                            slot: 1,
                            available: 2,
                        },
                        1 => Injection::Bus { worker: i },
                        2 => Injection::Controller { worker: i },
                        3 => Injection::Wedge { worker: i },
                        _ => Injection::SlowRac {
                            worker: i,
                            stall: 9,
                        },
                    };
                    (ODDS[r.gen_range_u32(0..ODDS.len() as u32) as usize], hit)
                })
                .collect();
            let start = r.gen_range_u64(0..10_000);
            let window = start..start + r.gen_range_u64(1..300);
            let stop_at = r.gen_bool().then(|| r.gen_range_u64(window.clone()));
            let squat = match r.gen_range_u32(0..3) {
                0 => SquatStart::None,
                1 => SquatStart::Held,
                _ => SquatStart::Releasing,
            };
            let leases = (0..r.gen_range_u32(0..4))
                .map(|_| r.gen_range_u32(1..400))
                .collect();
            Self {
                config: ChaosConfig {
                    seed: r.next_u64(),
                    alloc_one_in,
                    alloc_hold,
                    ..ChaosConfig::hang(0)
                },
                dice,
                window,
                stop_at,
                squat,
                leases,
                work_pending: !r.next_u64().is_multiple_of(4),
            }
        }

        /// A fresh plan and allocator in the scenario's starting state.
        fn build(&self) -> (FaultPlan, BankAllocator) {
            let mut alloc = BankAllocator::new(0, 1024);
            for &words in &self.leases {
                // Leaked on purpose: they only shape the free list.
                let _ = alloc.alloc(words);
            }
            let mut plan = FaultPlan::new(self.config.clone());
            let release_at = match self.squat {
                SquatStart::None => None,
                SquatStart::Held => Some(self.window.end + 1),
                SquatStart::Releasing => Some((self.window.start + self.window.end) / 2),
            };
            if let Some(release_at) = release_at {
                if let Ok(lease) = alloc.alloc(alloc.largest_free().clamp(1, 100)) {
                    plan.squat = Some(Squat { lease, release_at });
                }
            }
            (plan, alloc)
        }

        /// Runs the kernel and the oracle from equal starts and asserts
        /// every observable agrees. Returns the cycles consumed.
        fn check(&self) -> u64 {
            let (mut kernel, mut k_alloc) = self.build();
            kernel.dice = self
                .dice
                .iter()
                .map(|&(n, hit)| Die {
                    odds: OneIn::new(n),
                    hit,
                })
                .collect();
            let mut k_out = Vec::new();
            let stop_at = self.stop_at.unwrap_or(u64::MAX);
            let consumed = kernel.roll_window(
                self.window.clone(),
                &mut k_alloc,
                self.work_pending,
                &mut k_out,
                |now, _| now < stop_at,
            );

            let (mut oracle, mut o_alloc) = self.build();
            let mut o_out = Vec::new();
            let end = self.window.end.min(stop_at.max(self.window.start));
            let expected = oracle.oracle_window(
                &self.dice,
                self.window.start..end,
                &mut o_alloc,
                self.work_pending,
                &mut o_out,
            );
            assert_eq!(consumed, expected, "consumed cycles: {self:?}");
            assert_eq!(k_out, o_out, "injections: {self:?}");
            assert_eq!(kernel.stats, oracle.stats, "stats: {self:?}");
            assert_eq!(kernel.rng, oracle.rng, "generator state: {self:?}");
            assert_eq!(
                format!("{:?}", kernel.squat),
                format!("{:?}", oracle.squat),
                "squat: {self:?}"
            );
            assert_eq!(
                format!("{k_alloc:?}"),
                format!("{o_alloc:?}"),
                "allocator: {self:?}"
            );
            consumed
        }
    }

    #[test]
    fn kernel_rolls_exactly_like_the_per_cycle_oracle() {
        let mut r = XorShift64::new(0xD1CE);
        let (mut empty, mut first, mut last, mut squats, mut released) = (0, 0, 0, 0, 0);
        for _ in 0..4_000 {
            let mut case = Scenario::draw(&mut r);
            empty += usize::from(case.dice.is_empty());
            let (mut plan, mut alloc) = case.build();
            let mut out = Vec::new();
            let consumed = plan.oracle_window(
                &case.dice,
                case.window.clone(),
                &mut alloc,
                case.work_pending,
                &mut out,
            );
            squats += plan.stats.alloc_squats;
            released += u64::from(matches!(case.squat, SquatStart::Releasing));
            if !out.is_empty() {
                // The same draws, with the hit on the window's last cycle.
                case.window.end = case.window.start + consumed;
                last += 1;
            }
            if let Some(&(n, _)) = case.dice.first() {
                if r.gen_bool() {
                    // The first draw is `n`'s largest multiple: a hit on the
                    // window's first cycle, at the compare's boundary.
                    case.config.seed = seed_drawing(u64::MAX - u64::MAX % u64::from(n));
                    first += 1;
                }
            }
            case.check();
        }
        assert!(empty > 0 && first > 0 && last > 0 && squats > 0 && released > 0);
    }
}
