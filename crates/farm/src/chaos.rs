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

use ouessant::ExecError;
use ouessant_sim::bus::{Bus, BusError, MasterId, SlaveFault};
use ouessant_sim::rng::XorShift64;
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
}

/// An allocator squat in progress.
#[derive(Debug)]
struct Squat {
    lease: Region,
    release_at: u64,
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
    one_in: u32,
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

    fn roll(&mut self, one_in: u32) -> bool {
        one_in > 0 && self.rng.gen_range_u32(0..one_in) == 0
    }

    /// Lists the window's armed dice, in the order every cycle rolls
    /// them: workers by pool index, and for each its crash die, then
    /// its wedge die, then its slow-RAC die. A die with `one_in = 0`
    /// would draw nothing, so it is left out.
    ///
    /// Each worker's dice follow the category of the state it is in
    /// after the window's first tick, which a window keeps to its end
    /// (a category change is an event bounding the window). That is
    /// its current state, except before the first tick of a
    /// fast-forward window: a controller still at a pickup, which that
    /// tick picks up, counts as `Fetch`, and the `issuer`, whose
    /// `Execute` begins its burst on that tick, as `TransferBusWait`.
    fn arm_dice(&mut self, workers: &[Worker], bus: &Bus, issuer: Option<MasterId>) {
        let c = &self.config;
        self.dice.clear();
        for (wi, worker) in workers.iter().enumerate() {
            if worker.active.is_none() || worker.ocp.fault().is_some() || worker.ocp.is_wedged() {
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
            let crash = match state {
                ControllerState::ReconfigWait => Some(Die {
                    one_in: c.bitstream_one_in,
                    hit: Injection::Bitstream {
                        worker: wi,
                        slot: u16::try_from(worker.loaded_config())
                            .expect("config index fits rcfg operand"),
                        available: worker.caps().len(),
                    },
                }),
                ControllerState::LoadProgram | ControllerState::TransferBusWait => Some(Die {
                    one_in: c.bus_one_in,
                    hit: Injection::Bus { worker: wi },
                }),
                ControllerState::Idle | ControllerState::Faulted(_) => None,
                // Fetch, Decode and Execute share this category (and no
                // stall die below), so a fetch/decode leap keeps the
                // dice constant across its window.
                _ => Some(Die {
                    one_in: c.controller_one_in,
                    hit: Injection::Controller { worker: wi },
                }),
            };
            // The wedge seam targets handshake states — places a real
            // FSM can deadlock on a peer that never answers.
            let wedge = matches!(
                state,
                ControllerState::LoadProgram
                    | ControllerState::TransferFifoWait
                    | ControllerState::TransferBusWait
                    | ControllerState::SyncWait
                    | ControllerState::RacWait
            )
            .then_some(Die {
                one_in: c.wedge_one_in,
                hit: Injection::Wedge { worker: wi },
            });
            let slow = matches!(state, ControllerState::RacWait).then_some(Die {
                one_in: c.slow_one_in,
                hit: Injection::SlowRac {
                    worker: wi,
                    stall: c.slow_stall,
                },
            });
            self.dice.extend(
                [crash, wedge, slow]
                    .into_iter()
                    .flatten()
                    .filter(|d| d.one_in > 0),
            );
        }
    }

    /// Rolls one cycle of the armed dice without touching any worker,
    /// pushing the hits onto `out`, then the allocator squat. Squat
    /// release and take still happen here (they only touch the
    /// allocator), so the squat timeline is exact even when the farm
    /// replays a skipped window through this method.
    fn roll_cycle(
        &mut self,
        now: u64,
        alloc: &mut BankAllocator,
        work_pending: bool,
        out: &mut Vec<Injection>,
    ) {
        for die in &self.dice {
            if self.rng.gen_range_u32(0..die.one_in) == 0 {
                let count = match die.hit {
                    Injection::Bitstream { .. } => &mut self.stats.bitstream_faults,
                    Injection::Bus { .. } => &mut self.stats.bus_faults,
                    Injection::Controller { .. } => &mut self.stats.controller_faults,
                    Injection::Wedge { .. } => &mut self.stats.wedges,
                    Injection::SlowRac { .. } => &mut self.stats.rac_stalls,
                };
                *count += 1;
                out.push(die.hit);
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

    /// Replays the dice of the cycles in `window`, stopping after the
    /// first cycle that injects. Returns the number of cycles consumed
    /// (at least one, at most the whole window); hits land on `out`.
    ///
    /// Worker states are read but never written, before the window's
    /// first tick: the dice are listed once, from the state each worker
    /// will be in after that tick (`issuer` is the worker whose
    /// transfer the window issues on it, if any), and the list is
    /// rolled every cycle — exactly the dice single-stepping would
    /// roll.
    #[allow(clippy::too_many_arguments)] // the window, the pool it reads and the ledger it writes
    pub(crate) fn fast_forward(
        &mut self,
        window: std::ops::Range<u64>,
        workers: &[Worker],
        bus: &Bus,
        issuer: Option<MasterId>,
        alloc: &mut BankAllocator,
        work_pending: bool,
        out: &mut Vec<Injection>,
    ) -> u64 {
        self.arm_dice(workers, bus, issuer);
        let start = window.start;
        for now in window.clone() {
            self.roll_cycle(now, alloc, work_pending, out);
            if !out.is_empty() {
                return now - start + 1;
            }
        }
        window.end - start
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
        if let Some(squat) = self.squat.take() {
            alloc.free(squat.lease).expect("squat lease is live");
        }
    }
}
