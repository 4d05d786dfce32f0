//! A dynamically reconfigurable RAC slot.
//!
//! §VI of the paper lists "Dynamic Partial Reconfiguration" as current
//! work in progress: one physical accelerator region whose contents are
//! swapped at runtime by streaming a partial bitstream through the
//! configuration port. [`ReconfigurableSlot`] is the behavioural model:
//! it holds several ready accelerator configurations, exposes the one
//! that is currently "loaded", and charges a bitstream-transfer latency
//! on every swap (triggered by the extension ISA's `rcfg` instruction).

use std::num::NonZeroU64;

use ouessant_sim::fifo::SyncFifo;
use ouessant_sim::{Cycle, Horizon};

use crate::rac::{Outlook, Rac, RacIo, ReconfigResponse};

/// Default ICAP-style reconfiguration throughput used to derive a load
/// latency from a bitstream size: 4 bytes per cycle (32-bit ICAP).
pub const ICAP_BYTES_PER_CYCLE: u64 = 4;

/// One configuration in the slot: an accelerator plus the size of its
/// partial bitstream (which determines the swap latency).
struct SlotConfig {
    rac: Box<dyn Rac>,
    reconfig_cycles: u64,
}

/// A reconfigurable accelerator region holding several configurations.
///
/// The slot itself implements [`Rac`], so it plugs into the OCP like
/// any static accelerator; the microcode selects the active
/// configuration with `rcfg <slot>` and the controller stalls for the
/// reported latency — exactly the usage §VI anticipates.
///
/// The FIFO interface counts are the maxima over all configurations
/// (the FIFOs belong to the *static* region in a DPR design).
///
/// # Examples
///
/// ```
/// use ouessant_rac::idct::IdctRac;
/// use ouessant_rac::passthrough::PassthroughRac;
/// use ouessant_rac::rac::{Rac, ReconfigResponse};
/// use ouessant_rac::slot::ReconfigurableSlot;
///
/// let mut slot = ReconfigurableSlot::new()
///     .with_config(Box::new(IdctRac::new()), 120_000)       // bitstream bytes
///     .with_config(Box::new(PassthroughRac::new(0)), 40_000);
/// assert_eq!(slot.active_name(), "idct2d");
/// match slot.reconfigure(1) {
///     ReconfigResponse::Started { cycles } => assert_eq!(cycles, 40_000 / 4),
///     other => panic!("{other:?}"),
/// }
/// assert_eq!(slot.active_name(), "passthrough");
/// ```
pub struct ReconfigurableSlot {
    configs: Vec<SlotConfig>,
    active: usize,
    /// Cycles left until the freshly loaded configuration is usable.
    loading_left: u64,
    /// Swaps performed since reset.
    swaps: u64,
}

impl std::fmt::Debug for ReconfigurableSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReconfigurableSlot")
            .field("configs", &self.configs.len())
            .field("active", &self.active)
            .field("loading_left", &self.loading_left)
            .finish()
    }
}

impl Default for ReconfigurableSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl ReconfigurableSlot {
    /// An empty slot; add configurations with
    /// [`ReconfigurableSlot::with_config`]. Configuration 0 is loaded
    /// initially.
    #[must_use]
    pub fn new() -> Self {
        Self {
            configs: Vec::new(),
            active: 0,
            loading_left: 0,
            swaps: 0,
        }
    }

    /// Adds a configuration with a partial bitstream of
    /// `bitstream_bytes`; the swap latency is
    /// `bitstream_bytes / ICAP_BYTES_PER_CYCLE`.
    #[must_use]
    pub fn with_config(mut self, rac: Box<dyn Rac>, bitstream_bytes: u64) -> Self {
        self.configs.push(SlotConfig {
            rac,
            reconfig_cycles: bitstream_bytes / ICAP_BYTES_PER_CYCLE,
        });
        self
    }

    /// The active configuration's accelerator name.
    ///
    /// # Panics
    ///
    /// Panics if the slot has no configurations.
    #[must_use]
    pub fn active_name(&self) -> &str {
        self.configs[self.active].rac.name()
    }

    /// Swaps performed since the last reset.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The full bitstream-load cost of configuration `index`, in
    /// cycles: what an `rcfg` to it costs from any other configuration.
    /// `None` for unknown indices.
    #[must_use]
    pub fn reconfig_cycles(&self, index: usize) -> Option<u64> {
        self.configs.get(index).map(|c| c.reconfig_cycles)
    }

    fn active_mut(&mut self) -> &mut dyn Rac {
        self.configs[self.active].rac.as_mut()
    }
}

impl Rac for ReconfigurableSlot {
    fn name(&self) -> &str {
        if self.configs.is_empty() {
            "dpr_slot(empty)"
        } else {
            // The *slot* is the integration unit; traces show the region
            // name, `active_name` the current contents.
            "dpr_slot"
        }
    }

    fn num_input_fifos(&self) -> usize {
        self.configs
            .iter()
            .map(|c| c.rac.num_input_fifos())
            .max()
            .unwrap_or(1)
    }

    fn num_output_fifos(&self) -> usize {
        self.configs
            .iter()
            .map(|c| c.rac.num_output_fifos())
            .max()
            .unwrap_or(1)
    }

    fn reset(&mut self) {
        for c in &mut self.configs {
            c.rac.reset();
        }
        self.active = 0;
        self.loading_left = 0;
        self.swaps = 0;
    }

    fn start(&mut self, op: u16) {
        // A start during loading is a microcode bug in real hardware;
        // behaviourally we let the start take effect once loading ends
        // (busy() already covers the loading window).
        self.active_mut().start(op);
    }

    fn busy(&self) -> bool {
        self.loading_left > 0 || self.configs[self.active].rac.busy()
    }

    fn tick(&mut self, io: &mut RacIo<'_>) {
        if self.loading_left > 0 {
            self.loading_left -= 1;
            return; // region is dark during the bitstream load
        }
        self.active_mut().tick(io);
    }

    /// The bitstream load is a pure countdown, and the region going
    /// live again is the event: its last tick ends busy for the freshly
    /// reset configuration. Once loaded, the active configuration
    /// answers.
    fn outlook(&self, inputs: &[SyncFifo<u32>], outputs: &[SyncFifo<u32>]) -> Outlook {
        let Some(active) = self.configs.get(self.active) else {
            return Horizon::QUIESCENT.into();
        };
        let Some(left) = NonZeroU64::new(self.loading_left) else {
            return active.rac.outlook(inputs, outputs);
        };
        Outlook {
            horizon: Horizon::in_ticks(left),
            ends: (!active.rac.busy()).then_some(0),
        }
    }

    /// A start during a load waits for the region: the next tick.
    fn outlook_after_start(
        &self,
        op: u16,
        landed: usize,
        inputs: &[SyncFifo<u32>],
        outputs: &[SyncFifo<u32>],
    ) -> Outlook {
        match self.configs.get(self.active) {
            Some(c) if self.loading_left == 0 => {
                c.rac.outlook_after_start(op, landed, inputs, outputs)
            }
            _ => Horizon::NEXT_TICK.into(),
        }
    }

    fn advance(&mut self, cycles: Cycle, io: &mut RacIo<'_>) {
        let n = cycles.count();
        if n == 0 {
            return;
        }
        if self.loading_left > 0 {
            debug_assert!(n < self.loading_left, "advanced past the bitstream load");
            self.loading_left -= n;
            return; // region is dark during the load, like tick()
        }
        if let Some(c) = self.configs.get_mut(self.active) {
            c.rac.advance(cycles, io);
        }
    }

    fn reconfigure(&mut self, slot: u16) -> ReconfigResponse {
        let idx = usize::from(slot);
        if idx >= self.configs.len() {
            return ReconfigResponse::BadSlot {
                available: self.configs.len(),
            };
        }
        // Reloading the already-active configuration is a cheap reset
        // (hardware would skip the bitstream; we model a short settle).
        let cycles = if idx == self.active {
            1
        } else {
            self.configs[idx].reconfig_cycles
        };
        self.active = idx;
        self.active_mut().reset();
        self.loading_left = cycles;
        self.swaps += 1;
        ReconfigResponse::Started { cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idct::IdctRac;
    use crate::passthrough::PassthroughRac;
    use crate::rac::RacSocket;

    fn slot() -> ReconfigurableSlot {
        ReconfigurableSlot::new()
            .with_config(Box::new(PassthroughRac::new(0)), 4_000)
            .with_config(Box::new(PassthroughRac::scaling(3, 0)), 8_000)
    }

    #[test]
    fn starts_with_config_zero() {
        let s = slot();
        assert_eq!(s.active_name(), "passthrough");
        assert!(!s.busy(), "no bitstream load at reset");
    }

    #[test]
    fn reconfigure_switches_and_charges_latency() {
        let mut s = slot();
        match s.reconfigure(1) {
            ReconfigResponse::Started { cycles } => assert_eq!(cycles, 2_000),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.active_name(), "scale_x3");
        assert!(s.busy(), "region dark during bitstream load");
        assert_eq!(
            s.outlook(&[], &[]).horizon.ticks(),
            Some(2_000),
            "load in progress"
        );
    }

    #[test]
    fn bad_slot_reported() {
        let mut s = slot();
        assert_eq!(s.reconfigure(7), ReconfigResponse::BadSlot { available: 2 });
        assert_eq!(s.active_name(), "passthrough", "active config unchanged");
    }

    #[test]
    fn static_rac_reports_unsupported() {
        let mut idct = IdctRac::new();
        assert_eq!(idct.reconfigure(0), ReconfigResponse::Unsupported);
    }

    #[test]
    fn loading_counts_down_through_ticks() {
        let mut socket = RacSocket::new(Box::new(slot()), 64);
        match socket.reconfigure(1) {
            ReconfigResponse::Started { cycles } => {
                for _ in 0..cycles {
                    assert!(socket.busy());
                    socket.tick();
                }
                assert!(!socket.busy(), "load complete");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn behaviour_follows_active_config() {
        let mut socket = RacSocket::new(Box::new(slot()), 64);
        // Config 0: identity.
        socket.push_input(0, 7).unwrap();
        socket.start(1);
        socket.run_until_done(1_000);
        assert_eq!(socket.pop_output(0).unwrap(), 7);
        // Swap to config 1: ×3 scaler.
        let ReconfigResponse::Started { cycles } = socket.reconfigure(1) else {
            panic!("swap failed");
        };
        for _ in 0..cycles {
            socket.tick();
        }
        socket.push_input(0, 7).unwrap();
        socket.start(1);
        socket.run_until_done(1_000_000);
        assert_eq!(socket.pop_output(0).unwrap(), 21);
    }

    #[test]
    fn reload_of_active_config_is_cheap_reset() {
        let mut s = slot();
        match s.reconfigure(0) {
            ReconfigResponse::Started { cycles } => assert_eq!(cycles, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.swaps(), 1);
    }

    #[test]
    fn fifo_counts_are_maxima() {
        use crate::fir::FirRac;
        let s = ReconfigurableSlot::new()
            .with_config(Box::new(PassthroughRac::new(0)), 1_000) // 1 in
            .with_config(Box::new(FirRac::new()), 1_000); // 2 in
        assert_eq!(s.num_input_fifos(), 2);
        assert_eq!(s.num_output_fifos(), 1);
    }

    #[test]
    fn reconfig_cycles_report_the_full_load_cost() {
        let mut s = slot();
        let _ = s.reconfigure(1);
        // The full load cost does not depend on what is loaded.
        assert_eq!(s.reconfig_cycles(1), Some(2_000));
        assert_eq!(s.reconfig_cycles(0), Some(1_000));
        assert_eq!(s.reconfig_cycles(2), None);
    }

    #[test]
    fn reset_returns_to_config_zero() {
        let mut s = slot();
        let _ = s.reconfigure(1);
        s.reset();
        assert_eq!(s.active_name(), "passthrough");
        assert!(!s.busy(), "reset ends the bitstream load");
        assert_eq!(s.swaps(), 0);
    }
}
