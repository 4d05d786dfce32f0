//! What the analyzer is told about the memory map.
//!
//! Bank sizes are not part of the microcode — they are a property of
//! the SoC integration (the driver's buffer carve-up, the farm's
//! per-job leases). [`VerifyConfig`] carries that knowledge into the
//! analysis; [`VerifyConfig::default`] models the full 14-bit
//! addressable window per bank, which is the weakest check any
//! integration can rely on.

use ouessant_isa::operands::{MAX_OFFSET, NUM_BANKS};

/// What the analyzer may assume about one memory bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankModel {
    /// No size information: only the 14-bit offset field bounds apply.
    Unbounded,
    /// The bank holds exactly this many 32-bit words.
    Words(u32),
    /// The bank is not wired up at all; touching it is an error.
    Unmapped,
}

impl BankModel {
    /// The word capacity to check transfers against, if any.
    #[must_use]
    pub fn capacity(&self) -> Option<u32> {
        match *self {
            BankModel::Unbounded => Some(MAX_OFFSET + 1),
            BankModel::Words(n) => Some(n),
            BankModel::Unmapped => None,
        }
    }
}

/// The memory-map and FIFO knowledge for one [`crate::verify`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Per-bank size model.
    pub banks: [BankModel; NUM_BANKS as usize],
    /// FIFO depth in words, if known: a burst longer than this can
    /// never complete (the DMA blocks on FIFO space for the whole
    /// burst).
    pub fifo_depth: Option<u32>,
}

impl Default for VerifyConfig {
    /// Every bank spans the full 14-bit window (16384 words), FIFO
    /// depth unknown.
    fn default() -> Self {
        Self {
            banks: [BankModel::Words(MAX_OFFSET + 1); NUM_BANKS as usize],
            fifo_depth: None,
        }
    }
}

impl VerifyConfig {
    /// The standard job memory map used by the driver and the farm:
    /// bank 0 holds the program, bank 1 the input, bank 2 the output,
    /// banks 3–7 are unmapped.
    #[must_use]
    pub fn job_map(prog_words: u32, input_words: u32, output_words: u32) -> Self {
        let mut banks = [BankModel::Unmapped; NUM_BANKS as usize];
        banks[0] = BankModel::Words(prog_words);
        banks[1] = BankModel::Words(input_words);
        banks[2] = BankModel::Words(output_words);
        Self {
            banks,
            fifo_depth: None,
        }
    }

    /// Sets the FIFO depth to check bursts against.
    #[must_use]
    pub fn with_fifo_depth(mut self, words: u32) -> Self {
        self.fifo_depth = Some(words);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_full_window() {
        let c = VerifyConfig::default();
        assert_eq!(c.banks[0].capacity(), Some(16384));
        assert_eq!(c.fifo_depth, None);
    }

    #[test]
    fn job_map_shapes() {
        let c = VerifyConfig::job_map(1024, 512, 256).with_fifo_depth(64);
        assert_eq!(c.banks[1], BankModel::Words(512));
        assert_eq!(c.banks[5].capacity(), None);
        assert_eq!(c.fifo_depth, Some(64));
    }
}
