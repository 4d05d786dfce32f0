//! SRAM memory model.
//!
//! The paper's Nexys4 board provides 16 MB of external SRAM; its access
//! latency (relative to the 50 MHz system clock) is what makes transfers
//! cost more than one cycle per word. [`SramConfig`] captures that as
//! first-access and sequential wait states; the defaults are calibrated
//! so a DMA64 burst through the default bus comes out near the paper's
//! ≈1.5 cycles/word (§V-B).

use crate::bus::{BusSlave, SlaveFault};

/// SRAM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramConfig {
    /// Wait states before the first beat of a sub-burst (address setup
    /// and the external memory's access time).
    pub first_access_wait_states: u32,
    /// Wait states between subsequent beats of a sub-burst.
    pub sequential_wait_states: u32,
}

impl SramConfig {
    /// Zero-wait-state memory (an idealized on-chip BRAM).
    #[must_use]
    pub fn no_wait() -> Self {
        Self {
            first_access_wait_states: 0,
            sequential_wait_states: 0,
        }
    }

    /// The calibration used for the paper reproduction: 3 wait states on
    /// the first access of each sub-burst, single-cycle sequential beats.
    /// With the default 16-beat sub-bursts this yields
    /// `(1 grant + 1 address + 3 wait + 16 beats) / 16 = 1.31` bus cycles
    /// per word, and ≈1.4–1.5 cycles/word end-to-end once the OCP's
    /// per-instruction overhead is included — the paper's measured figure.
    #[must_use]
    pub fn external_sram() -> Self {
        Self {
            first_access_wait_states: 3,
            sequential_wait_states: 0,
        }
    }
}

impl Default for SramConfig {
    fn default() -> Self {
        Self::external_sram()
    }
}

/// A word-addressed SRAM, usable directly or as a bus slave.
///
/// # Examples
///
/// ```
/// use ouessant_sim::{Sram, SramConfig};
///
/// let mut ram = Sram::with_words(256, SramConfig::no_wait());
/// ram.store(10, 0xCAFE)?;
/// assert_eq!(ram.load(10)?, 0xCAFE);
/// # Ok::<(), ouessant_sim::bus::SlaveFault>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sram {
    words: Vec<u32>,
    config: SramConfig,
    name: String,
}

impl Sram {
    /// An SRAM of `words` zero-initialized 32-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    #[must_use]
    pub fn with_words(words: usize, config: SramConfig) -> Self {
        assert!(words > 0, "memory must be non-empty");
        Self {
            words: vec![0; words],
            config,
            name: "sram".to_string(),
        }
    }

    /// Renames the memory (for traces with several memories).
    #[must_use]
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Reads the word at `index` (word-granular, un-timed).
    ///
    /// # Errors
    ///
    /// [`SlaveFault`] if `index` is out of range.
    pub fn load(&self, index: usize) -> Result<u32, SlaveFault> {
        self.words
            .get(index)
            .copied()
            .ok_or_else(|| self.out_of_range(index))
    }

    /// Writes the word at `index` (word-granular, un-timed).
    ///
    /// # Errors
    ///
    /// [`SlaveFault`] if `index` is out of range.
    pub fn store(&mut self, index: usize, value: u32) -> Result<(), SlaveFault> {
        match self.words.get_mut(index) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => Err(self.out_of_range(index)),
        }
    }

    /// The fault of a word access at `index`, past the end.
    fn out_of_range(&self, index: usize) -> SlaveFault {
        SlaveFault {
            reason: format!("word index {index} out of range ({})", self.words.len()),
        }
    }
}

impl BusSlave for Sram {
    fn name(&self) -> &str {
        &self.name
    }

    fn size(&self) -> u32 {
        u32::try_from(self.words.len() * 4).expect("an SRAM window fits the 32-bit address space")
    }

    fn read_word(&mut self, offset: u32) -> Result<u32, SlaveFault> {
        self.load((offset / 4) as usize)
    }

    fn write_word(&mut self, offset: u32, value: u32) -> Result<(), SlaveFault> {
        self.store((offset / 4) as usize, value)
    }

    /// One bounds check and one slice copy; an out-of-range tail copies
    /// the words that exist and faults as `read_word` would on the
    /// first one missing.
    fn read_words(
        &mut self,
        offset: u32,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), SlaveFault> {
        let start = (offset / 4) as usize;
        let present = self.words.len().saturating_sub(start).min(count);
        if present > 0 {
            out.extend_from_slice(&self.words[start..start + present]);
        }
        if present < count {
            return Err(self.out_of_range(start + present));
        }
        Ok(())
    }

    /// One bounds check and one slice copy; an out-of-range tail writes
    /// the words that fit and faults as `write_word` would on the first
    /// one that does not.
    fn write_words(&mut self, offset: u32, data: &[u32]) -> Result<(), (usize, SlaveFault)> {
        let start = (offset / 4) as usize;
        let present = self.words.len().saturating_sub(start).min(data.len());
        if present > 0 {
            self.words[start..start + present].copy_from_slice(&data[..present]);
        }
        if present < data.len() {
            return Err((present, self.out_of_range(start + present)));
        }
        Ok(())
    }

    fn first_access_wait_states(&self) -> u32 {
        self.config.first_access_wait_states
    }

    fn sequential_wait_states(&self) -> u32 {
        self.config.sequential_wait_states
    }

    /// Every in-window word exists, so an accepted burst never faults.
    fn fault_free(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let mut ram = Sram::with_words(16, SramConfig::no_wait());
        ram.store(3, 42).unwrap();
        assert_eq!(ram.load(3).unwrap(), 42);
        assert_eq!(ram.load(4).unwrap(), 0);
    }

    #[test]
    fn out_of_range_faults() {
        let mut ram = Sram::with_words(4, SramConfig::no_wait());
        assert!(ram.load(4).is_err());
        assert!(ram.store(4, 0).is_err());
    }

    #[test]
    fn bus_slave_word_addressing() {
        let mut ram = Sram::with_words(8, SramConfig::no_wait());
        ram.write_word(12, 99).unwrap();
        assert_eq!(ram.read_word(12).unwrap(), 99);
        assert_eq!(ram.load(3).unwrap(), 99);
        assert_eq!(BusSlave::size(&ram), 32);
    }

    /// Every range of a small memory, in range or running off its end:
    /// the bulk calls move the words and return the fault the per-word
    /// calls would, on the first word out of range.
    #[test]
    fn bulk_words_equal_per_word_calls() {
        const WORDS: usize = 6;
        for start in 0..WORDS as u32 + 2 {
            for count in 0..WORDS + 3 {
                let offset = start * 4;
                let data: Vec<u32> = (0..count as u32).map(|i| 0xA0 + i).collect();
                let mut bulk = Sram::with_words(WORDS, SramConfig::no_wait());
                let mut single = bulk.clone();

                let bulk_write = bulk.write_words(offset, &data);
                let single_write = data.iter().enumerate().try_for_each(|(i, &w)| {
                    single
                        .write_word(offset + (i as u32) * 4, w)
                        .map_err(|e| (i, e))
                });
                assert_eq!(bulk_write, single_write, "write {start}+{count}");
                assert_eq!(bulk.words, single.words, "write {start}+{count}");

                let mut bulk_out = vec![1];
                let bulk_read = bulk.read_words(offset, count, &mut bulk_out);
                let mut single_out = vec![1];
                let single_read = (0..count).try_for_each(|i| {
                    single_out.push(single.read_word(offset + (i as u32) * 4)?);
                    Ok(())
                });
                assert_eq!(bulk_read, single_read, "read {start}+{count}");
                assert_eq!(bulk_out, single_out, "read {start}+{count}");
            }
        }
        let mut ram = Sram::with_words(WORDS, SramConfig::no_wait());
        let (index, fault) = ram.write_words(16, &[0; 4]).unwrap_err();
        assert_eq!(index, 2);
        assert_eq!(fault.reason, "word index 6 out of range (6)");
    }

    #[test]
    fn external_sram_calibration() {
        let cfg = SramConfig::external_sram();
        assert_eq!(cfg.first_access_wait_states, 3);
        assert_eq!(cfg.sequential_wait_states, 0);
        assert_eq!(SramConfig::default(), cfg);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_memory_panics() {
        let _ = Sram::with_words(0, SramConfig::no_wait());
    }
}
