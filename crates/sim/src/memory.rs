//! SRAM memory model.
//!
//! The paper's Nexys4 board provides 16 MB of external SRAM; its access
//! latency (relative to the 50 MHz system clock) is what makes transfers
//! cost more than one cycle per word. [`SramConfig`] captures that as
//! first-access and sequential wait states; the defaults are calibrated
//! so a DMA64 burst through the default bus comes out near the paper's
//! ≈1.5 cycles/word (§V-B).
//!
//! The store is paged: a table of optional 4 KiB pages, each allocated
//! zeroed on its first write. A page never written reads as zeros and
//! costs one null pointer, so building a memory costs O(pages) pointers
//! and a run pays only for the pages it writes.

use crate::bus::{BusSlave, SlaveFault};

/// Words per page of the store (4 KiB).
const PAGE_WORDS: usize = 1024;

/// One page of the store.
type Page = Box<[u32; PAGE_WORDS]>;

/// A new page of zeros; cold, since a page is allocated once.
#[cold]
fn zeroed_page() -> Page {
    vec![0; PAGE_WORDS]
        .into_boxed_slice()
        .try_into()
        .expect("a page-sized slice")
}

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
/// Every word reads as zero until it is written. The words live in
/// 4 KiB pages allocated on their first write, so a memory costs one
/// pointer per page plus 4 KiB for each page written.
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
    /// Page `p` holds words `p * PAGE_WORDS ..`; `None` until written.
    pages: Vec<Option<Page>>,
    /// The memory's size in words; the last page may extend past it.
    words: usize,
    config: SramConfig,
    name: String,
}

impl Sram {
    /// An SRAM of `words` zero-initialized 32-bit words. No page is
    /// allocated until it is written.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    #[must_use]
    pub fn with_words(words: usize, config: SramConfig) -> Self {
        assert!(words > 0, "memory must be non-empty");
        Self {
            pages: vec![None; words.div_ceil(PAGE_WORDS)],
            words,
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
        if index >= self.words {
            return Err(self.out_of_range(index));
        }
        Ok(self.pages[index / PAGE_WORDS]
            .as_ref()
            .map_or(0, |page| page[index % PAGE_WORDS]))
    }

    /// Writes the word at `index` (word-granular, un-timed).
    ///
    /// # Errors
    ///
    /// [`SlaveFault`] if `index` is out of range.
    pub fn store(&mut self, index: usize, value: u32) -> Result<(), SlaveFault> {
        if index >= self.words {
            return Err(self.out_of_range(index));
        }
        self.page_mut(index / PAGE_WORDS)[index % PAGE_WORDS] = value;
        Ok(())
    }

    /// Page `p`, allocated zeroed if it was never written.
    fn page_mut(&mut self, p: usize) -> &mut [u32; PAGE_WORDS] {
        self.pages[p].get_or_insert_with(zeroed_page)
    }

    /// How many of the `count` words from `start` exist.
    fn present(&self, start: usize, count: usize) -> usize {
        self.words.saturating_sub(start).min(count)
    }

    /// The fault of a word access at `index`, past the end.
    fn out_of_range(&self, index: usize) -> SlaveFault {
        SlaveFault {
            reason: format!("word index {index} out of range ({})", self.words),
        }
    }
}

impl BusSlave for Sram {
    fn name(&self) -> &str {
        &self.name
    }

    fn size(&self) -> u32 {
        u32::try_from(self.words * 4).expect("an SRAM window fits the 32-bit address space")
    }

    fn read_word(&mut self, offset: u32) -> Result<u32, SlaveFault> {
        self.load((offset / 4) as usize)
    }

    fn write_word(&mut self, offset: u32, value: u32) -> Result<(), SlaveFault> {
        self.store((offset / 4) as usize, value)
    }

    /// One bounds check and one slice copy per page touched (zeros
    /// for a page never written); an out-of-range tail copies the words
    /// that exist and faults as `read_word` would on the first one
    /// missing.
    fn read_words(
        &mut self,
        offset: u32,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), SlaveFault> {
        let start = (offset / 4) as usize;
        let present = self.present(start, count);
        let (mut at, end) = (start, start + present);
        while at < end {
            let o = at % PAGE_WORDS;
            let n = (PAGE_WORDS - o).min(end - at);
            match &self.pages[at / PAGE_WORDS] {
                Some(page) => out.extend_from_slice(&page[o..o + n]),
                None => out.resize(out.len() + n, 0),
            }
            at += n;
        }
        if present < count {
            return Err(self.out_of_range(start + present));
        }
        Ok(())
    }

    /// One bounds check and one slice copy per page touched; an
    /// out-of-range tail writes the words that fit and faults as
    /// `write_word` would on the first one that does not.
    fn write_words(&mut self, offset: u32, data: &[u32]) -> Result<(), (usize, SlaveFault)> {
        let start = (offset / 4) as usize;
        let present = self.present(start, data.len());
        let (mut at, end) = (start, start + present);
        while at < end {
            let o = at % PAGE_WORDS;
            let n = (PAGE_WORDS - o).min(end - at);
            let from = at - start;
            self.page_mut(at / PAGE_WORDS)[o..o + n].copy_from_slice(&data[from..from + n]);
            at += n;
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

    /// The pages of `ram` that are allocated.
    fn allocated(ram: &Sram) -> Vec<usize> {
        (0..ram.pages.len())
            .filter(|&p| ram.pages[p].is_some())
            .collect()
    }

    /// Reads then writes `count` words at word `start` of a copy of
    /// `ram`, once through the bulk calls and once word by word: both
    /// move the same words and return the fault the per-word calls
    /// would, on the first word out of range. After the write, every
    /// word of both copies holds the data in range and its old value
    /// elsewhere. A read allocates no page; a write allocates exactly
    /// the pages it covers.
    fn bulk_matches_per_word(ram: &Sram, start: usize, count: usize) {
        let offset = u32::try_from(start * 4).unwrap();
        let at = |i: usize| offset + u32::try_from(i * 4).unwrap();
        let data: Vec<u32> = (0..count as u32).map(|i| 0xA0 + i).collect();
        let mut bulk = ram.clone();
        let mut single = ram.clone();
        let before = allocated(ram);

        let read_both = |bulk: &mut Sram, single: &mut Sram, what: &str| {
            let mut bulk_out = vec![1];
            let bulk_read = bulk.read_words(offset, count, &mut bulk_out);
            let mut single_out = vec![1];
            let single_read = (0..count).try_for_each(|i| {
                single_out.push(single.read_word(at(i))?);
                Ok(())
            });
            assert_eq!(bulk_read, single_read, "{what} {start}+{count}");
            assert_eq!(bulk_out, single_out, "{what} {start}+{count}");
        };

        read_both(&mut bulk, &mut single, "read");
        assert_eq!(allocated(&bulk), before, "read {start}+{count} allocates");
        assert_eq!(allocated(&single), before, "read {start}+{count} allocates");

        let bulk_write = bulk.write_words(offset, &data);
        let single_write = data
            .iter()
            .enumerate()
            .try_for_each(|(i, &w)| single.write_word(at(i), w).map_err(|e| (i, e)));
        assert_eq!(bulk_write, single_write, "write {start}+{count}");
        let end = ram.words.min(start + count);
        for index in 0..ram.words {
            let want = if (start..end).contains(&index) {
                Ok(data[index - start])
            } else {
                ram.load(index)
            };
            assert_eq!(
                bulk.load(index),
                want,
                "write {start}+{count}, word {index}"
            );
            assert_eq!(
                single.load(index),
                want,
                "write {start}+{count}, word {index}"
            );
        }
        let mut covered = before;
        covered.extend((start..end).map(|i| i / PAGE_WORDS));
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(allocated(&bulk), covered, "write {start}+{count}");
        assert_eq!(allocated(&single), covered, "write {start}+{count}");

        read_both(&mut bulk, &mut single, "read back");
    }

    /// Every range of a small memory, in range or running off its end.
    #[test]
    fn bulk_words_equal_per_word_calls() {
        const WORDS: usize = 6;
        let ram = Sram::with_words(WORDS, SramConfig::no_wait());
        for start in 0..WORDS + 2 {
            for count in 0..WORDS + 3 {
                bulk_matches_per_word(&ram, start, count);
            }
        }
        let mut ram = ram;
        let (index, fault) = ram.write_words(16, &[0; 4]).unwrap_err();
        assert_eq!(index, 2);
        assert_eq!(fault.reason, "word index 6 out of range (6)");
    }

    /// Ranges of a 2.5-page memory whose first page alone was written:
    /// within a page, straddling one or two page boundaries, starting
    /// on a page never written, and running off the end mid-page.
    #[test]
    fn bulk_words_equal_per_word_calls_across_pages() {
        const WORDS: usize = PAGE_WORDS * 5 / 2;
        let mut ram = Sram::with_words(WORDS, SramConfig::no_wait());
        assert_eq!(ram.pages.len(), 3);
        assert!(allocated(&ram).is_empty(), "a new memory has no page");
        ram.store(5, 7).unwrap();
        ram.store(PAGE_WORDS - 1, 9).unwrap();
        assert_eq!(allocated(&ram), [0]);
        let starts = [
            0,
            1,
            PAGE_WORDS - 2,
            PAGE_WORDS - 1,
            PAGE_WORDS,
            PAGE_WORDS + 1,
            2 * PAGE_WORDS - 1,
            2 * PAGE_WORDS,
            WORDS - 3,
            WORDS - 1,
            WORDS,
            WORDS + 1,
        ];
        let counts = [
            0,
            1,
            2,
            3,
            16,
            64,
            PAGE_WORDS,
            PAGE_WORDS + 2,
            WORDS,
            WORDS + 1,
        ];
        for start in starts {
            for count in counts {
                bulk_matches_per_word(&ram, start, count);
            }
        }
        let (index, fault) = ram
            .write_words(4 * (WORDS as u32 - 2), &[3; 5])
            .unwrap_err();
        assert_eq!(index, 2);
        assert_eq!(
            fault.reason,
            format!("word index {WORDS} out of range ({WORDS})")
        );
        assert_eq!(ram.load(WORDS - 1), Ok(3));
        assert_eq!(allocated(&ram), [0, 2]);
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
