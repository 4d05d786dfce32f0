//! A shared-memory bank allocator for concurrent offload jobs.
//!
//! The paper's flow hands the OCP a handful of statically placed memory
//! banks; a *pool* of coprocessors serving a stream of jobs needs the
//! host to carve per-job program/input/output regions out of the shared
//! SRAM and recycle them as jobs retire. [`BankAllocator`] is that
//! piece: a word-granular first-fit free-list allocator with coalescing
//! frees, deterministic like everything else in the simulation.
//!
//! The allocator tracks watermarks so a serving layer can report memory
//! pressure alongside latency (see `ouessant-farm`).

use std::error::Error;
use std::fmt;

use ouessant_sim::bus::Addr;

/// A region of shared memory leased from a [`BankAllocator`].
///
/// Deliberately **not** `Copy`/`Clone`: a region is a linear lease
/// token, consumed by [`BankAllocator::free`]. A copyable region made
/// it too easy to keep a stale copy around and double-free it — the
/// allocator detected that at runtime, but the type system can rule
/// the whole class out at compile time. Returning a region to a
/// *different* allocator is still detected and rejected dynamically.
#[derive(Debug, PartialEq, Eq)]
pub struct Region {
    base: Addr,
    words: u32,
}

impl Region {
    /// Byte base address (always word-aligned).
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Length in 32-bit words.
    #[must_use]
    pub fn words(&self) -> u32 {
        self.words
    }
}

/// Allocation and free failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free extent can hold the request.
    OutOfMemory {
        /// Words requested.
        requested: u32,
        /// Largest free extent available, in words.
        largest_free: u32,
    },
    /// Zero-length allocations are meaningless.
    EmptyRegion,
    /// The region was not leased from this allocator (or already
    /// returned).
    ForeignRegion {
        /// Offending base address.
        base: Addr,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "out of shared memory: {requested} words requested, largest free extent {largest_free}"
            ),
            AllocError::EmptyRegion => f.write_str("zero-length region requested"),
            AllocError::ForeignRegion { base } => write!(
                f,
                "region at {base:#010x} was not leased from this allocator (double free?)"
            ),
        }
    }
}

impl Error for AllocError {}

/// Allocator statistics (watermarks for serving-layer reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Failed allocations (out of memory).
    pub failures: u64,
    /// Words currently leased.
    pub words_in_use: u32,
    /// Peak of `words_in_use`.
    pub peak_words_in_use: u32,
}

/// First-fit free-list allocator over a window of shared memory.
#[derive(Debug)]
pub struct BankAllocator {
    base: Addr,
    /// Free extents as `(word_offset, words)`, sorted by offset,
    /// non-adjacent (frees coalesce).
    free: Vec<(u32, u32)>,
    /// Leased extents as `(word_offset, words)`, sorted by offset.
    leased: Vec<(u32, u32)>,
    stats: AllocStats,
}

impl BankAllocator {
    /// An allocator managing `words` 32-bit words starting at byte
    /// address `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned or `words` is zero (static
    /// integration errors).
    #[must_use]
    pub fn new(base: Addr, words: u32) -> Self {
        assert_eq!(base % 4, 0, "allocator base must be word-aligned");
        assert!(words > 0, "allocator window must be non-empty");
        Self {
            base,
            free: vec![(0, words)],
            leased: Vec::new(),
            stats: AllocStats::default(),
        }
    }

    /// The largest single allocation that would currently succeed.
    #[must_use]
    pub fn largest_free(&self) -> u32 {
        self.free.iter().map(|&(_, len)| len).max().unwrap_or(0)
    }

    /// The free extents as `(word_offset, words)`, sorted by offset.
    /// Two allocators with equal free lists answer every request alike.
    #[must_use]
    pub fn free_extents(&self) -> &[(u32, u32)] {
        &self.free
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Leases a region of `words` words.
    ///
    /// # Errors
    ///
    /// [`AllocError::EmptyRegion`] for zero words,
    /// [`AllocError::OutOfMemory`] when no free extent fits.
    pub fn alloc(&mut self, words: u32) -> Result<Region, AllocError> {
        if words == 0 {
            return Err(AllocError::EmptyRegion);
        }
        let Some(idx) = self.free.iter().position(|&(_, len)| len >= words) else {
            self.stats.failures += 1;
            return Err(AllocError::OutOfMemory {
                requested: words,
                largest_free: self.largest_free(),
            });
        };
        let (off, len) = self.free[idx];
        if len == words {
            self.free.remove(idx);
        } else {
            self.free[idx] = (off + words, len - words);
        }
        let pos = self
            .leased
            .binary_search_by_key(&off, |&(o, _)| o)
            .unwrap_err();
        self.leased.insert(pos, (off, words));
        self.stats.allocs += 1;
        self.stats.words_in_use += words;
        self.stats.peak_words_in_use = self.stats.peak_words_in_use.max(self.stats.words_in_use);
        Ok(Region {
            base: self.base + off * 4,
            words,
        })
    }

    /// Returns a leased region, coalescing it with adjacent free
    /// extents.
    ///
    /// # Errors
    ///
    /// [`AllocError::ForeignRegion`] if the region is not currently
    /// leased from this allocator (wrong allocator or double free).
    pub fn free(&mut self, region: Region) -> Result<(), AllocError> {
        let foreign = AllocError::ForeignRegion { base: region.base };
        if region.base < self.base || !(region.base - self.base).is_multiple_of(4) {
            return Err(foreign);
        }
        let off = (region.base - self.base) / 4;
        let Ok(idx) = self.leased.binary_search_by_key(&off, |&(o, _)| o) else {
            return Err(foreign);
        };
        if self.leased[idx].1 != region.words {
            return Err(foreign);
        }
        self.leased.remove(idx);
        self.stats.frees += 1;
        self.stats.words_in_use -= region.words;

        // Insert into the free list and coalesce with neighbours.
        let pos = self
            .free
            .binary_search_by_key(&off, |&(o, _)| o)
            .unwrap_err();
        self.free.insert(pos, (off, region.words));
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip_restores_capacity() {
        let mut a = BankAllocator::new(0x4000_0000, 1024);
        let r1 = a.alloc(100).unwrap();
        let r2 = a.alloc(200).unwrap();
        assert_eq!(r1.base(), 0x4000_0000);
        assert_eq!(r2.base(), 0x4000_0000 + 400);
        a.free(r1).unwrap();
        a.free(r2).unwrap();
        assert_eq!(a.largest_free(), 1024, "coalesced back to one extent");
        assert_eq!(a.stats().words_in_use, 0);
        assert_eq!(a.stats().peak_words_in_use, 300);
    }

    #[test]
    fn out_of_memory_reports_largest_extent() {
        let mut a = BankAllocator::new(0, 64);
        let _r = a.alloc(60).unwrap();
        assert_eq!(
            a.alloc(8),
            Err(AllocError::OutOfMemory {
                requested: 8,
                largest_free: 4
            })
        );
        assert_eq!(a.stats().failures, 1);
    }

    #[test]
    fn first_fit_reuses_freed_holes() {
        let mut a = BankAllocator::new(0, 100);
        let r1 = a.alloc(30).unwrap();
        let _r2 = a.alloc(30).unwrap();
        let _r3 = a.alloc(30).unwrap();
        a.free(r1).unwrap();
        let r4 = a.alloc(20).unwrap();
        assert_eq!(r4.base(), 0, "fills the first hole");
        let r5 = a.alloc(10).unwrap();
        assert_eq!(r5.base(), 20 * 4, "remainder of the first hole");
    }

    #[test]
    fn double_free_rejected() {
        // `Region` is non-Copy, so the old `free(r); free(r)` shape no
        // longer compiles. A determined caller can still forge a stale
        // duplicate (here via the test module's access to the private
        // fields); the allocator must keep rejecting it dynamically.
        let mut a = BankAllocator::new(0, 64);
        let r = a.alloc(8).unwrap();
        let stale = Region {
            base: r.base(),
            words: r.words(),
        };
        a.free(r).unwrap();
        assert_eq!(a.free(stale), Err(AllocError::ForeignRegion { base: 0 }));
    }

    #[test]
    fn stale_copy_cannot_outlive_a_reallocation() {
        // Regression for the classic stale-copy bug: lease, keep a
        // duplicate, free, re-lease the same extent, then "free" the
        // stale duplicate. Before `Region` was made linear this
        // silently released memory still owned by the new lease.
        let mut a = BankAllocator::new(0, 64);
        let r = a.alloc(8).unwrap();
        let stale = Region {
            base: r.base(),
            words: r.words(),
        };
        a.free(r).unwrap();
        let r2 = a.alloc(8).unwrap();
        assert_eq!(r2.base(), stale.base(), "first-fit reuses the extent");
        // The stale token matches a live lease byte-for-byte; freeing
        // it releases r2's memory. The dynamic check cannot tell the
        // difference -- which is exactly why the type now forbids the
        // copy in safe code.
        a.free(stale).unwrap();
        assert!(
            matches!(a.free(r2), Err(AllocError::ForeignRegion { .. })),
            "the legitimate lease is now the double free"
        );
    }

    #[test]
    fn foreign_region_rejected() {
        let mut a = BankAllocator::new(0x1000, 64);
        let mut b = BankAllocator::new(0x1000, 64);
        let r = a.alloc(8).unwrap();
        // Same window, but b never leased it at this length pattern:
        // lease b's own region first so offsets differ.
        let _rb = b.alloc(4).unwrap();
        assert!(matches!(b.free(r), Err(AllocError::ForeignRegion { .. })));
        assert_eq!(
            b.free(Region {
                base: 0x0FFC,
                words: 1
            }),
            Err(AllocError::ForeignRegion { base: 0x0FFC })
        );
    }

    #[test]
    fn zero_words_rejected() {
        let mut a = BankAllocator::new(0, 64);
        assert_eq!(a.alloc(0), Err(AllocError::EmptyRegion));
    }

    #[test]
    fn exhaustion_surfaces_and_counts() {
        // Drive the window to full exhaustion the way a fault-injection
        // campaign does: lease until nothing fits, and check every
        // surface a caller could consult.
        let mut a = BankAllocator::new(0, 256);
        let mut leases = Vec::new();
        while a.largest_free() >= 64 {
            leases.push(a.alloc(64).unwrap());
        }
        assert_eq!(leases.len(), 4);
        assert_eq!(a.largest_free(), 0);
        assert_eq!(
            a.alloc(1),
            Err(AllocError::OutOfMemory {
                requested: 1,
                largest_free: 0
            })
        );
        assert_eq!(a.stats().failures, 1, "largest_free probes are free");
        assert_eq!(a.stats().words_in_use, 256);
        for r in leases {
            a.free(r).unwrap();
        }
        assert_eq!(a.stats().words_in_use, 0);
        assert_eq!(a.largest_free(), 256);
    }

    #[test]
    fn fault_triggered_release_unblocks_waiting_request() {
        // The farm's fault path: a worker dies mid-job and its three
        // regions (program/input/output) are freed out of dispatch
        // order. The release must immediately unblock a request that
        // exhaustion was stalling.
        let mut a = BankAllocator::new(0, 128);
        let prog = a.alloc(8).unwrap();
        let input = a.alloc(64).unwrap();
        let output = a.alloc(56).unwrap();
        assert_eq!(a.largest_free(), 0, "pool exhausted while the job runs");
        assert!(a.alloc(64).is_err());
        // Fault: free in an arbitrary order, as the fault handler does.
        a.free(output).unwrap();
        a.free(prog).unwrap();
        a.free(input).unwrap();
        assert_eq!(a.largest_free(), 128, "release coalesced the window");
        let retry = a.alloc(128).unwrap();
        assert_eq!(retry.base(), 0);
        a.free(retry).unwrap();
    }

    #[test]
    fn reuse_after_quarantine_frees_leases() {
        // Quarantining a worker hands back every lease it held; the
        // extents must be reusable by the surviving workers at full
        // capacity, not just countable.
        let mut a = BankAllocator::new(0, 96);
        let dead_worker: Vec<Region> = (0..3).map(|_| a.alloc(16).unwrap()).collect();
        let survivor = a.alloc(48).unwrap();
        assert_eq!(a.stats().words_in_use, 96);
        for r in dead_worker {
            a.free(r).unwrap();
        }
        assert_eq!(a.stats().words_in_use, 48, "survivor's lease untouched");
        // The quarantined worker's extents serve the next job intact.
        let next = a.alloc(48).unwrap();
        assert_eq!(next.base(), 0, "first-fit reuses the freed run");
        a.free(next).unwrap();
        a.free(survivor).unwrap();
        assert_eq!(a.stats().words_in_use, 0);
        assert_eq!(a.largest_free(), 96);
    }

    #[test]
    fn fragmentation_then_coalesce_interior() {
        let mut a = BankAllocator::new(0, 120);
        let mut regions: Vec<Option<Region>> = (0..6).map(|_| Some(a.alloc(20).unwrap())).collect();
        // Free odd regions, then even: interleaved frees must coalesce.
        for i in (1..6).step_by(2) {
            a.free(regions[i].take().unwrap()).unwrap();
        }
        for i in (0..6).step_by(2) {
            a.free(regions[i].take().unwrap()).unwrap();
        }
        assert_eq!(a.largest_free(), 120);
    }
}
