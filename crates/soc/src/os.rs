//! OS and driver overhead models.
//!
//! §IV of the paper: baremetal integration "is quite easy", but under
//! Linux "the strong isolation between kernel and user modes and the
//! high overhead induced by the kernel can quickly decrease performance
//! … data copies are required each time the user/kernel layer is
//! crossed. Since data copies are performance killers, this is not
//! acceptable in our case. … In the Ouessant Linux driver, the mmap
//! solution is used."
//!
//! §V-B quantifies it: "When running it without Linux, the DFT took 4000
//! cycles to compute, which gives an overhead of 3000 cycles coming from
//! Linux. This comes from system calls."
//!
//! [`OsModel`] charges that overhead per offload invocation. The mmap
//! driver's cost is size-independent (no copies); the copying driver
//! adds a per-word cost, which is the design §IV rejects.

use std::fmt;

/// Default cycles per syscall entry/exit on the paper's platform
/// (Leon3 Linux; two syscalls per offload: submit and wait).
pub const LINUX_SYSCALL_CYCLES: u64 = 900;

/// Default driver bookkeeping per offload (locking, descriptor setup,
/// scheduling the waiting task back in).
pub const LINUX_DRIVER_CYCLES: u64 = 700;

/// Default cache-management cost per offload (flush/invalidate of the
/// shared buffers; §IV: "the only trick is to manage caches properly").
pub const LINUX_CACHE_CYCLES: u64 = 500;

/// Per-word cost of a copying (non-mmap) driver: `copy_to_user`/
/// `copy_from_user` at roughly 4 cycles per 32-bit word.
pub const LINUX_COPY_CYCLES_PER_WORD: u64 = 4;

/// The software environment an offload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OsModel {
    /// No OS: the application drives the OCP registers directly.
    /// "When no virtual memory is used, integration is quite easy."
    #[default]
    Baremetal,
    /// The paper's Linux driver: kernel buffers mmap'ed into user space,
    /// so crossings cost syscalls but no data copies.
    LinuxMmap {
        /// Cycles per syscall entry/exit.
        syscall: u64,
        /// Driver bookkeeping per offload.
        driver: u64,
        /// Cache management per offload.
        cache: u64,
    },
    /// A conventional copying driver (the rejected design): same fixed
    /// costs plus a per-word copy in each direction.
    LinuxCopy {
        /// Cycles per syscall entry/exit.
        syscall: u64,
        /// Driver bookkeeping per offload.
        driver: u64,
        /// Cache management per offload.
        cache: u64,
        /// Cycles per word copied across the user/kernel boundary.
        per_word: u64,
    },
}

impl OsModel {
    /// The paper's Linux-with-mmap configuration, calibrated so the
    /// fixed overhead is ≈3000 cycles (two syscalls + driver + cache).
    #[must_use]
    pub fn linux_mmap() -> Self {
        OsModel::LinuxMmap {
            syscall: LINUX_SYSCALL_CYCLES,
            driver: LINUX_DRIVER_CYCLES,
            cache: LINUX_CACHE_CYCLES,
        }
    }

    /// A copying Linux driver with default costs.
    #[must_use]
    pub fn linux_copy() -> Self {
        OsModel::LinuxCopy {
            syscall: LINUX_SYSCALL_CYCLES,
            driver: LINUX_DRIVER_CYCLES,
            cache: LINUX_CACHE_CYCLES,
            per_word: LINUX_COPY_CYCLES_PER_WORD,
        }
    }

    /// Cycles of OS overhead for one offload moving `words` data words
    /// in total (both directions).
    #[must_use]
    pub fn invocation_overhead(&self, words: u64) -> u64 {
        match *self {
            OsModel::Baremetal => 0,
            OsModel::LinuxMmap {
                syscall,
                driver,
                cache,
            } => 2 * syscall + driver + cache,
            OsModel::LinuxCopy {
                syscall,
                driver,
                cache,
                per_word,
            } => 2 * syscall + driver + cache + words * per_word,
        }
    }
}

impl fmt::Display for OsModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsModel::Baremetal => f.write_str("baremetal"),
            OsModel::LinuxMmap { .. } => f.write_str("linux (mmap driver)"),
            OsModel::LinuxCopy { .. } => f.write_str("linux (copying driver)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baremetal_is_free() {
        assert_eq!(OsModel::Baremetal.invocation_overhead(1_000_000), 0);
    }

    #[test]
    fn mmap_overhead_matches_paper() {
        // §V-B: Linux adds ≈3000 cycles to the DFT offload.
        let overhead = OsModel::linux_mmap().invocation_overhead(1024);
        assert_eq!(overhead, 2 * 900 + 700 + 500);
        assert!((2_500..=3_500).contains(&overhead));
    }

    #[test]
    fn mmap_overhead_is_size_independent() {
        let os = OsModel::linux_mmap();
        assert_eq!(os.invocation_overhead(0), os.invocation_overhead(100_000));
    }

    #[test]
    fn copy_driver_scales_with_words() {
        let os = OsModel::linux_copy();
        let small = os.invocation_overhead(128);
        let large = os.invocation_overhead(1024);
        assert_eq!(large - small, (1024 - 128) * LINUX_COPY_CYCLES_PER_WORD);
    }

    #[test]
    fn copy_driver_always_slower_than_mmap() {
        for words in [0u64, 1, 128, 4096] {
            assert!(
                OsModel::linux_copy().invocation_overhead(words)
                    >= OsModel::linux_mmap().invocation_overhead(words)
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(OsModel::Baremetal.to_string(), "baremetal");
        assert!(OsModel::linux_mmap().to_string().contains("mmap"));
    }
}
