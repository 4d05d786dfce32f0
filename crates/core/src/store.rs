//! The controller's program store, translated once per program load.
//!
//! A binary translator decodes a block once and runs it many times; the
//! store does the same for microcode. When a program is loaded (the
//! `LoadProgram` pickup, or a standalone preload) every entry is
//! decoded, and every entry that is a transfer with an immediate offset
//! is given its *strided run*: the longest stretch of transfers from it
//! that share a direction, a FIFO, a bank and a burst length and whose
//! offsets advance by one fixed stride, which is what
//! `ProgramBuilder::transfer_to_coprocessor` and its mirror emit. The
//! controller plans and replays such a stretch of DMA bursts as one
//! segment (see `Controller::window_issue`), in O(1) instead of once per
//! burst.

use ouessant_isa::{DecodeError, Instruction, Transfer};

/// The transfers of a program from one entry on that move equal bursts:
/// each the first one's direction, FIFO, bank and burst length, at an
/// immediate offset `stride` words after the last one's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StridedRun {
    /// The entry's transfer.
    pub(crate) transfer: Transfer,
    /// Words from one transfer's offset to the next's.
    pub(crate) stride: u32,
    /// The transfers, this entry's included: at least 1.
    pub(crate) count: u16,
}

/// A program store: the words loaded, and each entry as the `Decode`
/// cycle yields it with its strided run. Both are boxed slices: a
/// store is replaced whole, never grown, and every controller holds
/// one, so it stays four words wide.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramStore {
    words: Box<[u32]>,
    entries: Box<[Entry]>,
}

/// An entry of a [`ProgramStore`].
#[derive(Debug, Clone)]
struct Entry {
    decoded: Result<Instruction, DecodeError>,
    run: Option<StridedRun>,
}

impl ProgramStore {
    /// Translates `words`: decodes each entry, then finds each entry's
    /// strided run, from the last entry back, so each costs O(1).
    pub(crate) fn load(words: &[u32]) -> Self {
        let mut entries: Box<[Entry]> = words
            .iter()
            .map(|&w| Entry {
                decoded: Instruction::decode(w),
                run: None,
            })
            .collect();
        let transfer = |e: &Result<Instruction, DecodeError>| {
            let t = Transfer::from_instruction(0, e.as_ref().ok()?)?;
            Some((t, t.start_offset()?))
        };
        for pc in (0..entries.len()).rev() {
            let Some((t, offset)) = transfer(&entries[pc].decoded) else {
                continue;
            };
            // The next entry's run, if its transfers are this one's
            // kind and its offset is at or after this one's: this entry
            // joins its stride, or starts a stretch of two at another.
            let (stride, count) = entries
                .get(pc + 1)
                .and_then(|e| e.run)
                .and_then(|next| {
                    let n = next.transfer;
                    let stride = n.start_offset()?.checked_sub(offset)?;
                    let same = (n.to_coprocessor, n.fifo, n.bank, n.burst)
                        == (t.to_coprocessor, t.fifo, t.bank, t.burst);
                    let joins = next.count == 1 || next.stride == stride;
                    same.then_some((
                        stride,
                        if joins {
                            next.count.saturating_add(1)
                        } else {
                            2
                        },
                    ))
                })
                .unwrap_or((0, 1));
            entries[pc].run = Some(StridedRun {
                transfer: t,
                stride,
                count,
            });
        }
        Self {
            words: words.into(),
            entries,
        }
    }

    /// Loads `words`, translating them only when they differ from the
    /// program the store holds: a worker that runs one kind of job
    /// loads the same microcode every time.
    pub(crate) fn reload(&mut self, words: &[u32]) {
        if !self.holds(words) {
            *self = Self::load(words);
        }
    }

    /// Whether the store holds exactly the program `words`.
    pub(crate) fn holds(&self, words: &[u32]) -> bool {
        *self.words == *words
    }

    /// Empties the store.
    pub(crate) fn clear(&mut self) {
        *self = Self::default();
    }

    /// The entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entry `pc`, as the `Decode` cycle yields it.
    pub(crate) fn entry(&self, pc: u16) -> Option<&Result<Instruction, DecodeError>> {
        self.entries.get(usize::from(pc)).map(|e| &e.decoded)
    }

    /// The strided run from entry `pc`, if it is a transfer with an
    /// immediate offset.
    pub(crate) fn run(&self, pc: u16) -> Option<StridedRun> {
        self.entries.get(usize::from(pc)).and_then(|e| e.run)
    }
}
