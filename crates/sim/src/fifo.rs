//! Synchronous FIFOs, including the paper's *variable width* FIFOs.
//!
//! The Ouessant project "provides variable width FIFOs, which can be used
//! to interface with many accelerators. … They provide serializing and
//! deserializing functionalities, and can thus serve as simple data
//! formatting entities" (§III-B). Figure 2 shows the canonical instance:
//! the bus side is 32 bits wide while the accelerator consumes and
//! produces 96-bit operands; the input FIFO *deserializes* three 32-bit
//! words into one 96-bit operand, and the output FIFO *serializes* each
//! 96-bit result back into three words.
//!
//! [`SyncFifo`] is the plain same-width queue with `full`/`empty`
//! semantics; [`WidthAdapter`] adds the width conversion on top of a
//! bit-granular buffer.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Error type for FIFO operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoError {
    /// Push attempted while the FIFO had no room ( `full` asserted —
    /// hardware would have held `wr_en` low).
    Overflow,
    /// Pop attempted while the FIFO was empty (`empty` asserted —
    /// hardware would have held `rd_en` low).
    Underflow,
}

impl fmt::Display for FifoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FifoError::Overflow => f.write_str("fifo overflow (write while full)"),
            FifoError::Underflow => f.write_str("fifo underflow (read while empty)"),
        }
    }
}

impl Error for FifoError {}

/// A synchronous FIFO of fixed capacity.
///
/// Mirrors the handshake of the paper's Figure 2: `wr_en` is legal only
/// while `full` is deasserted, `rd_en` only while `empty` is deasserted.
/// The simulation equivalents are [`SyncFifo::push`] (fails with
/// [`FifoError::Overflow`]) and [`SyncFifo::pop`] (fails with
/// [`FifoError::Underflow`]).
///
/// # Examples
///
/// ```
/// use ouessant_sim::SyncFifo;
///
/// let mut f = SyncFifo::new("cfg", 2);
/// f.push(10u32)?;
/// f.push(20)?;
/// assert!(f.is_full());
/// assert_eq!(f.pop()?, 10);
/// # Ok::<(), ouessant_sim::FifoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SyncFifo<T> {
    name: String,
    capacity: usize,
    items: VecDeque<T>,
}

impl<T> SyncFifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(name: &str, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        Self {
            name: name.to_string(),
            capacity,
            items: VecDeque::with_capacity(capacity),
        }
    }

    /// The FIFO's name (used in traces).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maximum number of items.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO holds no items (the `empty` flag).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the FIFO has no room (the `full` flag).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Free space in items.
    #[must_use]
    pub fn space(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Appends an item.
    ///
    /// # Errors
    ///
    /// [`FifoError::Overflow`] if the FIFO is full; the item is dropped
    /// (as it would be on a mis-driven `wr_en`).
    pub fn push(&mut self, item: T) -> Result<(), FifoError> {
        if self.is_full() {
            return Err(FifoError::Overflow);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Removes and returns the oldest item.
    ///
    /// # Errors
    ///
    /// [`FifoError::Underflow`] if the FIFO is empty.
    pub fn pop(&mut self) -> Result<T, FifoError> {
        self.items.pop_front().ok_or(FifoError::Underflow)
    }

    /// Appends every item of `items`, in order, with the contents of one
    /// [`SyncFifo::push`] per item.
    ///
    /// # Errors
    ///
    /// [`FifoError::Overflow`] if they do not all fit: nothing is
    /// pushed.
    pub fn push_slice(&mut self, items: &[T]) -> Result<(), FifoError>
    where
        T: Clone,
    {
        if items.len() > self.space() {
            return Err(FifoError::Overflow);
        }
        self.items.extend(items.iter().cloned());
        Ok(())
    }

    /// Removes the `n` oldest items, appending them to `out` in order,
    /// as `n` [`SyncFifo::pop`]s would.
    ///
    /// The ring holds its items in at most two contiguous runs, so the
    /// `n` items are copied as one or two slices, not one at a time.
    ///
    /// # Errors
    ///
    /// [`FifoError::Underflow`] if fewer than `n` are held: nothing is
    /// popped.
    pub fn pop_into(&mut self, n: usize, out: &mut Vec<T>) -> Result<(), FifoError>
    where
        T: Copy,
    {
        if n > self.items.len() {
            return Err(FifoError::Underflow);
        }
        let (front, back) = self.items.as_slices();
        let head = n.min(front.len());
        out.extend_from_slice(&front[..head]);
        out.extend_from_slice(&back[..n - head]);
        self.items.drain(..n);
        Ok(())
    }

    /// Moves the `n` oldest items into `dst`, mapped through `f`, with
    /// the contents of `n` pairs of [`SyncFifo::pop`] here and
    /// [`SyncFifo::push`] there.
    ///
    /// # Errors
    ///
    /// [`FifoError::Underflow`] if fewer than `n` items are held, else
    /// [`FifoError::Overflow`] if `dst` has less than `n` space:
    /// nothing moves.
    pub fn move_into<U>(
        &mut self,
        n: usize,
        dst: &mut SyncFifo<U>,
        f: impl FnMut(T) -> U,
    ) -> Result<(), FifoError> {
        if n > self.items.len() {
            return Err(FifoError::Underflow);
        }
        if n > dst.space() {
            return Err(FifoError::Overflow);
        }
        dst.items.extend(self.items.drain(..n).map(f));
        Ok(())
    }

    /// Peeks at the oldest item without removing it.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Removes every item.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// A width-adapting FIFO: pushes are `in_width`-bit words, pops are
/// `out_width`-bit words.
///
/// This is the serializing/deserializing FIFO of the paper's Figure 2.
/// Internally it is a bit-granular ring buffer: a push appends
/// `in_width` bits, a pop consumes `out_width` bits, preserving order
/// (little-endian within the stream: the first word pushed occupies the
/// least significant bits of the first word popped).
///
/// # Examples
///
/// Deserializing three 32-bit bus words into one 96-bit accelerator
/// operand and back (Figure 2's exact widths):
///
/// ```
/// use ouessant_sim::WidthAdapter;
///
/// let mut f = WidthAdapter::new("din", 32, 96, 1024);
/// f.push(0x1111_1111)?;
/// f.push(0x2222_2222)?;
/// assert!(f.pop().is_none()); // only 64 of 96 bits present
/// f.push(0x3333_3333)?;
/// let operand = f.pop().expect("96 bits available");
/// assert_eq!(operand & 0xFFFF_FFFF, 0x1111_1111);
/// assert_eq!((operand >> 64) & 0xFFFF_FFFF, 0x3333_3333);
/// # Ok::<(), ouessant_sim::FifoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WidthAdapter {
    name: String,
    in_width: u32,
    out_width: u32,
    capacity_bits: usize,
    bits: VecDeque<bool>,
}

impl WidthAdapter {
    /// Creates a width adapter.
    ///
    /// `capacity_bits` bounds the internal buffer, mirroring the BRAM
    /// the FPGA implementation infers.
    ///
    /// # Panics
    ///
    /// Panics if either width is 0 or greater than 128, or if the
    /// capacity cannot hold even one output word.
    #[must_use]
    pub fn new(name: &str, in_width: u32, out_width: u32, capacity_bits: usize) -> Self {
        assert!(
            (1..=128).contains(&in_width) && (1..=128).contains(&out_width),
            "widths must be 1..=128 bits"
        );
        assert!(
            capacity_bits >= in_width.max(out_width) as usize,
            "capacity must hold at least one word"
        );
        Self {
            name: name.to_string(),
            in_width,
            out_width,
            capacity_bits,
            bits: VecDeque::with_capacity(capacity_bits),
        }
    }

    /// The adapter's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input word width in bits.
    #[must_use]
    pub fn in_width(&self) -> u32 {
        self.in_width
    }

    /// Output word width in bits.
    #[must_use]
    pub fn out_width(&self) -> u32 {
        self.out_width
    }

    /// Whether a push of one input word would overflow.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.bits.len() + self.in_width as usize > self.capacity_bits
    }

    /// Whether a full output word is available.
    #[must_use]
    pub fn has_output(&self) -> bool {
        self.bits.len() >= self.out_width as usize
    }

    /// Whether the buffer holds no bits at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of input words that can still be pushed.
    #[must_use]
    pub fn input_space(&self) -> usize {
        (self.capacity_bits - self.bits.len()) / self.in_width as usize
    }

    /// Pushes one `in_width`-bit word (higher bits of `word` ignored).
    ///
    /// # Errors
    ///
    /// [`FifoError::Overflow`] if the buffer cannot hold the word.
    pub fn push(&mut self, word: u128) -> Result<(), FifoError> {
        if self.is_full() {
            return Err(FifoError::Overflow);
        }
        for bit in 0..self.in_width {
            self.bits.push_back((word >> bit) & 1 == 1);
        }
        Ok(())
    }

    /// Pops one `out_width`-bit word, or `None` if fewer than
    /// `out_width` bits are buffered.
    pub fn pop(&mut self) -> Option<u128> {
        if !self.has_output() {
            return None;
        }
        let mut word: u128 = 0;
        for bit in 0..self.out_width {
            if self.bits.pop_front().expect("length checked") {
                word |= 1 << bit;
            }
        }
        Some(word)
    }

    /// Discards all buffered bits.
    pub fn clear(&mut self) {
        self.bits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_fifo_order_and_flags() {
        let mut f = SyncFifo::new("t", 3);
        assert!(f.is_empty());
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.push(3).unwrap();
        assert!(f.is_full());
        assert_eq!(f.pop().unwrap(), 1);
        assert_eq!(f.pop().unwrap(), 2);
        assert_eq!(f.pop().unwrap(), 3);
        assert!(f.is_empty());
    }

    #[test]
    fn sync_fifo_overflow_underflow() {
        let mut f = SyncFifo::new("t", 1);
        f.push(9).unwrap();
        assert_eq!(f.push(10), Err(FifoError::Overflow));
        assert_eq!(f.pop(), Ok(9));
        assert_eq!(f.pop(), Err(FifoError::Underflow));
    }

    #[test]
    fn sync_fifo_front_and_clear() {
        let mut f = SyncFifo::new("t", 4);
        f.push(7).unwrap();
        assert_eq!(f.front(), Some(&7));
        f.clear();
        assert!(f.is_empty());
    }

    fn contents<T: Clone>(f: &SyncFifo<T>) -> Vec<T> {
        f.items.iter().cloned().collect()
    }

    /// Whether taking the `n` oldest items reads past the ring's wrap
    /// point, the second of [`VecDeque::as_slices`]' runs.
    fn crosses_wrap<T>(f: &SyncFifo<T>, n: usize) -> bool {
        n > f.items.as_slices().0.len()
    }

    /// Random runs of bulk operations against the same runs of single
    /// ones: equal contents after every step, and a rejected bulk
    /// operation moves nothing. Enough pops and moves read across the
    /// ring's wrap point to cover the two-run copy.
    #[test]
    fn bulk_operations_equal_runs_of_single_ones() {
        let mut rng = crate::rng::XorShift64::new(0xF1F0);
        let mut wrapped = 0;
        for _ in 0..200 {
            let cap = rng.gen_range_u32(1..9) as usize;
            let (mut bulk_a, mut bulk_b) = (SyncFifo::new("a", cap), SyncFifo::new("b", cap));
            let (mut one_a, mut one_b) = (SyncFifo::new("a", cap), SyncFifo::new("b", cap));
            for _ in 0..40 {
                let n = rng.gen_range_u32(0..cap as u32 + 2) as usize;
                let (before_a, before_b) = (contents(&bulk_a), contents(&bulk_b));
                let result = match rng.gen_range_u32(0..3) {
                    0 => {
                        let items = rng.vec_u32(n);
                        let r = bulk_a.push_slice(&items);
                        if r.is_ok() {
                            for &w in &items {
                                one_a.push(w).unwrap();
                            }
                        }
                        r
                    }
                    1 => {
                        let mut out = vec![7];
                        let crosses = crosses_wrap(&bulk_a, n);
                        let r = bulk_a.pop_into(n, &mut out);
                        if r.is_ok() {
                            wrapped += usize::from(crosses);
                            let single: Vec<u32> = (0..n).map(|_| one_a.pop().unwrap()).collect();
                            assert_eq!(out[1..], single[..]);
                        } else {
                            assert_eq!(out, [7]);
                        }
                        r
                    }
                    _ => {
                        let crosses = crosses_wrap(&bulk_a, n);
                        let r = bulk_a.move_into(n, &mut bulk_b, |w| w ^ 0xFF);
                        if r.is_ok() {
                            wrapped += usize::from(crosses);
                            for _ in 0..n {
                                one_b.push(one_a.pop().unwrap() ^ 0xFF).unwrap();
                            }
                        }
                        r
                    }
                };
                if let Err(e) = result {
                    // Nothing moved.
                    assert_eq!(contents(&bulk_a), before_a, "{e}");
                    assert_eq!(contents(&bulk_b), before_b, "{e}");
                }
                assert_eq!(contents(&bulk_a), contents(&one_a));
                assert_eq!(contents(&bulk_b), contents(&one_b));
            }
        }
        // 108 on this seed.
        assert!(
            wrapped >= 50,
            "only {wrapped} bulk pops and moves crossed the wrap"
        );
    }

    #[test]
    fn bulk_operations_reject_what_does_not_fit() {
        let mut f = SyncFifo::new("t", 8);
        f.push_slice(&[1, 2, 3]).unwrap();
        let mut out = Vec::new();
        f.pop_into(2, &mut out).unwrap();
        f.push_slice(&[4]).unwrap();
        assert_eq!(out, [1, 2]);
        assert_eq!(f.push_slice(&[0; 7]), Err(FifoError::Overflow));
        assert_eq!(f.pop_into(3, &mut out), Err(FifoError::Underflow));
        assert_eq!(contents(&f), [3, 4]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _: SyncFifo<u32> = SyncFifo::new("t", 0);
    }

    #[test]
    fn figure2_deserialize_32_to_96() {
        let mut f = WidthAdapter::new("din", 32, 96, 96 * 4);
        f.push(0xAAAA_AAAA).unwrap();
        f.push(0xBBBB_BBBB).unwrap();
        assert!(!f.has_output());
        f.push(0xCCCC_CCCC).unwrap();
        let op = f.pop().unwrap();
        assert_eq!(op, 0xCCCC_CCCC_BBBB_BBBB_AAAA_AAAAu128);
    }

    #[test]
    fn figure2_serialize_96_to_32() {
        let mut f = WidthAdapter::new("dout", 96, 32, 96 * 4);
        f.push(0xCCCC_CCCC_BBBB_BBBB_AAAA_AAAAu128).unwrap();
        assert_eq!(f.pop().unwrap(), 0xAAAA_AAAA);
        assert_eq!(f.pop().unwrap(), 0xBBBB_BBBB);
        assert_eq!(f.pop().unwrap(), 0xCCCC_CCCC);
        assert!(f.pop().is_none());
    }

    #[test]
    fn same_width_is_transparent() {
        let mut f = WidthAdapter::new("x", 32, 32, 32 * 8);
        for v in [1u128, 2, 3] {
            f.push(v).unwrap();
        }
        for v in [1u128, 2, 3] {
            assert_eq!(f.pop().unwrap(), v);
        }
    }

    #[test]
    fn upsize_then_downsize_is_identity() {
        let mut up = WidthAdapter::new("up", 8, 24, 24 * 8);
        let mut down = WidthAdapter::new("down", 24, 8, 24 * 8);
        let bytes = [0x12u128, 0x34, 0x56, 0x78, 0x9A, 0xBC];
        for b in bytes {
            up.push(b).unwrap();
        }
        while let Some(w) = up.pop() {
            down.push(w).unwrap();
        }
        for b in bytes {
            assert_eq!(down.pop().unwrap(), b);
        }
    }

    #[test]
    fn adapter_capacity_enforced() {
        let mut f = WidthAdapter::new("x", 32, 32, 64);
        f.push(1).unwrap();
        f.push(2).unwrap();
        assert_eq!(f.push(3), Err(FifoError::Overflow));
        assert_eq!(f.input_space(), 0);
    }

    #[test]
    fn adapter_word_accounting() {
        let mut f = WidthAdapter::new("x", 32, 96, 96 * 2);
        assert_eq!(f.input_space(), 6);
        for i in 0..6 {
            f.push(i).unwrap();
        }
        assert!(f.is_full());
        // 192 bits buffered: exactly two 96-bit output words.
        assert!(f.pop().is_some() && f.pop().is_some());
        assert!(f.is_empty());
    }

    #[test]
    fn non_divisible_widths() {
        // 32-bit in, 24-bit out: 3 pushes (96 bits) -> 4 pops.
        let mut f = WidthAdapter::new("x", 32, 24, 32 * 6);
        f.push(0x0403_0201).unwrap();
        f.push(0x0807_0605).unwrap();
        f.push(0x0C0B_0A09).unwrap();
        assert_eq!(f.pop().unwrap(), 0x03_0201);
        assert_eq!(f.pop().unwrap(), 0x06_0504);
        assert_eq!(f.pop().unwrap(), 0x09_0807);
        assert_eq!(f.pop().unwrap(), 0x0C_0B0A);
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "widths")]
    fn oversized_width_panics() {
        let _ = WidthAdapter::new("x", 129, 32, 1024);
    }
}
