//! Block RAM model.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use mb_isa::MemSize;

use crate::image::Shareable;

/// Error for out-of-range or misaligned memory accesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The byte address lies outside the BRAM.
    OutOfRange {
        /// Offending byte address.
        addr: u32,
        /// Size of the BRAM in bytes.
        size: u32,
    },
    /// The access is not aligned to its width.
    Misaligned {
        /// Offending byte address.
        addr: u32,
        /// Required alignment in bytes.
        align: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, size } => {
                write!(f, "address {addr:#010x} outside memory of {size} bytes")
            }
            MemError::Misaligned { addr, align } => {
                write!(f, "address {addr:#010x} not {align}-byte aligned")
            }
        }
    }
}

impl Error for MemError {}

/// How many disjoint write spans the [`Bram`] write log keeps before it
/// starts forgetting the oldest (forcing consumers behind that point to
/// resync fully). Patches are a handful of contiguous ranges, so a small
/// cap captures every realistic invalidation exactly.
const WRITE_LOG_CAP: usize = 8;

/// One logged span of written words: the union of all writes with
/// generations in `(previous span's gen, gen]`, inclusive word bounds.
#[derive(Clone, Copy, Debug)]
struct WriteSpan {
    gen: u64,
    lo: u32,
    hi: u32,
}

/// A bounded log of recent write ranges, complete for every generation
/// strictly greater than `base`. Contiguous/overlapping writes merge
/// into the newest span, so a bulk [`Bram::load_words`] or a WCLA patch
/// costs one entry, not one per word.
#[derive(Clone, Debug, Default)]
struct WriteLog {
    base: u64,
    spans: Vec<WriteSpan>,
}

impl WriteLog {
    fn note(&mut self, generation: u64, lo: u32, hi: u32) {
        if let Some(last) = self.spans.last_mut() {
            // Merge only strict adjacent extensions (an upward or
            // downward burst, e.g. `load_words` or a patch loop). A
            // write *inside* an older span must open a fresh span —
            // folding it in would re-stamp the old span's generation
            // and make a one-word patch look like the whole original
            // load to any consumer that synced in between.
            if lo == last.hi + 1 {
                last.hi = hi;
                last.gen = generation;
                return;
            }
            if hi + 1 == last.lo {
                last.lo = lo;
                last.gen = generation;
                return;
            }
        }
        if self.spans.len() == WRITE_LOG_CAP {
            let dropped = self.spans.remove(0);
            self.base = dropped.gen;
        }
        self.spans.push(WriteSpan { gen: generation, lo, hi });
    }

    /// Union of words written since `generation`, or `None` when the log
    /// no longer reaches back that far (spans have gens in ascending
    /// order, so the reverse scan stops at the first span entirely at or
    /// before the query point). Spans over-approximate safely: a span
    /// merged across generations is included whole if any part of it is
    /// newer than the query.
    fn dirty_since(&self, generation: u64) -> Option<(u32, u32)> {
        if generation < self.base {
            return None;
        }
        let mut range: Option<(u32, u32)> = None;
        for s in self.spans.iter().rev() {
            if s.gen <= generation {
                break;
            }
            range = Some(match range {
                Some((lo, hi)) => (lo.min(s.lo), hi.max(s.hi)),
                None => (s.lo, s.hi),
            });
        }
        range
    }
}

/// A dual-ported block RAM, word-organized with big-endian byte order
/// (matching the MicroBlaze).
///
/// Both the CPU's local memory bus and — for the data BRAM — the WCLA's
/// data address generator access the same array; the dual-ported BRAM of
/// the paper means these accesses do not contend.
///
/// Every mutation bumps a [`generation`](Bram::generation) counter, which
/// is how the simulator's pre-decoded instruction store notices that the
/// DPM patched the running binary through
/// [`imem_mut`](crate::System::imem_mut) and must discard
/// its side table. A BRAM built with [`with_write_log`](Bram::with_write_log)
/// additionally remembers *which* words recent mutations touched, so
/// derived caches can answer "what changed since generation g" through
/// [`dirty_words_since`](Bram::dirty_words_since) and rebuild only the
/// overlapping slots instead of flushing wholesale.
#[derive(Clone, Debug)]
pub struct Bram {
    words: Shareable<Vec<u32>>,
    generation: u64,
    /// Present only on BRAMs that opted into write tracking (the
    /// instruction BRAM); the data BRAM skips the bookkeeping so
    /// simulated stores stay lean.
    log: Option<WriteLog>,
}

/// Equality compares the stored words only; the mutation generation is
/// bookkeeping, so a patched-then-reverted BRAM equals the original.
impl PartialEq for Bram {
    fn eq(&self, other: &Self) -> bool {
        self.words.get() == other.words.get()
    }
}

impl Eq for Bram {}

impl Bram {
    /// Creates a zero-filled BRAM of `size_bytes` (rounded up to a word).
    #[must_use]
    pub fn new(size_bytes: u32) -> Self {
        Bram {
            words: Shareable::Owned(vec![0; (size_bytes as usize).div_ceil(4)]),
            generation: 0,
            log: None,
        }
    }

    /// Enables write-range tracking: every mutation is recorded in a
    /// small bounded log so [`dirty_words_since`](Bram::dirty_words_since)
    /// can answer which words changed. The simulator enables this on the
    /// instruction BRAM only — it is what makes predecode/block
    /// invalidation after a WCLA patch incremental.
    #[must_use]
    pub fn with_write_log(mut self) -> Self {
        self.log = Some(WriteLog::default());
        self
    }

    /// Mutation counter: incremented by every write (including sub-word
    /// writes, bulk loads, and [`clear`](Bram::clear)). Derived caches
    /// compare it against the value they were built at and rebuild on
    /// mismatch.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Inclusive word-index bounds covering (a superset of) every word
    /// written since `generation`, or `None` when the answer is unknown
    /// — no write log, or the log has already forgotten writes that far
    /// back — in which case callers must resync everything.
    #[must_use]
    pub fn dirty_words_since(&self, generation: u64) -> Option<(u32, u32)> {
        self.log.as_ref().and_then(|log| log.dirty_since(generation))
    }

    /// Bumps the generation for a mutation of the word range
    /// `[lo, hi]`, logging it when tracking is on.
    #[inline]
    fn touch(&mut self, lo: u32, hi: u32) {
        self.generation += 1;
        if let Some(log) = &mut self.log {
            log.note(self.generation, lo, hi);
        }
    }

    /// Size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        (self.words.get().len() * 4) as u32
    }

    /// The raw word array.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        self.words.get()
    }

    /// Whether the storage is currently a shared read-only view (the
    /// next mutation will detach a private copy).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        self.words.is_shared()
    }

    /// Freezes the current contents into a shareable read-only word
    /// array and switches this BRAM to the shared view. Reads are
    /// unchanged; the next mutation detaches a private copy. Returns the
    /// shared array so sibling BRAMs can [`attach_shared`](Bram::attach_shared)
    /// it without copying.
    pub fn freeze(&mut self) -> Arc<Vec<u32>> {
        self.words.freeze()
    }

    /// Replaces the contents with a shared read-only word array captured
    /// at `generation` (a [`Bram::freeze`] of a sibling). The generation
    /// is adopted so consumers attached alongside see a clean store, and
    /// the write log restarts at it so consumers synced *before* the
    /// attach are told to resync fully rather than fed stale spans.
    pub fn attach_shared(&mut self, words: Arc<Vec<u32>>, generation: u64) {
        self.words = Shareable::Shared(words);
        self.generation = generation;
        if self.log.is_some() {
            self.log = Some(WriteLog { base: generation, spans: Vec::new() });
        }
    }

    #[inline]
    fn word_index(&self, addr: u32, align: u32) -> Result<usize, MemError> {
        if !addr.is_multiple_of(align) {
            return Err(MemError::Misaligned { addr, align });
        }
        let idx = (addr / 4) as usize;
        if idx >= self.words.get().len() {
            return Err(MemError::OutOfRange { addr, size: self.size() });
        }
        Ok(idx)
    }

    /// Reads a 32-bit word at a 4-aligned byte address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-range access.
    #[inline]
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        Ok(self.words.get()[self.word_index(addr, 4)?])
    }

    /// Writes a 32-bit word at a 4-aligned byte address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-range access.
    #[inline]
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let idx = self.word_index(addr, 4)?;
        self.words.make_owned()[idx] = value;
        self.touch(idx as u32, idx as u32);
        Ok(())
    }

    /// Reads with the given access width; sub-word reads are
    /// zero-extended.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-range access.
    #[inline]
    pub fn read(&self, addr: u32, size: MemSize) -> Result<u32, MemError> {
        match size {
            MemSize::Word => self.read_word(addr),
            MemSize::Half => {
                let idx = self.word_index(addr, 2)?;
                let word = self.words.get()[idx];
                let shift = (2 - (addr & 2)) * 8; // big-endian halves
                Ok((word >> shift) & 0xFFFF)
            }
            MemSize::Byte => {
                let idx = self.word_index(addr, 1)?;
                let word = self.words.get()[idx];
                let shift = (3 - (addr & 3)) * 8; // big-endian bytes
                Ok((word >> shift) & 0xFF)
            }
        }
    }

    /// Writes with the given access width (sub-word writes merge into the
    /// containing word).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-range access.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32, size: MemSize) -> Result<(), MemError> {
        match size {
            MemSize::Word => self.write_word(addr, value),
            MemSize::Half => {
                let idx = self.word_index(addr, 2)?;
                let shift = (2 - (addr & 2)) * 8;
                let mask = 0xFFFFu32 << shift;
                let words = self.words.make_owned();
                words[idx] = (words[idx] & !mask) | ((value & 0xFFFF) << shift);
                self.touch(idx as u32, idx as u32);
                Ok(())
            }
            MemSize::Byte => {
                let idx = self.word_index(addr, 1)?;
                let shift = (3 - (addr & 3)) * 8;
                let mask = 0xFFu32 << shift;
                let words = self.words.make_owned();
                words[idx] = (words[idx] & !mask) | ((value & 0xFF) << shift);
                self.touch(idx as u32, idx as u32);
                Ok(())
            }
        }
    }

    /// Copies a slice of words into the BRAM starting at a byte address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit.
    pub fn load_words(&mut self, addr: u32, data: &[u32]) -> Result<(), MemError> {
        for (i, &w) in data.iter().enumerate() {
            self.write_word(addr + (i as u32) * 4, w)?;
        }
        Ok(())
    }

    /// Reads `count` consecutive words starting at a byte address.
    ///
    /// Allocates a fresh `Vec` per call; hot callers (the patch/verify
    /// path) should reuse a buffer through
    /// [`read_words_into`](Bram::read_words_into).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit.
    pub fn read_words(&self, addr: u32, count: usize) -> Result<Vec<u32>, MemError> {
        let mut out = vec![0u32; count];
        self.read_words_into(addr, &mut out)?;
        Ok(out)
    }

    /// Fills `out` with consecutive words starting at a byte address,
    /// without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit or `addr` is
    /// misaligned; `out` is untouched on error.
    pub fn read_words_into(&self, addr: u32, out: &mut [u32]) -> Result<(), MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        let words = self.words.get();
        let start = (addr / 4) as usize;
        let Some(end) = start.checked_add(out.len()).filter(|&e| e <= words.len()) else {
            // Report the first word that falls outside the BRAM.
            let first_bad = addr + (words.len().saturating_sub(start) as u32) * 4;
            return Err(MemError::OutOfRange { addr: first_bad, size: self.size() });
        };
        out.copy_from_slice(&words[start..end]);
        Ok(())
    }

    /// Fills the entire BRAM with zeros.
    pub fn clear(&mut self) {
        let words = self.words.make_owned();
        words.fill(0);
        let hi = (words.len() as u32).saturating_sub(1);
        self.touch(0, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip() {
        let mut m = Bram::new(64);
        m.write_word(8, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_word(8).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn big_endian_bytes() {
        let mut m = Bram::new(16);
        m.write_word(0, 0x1122_3344).unwrap();
        assert_eq!(m.read(0, MemSize::Byte).unwrap(), 0x11);
        assert_eq!(m.read(1, MemSize::Byte).unwrap(), 0x22);
        assert_eq!(m.read(2, MemSize::Byte).unwrap(), 0x33);
        assert_eq!(m.read(3, MemSize::Byte).unwrap(), 0x44);
        assert_eq!(m.read(0, MemSize::Half).unwrap(), 0x1122);
        assert_eq!(m.read(2, MemSize::Half).unwrap(), 0x3344);
    }

    #[test]
    fn sub_word_writes_merge() {
        let mut m = Bram::new(16);
        m.write_word(4, 0xAABB_CCDD).unwrap();
        m.write(5, 0xEE, MemSize::Byte).unwrap();
        assert_eq!(m.read_word(4).unwrap(), 0xAAEE_CCDD);
        m.write(6, 0x1234, MemSize::Half).unwrap();
        assert_eq!(m.read_word(4).unwrap(), 0xAAEE_1234);
    }

    #[test]
    fn alignment_enforced() {
        let mut m = Bram::new(16);
        assert_eq!(m.read_word(2), Err(MemError::Misaligned { addr: 2, align: 4 }));
        assert_eq!(m.read(1, MemSize::Half), Err(MemError::Misaligned { addr: 1, align: 2 }));
        assert!(m.write(3, 0, MemSize::Half).is_err());
    }

    #[test]
    fn bounds_enforced() {
        let m = Bram::new(16);
        assert_eq!(m.read_word(16), Err(MemError::OutOfRange { addr: 16, size: 16 }));
        assert!(m.read(100, MemSize::Byte).is_err());
    }

    #[test]
    fn bulk_load_and_read() {
        let mut m = Bram::new(64);
        m.load_words(8, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_words(8, 3).unwrap(), vec![1, 2, 3]);
        m.clear();
        assert_eq!(m.read_word(8).unwrap(), 0);
    }

    #[test]
    fn size_rounds_up() {
        assert_eq!(Bram::new(10).size(), 12);
    }

    #[test]
    fn read_words_into_fills_without_alloc() {
        let mut m = Bram::new(64);
        m.load_words(8, &[1, 2, 3]).unwrap();
        let mut buf = [0u32; 3];
        m.read_words_into(8, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        // Errors leave the buffer untouched and match read_word's bounds.
        assert_eq!(
            m.read_words_into(60, &mut buf),
            Err(MemError::OutOfRange { addr: 64, size: 64 })
        );
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(m.read_words_into(2, &mut buf), Err(MemError::Misaligned { addr: 2, align: 4 }));
        m.read_words_into(8, &mut []).unwrap();
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut m = Bram::new(64);
        let g0 = m.generation();
        m.write_word(0, 5).unwrap();
        let g1 = m.generation();
        assert!(g1 > g0);
        m.write(1, 0xAB, MemSize::Byte).unwrap();
        assert!(m.generation() > g1);
        let g2 = m.generation();
        m.load_words(8, &[1, 2]).unwrap();
        assert!(m.generation() > g2);
        let g3 = m.generation();
        m.clear();
        assert!(m.generation() > g3);
        // Reads and failed writes leave the generation alone.
        let g4 = m.generation();
        let _ = m.read_word(0);
        assert!(m.write_word(1, 0).is_err());
        assert_eq!(m.generation(), g4);
    }

    #[test]
    fn untracked_bram_reports_unknown_dirty_range() {
        let mut m = Bram::new(64);
        let g0 = m.generation();
        m.write_word(8, 1).unwrap();
        assert_eq!(m.dirty_words_since(g0), None, "no log, no answer");
    }

    #[test]
    fn write_log_bounds_the_dirtied_words() {
        let mut m = Bram::new(256).with_write_log();
        let g0 = m.generation();
        m.write_word(16, 1).unwrap(); // word 4
        m.write_word(20, 2).unwrap(); // word 5: merges with word 4
        assert_eq!(m.dirty_words_since(g0), Some((4, 5)));
        // A consumer synced mid-burst gets the whole merged span — a
        // safe over-approximation (the span carries one generation).
        let g1 = g0 + 1;
        assert_eq!(m.dirty_words_since(g1), Some((4, 5)));
        // Sub-word writes and bulk loads are tracked too.
        m.write(41, 0xAB, MemSize::Byte).unwrap(); // word 10
        m.load_words(48, &[7, 8]).unwrap(); // words 12..13
        assert_eq!(m.dirty_words_since(g0), Some((4, 13)));
        // A fully-synced consumer sees nothing dirty.
        assert_eq!(m.dirty_words_since(m.generation()), None);
    }

    #[test]
    fn write_log_forgets_when_overflowed() {
        let mut m = Bram::new(4096).with_write_log();
        let g0 = m.generation();
        // Disjoint, non-mergeable writes past the log capacity.
        for i in 0..(WRITE_LOG_CAP as u32 + 2) {
            m.write_word(i * 64, i).unwrap();
        }
        assert_eq!(m.dirty_words_since(g0), None, "too far back: must demand a full resync");
        // But recent history is still exact.
        let g_late = m.generation() - 1;
        assert_eq!(
            m.dirty_words_since(g_late),
            Some(((WRITE_LOG_CAP as u32 + 1) * 16, (WRITE_LOG_CAP as u32 + 1) * 16))
        );
    }

    #[test]
    fn clear_dirties_everything() {
        let mut m = Bram::new(64).with_write_log();
        let g0 = m.generation();
        m.clear();
        assert_eq!(m.dirty_words_since(g0), Some((0, 15)));
    }

    #[test]
    fn freeze_shares_words_and_first_write_detaches() {
        let mut a = Bram::new(64).with_write_log();
        a.load_words(0, &[1, 2, 3]).unwrap();
        let generation = a.generation();
        let shared = a.freeze();
        assert!(a.is_shared(), "freeze leaves the source on the shared view");
        assert_eq!(a.read_word(0).unwrap(), 1, "reads are unchanged after freeze");

        let mut b = Bram::new(64).with_write_log();
        b.attach_shared(Arc::clone(&shared), generation);
        assert!(b.is_shared());
        assert_eq!(a, b);
        assert_eq!(b.generation(), generation);
        // Consumers synced before the attach must resync fully: the log
        // restarts at the adopted generation.
        assert_eq!(b.dirty_words_since(generation - 1), None);

        // First write detaches a private copy; the sibling and the
        // frozen image are untouched.
        b.write_word(0, 99).unwrap();
        assert!(!b.is_shared(), "a write must detach the shared view");
        assert_eq!(b.read_word(0).unwrap(), 99);
        assert_eq!(a.read_word(0).unwrap(), 1);
        assert_eq!(shared[0], 1);
        // The write is logged against the adopted generation.
        assert_eq!(b.dirty_words_since(generation), Some((0, 0)));
    }

    #[test]
    fn every_mutation_kind_detaches_a_shared_bram() {
        let mut src = Bram::new(64);
        src.write_word(0, 0xAABB_CCDD).unwrap();
        let generation = src.generation();
        let image = src.freeze();

        for mutate in [
            (|m: &mut Bram| m.write_word(0, 1).unwrap()) as fn(&mut Bram),
            |m| m.write(1, 0xEE, MemSize::Byte).unwrap(),
            |m| m.write(2, 0x1234, MemSize::Half).unwrap(),
            |m| m.load_words(0, &[7]).unwrap(),
            |m| m.clear(),
        ] {
            let mut b = Bram::new(64);
            b.attach_shared(Arc::clone(&image), generation);
            mutate(&mut b);
            assert!(!b.is_shared());
            assert_eq!(image[0], 0xAABB_CCDD, "the frozen image must never change");
        }
    }

    #[test]
    fn equality_ignores_generation() {
        let mut a = Bram::new(16);
        let b = Bram::new(16);
        a.write_word(0, 7).unwrap();
        a.write_word(0, 0).unwrap();
        assert_eq!(a, b, "same contents must compare equal despite mutations");
    }
}
