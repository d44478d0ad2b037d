//! Block RAM model.

use std::error::Error;
use std::fmt;
use std::ops::Range;
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

/// A dual-ported block RAM, word-organized with big-endian byte order
/// (matching the MicroBlaze).
///
/// Both the CPU's local memory bus and — for the data BRAM — the WCLA's
/// data address generator access the same array; the dual-ported BRAM of
/// the paper means these accesses do not contend.
///
/// The instruction BRAM is written only through
/// [`System::write_imem`](crate::System::write_imem), which invalidates
/// the simulator's derived program store for exactly the written words.
#[derive(Clone, Debug)]
pub struct Bram {
    words: Shareable<Vec<u32>>,
}

/// Equality compares the stored words only, whether owned or shared.
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
        Bram { words: Shareable::Owned(vec![0; (size_bytes as usize).div_ceil(4)]) }
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

    /// Replaces the contents with a shared read-only word array (a
    /// [`Bram::freeze`] of a sibling).
    pub fn attach_shared(&mut self, words: Arc<Vec<u32>>) {
        self.words = Shareable::Shared(words);
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
                Ok(())
            }
            MemSize::Byte => {
                let idx = self.word_index(addr, 1)?;
                let shift = (3 - (addr & 3)) * 8;
                let mask = 0xFFu32 << shift;
                let words = self.words.make_owned();
                words[idx] = (words[idx] & !mask) | ((value & 0xFF) << shift);
                Ok(())
            }
        }
    }

    /// Copies a slice of words into the BRAM starting at a byte address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit or `addr` is
    /// misaligned; the BRAM is untouched on error. An empty slice writes
    /// nothing, wherever it points.
    pub fn load_words(&mut self, addr: u32, data: &[u32]) -> Result<(), MemError> {
        if !data.is_empty() {
            let span = self.span(addr, data.len())?;
            self.words.make_owned()[span].copy_from_slice(data);
        }
        Ok(())
    }

    /// Reads `count` consecutive words starting at a byte address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit or `addr` is
    /// misaligned.
    pub fn read_words(&self, addr: u32, count: usize) -> Result<Vec<u32>, MemError> {
        Ok(self.words.get()[self.span(addr, count)?].to_vec())
    }

    /// The word indices of `count` consecutive words from byte address
    /// `addr`, or the error naming the first word outside the BRAM.
    fn span(&self, addr: u32, count: usize) -> Result<Range<usize>, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        let len = self.words.get().len();
        let start = (addr / 4) as usize;
        match start.checked_add(count).filter(|&end| end <= len) {
            Some(end) => Ok(start..end),
            None => {
                let first_bad = addr + (len.saturating_sub(start) as u32) * 4;
                Err(MemError::OutOfRange { addr: first_bad, size: self.size() })
            }
        }
    }

    /// Fills the entire BRAM with zeros.
    pub fn clear(&mut self) {
        self.words.make_owned().fill(0);
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
    fn read_words_checks_the_whole_range() {
        let mut m = Bram::new(64);
        m.load_words(8, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_words(8, 3).unwrap(), vec![1, 2, 3]);
        // Errors match read_word's bounds.
        assert_eq!(m.read_words(60, 3), Err(MemError::OutOfRange { addr: 64, size: 64 }));
        assert_eq!(m.read_words(2, 3), Err(MemError::Misaligned { addr: 2, align: 4 }));
        assert_eq!(m.read_words(8, 0).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn load_words_writes_all_or_nothing() {
        let mut m = Bram::new(16);
        assert_eq!(m.load_words(8, &[1, 2, 3]), Err(MemError::OutOfRange { addr: 16, size: 16 }));
        assert_eq!(m, Bram::new(16), "a load that does not fit writes nothing");
        m.load_words(6, &[]).unwrap();
    }

    #[test]
    fn clear_zeroes_every_word() {
        let mut m = Bram::new(64);
        m.load_words(0, &[1; 16]).unwrap();
        m.clear();
        assert!(m.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn freeze_shares_words_and_first_write_detaches() {
        let mut a = Bram::new(64);
        a.load_words(0, &[1, 2, 3]).unwrap();
        let shared = a.freeze();
        assert!(a.is_shared(), "freeze leaves the source on the shared view");
        assert_eq!(a.read_word(0).unwrap(), 1, "reads are unchanged after freeze");

        let mut b = Bram::new(64);
        b.attach_shared(Arc::clone(&shared));
        assert!(b.is_shared());
        assert_eq!(a, b);

        // First write detaches a private copy; the sibling and the
        // frozen image are untouched.
        b.write_word(0, 99).unwrap();
        assert!(!b.is_shared(), "a write must detach the shared view");
        assert_eq!(b.read_word(0).unwrap(), 99);
        assert_eq!(a.read_word(0).unwrap(), 1);
        assert_eq!(shared[0], 1);
    }

    #[test]
    fn every_mutation_kind_detaches_a_shared_bram() {
        let mut src = Bram::new(64);
        src.write_word(0, 0xAABB_CCDD).unwrap();
        let image = src.freeze();

        for mutate in [
            (|m: &mut Bram| m.write_word(0, 1).unwrap()) as fn(&mut Bram),
            |m| m.write(1, 0xEE, MemSize::Byte).unwrap(),
            |m| m.write(2, 0x1234, MemSize::Half).unwrap(),
            |m| m.load_words(0, &[7]).unwrap(),
            |m| m.clear(),
        ] {
            let mut b = Bram::new(64);
            b.attach_shared(Arc::clone(&image));
            mutate(&mut b);
            assert!(!b.is_shared());
            assert_eq!(image[0], 0xAABB_CCDD, "the frozen image must never change");
        }
    }

    #[test]
    fn equality_compares_contents_only() {
        let mut a = Bram::new(16);
        let b = Bram::new(16);
        a.write_word(0, 7).unwrap();
        a.write_word(0, 0).unwrap();
        assert_eq!(a, b, "same contents must compare equal despite mutations");
    }
}
