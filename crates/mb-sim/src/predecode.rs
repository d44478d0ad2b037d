//! Pre-decoded instruction store.
//!
//! The simulator's original fetch re-decoded the instruction word at
//! every retirement, even though a program's imem words change only when
//! the dynamic partitioning module patches the binary. This side table
//! prepares each word once into a [`Predecoded`] slot indexed by
//! `pc >> 2`; after the first execution of a PC, fetch is an array load.
//!
//! A slot holds not just the decoded [`Insn`] but everything `step`
//! needs that is a pure function of the instruction word and the
//! system's fixed feature set: the timing-model latencies for both
//! branch outcomes, the instruction class, functional-unit support, and
//! the control-flow flag — so the hot loop re-derives none of them.
//!
//! Invalidation rides on [`Bram::generation`]: every imem write (the
//! WCLA patch path goes through [`System::imem_mut`]) bumps the
//! generation, and the next fetch notices the mismatch. When the BRAM
//! carries a write log ([`Bram::dirty_words_since`] — the simulator's
//! instruction BRAM does), only the slots overlapping the dirtied word
//! range are discarded and the rest of the table stays hot; without a
//! log (or when the log has forgotten that far back) the whole table is
//! flushed and refills lazily.
//!
//! [`System::imem_mut`]: crate::System::imem_mut

use std::sync::Arc;

use mb_isa::{decode, Insn, MbFeatures, OpClass};

use crate::image::Shareable;
use crate::machine::RunError;
use crate::timing::{branch_latency, insn_latency};
use crate::Bram;

/// One instruction, fully prepared for execution.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Predecoded {
    /// The decoded instruction.
    pub insn: Insn,
    /// Coarse class (for statistics and histograms).
    pub class: OpClass,
    /// Execute cycles when a branch is taken; [`insn_latency`] for
    /// non-branches.
    pub lat_taken: u32,
    /// Execute cycles when a branch is not taken; [`insn_latency`] for
    /// non-branches.
    pub lat_not_taken: u32,
    /// Whether the configured functional units can execute it.
    pub supported: bool,
    /// Whether it is a control-flow instruction (illegal in delay slots).
    pub control_flow: bool,
}

impl Predecoded {
    /// Prepares an instruction against a fixed feature configuration.
    pub fn prepare(insn: Insn, features: &MbFeatures) -> Self {
        Predecoded {
            insn,
            class: insn.class(),
            lat_taken: branch_latency(&insn, true).max(insn_latency(&insn)),
            lat_not_taken: insn_latency(&insn),
            supported: features.supports(&insn),
            control_flow: insn.is_control_flow(),
        }
    }
}

/// Lazily-filled decode side table for one instruction BRAM.
#[derive(Clone, Debug)]
pub(crate) struct DecodeCache {
    /// One slot per imem word; `None` = not prepared yet. Possibly a
    /// shared image view.
    slots: Shareable<Vec<Option<Predecoded>>>,
    /// The [`Bram::generation`] the slots were decoded against.
    generation: u64,
    /// Slow-path decodes performed (observability for the incremental
    /// invalidation tests: a patch must not force re-decoding the whole
    /// program).
    pub(crate) prepared: u64,
}

impl DecodeCache {
    /// Creates an empty cache that syncs to the BRAM on first fetch.
    pub fn new() -> Self {
        // u64::MAX can never equal a real generation (they start at 0 and
        // increment), so the first fetch always syncs.
        DecodeCache { slots: Shareable::Owned(Vec::new()), generation: u64::MAX, prepared: 0 }
    }

    /// Brings the table fully in sync with `imem` (normally lazy on the
    /// next fetch) — the pre-freeze step of an image capture.
    pub fn sync(&mut self, imem: &Bram) {
        if self.generation != imem.generation() {
            self.resync(imem);
        }
    }

    /// Freezes the prepared slots into a shareable read-only table and
    /// switches this cache to the shared view (see [`Bram::freeze`]).
    pub fn freeze(&mut self) -> Arc<Vec<Option<Predecoded>>> {
        self.slots.freeze()
    }

    /// Replaces the table with a shared fully-prepared one captured at
    /// `generation` (against the same program words this cache's BRAM
    /// now holds). The next mutation — a resync after a patch, or a
    /// slow-path decode of an unprepared word — detaches a private copy.
    pub fn attach_shared(&mut self, slots: Arc<Vec<Option<Predecoded>>>, generation: u64) {
        self.slots = Shareable::Shared(slots);
        self.generation = generation;
    }

    /// Fetches the prepared instruction at `pc`, decoding and caching on
    /// the first visit and re-syncing whenever the BRAM has been written.
    #[inline]
    pub fn fetch(
        &mut self,
        imem: &Bram,
        features: &MbFeatures,
        pc: u32,
    ) -> Result<Predecoded, RunError> {
        if self.generation == imem.generation() && pc & 3 == 0 {
            if let Some(Some(d)) = self.slots.get().get((pc >> 2) as usize) {
                return Ok(*d);
            }
        }
        self.fetch_slow(imem, features, pc)
    }

    /// Re-syncs to the BRAM after a mutation: incrementally when the
    /// write log can bound the dirtied words, wholesale otherwise.
    /// Detaches a shared table first — a resync only happens after the
    /// BRAM was written, i.e. this system diverged from the image.
    fn resync(&mut self, imem: &Bram) {
        let words = imem.words().len();
        let dirty = if self.slots.get().len() == words {
            imem.dirty_words_since(self.generation)
        } else {
            None // first sync or a resized BRAM: nothing reusable
        };
        let slots = self.slots.make_owned();
        match dirty {
            Some((lo, hi)) => {
                let hi = (hi as usize).min(words - 1);
                slots[lo as usize..=hi].fill(None);
            }
            None => {
                slots.clear();
                slots.resize(words, None);
            }
        }
        self.generation = imem.generation();
    }

    #[cold]
    fn fetch_slow(
        &mut self,
        imem: &Bram,
        features: &MbFeatures,
        pc: u32,
    ) -> Result<Predecoded, RunError> {
        if self.generation != imem.generation() {
            self.resync(imem);
        }
        let word = imem.read_word(pc).map_err(|err| RunError::Mem { pc, err })?;
        let insn = decode(word).map_err(|err| RunError::Decode { pc, err })?;
        let d = Predecoded::prepare(insn, features);
        self.slots.make_owned()[(pc >> 2) as usize] = Some(d);
        self.prepared += 1;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::{encode, Cond, Reg};

    fn features() -> MbFeatures {
        MbFeatures::paper_default()
    }

    #[test]
    fn caches_and_invalidates_on_write() {
        let mut imem = Bram::new(64);
        let add = Insn::addk(Reg::R1, Reg::R2, Reg::R3);
        imem.write_word(0, encode(&add)).unwrap();
        let mut cache = DecodeCache::new();
        assert_eq!(cache.fetch(&imem, &features(), 0).unwrap().insn, add);
        // Cached: same answer without consulting the word again.
        assert_eq!(cache.fetch(&imem, &features(), 0).unwrap().insn, add);

        // A write anywhere in imem invalidates; the new word decodes.
        let xor = Insn::Xor { rd: Reg::R4, ra: Reg::R5, rb: Reg::R6 };
        imem.write_word(0, encode(&xor)).unwrap();
        assert_eq!(cache.fetch(&imem, &features(), 0).unwrap().insn, xor);
    }

    #[test]
    fn prepared_fields_match_the_lazy_derivations() {
        for insn in [
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::mul(Reg::R1, Reg::R2, Reg::R3),
            Insn::lwi(Reg::R1, Reg::R2, 4),
            Insn::Bci { cond: Cond::Ne, ra: Reg::R3, imm: -8, delay: false },
            Insn::Bri { rd: Reg::R0, imm: 8, link: false, absolute: false, delay: true },
            Insn::ret(),
            Insn::Imm { imm: 7 },
        ] {
            let d = Predecoded::prepare(insn, &MbFeatures::minimal());
            assert_eq!(d.class, insn.class(), "{insn}");
            assert_eq!(d.lat_not_taken, insn_latency(&insn), "{insn}");
            if d.class == OpClass::Branch {
                assert_eq!(d.lat_taken, branch_latency(&insn, true), "{insn}");
            } else {
                assert_eq!(d.lat_taken, insn_latency(&insn), "{insn}");
            }
            assert_eq!(d.supported, MbFeatures::minimal().supports(&insn), "{insn}");
            assert_eq!(d.control_flow, insn.is_control_flow(), "{insn}");
        }
    }

    #[test]
    fn logged_bram_invalidates_only_the_patched_slots() {
        let mut imem = Bram::new(64).with_write_log();
        for w in 0..4u32 {
            imem.write_word(w * 4, encode(&Insn::addk(Reg::R1, Reg::R2, Reg::R3))).unwrap();
        }
        let mut cache = DecodeCache::new();
        for w in 0..4u32 {
            cache.fetch(&imem, &features(), w * 4).unwrap();
        }
        let prepared = cache.prepared;

        // Patch one word: only that slot re-decodes.
        let xor = Insn::Xor { rd: Reg::R4, ra: Reg::R5, rb: Reg::R6 };
        imem.write_word(0, encode(&xor)).unwrap();
        for w in 0..4u32 {
            cache.fetch(&imem, &features(), w * 4).unwrap();
        }
        assert_eq!(cache.fetch(&imem, &features(), 0).unwrap().insn, xor);
        assert_eq!(cache.prepared, prepared + 1, "incremental invalidation must spare the rest");
    }

    #[test]
    fn unlogged_bram_falls_back_to_a_full_flush() {
        let mut imem = Bram::new(64);
        let add = Insn::addk(Reg::R1, Reg::R2, Reg::R3);
        for w in 0..4u32 {
            imem.write_word(w * 4, encode(&add)).unwrap();
        }
        let mut cache = DecodeCache::new();
        for w in 0..4u32 {
            cache.fetch(&imem, &features(), w * 4).unwrap();
        }
        let prepared = cache.prepared;
        imem.write_word(0, encode(&add)).unwrap();
        for w in 0..4u32 {
            cache.fetch(&imem, &features(), w * 4).unwrap();
        }
        assert_eq!(cache.prepared, prepared + 4, "no write log: the whole table refills");
    }

    #[test]
    fn shared_slots_serve_fetches_and_detach_on_patch() {
        let mut imem = Bram::new(64).with_write_log();
        let add = Insn::addk(Reg::R1, Reg::R2, Reg::R3);
        imem.write_word(0, encode(&add)).unwrap();
        let mut warm = DecodeCache::new();
        warm.fetch(&imem, &features(), 0).unwrap();
        warm.sync(&imem);
        let table = warm.freeze();

        let mut cache = DecodeCache::new();
        cache.attach_shared(Arc::clone(&table), imem.generation());
        assert_eq!(cache.fetch(&imem, &features(), 0).unwrap().insn, add);
        assert_eq!(cache.prepared, 0, "a shared table must serve without slow-path decodes");

        // A patch detaches this cache's private copy; the frozen table
        // (and every sibling attached to it) keeps the original slot.
        let xor = Insn::Xor { rd: Reg::R4, ra: Reg::R5, rb: Reg::R6 };
        imem.write_word(0, encode(&xor)).unwrap();
        assert_eq!(cache.fetch(&imem, &features(), 0).unwrap().insn, xor);
        assert_eq!(cache.prepared, 1, "only the patched slot re-decodes");
        assert_eq!(table[0].map(|d| d.insn), Some(add), "the frozen table must never change");
    }

    #[test]
    fn faults_match_direct_decode() {
        let imem = Bram::new(16);
        let mut cache = DecodeCache::new();
        assert!(matches!(cache.fetch(&imem, &features(), 2), Err(RunError::Mem { pc: 2, .. })));
        assert!(matches!(cache.fetch(&imem, &features(), 64), Err(RunError::Mem { pc: 64, .. })));
    }
}
