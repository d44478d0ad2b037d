//! Frozen, shareable per-program artifacts.
//!
//! A serving fleet runs thousands of sessions of the *same* program:
//! the instruction words and the derived table of pre-decoded slots and
//! block/trace shapes are pure functions of the program bytes and the
//! machine configuration, yet every fresh [`System`] used to rebuild
//! both from scratch. A [`ProgramImage`] captures them once from a
//! warmed system and lets any number of sibling systems attach them as
//! read-only shared views.
//!
//! Sharing is copy-on-patch, not read-only-forever: the first
//! [`System::write_imem`] of an attached system (the DPM hot-patching
//! the running binary) detaches private copies of the words and the
//! table as it invalidates the written words — so a warping session
//! never perturbs its siblings, and execution is bit-identical to a
//! system that owned private stores all along (the contents are
//! identical; only the storage is shared).
//!
//! [`System`]: crate::System
//! [`System::write_imem`]: crate::System::write_imem

use std::sync::Arc;

use crate::block::Tables;

/// The immutable per-program artifacts many [`System`]s share: program
/// words plus the per-word table of pre-decoded slots, built
/// block/trace shapes, and learned OPB words derived from them.
///
/// Capture with [`System::capture_image`] from a system that has been
/// prewarmed and run to completion (so the table holds the
/// *learned* shapes — OPB splits included); attach to fresh systems,
/// or to one rerunning in place, with [`System::attach_image`]. The
/// image must only be attached to systems with the same configuration
/// it was captured under — the slot latencies and block shapes bake in
/// the feature set and trace-chaining flag.
///
/// Cloning is cheap (two `Arc`s), and the image is `Send + Sync`: a
/// fleet-wide image store hands the same image to every worker.
///
/// [`System`]: crate::System
/// [`System::capture_image`]: crate::System::capture_image
/// [`System::attach_image`]: crate::System::attach_image
#[derive(Clone, Debug)]
pub struct ProgramImage {
    pub(crate) entry_pc: u32,
    pub(crate) words: Arc<Vec<u32>>,
    pub(crate) tables: Arc<Tables>,
}

impl ProgramImage {
    /// The PC execution starts at (the program's base address).
    #[must_use]
    pub fn entry_pc(&self) -> u32 {
        self.entry_pc
    }

    /// The captured instruction words (the whole BRAM, padding included).
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

/// One of a system's image-backed stores (instruction words, or the
/// program store's table): privately owned, or a read-only view shared
/// with a [`ProgramImage`] and its sibling systems. Reads branch once on
/// the variant — deliberately *not* `Arc::make_mut` per write, which
/// would put an atomic refcount probe on the simulated store path of
/// every owned data BRAM. The first mutation of a shared view detaches
/// a private copy (copy-on-patch).
#[derive(Clone, Debug)]
pub(crate) enum Shareable<T> {
    /// Private storage; mutations write in place.
    Owned(T),
    /// Shared read-only storage.
    Shared(Arc<T>),
}

impl<T: Clone + Default> Shareable<T> {
    /// The contents, owned or shared.
    #[inline]
    pub(crate) fn get(&self) -> &T {
        match self {
            Shareable::Owned(t) => t,
            Shareable::Shared(a) => a,
        }
    }

    /// The mutable contents, detaching a private copy first when the
    /// storage is shared.
    #[inline]
    pub(crate) fn make_owned(&mut self) -> &mut T {
        if let Shareable::Shared(a) = self {
            *self = Shareable::Owned(T::clone(a));
        }
        match self {
            Shareable::Owned(t) => t,
            Shareable::Shared(_) => unreachable!("just detached"),
        }
    }

    /// Freezes the contents into a shareable read-only value and
    /// switches to the shared view. Reads are unchanged; the next
    /// mutation detaches a private copy. Returns the shared value so
    /// siblings can attach it without copying.
    pub(crate) fn freeze(&mut self) -> Arc<T> {
        if let Shareable::Owned(t) = self {
            *self = Shareable::Shared(Arc::new(std::mem::take(t)));
        }
        match self {
            Shareable::Shared(a) => Arc::clone(a),
            Shareable::Owned(_) => unreachable!("just frozen"),
        }
    }

    /// Whether the storage is currently a shared read-only view.
    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, Shareable::Shared(_))
    }
}

#[cfg(test)]
mod tests {
    use mb_isa::{Assembler, Insn, Reg};

    use crate::{MbConfig, NullSink, System, EXIT_PORT_BASE};

    fn counting_program(iters: i32) -> mb_isa::Program {
        let mut a = Assembler::new(0);
        a.li(Reg::R3, iters);
        a.label("loop");
        a.push(Insn::addik(Reg::R4, Reg::R4, 3));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "loop");
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        a.finish().unwrap()
    }

    /// Builds an image the way a session pool does: load, prewarm, run
    /// a full warm pass (learning the OPB split at the exit store),
    /// re-prewarm (the learn invalidated the exit-sequence block), then
    /// capture.
    fn build_image(program: &mb_isa::Program) -> (System, crate::ProgramImage) {
        let mut warm = System::new(MbConfig::paper_default());
        warm.load_program(program).unwrap();
        warm.prewarm();
        warm.run(1_000_000).unwrap();
        warm.prewarm();
        let image = warm.capture_image(program.base);
        (warm, image)
    }

    #[test]
    fn attached_systems_run_bit_identically_to_private_stores() {
        let program = counting_program(50);
        let mut reference = System::new(MbConfig::paper_default());
        reference.load_program(&program).unwrap();
        let expected = reference.run(1_000_000).unwrap();
        assert!(expected.exited());

        let (_warm, image) = build_image(&program);
        let mut sys = System::new(MbConfig::paper_default());
        sys.attach_image(&image);
        assert!(sys.imem().is_shared());
        let out = sys.run(1_000_000).unwrap();
        assert_eq!(out, expected, "shared-image run must match the private-store run");
        assert_eq!(sys.stats(), reference.stats());
        assert_eq!(sys.cpu().reg(Reg::R4), reference.cpu().reg(Reg::R4));
        assert!(sys.imem().is_shared(), "an unpatched run must never detach the words");
    }

    #[test]
    fn sliced_shared_image_run_matches_monolithic() {
        let program = counting_program(40);
        let (_warm, image) = build_image(&program);

        let mut mono = System::new(MbConfig::paper_default());
        mono.attach_image(&image);
        let expected = mono.run(1_000_000).unwrap();

        let mut sliced = System::new(MbConfig::paper_default());
        sliced.attach_image(&image);
        let mut cycles = 0u64;
        loop {
            let out = sliced.run_with_sink(7, &mut NullSink).unwrap();
            cycles += out.cycles;
            if out.exited() {
                break;
            }
        }
        assert_eq!(cycles, expected.cycles);
        assert_eq!(sliced.stats(), mono.stats());
    }

    #[test]
    fn patching_one_sibling_never_perturbs_the_other() {
        let program = counting_program(30);
        let (_warm, image) = build_image(&program);

        let mut patched = System::new(MbConfig::paper_default());
        patched.attach_image(&image);
        let mut sibling = System::new(MbConfig::paper_default());
        sibling.attach_image(&image);

        // Hot-patch the loop body in one sibling: addik r4, r4, 3
        // becomes addik r4, r4, 5.
        let pc = 4;
        patched.write_imem(pc, &[mb_isa::encode(&Insn::addik(Reg::R4, Reg::R4, 5))]).unwrap();
        assert!(!patched.imem().is_shared(), "the patch must detach a private copy");
        assert!(sibling.imem().is_shared(), "the sibling must keep the shared view");

        let out_patched = patched.run(1_000_000).unwrap();
        assert!(out_patched.exited());
        assert_eq!(patched.cpu().reg(Reg::R4), 150, "patched run sums 5s");

        // The sibling still executes the original program, identical to
        // a fresh private-store system.
        let mut reference = System::new(MbConfig::paper_default());
        reference.load_program(&program).unwrap();
        let expected = reference.run(1_000_000).unwrap();
        let out_sibling = sibling.run(1_000_000).unwrap();
        assert_eq!(out_sibling, expected);
        assert_eq!(sibling.cpu().reg(Reg::R4), 90, "sibling still sums 3s");
        assert_eq!(sibling.stats(), reference.stats());
        assert_eq!(image.words()[1], mb_isa::encode(&Insn::addik(Reg::R4, Reg::R4, 3)));
    }

    #[test]
    fn recycled_system_reruns_bit_identically() {
        let program = counting_program(25);
        let (_warm, image) = build_image(&program);

        let mut sys = System::new(MbConfig::paper_default());
        sys.attach_image(&image);
        let first = sys.run(1_000_000).unwrap();
        let first_r4 = sys.cpu().reg(Reg::R4);
        let first_stats = sys.stats().clone();
        assert_eq!(sys.halted(), Some(0));

        // Recycle in place: reset run state, keep the attached image.
        sys.reset_run_state(image.entry_pc());
        assert_eq!(sys.halted(), None, "reset must clear the exit latch");
        assert!(sys.imem().is_shared(), "reset must not detach the image");
        let second = sys.run(1_000_000).unwrap();
        assert_eq!(second, first);
        assert_eq!(sys.cpu().reg(Reg::R4), first_r4);
        assert_eq!(sys.stats(), &first_stats);
    }
}
