//! Binary patching: making the running program invoke the hardware.
//!
//! The last step of warp processing: the DPM "updates the executing
//! application's binary code to utilize the hardware within the
//! configurable logic fabric". The kernel loop's first word is replaced
//! by a jump to an invocation stub placed in free instruction memory
//! (a trampoline, since the stub can be longer than a small loop body).
//! The stub marshals the loop's live-in registers into the WCLA's
//! memory-mapped registers, starts the hardware, blocks on the status
//! read, moves accumulator results back into the architectural
//! registers the following code expects, and jumps to the loop exit.

use std::error::Error;
use std::fmt;

use mb_isa::{encode, Insn, Reg};
use mb_sim::System;
use warp_cdfg::LoopKernel;

use crate::device::{regs, WCLA_BASE};

/// Guard gap, in instruction words, between the end of the program
/// image and the invocation stub.
///
/// The stub lives in free instruction memory just past the program. It
/// is not placed flush against the image: the gap keeps the stub clear
/// of the image's last words even if the program length is later
/// rounded up (e.g. by alignment padding during load), and makes the
/// stub easy to spot in instruction-memory dumps. Every layer that
/// needs "where does the stub go?" — the warp orchestration in
/// `warp-core`, examples, and the cross-crate invariants tests — must
/// compute it with [`stub_base_for`] so the answer is the same
/// everywhere.
pub const STUB_GAP_WORDS: u32 = 8;

/// The address the warp flow places the invocation stub at, for a
/// program image ending at `program_end` (as reported by
/// `mb_isa::Program::end`): the image end plus [`STUB_GAP_WORDS`] words.
#[must_use]
pub fn stub_base_for(program_end: u32) -> u32 {
    program_end + 4 * STUB_GAP_WORDS
}

/// Why a kernel could not be patched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PatchError {
    /// The kernel body clobbers no register the stub could use as
    /// scratch.
    NoScratchRegister,
    /// The kernel uses more streams/accumulators/invariants than the
    /// WCLA register window exposes.
    TooManyLiveIns,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NoScratchRegister => f.write_str("no scratch register for the stub"),
            PatchError::TooManyLiveIns => f.write_str("too many live-ins for the WCLA window"),
        }
    }
}

impl Error for PatchError {}

/// A prepared binary patch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatchPlan {
    /// Address the stub is placed at.
    pub stub_base: u32,
    /// Encoded stub words.
    pub stub: Vec<u32>,
    /// Address of the kernel head (word replaced by a jump).
    pub head: u32,
    /// The replacement word at the head (a `bri` to the stub).
    pub head_word: u32,
    /// Original word at the head (for un-patching).
    pub original_head_word: u32,
}

impl PatchPlan {
    /// Builds the invocation stub for a kernel.
    ///
    /// `stub_base` is free instruction memory (typically just past the
    /// program image); `after` is the first instruction following the
    /// loop.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError`] if the kernel offers no scratch register
    /// or exceeds the WCLA register window.
    pub fn new(
        kernel: &LoopKernel,
        program_word_at_head: u32,
        stub_base: u32,
        after: u32,
    ) -> Result<Self, PatchError> {
        let scratch = *kernel.dead_temps.first().ok_or(PatchError::NoScratchRegister)?;
        if kernel.streams.len() > 3 || kernel.accs.len() > 4 || kernel.invariants.len() > 4 {
            return Err(PatchError::TooManyLiveIns);
        }

        let mut insns: Vec<Insn> = Vec::new();
        // scratch = WCLA base (32-bit constant: imm + addik).
        insns.push(Insn::Imm { imm: (WCLA_BASE >> 16) as i16 });
        insns.push(Insn::addik(scratch, Reg::R0, WCLA_BASE as i16));
        // Marshal live-ins.
        insns.push(Insn::swi(kernel.counter, scratch, regs::COUNT as i16));
        for (i, s) in kernel.streams.iter().enumerate() {
            insns.push(Insn::swi(s.base, scratch, (regs::BASE0 + 4 * i as u32) as i16));
        }
        for (k, a) in kernel.accs.iter().enumerate() {
            insns.push(Insn::swi(a.reg, scratch, (regs::ACC0 + 4 * k as u32) as i16));
        }
        for (k, &r) in kernel.invariants.iter().enumerate() {
            insns.push(Insn::swi(r, scratch, (regs::INV0 + 4 * k as u32) as i16));
        }
        // Start, then block until done (the counter register is dead once
        // marshalled — it doubles as the status destination).
        insns.push(Insn::swi(Reg::R0, scratch, regs::CTRL as i16));
        insns.push(Insn::lwi(kernel.counter, scratch, regs::STATUS as i16));
        // Accumulator live-outs back into architectural registers.
        for (k, a) in kernel.accs.iter().enumerate() {
            insns.push(Insn::lwi(a.reg, scratch, (regs::ACC0 + 4 * k as u32) as i16));
        }
        // Jump to the loop exit.
        let jump_pc = stub_base + 4 * insns.len() as u32;
        let offset = after.wrapping_sub(jump_pc) as i32;
        insns.push(Insn::Bri {
            rd: Reg::R0,
            imm: offset as i16,
            link: false,
            absolute: false,
            delay: false,
        });

        let head_jump = stub_base.wrapping_sub(kernel.head) as i32;
        let head_insn = Insn::Bri {
            rd: Reg::R0,
            imm: head_jump as i16,
            link: false,
            absolute: false,
            delay: false,
        };

        Ok(PatchPlan {
            stub_base,
            stub: insns.iter().map(encode).collect(),
            head: kernel.head,
            head_word: encode(&head_insn),
            original_head_word: program_word_at_head,
        })
    }

    /// Stub length in instruction words.
    #[must_use]
    pub fn stub_words(&self) -> usize {
        self.stub.len()
    }
}

/// Applies a patch to the system's instruction memory: the stub first,
/// then the jump at the loop head.
///
/// # Errors
///
/// Returns a [`mb_sim::MemError`] if the stub does not fit.
pub fn apply_patch(sys: &mut System, plan: &PatchPlan) -> Result<(), mb_sim::MemError> {
    sys.write_imem(plan.stub_base, &plan.stub)?;
    sys.write_imem(plan.head, &[plan.head_word])
}

/// Reverts a patch (restores the original loop head; the stub area is
/// simply abandoned).
///
/// # Errors
///
/// Returns a [`mb_sim::MemError`] on out-of-range addresses.
pub fn revert_patch(sys: &mut System, plan: &PatchPlan) -> Result<(), mb_sim::MemError> {
    sys.write_imem(plan.head, &[plan.original_head_word])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::MbFeatures;
    use warp_cdfg::decompile_loop;

    #[test]
    fn stub_shape_for_every_workload() {
        for workload in workloads::all() {
            let built = workload.build(MbFeatures::paper_default());
            let kernel =
                decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
            let head_word = built.program.word_at(built.kernel.head).unwrap();
            let stub_base = stub_base_for(built.program.end());
            let plan = PatchPlan::new(&kernel, head_word, stub_base, built.kernel.after())
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name));

            // Expected: 2 (base) + 1 (count) + streams + accs + invs + 1
            // (start) + 1 (status) + accs (readback) + 1 (jump).
            let expected =
                2 + 1 + kernel.streams.len() + 2 * kernel.accs.len() + kernel.invariants.len() + 3;
            assert_eq!(plan.stub_words(), expected, "{}", workload.name);

            // The head replacement must decode to a forward branch to
            // the stub.
            match mb_isa::decode(plan.head_word).unwrap() {
                Insn::Bri { imm, .. } => {
                    assert_eq!(plan.head.wrapping_add(imm as i32 as u32), stub_base);
                }
                other => panic!("head patch must be bri, got {other}"),
            }
        }
    }

    #[test]
    fn apply_and_revert_round_trip() {
        let built = workloads::by_name("bitmnp").unwrap().build(MbFeatures::paper_default());
        let kernel = decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
        let head_word = built.program.word_at(built.kernel.head).unwrap();
        let plan = PatchPlan::new(
            &kernel,
            head_word,
            stub_base_for(built.program.end()),
            built.kernel.after(),
        )
        .unwrap();

        let mut sys = built.instantiate(&mb_sim::MbConfig::paper_default());
        let before = sys.imem().clone();
        apply_patch(&mut sys, &plan).unwrap();
        assert_ne!(sys.imem().read_word(plan.head).unwrap(), before.read_word(plan.head).unwrap());
        revert_patch(&mut sys, &plan).unwrap();
        assert_eq!(sys.imem().read_word(plan.head).unwrap(), before.read_word(plan.head).unwrap());
    }
}
