//! `brev` (Powerstone): bit reversal of a word array.
//!
//! The paper singles this benchmark out twice: its kernel "performs an
//! efficient bit reversal but heavily relies on shift operations", so a
//! core without the barrel shifter runs the application 2.1× slower
//! (Section 2); and after partitioning, "the resulting hardware circuit is
//! much more efficient, requiring only wires to implement the bit
//! reversal", giving the largest warp speedup (16.9×).
//!
//! The kernel reverses each 32-bit word with the classic five-stage
//! shift/mask network; in hardware every stage is pure wiring.

use mb_isa::codegen::CodeGen;
use mb_isa::{Insn, MbFeatures, Reg};

use crate::common::{self, emit_and_mask};
use crate::{BuiltWorkload, KernelBounds, MemCheck, Suite};

/// Number of words reversed by the kernel.
pub const N: usize = 2048;
/// Words covered by the verification checksum (the non-kernel share).
const CSUM_WORDS: usize = 448;

const IN_ADDR: u32 = 0x1000;
const OUT_ADDR: u32 = 0x4000;
const CSUM_ADDR: u32 = 0x0100;

/// Golden model: the five-stage network is exactly 32-bit reversal.
#[must_use]
pub fn golden(input: &[u32]) -> Vec<u32> {
    input.iter().map(|x| x.reverse_bits()).collect()
}

fn input_data() -> Vec<u32> {
    common::lcg_fill(N, 0xB5E7_CAFE, 1_664_525, 1_013_904_223)
}

/// Builds `brev` with input words drawn from `seed` (the program is
/// identical to [`build`]; only data and expected results change).
pub fn build_seeded(features: MbFeatures, seed: u64) -> BuiltWorkload {
    build_with_input(features, common::seeded_words(N, seed, 0xB5E7))
}

/// One shift/mask stage: `x = ((x >> k) & mask) | ((x & mask) << k)`.
fn emit_stage(cg: &mut CodeGen, x: Reg, t0: Reg, t1: Reg, k: u8, mask: u32) {
    cg.shr_const(t0, x, k);
    emit_and_mask(cg, t0, t0, mask);
    emit_and_mask(cg, t1, x, mask);
    cg.shl_const(t1, t1, k);
    cg.asm_mut().push(Insn::Or { rd: x, ra: t0, rb: t1 });
}

/// Builds `brev` for a feature configuration.
pub fn build(features: MbFeatures) -> BuiltWorkload {
    build_with_input(features, input_data())
}

fn build_with_input(features: MbFeatures, input: Vec<u32>) -> BuiltWorkload {
    let mut cg = CodeGen::new(0, features);
    cg.asm_mut().equ("in", IN_ADDR).unwrap();
    cg.asm_mut().equ("out", OUT_ADDR).unwrap();
    cg.asm_mut().equ("csum", CSUM_ADDR).unwrap();

    // Kernel pointers and trip count.
    {
        let a = cg.asm_mut();
        a.la(Reg::R5, "in");
        a.la(Reg::R6, "out");
        a.li(Reg::R4, N as i32);
        a.label("k_head");
        a.push(Insn::lwi(Reg::R9, Reg::R5, 0));
    }
    emit_stage(&mut cg, Reg::R9, Reg::R10, Reg::R11, 1, 0x5555_5555);
    emit_stage(&mut cg, Reg::R9, Reg::R10, Reg::R11, 2, 0x3333_3333);
    emit_stage(&mut cg, Reg::R9, Reg::R10, Reg::R11, 4, 0x0F0F_0F0F);
    emit_stage(&mut cg, Reg::R9, Reg::R10, Reg::R11, 8, 0x00FF_00FF);
    // Final stage: swap halves — (x << 16) | (x >> 16).
    cg.shl_const(Reg::R10, Reg::R9, 16);
    cg.shr_const(Reg::R11, Reg::R9, 16);
    {
        let a = cg.asm_mut();
        a.push(Insn::Or { rd: Reg::R9, ra: Reg::R10, rb: Reg::R11 });
        a.push(Insn::swi(Reg::R9, Reg::R6, 0));
        a.push(Insn::addik(Reg::R5, Reg::R5, 4));
        a.push(Insn::addik(Reg::R6, Reg::R6, 4));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k_tail");
        a.bnei(Reg::R4, "k_head");
    }

    // Non-kernel share: verification checksum over part of the output.
    common::emit_checksum(&mut cg, "out", "out", CSUM_WORDS as i32, "csum");
    common::emit_exit(&mut cg);

    let program = cg.finish().expect("brev assembles");
    let kernel = KernelBounds {
        head: program.symbol("k_head").unwrap(),
        tail: program.symbol("k_tail").unwrap(),
    };

    let output = golden(&input);
    let csum = common::checksum(&output[..CSUM_WORDS]);

    BuiltWorkload {
        name: "brev".into(),
        suite: Suite::Powerstone,
        program,
        data: vec![(IN_ADDR, input)],
        kernel,
        checks: vec![
            MemCheck { label: "brev output".into(), addr: OUT_ADDR, expected: output },
            MemCheck { label: "brev checksum".into(), addr: CSUM_ADDR, expected: vec![csum] },
        ],
        features,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_sim::MbConfig;

    fn run(features: MbFeatures) -> (BuiltWorkload, mb_sim::Outcome, mb_sim::System) {
        let built = build(features);
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(50_000_000).unwrap();
        assert!(out.exited(), "brev must exit");
        (built, out, sys)
    }

    #[test]
    fn output_matches_golden_with_barrel_shifter() {
        let (built, _, sys) = run(MbFeatures::paper_default());
        built.verify(sys.dmem()).unwrap();
    }

    #[test]
    fn output_identical_without_optional_units() {
        let (built, _, sys) = run(MbFeatures::minimal());
        built.verify(sys.dmem()).unwrap();
    }

    #[test]
    fn missing_barrel_shifter_slows_execution_about_2x() {
        let (_, with_bs, _) = run(MbFeatures::paper_default());
        let (_, without, _) = run(MbFeatures::minimal());
        let ratio = without.cycles as f64 / with_bs.cycles as f64;
        // Paper Section 2 reports 2.1×; accept a band around it.
        assert!(
            (1.6..=2.6).contains(&ratio),
            "brev slowdown without barrel shifter/multiplier: {ratio:.2}"
        );
    }

    #[test]
    fn kernel_dominates_execution() {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (out, trace) = sys.run_traced(50_000_000).unwrap();
        let (start, end) = built.kernel.range();
        let kernel_cycles = trace.cycles_in_range(start, end);
        let frac = kernel_cycles as f64 / out.cycles as f64;
        assert!(frac > 0.9, "brev kernel fraction {frac:.3} should dominate");
    }

    #[test]
    fn kernel_bounds_point_at_loop() {
        let built = build(MbFeatures::paper_default());
        assert!(built.kernel.tail > built.kernel.head);
        // The tail must be the backward branch.
        let insn = built.program.insn_at(built.kernel.tail).unwrap();
        assert!(insn.is_control_flow(), "kernel tail must be the loop branch, got {insn}");
    }
}
