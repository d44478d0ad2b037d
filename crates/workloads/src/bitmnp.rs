//! `bitmnp` (EEMBC automotive): bit manipulation.
//!
//! The EEMBC bit-manipulation benchmark exercises dense shift/mask/logic
//! sequences per data word. Our reconstruction applies a nibble swap, a
//! half-word fold, and mask arithmetic to every input word — the kind of
//! bit-level shuffling that costs dozens of processor cycles in software
//! but collapses to wires and a few LUTs in the warp fabric.

use mb_isa::codegen::CodeGen;
use mb_isa::{Insn, MbFeatures, Reg};

use crate::common::{self, emit_and_mask, emit_or_imm, emit_xor_imm};
use crate::{BuiltWorkload, KernelBounds, MemCheck, Suite};

/// Number of words transformed by the kernel.
pub const N: usize = 1600;
const SETUP_N: usize = 1500;
const CSUM_N: usize = 1000;

const IN_ADDR: u32 = 0x1000;
const OUT_ADDR: u32 = 0x3000;
const PRE_ADDR: u32 = 0x0200;
const CSUM_ADDR: u32 = 0x0100;

/// Golden model of the per-word transform.
#[must_use]
pub fn transform(x: u32) -> u32 {
    let a = (x >> 4) & 0x0F0F_0F0F;
    let b = (x & 0x0F0F_0F0F) << 4;
    let y = a | b; // nibble swap
    let c = y ^ (y >> 16); // half-word fold
    let d = c.wrapping_add(x | 0x00FF_00FF); // mask arithmetic
    d ^ 0xA5A5_A5A5
}

/// Golden model over a slice.
#[must_use]
pub fn golden(input: &[u32]) -> Vec<u32> {
    input.iter().map(|&x| transform(x)).collect()
}

fn input_data() -> Vec<u32> {
    common::lcg_fill(N, 0xB17_0001, 22_695_477, 1)
}

/// Builds `bitmnp` with input words drawn from `seed` (the program is
/// identical to [`build`]; only data and expected results change).
pub fn build_seeded(features: MbFeatures, seed: u64) -> BuiltWorkload {
    build_with_input(features, common::seeded_words(N, seed, 0xB17))
}

/// Builds `bitmnp` for a feature configuration.
pub fn build(features: MbFeatures) -> BuiltWorkload {
    build_with_input(features, input_data())
}

fn build_with_input(features: MbFeatures, input: Vec<u32>) -> BuiltWorkload {
    let mut cg = CodeGen::new(0, features);
    cg.asm_mut().equ("in", IN_ADDR).unwrap();
    cg.asm_mut().equ("out", OUT_ADDR).unwrap();
    cg.asm_mut().equ("pre", PRE_ADDR).unwrap();
    cg.asm_mut().equ("csum", CSUM_ADDR).unwrap();

    // Setup pass (non-kernel): population-style summary of pairs.
    {
        let a = cg.asm_mut();
        a.la(Reg::R16, "in");
        a.li(Reg::R17, SETUP_N as i32);
        a.push(Insn::addk(Reg::R18, Reg::R0, Reg::R0));
        a.label("presum");
        a.push(Insn::lwi(Reg::R19, Reg::R16, 0));
        a.push(Insn::addk(Reg::R18, Reg::R18, Reg::R19));
        a.push(Insn::addik(Reg::R16, Reg::R16, 4));
        a.push(Insn::addik(Reg::R17, Reg::R17, -1));
        a.bnei(Reg::R17, "presum");
        a.la(Reg::R16, "pre");
        a.push(Insn::swi(Reg::R18, Reg::R16, 0));
    }

    // Kernel.
    {
        let a = cg.asm_mut();
        a.la(Reg::R21, "in");
        a.la(Reg::R22, "out");
        a.li(Reg::R4, N as i32);
        a.label("k_head");
        a.push(Insn::lwi(Reg::R9, Reg::R21, 0));
    }
    // a = (x >> 4) & 0x0F0F0F0F
    cg.shr_const(Reg::R10, Reg::R9, 4);
    emit_and_mask(&mut cg, Reg::R10, Reg::R10, 0x0F0F_0F0F);
    // b = (x & 0x0F0F0F0F) << 4
    emit_and_mask(&mut cg, Reg::R11, Reg::R9, 0x0F0F_0F0F);
    cg.shl_const(Reg::R11, Reg::R11, 4);
    cg.asm_mut().push(Insn::Or { rd: Reg::R12, ra: Reg::R10, rb: Reg::R11 });
    // c = y ^ (y >> 16)
    cg.shr_const(Reg::R13, Reg::R12, 16);
    cg.asm_mut().push(Insn::Xor { rd: Reg::R12, ra: Reg::R12, rb: Reg::R13 });
    // d = c + (x | 0x00FF00FF)
    emit_or_imm(&mut cg, Reg::R14, Reg::R9, 0x00FF_00FF);
    cg.asm_mut().push(Insn::addk(Reg::R12, Reg::R12, Reg::R14));
    // out = d ^ 0xA5A5A5A5
    emit_xor_imm(&mut cg, Reg::R12, Reg::R12, 0xA5A5_A5A5);
    {
        let a = cg.asm_mut();
        a.push(Insn::swi(Reg::R12, Reg::R22, 0));
        a.push(Insn::addik(Reg::R21, Reg::R21, 4));
        a.push(Insn::addik(Reg::R22, Reg::R22, 4));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k_tail");
        a.bnei(Reg::R4, "k_head");
    }

    common::emit_checksum(&mut cg, "out", "out", CSUM_N as i32, "csum");
    common::emit_exit(&mut cg);

    let program = cg.finish().expect("bitmnp assembles");
    let kernel = KernelBounds {
        head: program.symbol("k_head").unwrap(),
        tail: program.symbol("k_tail").unwrap(),
    };

    let output = golden(&input);
    let pre = input.iter().take(SETUP_N).fold(0u32, |a, &x| a.wrapping_add(x));
    let csum = common::checksum(&output[..CSUM_N]);

    BuiltWorkload {
        name: "bitmnp".into(),
        suite: Suite::Eembc,
        program,
        data: vec![(IN_ADDR, input)],
        kernel,
        checks: vec![
            MemCheck { label: "bitmnp output".into(), addr: OUT_ADDR, expected: output },
            MemCheck { label: "bitmnp presum".into(), addr: PRE_ADDR, expected: vec![pre] },
            MemCheck { label: "bitmnp checksum".into(), addr: CSUM_ADDR, expected: vec![csum] },
        ],
        features,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_sim::MbConfig;

    #[test]
    fn output_matches_golden() {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(50_000_000).unwrap();
        assert!(out.exited());
        built.verify(sys.dmem()).unwrap();
    }

    #[test]
    fn transform_is_nibble_swap_based() {
        // For a value whose nibbles are distinct, the swap is visible in
        // the intermediate `y`; spot-check the full transform against a
        // hand-computed value.
        let x = 0x1234_5678;
        let y = 0x2143_6587u32; // nibbles swapped
        let c = y ^ (y >> 16);
        let d = c.wrapping_add(x | 0x00FF_00FF);
        assert_eq!(transform(x), d ^ 0xA5A5_A5A5);
    }

    #[test]
    fn identical_results_without_units() {
        let built = build(MbFeatures::minimal());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(100_000_000).unwrap();
        assert!(out.exited());
        built.verify(sys.dmem()).unwrap();
    }

    #[test]
    fn kernel_fraction_matches_design() {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (out, trace) = sys.run_traced(50_000_000).unwrap();
        let (s, e) = built.kernel.range();
        let frac = trace.cycles_in_range(s, e) as f64 / out.cycles as f64;
        assert!((0.55..0.85).contains(&frac), "bitmnp kernel fraction {frac:.3}");
    }
}
