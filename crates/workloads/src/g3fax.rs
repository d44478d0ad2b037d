//! `g3fax` (Powerstone): Group-3 fax run-length expansion.
//!
//! The Powerstone benchmark decodes Group-3 facsimile data. Our
//! reconstruction keeps the documented kernel shape: a loop that expands
//! run-length codes into scanline pixel words. Each input code packs a
//! run color (bit 0) and a run length (bits 1–5); the kernel produces one
//! 32-pixel output word per code: the run's pixels set from the MSB side.
//!
//! The expansion uses a *dynamic* shift by the run length, which the
//! barrel shifter performs in hardware and the warp fabric implements as
//! a mux network; a decode/setup pass before the kernel and a scanline
//! checksum after it form the benchmark's non-kernel share.

use mb_isa::codegen::CodeGen;
use mb_isa::{Insn, MbFeatures, Reg};

use crate::common;
use crate::{BuiltWorkload, KernelBounds, MemCheck, Suite};

/// Number of run-length codes expanded by the kernel.
pub const N: usize = 1500;

const CODES_ADDR: u32 = 0x1000;
const OUT_ADDR: u32 = 0x3000;
const CSUM_ADDR: u32 = 0x0100;
const LINE_ADDR: u32 = 0x0200;

/// Golden model of the kernel: one scanline word per code.
///
/// `len = (code >> 1) & 31`, `color = code & 1`;
/// `out = (0 - color) << (32 - len)` with MicroBlaze shift semantics
/// (shift amounts taken mod 32).
#[must_use]
pub fn golden(codes: &[u32]) -> Vec<u32> {
    codes
        .iter()
        .map(|&code| {
            let len = (code >> 1) & 31;
            let color = 0u32.wrapping_sub(code & 1);
            let sh = (32 - len) & 31;
            // A zero-length run yields sh == 0 (mod 32), i.e. the full
            // color word; the assembly does the same, keeping software,
            // golden model, and hardware bit-identical.
            color << sh
        })
        .collect()
}

fn input_codes() -> Vec<u32> {
    // Mix of runs with varying lengths and colors.
    common::lcg_fill(N, 0x6FA0_0001, 22_695_477, 1).iter().map(|x| x & 0x3F).collect()
}

/// Builds `g3fax` with run-length codes drawn from `seed` (the program
/// is identical to [`build`]; only data and expected results change).
pub fn build_seeded(features: MbFeatures, seed: u64) -> BuiltWorkload {
    let codes = common::seeded_words(N, seed, 0x6FA0).iter().map(|x| x & 0x3F).collect();
    build_with_input(features, codes)
}

/// Builds `g3fax` for a feature configuration.
pub fn build(features: MbFeatures) -> BuiltWorkload {
    build_with_input(features, input_codes())
}

fn build_with_input(features: MbFeatures, codes: Vec<u32>) -> BuiltWorkload {
    let mut cg = CodeGen::new(0, features);
    cg.asm_mut().equ("codes", CODES_ADDR).unwrap();
    cg.asm_mut().equ("out", OUT_ADDR).unwrap();
    cg.asm_mut().equ("csum", CSUM_ADDR).unwrap();
    cg.asm_mut().equ("line", LINE_ADDR).unwrap();

    // Setup pass (non-kernel): build a line-status table from the codes —
    // one word per 8 codes, xor-folded.
    {
        let a = cg.asm_mut();
        a.la(Reg::R16, "codes");
        a.li(Reg::R17, (N / 8) as i32);
        a.la(Reg::R19, "line");
        a.label("setup");
        a.push(Insn::lwi(Reg::R18, Reg::R16, 0));
        a.push(Insn::lwi(Reg::R20, Reg::R16, 4));
        a.push(Insn::Xor { rd: Reg::R18, ra: Reg::R18, rb: Reg::R20 });
        a.push(Insn::swi(Reg::R18, Reg::R19, 0));
        a.push(Insn::addik(Reg::R16, Reg::R16, 32));
        a.push(Insn::addik(Reg::R19, Reg::R19, 4));
        a.push(Insn::addik(Reg::R17, Reg::R17, -1));
        a.bnei(Reg::R17, "setup");
    }

    // Kernel: expand each code into a 32-pixel word.
    {
        let a = cg.asm_mut();
        a.la(Reg::R21, "codes");
        a.la(Reg::R22, "out");
        a.li(Reg::R4, N as i32);
        a.label("k_head");
        a.push(Insn::lwi(Reg::R9, Reg::R21, 0));
    }
    // len = (code >> 1) & 31
    cg.shr_const(Reg::R10, Reg::R9, 1);
    cg.asm_mut().push(Insn::Andi { rd: Reg::R10, ra: Reg::R10, imm: 31 });
    // color mask = 0 - (code & 1)
    cg.asm_mut().push(Insn::Andi { rd: Reg::R11, ra: Reg::R9, imm: 1 });
    cg.asm_mut().push(Insn::rsubk(Reg::R11, Reg::R11, Reg::R0));
    // sh = 32 - len  (taken mod 32 by the shifter)
    cg.asm_mut().push(Insn::Rsubi {
        rd: Reg::R12,
        ra: Reg::R10,
        imm: 32,
        keep_carry: true,
        use_carry: false,
    });
    // out = color << sh (dynamic shift — barrel shifter or runtime call)
    cg.shl_dyn(Reg::R13, Reg::R11, Reg::R12);
    {
        let a = cg.asm_mut();
        a.push(Insn::swi(Reg::R13, Reg::R22, 0));
        a.push(Insn::addik(Reg::R21, Reg::R21, 4));
        a.push(Insn::addik(Reg::R22, Reg::R22, 4));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k_tail");
        a.bnei(Reg::R4, "k_head");
    }

    // Verification passes (non-kernel).
    common::emit_checksum(&mut cg, "out", "out", N as i32, "csum");
    common::emit_exit(&mut cg);

    let program = cg.finish().expect("g3fax assembles");
    let kernel = KernelBounds {
        head: program.symbol("k_head").unwrap(),
        tail: program.symbol("k_tail").unwrap(),
    };

    let output = golden(&codes);
    let csum = common::checksum(&output);
    let line: Vec<u32> = codes.chunks(8).take(N / 8).map(|c| c[0] ^ c[1]).collect();

    BuiltWorkload {
        name: "g3fax".into(),
        suite: Suite::Powerstone,
        program,
        data: vec![(CODES_ADDR, codes)],
        kernel,
        checks: vec![
            MemCheck { label: "g3fax scanlines".into(), addr: OUT_ADDR, expected: output },
            MemCheck { label: "g3fax line table".into(), addr: LINE_ADDR, expected: line },
            MemCheck { label: "g3fax checksum".into(), addr: CSUM_ADDR, expected: vec![csum] },
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
    // Literals are grouped as the run-length code fields `len_color`,
    // not in even digit groups.
    #[allow(clippy::unusual_byte_groupings)]
    fn golden_run_shapes() {
        // len=4, color=1 -> top 4 pixels set.
        assert_eq!(golden(&[0b0100_1])[0], 0xF000_0000);
        // len=4, color=0 -> zero.
        assert_eq!(golden(&[0b0100_0])[0], 0);
        // len=0, color=1 -> full word (documented mod-32 behaviour).
        assert_eq!(golden(&[0b0000_1])[0], u32::MAX);
        // len=31, color=1 -> all but the LSB.
        assert_eq!(golden(&[0b11111_1])[0], !1);
    }

    #[test]
    fn works_without_barrel_shifter() {
        let built = build(MbFeatures::minimal());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(100_000_000).unwrap();
        assert!(out.exited());
        built.verify(sys.dmem()).unwrap();
    }

    #[test]
    fn kernel_fraction_is_moderate() {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (out, trace) = sys.run_traced(50_000_000).unwrap();
        let (s, e) = built.kernel.range();
        let frac = trace.cycles_in_range(s, e) as f64 / out.cycles as f64;
        assert!(
            (0.4..0.8).contains(&frac),
            "g3fax kernel fraction {frac:.3} should be moderate (Amdahl-limited benchmark)"
        );
    }
}
