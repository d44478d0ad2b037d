//! `idct` (EEMBC consumer): fixed-point 8-point inverse DCT.
//!
//! The kernel applies an integer 8-point inverse DCT to consecutive
//! coefficient rows (the row pass of the 2-D transform used by image
//! decoders): an even/odd butterfly decomposition with 14 constant
//! multiplies per row, all in 8.8 fixed point. On the warp processor the
//! constant multiplies map onto the WCLA's 32-bit MAC, which serializes
//! them one per fabric cycle.

use mb_isa::codegen::CodeGen;
use mb_isa::{Insn, MbFeatures, Reg};

use crate::common;
use crate::{BuiltWorkload, KernelBounds, MemCheck, Suite};

/// Number of 8-coefficient rows transformed.
pub const ROWS: usize = 400;
const SETUP_N: usize = 390;
const CSUM_N: usize = 390;

const IN_ADDR: u32 = 0x1000;
const OUT_ADDR: u32 = 0x5000;
const PRE_ADDR: u32 = 0x0200;
const CSUM_ADDR: u32 = 0x0100;

// 8.8 fixed-point cosine constants.
const C_SQRT2: i16 = 181;
const K237: i16 = 237;
const K98: i16 = 98;
const K251: i16 = 251;
const K50: i16 = 50;
const K213: i16 = 213;
const K142: i16 = 142;

/// Golden model: one 8-point inverse DCT row (bit-exact with the
/// assembly, including wrapping arithmetic and the final `>> 8`).
#[must_use]
pub fn idct_row(s: &[i32; 8]) -> [i32; 8] {
    let m = |a: i32, c: i16| a.wrapping_mul(i32::from(c));
    let t0 = m(s[0].wrapping_add(s[4]), C_SQRT2);
    let t1 = m(s[0].wrapping_sub(s[4]), C_SQRT2);
    let t2 = m(s[2], K237).wrapping_add(m(s[6], K98));
    let t3 = m(s[2], K98).wrapping_sub(m(s[6], K237));
    let e0 = t0.wrapping_add(t2);
    let e1 = t1.wrapping_add(t3);
    let e2 = t1.wrapping_sub(t3);
    let e3 = t0.wrapping_sub(t2);
    let o0 = m(s[1], K251).wrapping_add(m(s[7], K50));
    let o1 = m(s[3], K213).wrapping_add(m(s[5], K142));
    let o2 = m(s[3], K142).wrapping_sub(m(s[5], K213));
    let o3 = m(s[1], K50).wrapping_sub(m(s[7], K251));
    let p0 = o0.wrapping_add(o1);
    let p1 = o0.wrapping_sub(o1);
    let p2 = o2.wrapping_add(o3);
    let p3 = o3.wrapping_sub(o2);
    [
        e0.wrapping_add(p0) >> 8,
        e1.wrapping_add(p1) >> 8,
        e2.wrapping_add(p2) >> 8,
        e3.wrapping_add(p3) >> 8,
        e3.wrapping_sub(p3) >> 8,
        e2.wrapping_sub(p2) >> 8,
        e1.wrapping_sub(p1) >> 8,
        e0.wrapping_sub(p0) >> 8,
    ]
}

/// Golden model over a flat coefficient array (`8 * ROWS` words).
#[must_use]
pub fn golden(input: &[u32]) -> Vec<u32> {
    input
        .chunks(8)
        .flat_map(|row| {
            let s: [i32; 8] = core::array::from_fn(|i| row[i] as i32);
            idct_row(&s).map(|d| d as u32)
        })
        .collect()
}

/// Shapes raw words into DCT coefficients in a plausible dynamic range
/// (-512..511).
fn shape_coefficients(raw: &[u32]) -> Vec<u32> {
    raw.iter().map(|x| ((x & 0x3FF) as i32 - 512) as u32).collect()
}

fn input_data() -> Vec<u32> {
    shape_coefficients(&common::lcg_fill(8 * ROWS, 0x1DC7_0003, 1_664_525, 12345))
}

/// Builds `idct` with coefficient rows drawn from `seed` (the program
/// is identical to [`build`]; only data and expected results change).
pub fn build_seeded(features: MbFeatures, seed: u64) -> BuiltWorkload {
    build_with_input(features, shape_coefficients(&common::seeded_words(8 * ROWS, seed, 0x1DC7)))
}

// Register plan (safe with the no-multiplier runtime, which clobbers
// r3, r5-r9, r15):
//   s0..s7 -> r10 r11 r12 r13 r14 r17 r18 r19
//   t0..t3 -> r20..r23, e0..e3 -> r24..r27
//   o0..o3 -> r20..r23 (t dead), p0..p3 -> r10..r13 (s dead)
//   scratch mul -> r30, store temp -> r14, ptrs -> r28/r29, count -> r4.
const S: [Reg; 8] =
    [Reg::R10, Reg::R11, Reg::R12, Reg::R13, Reg::R14, Reg::R17, Reg::R18, Reg::R19];
const T: [Reg; 4] = [Reg::R20, Reg::R21, Reg::R22, Reg::R23];
const E: [Reg; 4] = [Reg::R24, Reg::R25, Reg::R26, Reg::R27];
const P: [Reg; 4] = [Reg::R10, Reg::R11, Reg::R12, Reg::R13];
const SCRATCH: Reg = Reg::R30;
const DTMP: Reg = Reg::R14;
const IN_PTR: Reg = Reg::R28;
const OUT_PTR: Reg = Reg::R29;

/// Emits `rd = ra*ca + rb*cb` (cb may be negative via `sub = true`).
fn emit_mac2(cg: &mut CodeGen, rd: Reg, ra: Reg, ca: i16, rb: Reg, cb: i16, sub: bool) {
    cg.mul_const(rd, ra, ca);
    cg.mul_const(SCRATCH, rb, cb);
    if sub {
        // rd = rd - scratch.
        cg.asm_mut().push(Insn::rsubk(rd, SCRATCH, rd));
    } else {
        cg.asm_mut().push(Insn::addk(rd, rd, SCRATCH));
    }
}

/// Builds `idct` for a feature configuration.
pub fn build(features: MbFeatures) -> BuiltWorkload {
    build_with_input(features, input_data())
}

fn build_with_input(features: MbFeatures, input: Vec<u32>) -> BuiltWorkload {
    let mut cg = CodeGen::new(0, features);
    cg.asm_mut().equ("in", IN_ADDR).unwrap();
    cg.asm_mut().equ("out", OUT_ADDR).unwrap();
    cg.asm_mut().equ("pre", PRE_ADDR).unwrap();
    cg.asm_mut().equ("csum", CSUM_ADDR).unwrap();

    // Setup pass (non-kernel): DC-coefficient sum over leading rows.
    {
        let a = cg.asm_mut();
        a.la(Reg::R16, "in");
        a.li(Reg::R17, SETUP_N as i32);
        a.push(Insn::addk(Reg::R18, Reg::R0, Reg::R0));
        a.label("presum");
        a.push(Insn::lwi(Reg::R19, Reg::R16, 0));
        a.push(Insn::addk(Reg::R18, Reg::R18, Reg::R19));
        a.push(Insn::addik(Reg::R16, Reg::R16, 32));
        a.push(Insn::addik(Reg::R17, Reg::R17, -1));
        a.bnei(Reg::R17, "presum");
        a.la(Reg::R16, "pre");
        a.push(Insn::swi(Reg::R18, Reg::R16, 0));
    }

    // Kernel: one row per iteration.
    {
        let a = cg.asm_mut();
        a.la(IN_PTR, "in");
        a.la(OUT_PTR, "out");
        a.li(Reg::R4, ROWS as i32);
        a.label("k_head");
        for (i, &s) in S.iter().enumerate() {
            a.push(Insn::lwi(s, IN_PTR, (i * 4) as i16));
        }
    }
    // Even part.
    cg.asm_mut().push(Insn::addk(T[0], S[0], S[4]));
    cg.mul_const(T[0], T[0], C_SQRT2);
    cg.asm_mut().push(Insn::rsubk(T[1], S[4], S[0])); // s0 - s4
    cg.mul_const(T[1], T[1], C_SQRT2);
    emit_mac2(&mut cg, T[2], S[2], K237, S[6], K98, false);
    emit_mac2(&mut cg, T[3], S[2], K98, S[6], K237, true);
    {
        let a = cg.asm_mut();
        a.push(Insn::addk(E[0], T[0], T[2]));
        a.push(Insn::addk(E[1], T[1], T[3]));
        a.push(Insn::rsubk(E[2], T[3], T[1])); // t1 - t3
        a.push(Insn::rsubk(E[3], T[2], T[0])); // t0 - t2
    }
    // Odd part (reuses T registers).
    emit_mac2(&mut cg, T[0], S[1], K251, S[7], K50, false);
    emit_mac2(&mut cg, T[1], S[3], K213, S[5], K142, false);
    emit_mac2(&mut cg, T[2], S[3], K142, S[5], K213, true);
    emit_mac2(&mut cg, T[3], S[1], K50, S[7], K251, true);
    {
        let a = cg.asm_mut();
        a.push(Insn::addk(P[0], T[0], T[1]));
        a.push(Insn::rsubk(P[1], T[1], T[0])); // o0 - o1
        a.push(Insn::addk(P[2], T[2], T[3]));
        a.push(Insn::rsubk(P[3], T[2], T[3])); // o3 - o2
    }
    // Outputs: d[i] = (e±p) >> 8.
    for (slot, e, p, sub) in [
        (0i16, E[0], P[0], false),
        (1, E[1], P[1], false),
        (2, E[2], P[2], false),
        (3, E[3], P[3], false),
        (4, E[3], P[3], true),
        (5, E[2], P[2], true),
        (6, E[1], P[1], true),
        (7, E[0], P[0], true),
    ] {
        if sub {
            cg.asm_mut().push(Insn::rsubk(DTMP, p, e));
        } else {
            cg.asm_mut().push(Insn::addk(DTMP, e, p));
        }
        cg.sar_const(DTMP, DTMP, 8);
        cg.asm_mut().push(Insn::swi(DTMP, OUT_PTR, slot * 4));
    }
    {
        let a = cg.asm_mut();
        a.push(Insn::addik(IN_PTR, IN_PTR, 32));
        a.push(Insn::addik(OUT_PTR, OUT_PTR, 32));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k_tail");
        a.bnei(Reg::R4, "k_head");
    }

    common::emit_checksum(&mut cg, "out", "out", CSUM_N as i32, "csum");
    common::emit_exit(&mut cg);

    let program = cg.finish().expect("idct assembles");
    let kernel = KernelBounds {
        head: program.symbol("k_head").unwrap(),
        tail: program.symbol("k_tail").unwrap(),
    };

    let output = golden(&input);
    let pre = input.chunks(8).take(SETUP_N).fold(0u32, |a, r| a.wrapping_add(r[0]));
    let csum = common::checksum(&output[..CSUM_N]);

    BuiltWorkload {
        name: "idct".into(),
        suite: Suite::Eembc,
        program,
        data: vec![(IN_ADDR, input)],
        kernel,
        checks: vec![
            MemCheck { label: "idct output".into(), addr: OUT_ADDR, expected: output },
            MemCheck { label: "idct dc sum".into(), addr: PRE_ADDR, expected: vec![pre] },
            MemCheck { label: "idct checksum".into(), addr: CSUM_ADDR, expected: vec![csum] },
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
        let out = sys.run(100_000_000).unwrap();
        assert!(out.exited());
        built.verify(sys.dmem()).unwrap();
    }

    #[test]
    fn dc_only_row_spreads_energy_evenly() {
        // A DC-only input must produce a flat output row.
        let d = idct_row(&[256, 0, 0, 0, 0, 0, 0, 0]);
        assert!(d.iter().all(|&v| v == d[0]), "flat row expected, got {d:?}");
        assert!(d[0] > 0);
    }

    #[test]
    fn zero_row_stays_zero() {
        assert_eq!(idct_row(&[0; 8]), [0; 8]);
    }

    #[test]
    fn transform_is_linear() {
        let a = [3, -7, 20, 0, 5, 1, -2, 8];
        let b: [i32; 8] = core::array::from_fn(|i| a[i] * 2);
        let da = idct_row(&a);
        let db = idct_row(&b);
        // Linearity up to the shared final shift: compare pre-shift sums
        // by reconstructing approximate doubling.
        for i in 0..8 {
            assert!((db[i] - 2 * da[i]).abs() <= 1, "slot {i}: {} vs {}", db[i], da[i]);
        }
    }

    #[test]
    fn kernel_dominates() {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (out, trace) = sys.run_traced(100_000_000).unwrap();
        let (s, e) = built.kernel.range();
        let frac = trace.cycles_in_range(s, e) as f64 / out.cycles as f64;
        assert!(frac > 0.8, "idct kernel fraction {frac:.3}");
    }

    #[test]
    fn works_without_multiplier_with_same_results() {
        let built = build(MbFeatures::paper_default().with_multiplier(false));
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(200_000_000).unwrap();
        assert!(out.exited());
        built.verify(sys.dmem()).unwrap();
    }
}
