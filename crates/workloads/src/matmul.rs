//! `matmul` (Powerstone): integer matrix multiply.
//!
//! The critical region is the innermost product loop
//! `acc += a[i][k] * b[k][j]` — on the warp processor it maps directly
//! onto the WCLA's data address generator (two strided streams) and
//! 32-bit MAC. Section 2 of the paper studies this benchmark without the
//! hardware multiplier, where "the compiler will use a software function
//! to perform every multiplication"; the cost of that software multiply
//! is data-dependent (shift-add with early exit), and the operand
//! matrices here are sparse with small values, as in the original
//! benchmark's data set.

use mb_isa::codegen::CodeGen;
use mb_isa::{Insn, MbFeatures, Reg};

use crate::common;
use crate::{BuiltWorkload, KernelBounds, MemCheck, Suite};

/// Matrix dimension (N×N).
pub const DIM: usize = 20;

const A_ADDR: u32 = 0x1000;
const B_ADDR: u32 = 0x2000;
const C_ADDR: u32 = 0x3000;
const CSUM_ADDR: u32 = 0x0100;

/// Golden model: `c = a × b` over row-major `DIM×DIM` matrices.
#[must_use]
pub fn golden(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut c = vec![0u32; DIM * DIM];
    for i in 0..DIM {
        for j in 0..DIM {
            let mut acc = 0u32;
            for k in 0..DIM {
                acc = acc.wrapping_add(a[i * DIM + k].wrapping_mul(b[k * DIM + j]));
            }
            c[i * DIM + j] = acc;
        }
    }
    c
}

/// Shapes raw words into sparse small-valued matrix entries: ~75%
/// zeros, the rest 1–3 (matching the original benchmark's data set).
fn sparse_shape(raw: &[u32]) -> Vec<u32> {
    raw.iter()
        .map(|&x| {
            let sel = (x >> 7) & 3;
            if sel == 0 {
                ((x >> 11) & 3).max(1)
            } else {
                0
            }
        })
        .collect()
}

/// Sparse small-valued matrix entries from the legacy LCG stream.
fn sparse_entries(seed: u32) -> Vec<u32> {
    sparse_shape(&common::lcg_fill(DIM * DIM, seed, 1_664_525, 1_013_904_223))
}

/// Builds `matmul` with both operand matrices drawn from `seed` (the
/// program is identical to [`build`]; only data and expected results
/// change).
pub fn build_seeded(features: MbFeatures, seed: u64) -> BuiltWorkload {
    let a = sparse_shape(&common::seeded_words(DIM * DIM, seed, 0xA11CE));
    let b = sparse_shape(&common::seeded_words(DIM * DIM, seed, 0xB0B57));
    build_with_input(features, a, b)
}

/// Builds `matmul` for a feature configuration.
pub fn build(features: MbFeatures) -> BuiltWorkload {
    build_with_input(features, sparse_entries(0xA11CE), sparse_entries(0xB0B57))
}

fn build_with_input(features: MbFeatures, a: Vec<u32>, b: Vec<u32>) -> BuiltWorkload {
    let mut cg = CodeGen::new(0, features);
    cg.asm_mut().equ("a", A_ADDR).unwrap();
    cg.asm_mut().equ("b", B_ADDR).unwrap();
    cg.asm_mut().equ("c", C_ADDR).unwrap();
    cg.asm_mut().equ("csum", CSUM_ADDR).unwrap();

    let row_bytes = (DIM * 4) as i16;

    // Outer loops in software; only the innermost product loop is the
    // kernel. Register plan (safe with __mulsi3 clobbers r3, r5-r9, r15):
    //   r23 i-count, r24 a-row ptr, r25 c ptr, r26 b-col ptr, r27 j-count,
    //   r20 a work ptr, r21 b work ptr, r22 acc, r4 k-count,
    //   r10/r11 operands, r12 product.
    {
        let a = cg.asm_mut();
        a.li(Reg::R23, DIM as i32);
        a.la(Reg::R24, "a");
        a.la(Reg::R25, "c");
        a.label("i_loop");
        a.la(Reg::R26, "b");
        a.li(Reg::R27, DIM as i32);
        a.label("j_loop");
        a.push(Insn::addk(Reg::R22, Reg::R0, Reg::R0)); // acc = 0
        a.push(Insn::addk(Reg::R20, Reg::R24, Reg::R0)); // a row cursor
        a.push(Insn::addk(Reg::R21, Reg::R26, Reg::R0)); // b column cursor
        a.li(Reg::R4, DIM as i32);
        a.label("k_head");
        a.push(Insn::lwi(Reg::R10, Reg::R20, 0));
        a.push(Insn::lwi(Reg::R11, Reg::R21, 0));
    }
    cg.mul(Reg::R12, Reg::R10, Reg::R11);
    {
        let a = cg.asm_mut();
        a.push(Insn::addk(Reg::R22, Reg::R22, Reg::R12));
        a.push(Insn::addik(Reg::R20, Reg::R20, 4));
        a.push(Insn::addik(Reg::R21, Reg::R21, row_bytes));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k_tail");
        a.bnei(Reg::R4, "k_head");
        // c[i][j] = acc; advance j.
        a.push(Insn::swi(Reg::R22, Reg::R25, 0));
        a.push(Insn::addik(Reg::R25, Reg::R25, 4));
        a.push(Insn::addik(Reg::R26, Reg::R26, 4));
        a.push(Insn::addik(Reg::R27, Reg::R27, -1));
        a.bnei(Reg::R27, "j_loop");
        // Advance i: next a row (c pointer already advanced by the j loop).
        a.push(Insn::addik(Reg::R24, Reg::R24, row_bytes));
        a.push(Insn::addik(Reg::R23, Reg::R23, -1));
        a.bnei(Reg::R23, "i_loop");
    }

    common::emit_checksum(&mut cg, "c", "c", (DIM * DIM) as i32, "csum");
    common::emit_exit(&mut cg);

    let program = cg.finish().expect("matmul assembles");
    let kernel = KernelBounds {
        head: program.symbol("k_head").unwrap(),
        tail: program.symbol("k_tail").unwrap(),
    };

    let c = golden(&a, &b);
    let csum = common::checksum(&c);

    BuiltWorkload {
        name: "matmul".into(),
        suite: Suite::Powerstone,
        program,
        data: vec![(A_ADDR, a), (B_ADDR, b)],
        kernel,
        checks: vec![
            MemCheck { label: "matmul product".into(), addr: C_ADDR, expected: c },
            MemCheck { label: "matmul checksum".into(), addr: CSUM_ADDR, expected: vec![csum] },
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
    fn identity_times_anything() {
        let mut ident = vec![0u32; DIM * DIM];
        for i in 0..DIM {
            ident[i * DIM + i] = 1;
        }
        let m = sparse_entries(7);
        assert_eq!(golden(&ident, &m), m);
    }

    #[test]
    fn matrices_are_sparse_small() {
        let m = sparse_entries(0xA11CE);
        let zeros = m.iter().filter(|&&v| v == 0).count();
        assert!(zeros * 10 >= m.len() * 6, "expect >=60% zeros, got {zeros}/{}", m.len());
        assert!(m.iter().all(|&v| v <= 3));
        assert!(m.iter().any(|&v| v > 0));
    }

    #[test]
    fn software_multiply_produces_identical_product() {
        let built = build(MbFeatures::paper_default().with_multiplier(false));
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(200_000_000).unwrap();
        assert!(out.exited());
        built.verify(sys.dmem()).unwrap();
    }

    #[test]
    fn missing_multiplier_slows_moderately() {
        let with_mul = {
            let built = build(MbFeatures::paper_default());
            let mut sys = built.instantiate(&MbConfig::paper_default());
            sys.run(200_000_000).unwrap().cycles
        };
        let without = {
            let built = build(MbFeatures::paper_default().with_multiplier(false));
            let mut sys = built.instantiate(&MbConfig::paper_default());
            sys.run(200_000_000).unwrap().cycles
        };
        let ratio = without as f64 / with_mul as f64;
        // Paper Section 2 reports 1.3×; the exact value is data- and
        // libgcc-dependent, so accept a band.
        assert!((1.1..=1.9).contains(&ratio), "matmul no-mul slowdown {ratio:.2}");
    }

    #[test]
    fn inner_loop_is_the_kernel() {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (out, trace) = sys.run_traced(50_000_000).unwrap();
        let (s, e) = built.kernel.range();
        let frac = trace.cycles_in_range(s, e) as f64 / out.cycles as f64;
        assert!(frac > 0.7, "matmul inner-loop fraction {frac:.3}");
    }
}
