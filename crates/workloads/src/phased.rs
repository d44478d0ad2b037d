//! `phased`: a multi-kernel workload whose hot loop *shifts mid-run*.
//!
//! The paper's dynamic-partitioning premise is that the warp processor
//! tracks the application as it executes — and real applications move
//! between phases. This workload makes that scenario concrete in three
//! phases: phase A repeatedly runs a word-mixing stream kernel
//! (shift/xor network with a loop-invariant mixing constant) over an
//! input array; phase A′ runs a *shifted-but-similar* variant of the
//! same mixer (different shift distances and constant, a different
//! buffer) — the realistic "the kernel moved and changed a little"
//! re-warp; phase B then repeatedly folds a message buffer into a
//! rotate-xor accumulator, a structurally unrelated kernel. Each
//! phase's inner loop dominates while it runs, so an online profiler
//! with decay sees the hot region *move*: `k1_head..k1_tail`, then
//! `k1b_head..k1b_tail`, then `k2_head..k2_tail`, forcing two
//! evictions and re-warps — the second of which (A → A′) is exactly
//! the shape incremental CAD exploits.
//!
//! Phase A retires more total backward branches than either later
//! phase, so the *offline* whole-run profile still names kernel 1,
//! which is what the benchmark annotation carries — the offline warp
//! flow remains consistent on this workload.
//!
//! [`build_scaled`] produces the long-running variant the online
//! runtime needs: the outer repeat counts stretch each phase so it
//! comfortably outlasts the modeled on-chip CAD latency without
//! changing any kernel's shape (all variants decompile to the same
//! circuits).

use mb_isa::codegen::CodeGen;
use mb_isa::{Insn, MbFeatures, Reg};

use crate::common;
use crate::{BuiltWorkload, KernelBounds, MemCheck, Suite};

/// Words transformed per phase-A inner-loop entry.
pub const N_A: usize = 128;
/// Words folded per phase-B inner-loop entry.
pub const N_B: usize = 64;
/// Phase-A outer repeats in the registry (small) variant.
pub const OUTER_A: u32 = 20;
/// Phase-A′ outer repeats in the registry (small) variant.
pub const OUTER_A2: u32 = 10;
/// Phase-B outer repeats in the registry (small) variant.
pub const OUTER_B: u32 = 6;
/// The loop-invariant mixing constant phase A xors into every word.
pub const MIX: u32 = 0x9E37_79B9;
/// The loop-invariant mixing constant of the phase-A′ variant.
pub const MIX2: u32 = 0x85EB_CA6B;
/// Phase-B accumulator seed.
pub const SEED_B: u32 = 0xFFFF_FFFF;

const IN_A: u32 = 0x1000;
const OUT_A: u32 = 0x2000;
const IN_B: u32 = 0x3000;
const OUT_B: u32 = 0x0100;
const IN_A2: u32 = 0x4000;
const OUT_A2: u32 = 0x5000;

/// Golden model of one phase-A pass: `y = (x << 3) ^ (x >> 7) ^ MIX`.
#[must_use]
pub fn golden_a(input: &[u32]) -> Vec<u32> {
    input.iter().map(|&x| (x << 3) ^ (x >> 7) ^ MIX).collect()
}

/// Golden model of one phase-A′ pass: `y = (x << 5) ^ (x >> 9) ^ MIX2`.
#[must_use]
pub fn golden_a2(input: &[u32]) -> Vec<u32> {
    input.iter().map(|&x| (x << 5) ^ (x >> 9) ^ MIX2).collect()
}

/// Golden model of one phase-B pass: fold `s = rotl3(s) ^ w` over the
/// message, starting from [`SEED_B`].
#[must_use]
pub fn golden_b(msg: &[u32]) -> u32 {
    msg.iter().fold(SEED_B, |s, &w| s.rotate_left(3) ^ w)
}

/// Builds the registry variant (small: fits the trace-everything tests).
pub fn build(features: MbFeatures) -> BuiltWorkload {
    build_scaled(features, OUTER_A, OUTER_A2, OUTER_B)
}

/// Builds the registry variant with all phase inputs drawn from `seed`
/// (the program is identical to [`build`]; only data and expected
/// results change).
pub fn build_seeded(features: MbFeatures, seed: u64) -> BuiltWorkload {
    build_with_inputs(
        features,
        OUTER_A,
        OUTER_A2,
        OUTER_B,
        common::seeded_words(N_A, seed, 0xA5),
        common::seeded_words(N_A, seed, 0xC5),
        common::seeded_words(N_B, seed, 0xB5),
    )
}

/// Builds `phased` with explicit outer repeat counts.
///
/// The online runtime uses large counts so each phase outlasts the
/// modeled CAD latency; keep `outer_a * (N_A - 1)` above both
/// `outer_a2 * (N_A - 1)` and `outer_b * (N_B - 1)` so the whole-run
/// profile (and therefore the offline flow) still names kernel 1.
///
/// # Panics
///
/// Panics if any count is zero (each phase must run).
pub fn build_scaled(
    features: MbFeatures,
    outer_a: u32,
    outer_a2: u32,
    outer_b: u32,
) -> BuiltWorkload {
    let input_a = common::lcg_fill(N_A, 0x00A5_0001, 1_664_525, 1013);
    let input_a2 = common::lcg_fill(N_A, 0x00C5_0001, 69_069, 12_345);
    let msg_b = common::lcg_fill(N_B, 0x00B5_0001, 22_695_477, 7);
    build_with_inputs(features, outer_a, outer_a2, outer_b, input_a, input_a2, msg_b)
}

#[allow(clippy::too_many_lines)]
fn build_with_inputs(
    features: MbFeatures,
    outer_a: u32,
    outer_a2: u32,
    outer_b: u32,
    input_a: Vec<u32>,
    input_a2: Vec<u32>,
    msg_b: Vec<u32>,
) -> BuiltWorkload {
    assert!(outer_a > 0 && outer_a2 > 0 && outer_b > 0, "all phases must execute");
    let mut cg = CodeGen::new(0, features);
    cg.asm_mut().equ("in_a", IN_A).unwrap();
    cg.asm_mut().equ("out_a", OUT_A).unwrap();
    cg.asm_mut().equ("in_b", IN_B).unwrap();
    cg.asm_mut().equ("out_b", OUT_B).unwrap();
    cg.asm_mut().equ("in_a2", IN_A2).unwrap();
    cg.asm_mut().equ("out_a2", OUT_A2).unwrap();

    // ---- Phase A: stream-mixing kernel, repeated outer_a times ----
    {
        let a = cg.asm_mut();
        a.li(Reg::R20, MIX as i32); // loop-invariant mixing constant
        a.li(Reg::R3, outer_a as i32);
        a.label("a_outer");
        a.la(Reg::R5, "in_a");
        a.la(Reg::R6, "out_a");
        a.li(Reg::R4, N_A as i32);
        a.label("k1_head");
        a.push(Insn::lwi(Reg::R9, Reg::R5, 0));
    }
    cg.shl_const(Reg::R10, Reg::R9, 3);
    cg.shr_const(Reg::R11, Reg::R9, 7);
    {
        let a = cg.asm_mut();
        a.push(Insn::Xor { rd: Reg::R9, ra: Reg::R10, rb: Reg::R11 });
        a.push(Insn::Xor { rd: Reg::R9, ra: Reg::R9, rb: Reg::R20 });
        a.push(Insn::swi(Reg::R9, Reg::R6, 0));
        a.push(Insn::addik(Reg::R5, Reg::R5, 4));
        a.push(Insn::addik(Reg::R6, Reg::R6, 4));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k1_tail");
        a.bnei(Reg::R4, "k1_head");
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "a_outer");
    }

    // ---- Phase A': the shifted mixer variant, repeated outer_a2 times.
    // Same loop shape as phase A — load, two shifts, two xors, store —
    // but different shift distances, mixing constant, and buffers, so it
    // decompiles to a *similar but distinct* kernel (the incremental
    // re-warp scenario). ----
    {
        let a = cg.asm_mut();
        a.li(Reg::R20, MIX2 as i32);
        a.li(Reg::R3, outer_a2 as i32);
        a.label("a2_outer");
        a.la(Reg::R5, "in_a2");
        a.la(Reg::R6, "out_a2");
        a.li(Reg::R4, N_A as i32);
        a.label("k1b_head");
        a.push(Insn::lwi(Reg::R9, Reg::R5, 0));
    }
    cg.shl_const(Reg::R10, Reg::R9, 5);
    cg.shr_const(Reg::R11, Reg::R9, 9);
    {
        let a = cg.asm_mut();
        a.push(Insn::Xor { rd: Reg::R9, ra: Reg::R10, rb: Reg::R11 });
        a.push(Insn::Xor { rd: Reg::R9, ra: Reg::R9, rb: Reg::R20 });
        a.push(Insn::swi(Reg::R9, Reg::R6, 0));
        a.push(Insn::addik(Reg::R5, Reg::R5, 4));
        a.push(Insn::addik(Reg::R6, Reg::R6, 4));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k1b_tail");
        a.bnei(Reg::R4, "k1b_head");
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "a2_outer");
    }

    // ---- Phase B: rotate-xor accumulator, repeated outer_b times ----
    {
        let a = cg.asm_mut();
        a.li(Reg::R3, outer_b as i32);
        a.label("b_outer");
        a.la(Reg::R21, "in_b");
        a.li(Reg::R4, N_B as i32);
        a.li(Reg::R22, SEED_B as i32);
        a.label("k2_head");
        a.push(Insn::lwi(Reg::R9, Reg::R21, 0));
    }
    cg.shl_const(Reg::R10, Reg::R22, 3);
    cg.shr_const(Reg::R11, Reg::R22, 29);
    {
        let a = cg.asm_mut();
        a.push(Insn::Or { rd: Reg::R22, ra: Reg::R10, rb: Reg::R11 });
        a.push(Insn::Xor { rd: Reg::R22, ra: Reg::R22, rb: Reg::R9 });
        a.push(Insn::addik(Reg::R21, Reg::R21, 4));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k2_tail");
        a.bnei(Reg::R4, "k2_head");
        a.la(Reg::R16, "out_b");
        a.push(Insn::swi(Reg::R22, Reg::R16, 0));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "b_outer");
    }
    common::emit_exit(&mut cg);

    let program = cg.finish().expect("phased assembles");
    let kernel = KernelBounds {
        head: program.symbol("k1_head").unwrap(),
        tail: program.symbol("k1_tail").unwrap(),
    };

    let out_a = golden_a(&input_a);
    let out_a2 = golden_a2(&input_a2);
    let out_b = golden_b(&msg_b);

    BuiltWorkload {
        name: "phased".into(),
        suite: Suite::Extra,
        program,
        data: vec![(IN_A, input_a), (IN_A2, input_a2), (IN_B, msg_b)],
        kernel,
        checks: vec![
            MemCheck { label: "phase A output".into(), addr: OUT_A, expected: out_a },
            MemCheck { label: "phase A' output".into(), addr: OUT_A2, expected: out_a2 },
            MemCheck { label: "phase B state".into(), addr: OUT_B, expected: vec![out_b] },
        ],
        features,
    }
}

/// The three annotated kernels, phase order: `[phase A, phase A′,
/// phase B]`.
///
/// The [`BuiltWorkload::kernel`] field carries only phase A (the
/// whole-run hottest region, which the offline flow warps); the online
/// re-warp tests need all three.
#[must_use]
pub fn phase_kernels(built: &BuiltWorkload) -> [KernelBounds; 3] {
    let bounds = |h: &str, t: &str| KernelBounds {
        head: built.program.symbol(h).expect("phased symbol"),
        tail: built.program.symbol(t).expect("phased symbol"),
    };
    [bounds("k1_head", "k1_tail"), bounds("k1b_head", "k1b_tail"), bounds("k2_head", "k2_tail")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_sim::MbConfig;

    fn run_small() -> (BuiltWorkload, mb_sim::Outcome, mb_sim::System) {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(50_000_000).unwrap();
        assert!(out.exited(), "phased must exit");
        (built, out, sys)
    }

    #[test]
    fn output_matches_golden() {
        let (built, _, sys) = run_small();
        built.verify(sys.dmem()).unwrap();
    }

    #[test]
    fn annotation_is_phase_a_and_bounds_are_ordered() {
        let built = build(MbFeatures::paper_default());
        let [ka, ka2, kb] = phase_kernels(&built);
        assert_eq!((ka.head, ka.tail), (built.kernel.head, built.kernel.tail));
        assert!(ka.head < ka.tail && ka.tail < ka2.head && ka2.head < ka2.tail);
        assert!(ka2.tail < kb.head && kb.head < kb.tail);
        // Every tail must be its loop's backward branch.
        for k in [ka, ka2, kb] {
            assert!(built.program.insn_at(k.tail).unwrap().is_control_flow());
        }
    }

    #[test]
    fn phase_a_dominates_the_whole_run_profile() {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (out, trace) = sys.run_traced(50_000_000).unwrap();
        let [ka, ka2, kb] = phase_kernels(&built);
        let backward_taken_at = |tail: u32| {
            trace.iter().filter(|e| e.pc == tail && e.is_backward_taken_branch()).count() as u64
        };
        let a_events = backward_taken_at(ka.tail);
        let a2_events = backward_taken_at(ka2.tail);
        let b_events = backward_taken_at(kb.tail);
        assert_eq!(a_events, u64::from(OUTER_A) * (N_A as u64 - 1));
        assert_eq!(a2_events, u64::from(OUTER_A2) * (N_A as u64 - 1));
        assert_eq!(b_events, u64::from(OUTER_B) * (N_B as u64 - 1));
        assert!(a_events > a2_events, "offline hottest must stay kernel 1");
        assert!(a_events > b_events, "offline hottest must stay kernel 1");
        let (s, e) = built.kernel.range();
        let frac = trace.cycles_in_range(s, e) as f64 / out.cycles as f64;
        assert!(frac > 0.45, "phase A kernel fraction {frac:.3}");
    }

    #[test]
    fn scaled_variant_stretches_phases_without_changing_results() {
        let built = build_scaled(MbFeatures::paper_default(), 3, 2, 2);
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(50_000_000).unwrap();
        assert!(out.exited());
        built.verify(sys.dmem()).unwrap();
    }
}
