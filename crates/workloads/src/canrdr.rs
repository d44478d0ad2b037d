//! `canrdr` (EEMBC automotive): CAN bus message filtering.
//!
//! The EEMBC "CAN Remote Data Request" benchmark reads controller-area-
//! network messages and dispatches on their identifiers. Our
//! reconstruction processes a buffer of (id, data) message pairs: the
//! kernel matches each identifier against an acceptance filter and
//! produces either the payload or the message tag, entirely branch-free
//! (the compare is the `(t | -t) >> 31` sign idiom, which the warp fabric
//! implements as plain logic).

use mb_isa::codegen::CodeGen;
use mb_isa::{Insn, MbFeatures, Reg};

use crate::common;
use crate::{BuiltWorkload, KernelBounds, MemCheck, Suite};

/// Number of CAN messages processed by the kernel.
pub const N: usize = 2048;
/// Messages scanned by the setup pass (fewer iterations than the kernel
/// so the profiler ranks the kernel first).
const SETUP_N: usize = 1800;
/// Output words covered by the verification checksum.
const CSUM_N: usize = 1700;

const MSGS_ADDR: u32 = 0x1000;
const OUT_ADDR: u32 = 0x5000;
const IDSUM_ADDR: u32 = 0x0200;
const CSUM_ADDR: u32 = 0x0100;

/// Acceptance filter: bits 4–10 of the id must equal `0x12` << 4.
const FILTER_MASK: u32 = 0x7F0;
const FILTER_MATCH: u32 = 0x120;

/// Golden model of the kernel.
///
/// For each message: `t = (id & 0x7F0) ^ 0x120`; if `t == 0` the message
/// is accepted and the payload passes through, otherwise the low 8 bits
/// of the id (the message tag) are emitted.
#[must_use]
pub fn golden(msgs: &[u32]) -> Vec<u32> {
    msgs.chunks(2)
        .map(|m| {
            let (id, data) = (m[0], m[1]);
            let t = (id & FILTER_MASK) ^ FILTER_MATCH;
            let mask = common::nonzero_mask(t); // all-ones when rejected
            (data & !mask) | ((id & 0xFF) & mask)
        })
        .collect()
}

/// Shapes raw words into (id, payload) pairs: ids constrained to an
/// 11-bit CAN identifier, payload arbitrary.
fn shape_messages(raw: &[u32]) -> Vec<u32> {
    raw.chunks(2).flat_map(|c| [c[0] & 0x7FF, c[1]]).collect()
}

fn messages() -> Vec<u32> {
    shape_messages(&common::lcg_fill(2 * N, 0xCA_4D11, 1_664_525, 1_013_904_223))
}

/// Builds `canrdr` with messages drawn from `seed` (the program is
/// identical to [`build`]; only data and expected results change).
pub fn build_seeded(features: MbFeatures, seed: u64) -> BuiltWorkload {
    build_with_input(features, shape_messages(&common::seeded_words(2 * N, seed, 0xCA4D)))
}

/// Builds `canrdr` for a feature configuration.
pub fn build(features: MbFeatures) -> BuiltWorkload {
    build_with_input(features, messages())
}

fn build_with_input(features: MbFeatures, msgs: Vec<u32>) -> BuiltWorkload {
    let mut cg = CodeGen::new(0, features);
    cg.asm_mut().equ("msgs", MSGS_ADDR).unwrap();
    cg.asm_mut().equ("out", OUT_ADDR).unwrap();
    cg.asm_mut().equ("idsum", IDSUM_ADDR).unwrap();
    cg.asm_mut().equ("csum", CSUM_ADDR).unwrap();

    // Setup pass (non-kernel): running xor of the first SETUP_N ids.
    {
        let a = cg.asm_mut();
        a.la(Reg::R16, "msgs");
        a.li(Reg::R17, SETUP_N as i32);
        a.push(Insn::addk(Reg::R18, Reg::R0, Reg::R0));
        a.label("idscan");
        a.push(Insn::lwi(Reg::R19, Reg::R16, 0));
        a.push(Insn::Xor { rd: Reg::R18, ra: Reg::R18, rb: Reg::R19 });
        a.push(Insn::addik(Reg::R16, Reg::R16, 8));
        a.push(Insn::addik(Reg::R17, Reg::R17, -1));
        a.bnei(Reg::R17, "idscan");
        a.la(Reg::R16, "idsum");
        a.push(Insn::swi(Reg::R18, Reg::R16, 0));
    }

    // Kernel: filter each message.
    {
        let a = cg.asm_mut();
        a.la(Reg::R21, "msgs");
        a.la(Reg::R22, "out");
        a.li(Reg::R4, N as i32);
        a.label("k_head");
        a.push(Insn::lwi(Reg::R9, Reg::R21, 0)); // id
        a.push(Insn::lwi(Reg::R10, Reg::R21, 4)); // data
        a.push(Insn::Andi { rd: Reg::R11, ra: Reg::R9, imm: FILTER_MASK as i16 });
        a.push(Insn::Xori { rd: Reg::R11, ra: Reg::R11, imm: FILTER_MATCH as i16 });
    }
    common::emit_nonzero_mask(&mut cg, Reg::R12, Reg::R11, Reg::R13);
    {
        let a = cg.asm_mut();
        a.push(Insn::Andn { rd: Reg::R13, ra: Reg::R10, rb: Reg::R12 }); // data & !mask
        a.push(Insn::Andi { rd: Reg::R14, ra: Reg::R9, imm: 0xFF });
        a.push(Insn::And { rd: Reg::R14, ra: Reg::R14, rb: Reg::R12 }); // tag & mask
        a.push(Insn::Or { rd: Reg::R13, ra: Reg::R13, rb: Reg::R14 });
        a.push(Insn::swi(Reg::R13, Reg::R22, 0));
        a.push(Insn::addik(Reg::R21, Reg::R21, 8));
        a.push(Insn::addik(Reg::R22, Reg::R22, 4));
        a.push(Insn::addik(Reg::R4, Reg::R4, -1));
        a.label("k_tail");
        a.bnei(Reg::R4, "k_head");
    }

    // Verification checksum (non-kernel).
    common::emit_checksum(&mut cg, "out", "out", CSUM_N as i32, "csum");
    common::emit_exit(&mut cg);

    let program = cg.finish().expect("canrdr assembles");
    let kernel = KernelBounds {
        head: program.symbol("k_head").unwrap(),
        tail: program.symbol("k_tail").unwrap(),
    };

    let output = golden(&msgs);
    let idsum = msgs.chunks(2).take(SETUP_N).fold(0u32, |acc, m| acc ^ m[0]);
    let csum = common::checksum(&output[..CSUM_N]);

    BuiltWorkload {
        name: "canrdr".into(),
        suite: Suite::Eembc,
        program,
        data: vec![(MSGS_ADDR, msgs)],
        kernel,
        checks: vec![
            MemCheck { label: "canrdr output".into(), addr: OUT_ADDR, expected: output },
            MemCheck { label: "canrdr id xor".into(), addr: IDSUM_ADDR, expected: vec![idsum] },
            MemCheck { label: "canrdr checksum".into(), addr: CSUM_ADDR, expected: vec![csum] },
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
    fn golden_accepts_and_rejects() {
        // Accepted: id bits 4-10 = 0x12.
        let accepted = golden(&[0x123, 0xAABB_CCDD]);
        assert_eq!(accepted[0], 0xAABB_CCDD);
        // Rejected: tag (low byte) passes instead.
        let rejected = golden(&[0x7F5, 0xAABB_CCDD]);
        assert_eq!(rejected[0], 0xF5);
    }

    #[test]
    fn some_messages_match_filter() {
        let msgs = messages();
        let accepted = msgs.chunks(2).filter(|m| (m[0] & FILTER_MASK) == FILTER_MATCH).count();
        assert!(accepted > 0, "dataset must exercise the accept path");
        assert!(accepted < N, "dataset must exercise the reject path");
    }

    #[test]
    fn kernel_fraction_is_moderate() {
        let built = build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (out, trace) = sys.run_traced(50_000_000).unwrap();
        let (s, e) = built.kernel.range();
        let frac = trace.cycles_in_range(s, e) as f64 / out.cycles as f64;
        assert!((0.45..0.8).contains(&frac), "canrdr kernel fraction {frac:.3}");
    }
}
