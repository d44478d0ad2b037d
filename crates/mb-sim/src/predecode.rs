//! Pre-decoded instruction slots.
//!
//! The simulator's original fetch re-decoded the instruction word at
//! every retirement, even though a program's imem words change only when
//! the dynamic partitioning module patches the binary. The program
//! store (`block.rs`) prepares each word once into a [`Predecoded`] slot
//! indexed by `pc >> 2`; after the first execution of a PC, fetch is an
//! array load.
//!
//! A slot holds not just the decoded [`Insn`] but everything `step`
//! needs that is a pure function of the instruction word and the
//! system's fixed feature set: the timing-model latencies for both
//! branch outcomes, the instruction class, functional-unit support, and
//! the control-flow flag — so the hot loop re-derives none of them.
//!
//! Invalidation happens where instruction memory is written:
//! [`System::write_imem`] drops the written words' slots (and the
//! blocks overlapping them) from the program store, so the next fetch
//! of a patched word decodes the new instruction and every other slot
//! stays hot.
//!
//! [`System::write_imem`]: crate::System::write_imem

use mb_isa::{Insn, MbFeatures, OpClass};

use crate::timing::{branch_latency, insn_latency};

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

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::{Cond, Reg};

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
}
