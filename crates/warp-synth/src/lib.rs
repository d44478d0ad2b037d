//! RT/logic synthesis for the warp configurable logic architecture.
//!
//! This crate is the synthesis stage of the ROCPART on-chip CAD chain:
//! it lowers a decompiled [`LoopKernel`](warp_cdfg::LoopKernel) to a
//! bit-level gate netlist and technology-maps it onto the WCLA's 3-input
//! LUT fabric.
//!
//! * `lower` / [`synthesize`] — word-level DFG → [`GateNetlist`]:
//!   ripple-carry adders for add/subtract, mux networks for dynamic
//!   shifts, **pure rewiring for constant shifts and masks** (which is
//!   why the paper's `brev` kernel reduces to wires), and extraction of
//!   multiplies onto the WCLA's 32-bit MAC. Aggressive constant folding
//!   and structural hashing run during construction, and dead logic is
//!   swept before mapping.
//! * [`rocm`] — the Riverside On-Chip logic Minimizer (DAC'03): a lean
//!   two-level cube minimizer (single expand pass + irredundant cover)
//!   designed to run in the tiny memory budget of an on-chip CAD tool.
//! * [`map`] — technology mapping into 3-input LUTs by greedy cut
//!   enlargement, producing the [`LutNetlist`] that
//!   placement and routing consume.
//! * [`store`] — the host stores the CAD stages compute through: each
//!   artifact kept once by its full input.
//!
//! Every stage is checked for functional equivalence against the DFG's
//! reference evaluation (see the crate's tests), so a synthesis bug
//! cannot silently corrupt an experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
mod lower;
pub mod map;
pub mod rocm;
pub mod store;

pub use bits::{BitDef, BitId, GateNetlist, InputWord, NetlistStats, Word};
pub use lower::{synthesize, SynthReport};
pub use map::{LutNetlist, MapStats};
