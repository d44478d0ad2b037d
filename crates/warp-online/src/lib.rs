//! The online warp runtime: profile, partition, and hot-patch *while
//! the program runs*.
//!
//! Everything the offline flow in `warp-core` does between two complete
//! executions, this crate does **on the simulated timeline of a single
//! execution** — which is what the paper's warp processor actually is:
//!
//! 1. the MicroBlaze executes in bounded cycle slices
//!    ([`mb_sim::System::run_with_sink`]);
//! 2. an on-chip profiler ([`warp_profiler::Profiler`], sitting
//!    directly on the retirement stream as a
//!    [`mb_sim::TraceSink`]) accumulates backward-branch heat, decaying
//!    periodically so the ranking tracks the *current* phase of the
//!    program;
//! 3. when a region crosses the [`WarpPolicy`]'s bar, the modeled
//!    **OCPM** (on-chip partitioning module — the paper's DPM running
//!    the lean ROCPART tools) runs the existing typed pipeline stages
//!    ([`warp_core::pipeline`]), optionally warm-starting from a shared
//!    [`warp_core::CircuitCache`]; the CAD work is charged to the
//!    simulated timeline as lean-processor cycles, so warp latency is a
//!    first-class simulated quantity;
//! 4. when the CAD budget elapses, the runtime **hot-patches
//!    instruction memory mid-run** (through
//!    [`mb_sim::System::write_imem`], which drops the pre-decoded slots
//!    and blocks over the written words) and execution continues on the
//!    WCLA — including mid-loop: the invocation stub marshals the
//!    *current* counter, pointers, and accumulators, so the remaining
//!    iterations finish in hardware;
//! 5. if the hot region later *shifts* (a phased workload), the decayed
//!    profiler promotes the new loop, the old circuit is evicted (its
//!    patch reverted), and the runtime re-warps.
//!
//! A session keeps one simulated machine for its whole timeline. Each
//! repeat re-enters the program on it with fresh registers and data, and
//! instruction memory persists, as the warp processor's instruction BRAM
//! does: a re-entered program starts warped because the patch is still
//! there, and nothing is re-attached, re-patched or rebuilt between
//! repeats.
//!
//! The one entry point is [`OnlineSession`]: [`OnlineSession::run`]
//! drives a workload to completion, and [`OnlineSession::advance`]
//! runs it a bounded number of slices at a time for a server to
//! interleave. The outcome is an [`OnlineReport`] carrying the
//! warp-event timeline (detection cycle, CAD budget, patch cycle,
//! eviction), per-circuit hardware activity, and amortization
//! comparisons against the offline
//! [`DpmReport`](warp_core::dpm::DpmReport) model.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use mb_isa::MbFeatures;
//! use warp_online::{OnlineConfig, OnlineSession, ThresholdPolicy};
//!
//! let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
//! let report = OnlineSession::new(Arc::new(built), OnlineConfig::default())
//!     .with_policy(ThresholdPolicy { min_count: 256 })
//!     .run()
//!     .unwrap();
//! // brev's kernel is cheap to compile: the warp lands mid-run and the
//! // remaining iterations execute in hardware.
//! assert_eq!(report.events.len(), 1);
//! assert!(report.events[0].patched_cycle < report.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod policy;
mod pool;
mod report;
mod session;
mod slot;

pub use error::OnlineError;
pub use policy::{NeverPolicy, PolicyCtx, ThresholdPolicy, TopKPolicy, WarpPolicy};
pub use pool::{PoolStats, SessionPool};
pub use report::{OnlineReport, WarpEvent};
pub use session::{OnlineConfig, OnlineSession, SessionStatus};
