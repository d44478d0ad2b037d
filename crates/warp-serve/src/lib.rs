//! **warp-serve**: a multi-session warp-simulation server.
//!
//! The online runtime of `warp-online` simulates *one* warping system.
//! This crate turns it into a service: a long-running [`Server`] hosts
//! thousands of concurrent sessions — each an owned
//! [`OnlineSession`](warp_online::OnlineSession), i.e. a full simulated
//! MicroBlaze + profiler + OCPM — and a fixed pool of worker threads
//! time-slices the runnable ones through the resumable
//! `advance(max_slices)` state machine. Sessions are driven by client
//! commands (create / run / step / patch / query / report) either
//! in-process against [`Server`] or over TCP through the framed binary
//! protocol in [`proto`] (front-end in [`tcp`]).
//!
//! Three properties carry the design:
//!
//! * **Determinism.** A served session's
//!   [`OnlineReport`](warp_online::OnlineReport) is
//!   bit-identical to a standalone
//!   [`OnlineSession::run`](warp_online::OnlineSession::run) of the same
//!   workload — at any worker count and under any interleaving —
//!   because a session's timeline depends only on the sequence of
//!   `advance` calls applied to it (pinned by `tests/determinism.rs`
//!   across the whole registry at 1 and 8 workers).
//! * **Fair cooperative scheduling.** Workers advance a session at most
//!   one quantum before requeueing it at the back of the ready queue;
//!   parked sessions with no granted slices cost nothing, so mostly
//!   idle fleets scale in memory, not CPU.
//! * **Cross-tenant CAD sharing.** Sessions may attach one shared,
//!   bounded [`CircuitCache`](warp_core::CircuitCache): tenants running
//!   the same kernel over different data hit each other's compiled
//!   circuits and pay only reconfiguration cycles, and the fleet-wide
//!   hit rate is reported by the `serveperf` bench into
//!   `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod proto;
mod server;
pub mod tcp;

pub use error::ServeError;
pub use server::{FleetStats, ServeConfig, Server, SessionId, SessionSnapshot};
