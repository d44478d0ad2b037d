//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Binaries (run with `cargo run --release -p warp-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig6_speedup` | Figure 6: speedups vs. the MicroBlaze alone |
//! | `fig7_energy` | Figure 7: normalized energy consumption |
//! | `tab_config_options` | Section 2: configurable-options study |
//! | `tab_cad` | On-chip CAD cost (refs \[15]\[16]\[17] leanness claims) |
//! | `fig_multiproc` | Figure 4 extension: multi-processor warp system |
//! | `simperf` | Simulation throughput (Minsn/s) → `BENCH_sim.json` |
//! | `onlineperf` | Online-runtime timeline (time-to-warp, re-warps) → `BENCH_online.json` |
//! | `serveperf` | Multi-session serving throughput (sessions/s, fleet Minsn/s, cache hit rate) → `BENCH_serve.json` |
//!
//! Each of the three perf harnesses writes its document, then applies
//! that document's gates (`SimPerf::check`, `OnlinePerf::check`,
//! `ServePerf::check`) and exits nonzero naming every violation.

// `deny` rather than `forbid`: the allocation-counting shim in
// `alloc` is the one sanctioned `unsafe` (a pass-through
// `GlobalAlloc`), locally allowed there.
#![deny(unsafe_code)]

pub mod alloc;
pub mod measure;
pub mod online;
pub mod serve;
pub mod simperf;

use warp_core::experiments::{BenchmarkComparison, Fig6Row, Fig7Row};
use warp_core::{BatchRunner, PipelineStats, WarpOptions};

/// Builds the batch runner every figure/table binary uses: all
/// available hardware threads, overridable with the
/// `WARP_BENCH_THREADS` environment variable (CI pins it to 4 for the
/// batch smoke job). A set value that is not a positive whole number
/// exits the process nonzero, naming the variable
/// ([`measure::env_count`]).
#[must_use]
pub fn batch_runner(options: WarpOptions) -> BatchRunner {
    let runner = BatchRunner::new(options);
    let threads = measure::env_count("WARP_BENCH_THREADS", runner.threads());
    runner.with_threads(threads)
}

/// Formats the per-benchmark pipeline stage timing block the binaries
/// print after their tables — where the harness wall-clock went.
#[must_use]
pub fn render_stage_timing(names: &[&str], stats: &[PipelineStats]) -> String {
    let mut out = String::from("pipeline wall-clock per benchmark:\n");
    for (name, s) in names.iter().zip(stats) {
        out.push_str(&format!("{name:>10} | {s}\n"));
    }
    let total = PipelineStats::accumulate(stats);
    out.push_str(&format!("{:>10} | {total}\n", "total"));
    out
}

/// Formats a Figure 6 table in the paper's layout.
#[must_use]
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10} | {:>9} {:>9} {:>9} {:>10} {:>10} {:>12}\n",
        "benchmark", "MB (85)", "ARM7(100)", "ARM9(250)", "ARM10(325)", "ARM11(550)", "MB (Warp)"
    ));
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>10} | {:>9.2} {:>9.2} {:>9.2} {:>10.2} {:>10.2} {:>12.2}\n",
            r.benchmark,
            r.speedups[0],
            r.speedups[1],
            r.speedups[2],
            r.speedups[3],
            r.speedups[4],
            r.speedups[5]
        ));
    }
    out
}

/// Formats a Figure 7 table in the paper's layout.
#[must_use]
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10} | {:>9} {:>9} {:>9} {:>10} {:>10} {:>12}\n",
        "benchmark", "MB (85)", "ARM7(100)", "ARM9(250)", "ARM10(325)", "ARM11(550)", "MB (Warp)"
    ));
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>10} | {:>9.2} {:>9.2} {:>9.2} {:>10.2} {:>10.2} {:>12.2}\n",
            r.benchmark,
            r.energy[0],
            r.energy[1],
            r.energy[2],
            r.energy[3],
            r.energy[4],
            r.energy[5]
        ));
    }
    out
}

/// Renders the in-text summary block.
#[must_use]
pub fn render_summary(comparisons: &[BenchmarkComparison]) -> String {
    let s = warp_core::experiments::summary(comparisons);
    format!(
        "in-text statistics (paper value in parentheses):\n\
         \u{2022} average warp speedup:               {:>5.2}  (5.8)\n\
         \u{2022} average warp speedup excl. brev:    {:>5.2}  (3.6)\n\
         \u{2022} maximum warp speedup (brev):        {:>5.2}  (16.9)\n\
         \u{2022} average energy reduction:           {:>4.0}%  (57%)\n\
         \u{2022} average energy reduction excl brev: {:>4.0}%  (49%)\n\
         \u{2022} maximum energy reduction (brev):    {:>4.0}%  (94%)\n\
         \u{2022} ARM11 speed over warp:              {:>5.2}x (2.6x)\n\
         \u{2022} warp speed over ARM10:              {:>5.2}x (1.3x)\n\
         \u{2022} MicroBlaze energy over ARM11:       {:>5.2}x (1.48x)\n",
        s.avg_warp_speedup,
        s.avg_warp_speedup_excl_brev,
        s.max_warp_speedup,
        s.avg_energy_reduction * 100.0,
        s.avg_energy_reduction_excl_brev * 100.0,
        s.max_energy_reduction * 100.0,
        s.arm11_speed_over_warp,
        s.warp_speed_over_arm10,
        s.mb_energy_over_arm11,
    )
}
