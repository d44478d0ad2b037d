//! Measures the online warp runtime's simulated timeline per workload —
//! time-to-warp, warp/evict/re-warp events, online speedup over a
//! software-only timeline, offline amortization columns — and writes
//! `BENCH_online.json`.
//!
//! Usage: `onlineperf [--smoke] [--out <path>]`
//!
//! `--smoke` (or `ONLINEPERF_SMOKE=1`) uses smaller repeat counts and a
//! shorter phased workload for CI. All numbers are simulated cycles, so
//! the document is bit-deterministic across hosts — including across
//! `WARP_CAD_THREADS` settings, since background CAD workers trade host
//! wall-clock only; the schema (`warp-mb/bench-online/v2`, with
//! per-event incremental-CAD counters and the `rewarp_cad_ratio`
//! aggregate) is described in the README's "Online warp runtime"
//! section.
//!
//! After writing the document the run exits nonzero naming every gate
//! `OnlinePerf::check` finds violated; `ONLINEPERF_REWARP_RATIO`
//! overrides its 0.5 re-warp ceiling, and fails the run before it
//! measures when set to anything but a finite number.

use warp_bench::measure::{self, BenchCli};
use warp_bench::online;

fn main() {
    let cli = BenchCli::parse("ONLINEPERF_SMOKE", "BENCH_online.json");
    // A malformed ceiling fails the run here, before the measurement.
    let _ = measure::env_gate("ONLINEPERF_REWARP_RATIO");

    let perf = online::measure_suite(cli.smoke);
    println!("online warp runtime timeline, {} mode:\n", if cli.smoke { "smoke" } else { "full" });
    print!("{}", perf.render_table());
    println!(
        "\n{} warp events across {} workloads; mean online speedup {:.2}x",
        perf.total_events(),
        perf.workloads.len(),
        perf.mean_online_speedup()
    );

    cli.write_json(&perf.to_json());
    measure::exit_on_violations(&perf.check(measure::env_gate));
}
