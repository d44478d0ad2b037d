//! Measures the warp-serve scheduler at fleet scale — ≥1k concurrent
//! seeded sessions (256 in smoke mode) time-sliced over a fixed worker
//! pool, all sharing one bounded circuit cache — and writes
//! `BENCH_serve.json` (schema `warp-mb/bench-serve/v2`: setup vs
//! execute wall-clock split plus the debug-only allocation count).
//!
//! Usage: `serveperf [--smoke] [--out <path>]`
//!
//! `--smoke` (or `SERVEPERF_SMOKE=1`) drives the CI-sized fleet.
//! `SERVEPERF_WORKERS` overrides the worker-thread count (default 4,
//! which is what CI pins). After writing the document the run exits
//! nonzero naming every gate `ServePerf::check` finds violated,
//! including, when set, `SERVEPERF_FLOOR` (sessions per second of the
//! serving window) and `SERVEPERF_MINSN_FLOOR` (aggregate fleet Minsn/s).
//! A worker count that is not a positive whole number, or a floor set
//! to anything but a finite number, fails the run before it measures.

use warp_bench::measure::{self, BenchCli};
use warp_bench::serve;

fn main() {
    let cli = BenchCli::parse("SERVEPERF_SMOKE", "BENCH_serve.json");
    // A malformed floor or worker count fails the run here, before the
    // measurement.
    for gate in ["SERVEPERF_FLOOR", "SERVEPERF_MINSN_FLOOR"] {
        let _ = measure::env_gate(gate);
    }
    let workers = measure::env_count("SERVEPERF_WORKERS", 4);

    let perf = serve::measure_fleet(cli.smoke, workers);
    println!(
        "warp-serve fleet, {} mode, {} workers:\n",
        if cli.smoke { "smoke" } else { "full" },
        workers
    );
    print!("{}", perf.render_table());

    cli.write_json(&perf.to_json());
    measure::exit_on_violations(&perf.check(measure::env_gate));
}
