//! Measures simulation throughput (Minsn/s) across the paper suite in
//! five run modes — decode-per-fetch reference, per-instruction
//! predecoded path, superblock engine, megablock trace engine, full
//! trace — and writes `BENCH_sim.json`. Each
//! mode asserts the engine it measures via `System::active_engine`, so
//! a silent downgrade fails the run instead of publishing mislabeled
//! numbers.
//!
//! Usage: `simperf [--smoke] [--out <path>]`
//!
//! `--smoke` (or `SIMPERF_SMOKE=1`) runs three repetitions per mode for
//! CI; the default is best-of-40 (single runs are ~1 ms, so repetitions
//! are cheap and the minimum filters scheduler noise). The JSON schema
//! (`warp-mb/bench-sim/v8`, with per-workload `engine_coverage`
//! fractions showing which tier — step, block, trace — retired the
//! instructions) is described in the README's "Performance" section.
//! Workloads whose per-workload trace-vs-block speedup sits below the
//! advisory floor are listed in the JSON `below_floor` array, each with
//! its `floor_waiver` diagnosis when one is recorded; stderr warnings
//! fire only for *new* entrants without a waiver.
//!
//! After writing the document the run exits nonzero naming every gate
//! `SimPerf::check` finds violated; the `SIMPERF_*_FLOOR` floors gate
//! only when set. A floor set to anything but a finite number fails the
//! run before it measures.

use warp_bench::measure::{self, BenchCli};
use warp_bench::simperf;

fn main() {
    let cli = BenchCli::parse("SIMPERF_SMOKE", "BENCH_sim.json");
    // A malformed floor fails the run here, before the measurement.
    for gate in ["SIMPERF_SPEEDUP_FLOOR", "SIMPERF_BLOCK_FLOOR", "SIMPERF_TRACE_FLOOR"] {
        let _ = measure::env_gate(gate);
    }
    // Runs are sub-millisecond, so best-of needs a deep rep count to
    // converge on the noise floor — host frequency drift between modes
    // otherwise skews the published mode-vs-mode ratios.
    let reps = if cli.smoke { 3 } else { 40 };

    let perf = simperf::measure_suite(reps, cli.smoke);
    println!(
        "simulation throughput, {} mode (best of {} rep{}):\n",
        if cli.smoke { "smoke" } else { "full" },
        reps,
        if reps == 1 { "" } else { "s" },
    );
    print!("{}", perf.render_table());
    println!(
        "\ntrace engine vs. superblock engine:               {:.2}x",
        perf.aggregate_trace_speedup()
    );
    println!(
        "block engine vs. predecoded per-instruction path: {:.2}x",
        perf.aggregate_block_speedup()
    );
    println!(
        "predecoded path vs. seed decode-per-fetch loop:   {:.2}x (trace vs. seed: {:.2}x)",
        perf.aggregate_predecoded_speedup(),
        perf.aggregate_trace_speedup_vs_reference()
    );

    for (name, speedup) in perf.below_floor() {
        match simperf::floor_waiver(name) {
            // Known floor-limited: the diagnosis rides in the JSON;
            // re-warning every run is noise.
            Some(diagnosis) => {
                println!("note: {name} below trace floor ({speedup:.3}x), waived: {diagnosis}");
            }
            None => eprintln!(
                "warning: {name}: trace_speedup_vs_block {speedup:.3} is below the {:.1}x \
                 per-workload advisory floor and has no recorded waiver",
                simperf::PER_WORKLOAD_TRACE_FLOOR
            ),
        }
    }

    cli.write_json(&perf.to_json());
    measure::exit_on_violations(&perf.check(measure::env_gate));
}
