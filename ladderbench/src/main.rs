//! Layer-ladder benchmark of the warp-serve stack.
//!
//! ```text
//! cargo run --release --manifest-path ladderbench/Cargo.toml -- \
//!     --workload <fleet_zipf|tenant_cold|wire_rpc> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets the workload up, measures `S` seconds of
//! closed-loop load with tracing off, sets it up several more times for
//! the set-up median, and reports the end-to-end metrics. `--trace 1` measures half the time untraced and
//! half traced, climbs the layer ladder on the workload's leading ops,
//! writes every span to `ladderbench/out/trace-<workload>.json`
//! (Chrome-trace format), and reports the per-layer metrics. Both print
//! diagnostics, then one JSON result line. See `README.md`.

mod host;
mod ladder;
mod load;
mod opgen;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use warp_core::CadService;
use warp_online::{OnlineReport, SessionStatus};

use crate::ladder::RegionCad;
use crate::load::{Kind, OpRecord, Rig, Window};
use crate::stats::median;
use crate::trace::Tracer;

const USAGE: &str = "usage: ladderbench --workload <fleet_zipf|tenant_cold|wire_rpc> \
                     [--seed N] [--seconds S] [--trace 0|1]";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Named metrics with units, in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not a number: {value}");
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { kind: kind.ok_or("--workload is required")?, seed, seconds, trace })
}

/// What one run measured, beyond its metrics.
struct Run {
    metrics: Metrics,
    rig: Rig,
    windows: Vec<Window>,
    attempted: usize,
    failed: usize,
    cad: Option<Vec<RegionCad>>,
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("ladderbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let shape = args.kind.shape();
    let nproc = host::nproc();
    assert!(
        shape.load_threads() <= nproc && shape.connections <= nproc,
        "the load's {} threads and {} connections must not outnumber the {nproc} CPUs",
        shape.load_threads(),
        shape.connections,
    );
    let steal_before = host::steal_s();
    let mut run = if args.trace { traced(&args) } else { untraced(&args) };
    let checked = check_references(&mut run);

    println!(
        "# ladderbench {} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={nproc} load_threads={} connections={} steal_ms_per_cpu={:.0} (whole run)",
        shape.load_threads(),
        shape.connections,
        (host::steal_s() - steal_before) * 1e3,
    );
    print_counters(&run);
    if let Some((checked, mismatched)) = checked {
        println!("# references: {checked} reports checked against standalone sessions, {mismatched} differ");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted,
        run.failed,
        run.metrics.to_json(),
    );
}

/// Sets up, measures the end-to-end metrics on one untraced window,
/// reads the peak memory, and only then sets up `SETUPS - 1` more times
/// for the `setup_s` median: a wire server's accept thread never exits,
/// so a set-up made before the window would stay resident through it.
fn untraced(args: &Args) -> Run {
    let timed_set_up = || {
        let start = Instant::now();
        let rig = Rig::set_up(args.kind, args.seed);
        (start.elapsed().as_secs_f64(), rig)
    };
    let (first, rig) = timed_set_up();
    let window = rig.measure(args.seconds as f64, &Tracer::new(false, Instant::now(), 0));
    let peak_rss_mb = host::peak_rss_mb();
    let mut setups = vec![first];
    setups.extend((1..SETUPS).map(|_| timed_set_up().0));
    let e = window.end_to_end();
    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("ops_per_s", e.ops_per_s, "1/s");
    metrics.push("op_p50_ms", e.op_p50_ms, "ms");
    metrics.push("op_p90_ms", e.op_p90_ms, "ms");
    metrics.push("minsn_per_s", e.minsn_per_s, "Minsn/s");
    metrics.push("cpu_ms_per_op", e.cpu_ms_per_op, "ms");
    metrics.push("peak_rss_mb", peak_rss_mb, "MiB");
    let (attempted, failed) = (window.records.len(), window.records.len() - window.verified());
    Run { metrics, rig, windows: vec![window], attempted, failed, cad: None }
}

/// Measures half the time untraced and half traced, climbs the ladder,
/// writes the spans, and reports the per-layer metrics.
fn traced(args: &Args) -> Run {
    let rig = Rig::set_up(args.kind, args.seed);
    let half = args.seconds as f64 / 2.0;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(true, epoch, 0);
    let plain = rig.measure(half, &Tracer::new(false, epoch, 0));
    let mut spanned = rig.measure(half, &tracer);
    tracer.absorb(std::mem::replace(&mut spanned.tracer, Tracer::new(false, epoch, 0)));
    let ladder = ladder::climb(&rig, &plain, &mut tracer);

    let mut metrics = ladder.metrics;
    let (traced_rate, plain_rate) = (spanned.end_to_end().ops_per_s, plain.end_to_end().ops_per_s);
    metrics.push("trace.overhead_frac", 1.0 - traced_rate / plain_rate, "ratio");
    // Relative to the working directory: the benchmark runs from the
    // repository root and writes nowhere else.
    let out = "ladderbench/out";
    let path = format!("{out}/trace-{}.json", args.kind.name());
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("# trace: {path}");

    let windows = vec![plain, spanned];
    let records: usize = windows.iter().map(|w| w.records.len()).sum();
    let verified: usize = windows.iter().map(Window::verified).sum();
    Run {
        metrics,
        rig,
        windows,
        attempted: records + ladder.attempted,
        failed: records - verified + ladder.failed,
        cad: Some(ladder.regions),
    }
}

/// For `tenant_cold`, whose sessions share nothing and so are
/// deterministic: replays each measured op's program as a standalone
/// session (no server, pool or cache), off the clock, and counts every
/// op whose cycles, instructions or warp events differ as failed.
/// Returns the reports checked and how many differed.
fn check_references(run: &mut Run) -> Option<(usize, usize)> {
    if run.rig.kind != Kind::TenantCold {
        return None;
    }
    let records: Vec<&OpRecord> =
        run.windows.iter().flat_map(|w| &w.records).filter(|r| r.report.is_some()).collect();
    // Ops past the bank period replay an earlier op's program.
    let program = |r: &OpRecord| r.seq % run.rig.bank.len();
    let mut programs: Vec<usize> = records.iter().map(|r| program(r)).collect();
    programs.sort_unstable();
    programs.dedup();
    let references = standalone_reports(&run.rig, &programs);
    let mut mismatched = 0;
    for r in &records {
        let served = r.report.as_ref().expect("filtered on reports");
        let same = references[&program(r)].as_ref().is_some_and(|re| {
            (re.cycles, re.instructions, &re.events)
                == (served.cycles, served.instructions, &served.events)
        });
        if !same {
            eprintln!("op {}: served report differs from its standalone reference", r.seq);
            mismatched += 1;
        }
    }
    run.failed += mismatched;
    Some((records.len(), mismatched))
}

/// Runs the bank programs `programs` as standalone sessions, striped
/// over two threads that share a two-thread CAD service.
fn standalone_reports(rig: &Rig, programs: &[usize]) -> BTreeMap<usize, Option<OnlineReport>> {
    let cad = Arc::new(CadService::new(2));
    let reference = |program: usize| {
        let mut session = rig.session(&rig.bank[program]).with_service(Arc::clone(&cad));
        while session.advance(u64::MAX) == SessionStatus::Runnable {}
        (program, session.into_outcome().and_then(Result::ok))
    };
    std::thread::scope(|scope| {
        let stripes: Vec<_> = (0..2)
            .map(|t| {
                let reference = &reference;
                scope.spawn(move || {
                    programs.iter().skip(t).step_by(2).map(|&p| reference(p)).collect::<Vec<_>>()
                })
            })
            .collect();
        stripes.into_iter().flat_map(|s| s.join().expect("reference thread")).collect()
    })
}

/// Prints per-kernel op counts, then modeled and host counters kept
/// apart: modeled ones come from the reports, host ones from the shared
/// cache's `CacheStats` and the CAD rung's compile times.
fn print_counters(run: &Run) {
    let records: Vec<&OpRecord> = run.windows.iter().flat_map(|w| &w.records).collect();
    let names: Vec<&str> = run.rig.kernels.iter().map(|k| k.name).collect();
    let counts = opgen::counts(records.iter().map(|r| r.kernel), names.len());
    let per_kernel: Vec<String> =
        names.iter().zip(&counts).map(|(name, n)| format!("{name}={n}")).collect();
    println!("# ops per kernel: {}", per_kernel.join(" "));
    for (i, w) in run.windows.iter().enumerate() {
        let e = w.end_to_end();
        println!(
            "# window {i}: {:.2}s {} ops {:.1}/s p50={:.3}ms p90={:.3}ms {:.2}Minsn/s \
             cpu={:.3}ms/op steal_ms_per_cpu={:.0}",
            w.elapsed_ns as f64 / 1e9,
            w.records.len(),
            e.ops_per_s,
            e.op_p50_ms,
            e.op_p90_ms,
            e.minsn_per_s,
            e.cpu_ms_per_op,
            w.steal_s * 1e3,
        );
    }

    let mut modeled = [0u64; 4];
    for r in &records {
        for (total, v) in modeled.iter_mut().zip(r.modeled) {
            *total += v;
        }
    }
    let ops = records.len().max(1) as f64;
    println!(
        "# modeled, per op: sim_cycles={:.1} warps={:.4} cache_hit_warps={:.4} cad_cycles={:.1} \
         (from each OnlineReport)",
        modeled[0] as f64 / ops,
        modeled[1] as f64 / ops,
        modeled[2] as f64 / ops,
        modeled[3] as f64 / ops,
    );
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for w in &run.windows {
        let (before, after) = w.cache;
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        evictions += after.evictions - before.evictions;
    }
    println!(
        "# host, shared CircuitCache over the windows: hits={hits} misses={misses} \
         evictions={evictions} (misses mix real recompiles with modeled rewrites: an \
         image-store rescue re-inserts a circuit without compiling it)"
    );
    if let Some(cad) = &run.cad {
        let per_region: Vec<String> = cad
            .iter()
            .map(|c| {
                format!("{}@{:#x}..{:#x}={:.2}", names[c.kernel], c.head, c.tail, c.compile_ms)
            })
            .collect();
        println!(
            "# host, CAD-rung cold compile ms of each warped region: {}",
            per_region.join(" ")
        );
    }
}
