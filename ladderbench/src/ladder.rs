//! The layer ladder: the workload's leading ops replayed one layer at
//! a time, bottom rung first, with every call timed by a span.
//!
//! | rung            | call timed                                                 |
//! |-----------------|------------------------------------------------------------|
//! | `mb-sim`        | `System::run_with_sink(_, NullSink)` on prewarmed images   |
//! | `warp-profiler` | the same runs with a `Profiler` sink                       |
//! | `warp-online`   | `OnlineSession::advance` on one thread via a `SessionPool` |
//! | `warp-serve`    | `Server::create/run/wait` in the workload's closed loop    |
//! | `warp-core`     | `pipeline::decompile/compile_circuit`, cold, per region    |
//! | `wire`          | `tcp::Client` calls against `WireServer::handle`           |
//! | `proto`         | `Response::encode/decode` of the wire rung's reports       |
//!
//! A rung's `frac_of_below` is the rung below's host time per op over
//! this rung's, so 1.0 means the layer costs nothing. It exceeds 1 when
//! the layer saves more than it adds: warped loops retire on the WCLA,
//! so a session retires fewer software instructions than the engine
//! rungs' software-only runs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mb_sim::{NullSink, ProgramImage, StopReason, System, TraceSink};
use warp_core::pipeline::{self, HotRegion};
use warp_core::CircuitCache;
use warp_online::{OnlineConfig, OnlineReport, SessionPool, SessionStatus};
use warp_profiler::Profiler;
use warp_serve::proto::Response;
use warp_serve::tcp::{Client, WireServer};
use warp_serve::ServeConfig;
use workloads::BuiltWorkload;

use crate::load::{features, script, Rig, Stop, Window, CACHE_CAPACITY, QUANTUM_SLICES};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::Metrics;

/// Cold compiles of each kernel on the CAD rung.
const CAD_REPEATS: usize = 3;
/// Encodes and decodes of each report on the proto rung.
const CODEC_REPEATS: usize = 16;
/// The wire script's calls, in order.
const WIRE_CALLS: [&str; 6] = ["create", "step", "query", "patch", "run", "report"];

/// What the ladder measured.
pub struct Ladder {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Metrics,
    /// Ops the rungs ran.
    pub attempted: usize,
    /// Rung ops that did not finish verified.
    pub failed: usize,
    /// Cold CAD time of each region the window's ops warped.
    pub regions: Vec<RegionCad>,
}

/// The CAD rung's cold times for one warped region of one kernel.
pub struct RegionCad {
    /// Index into the rig's kernels.
    pub kernel: usize,
    /// Loop head.
    pub head: u32,
    /// Loop tail.
    pub tail: u32,
    /// Median `pipeline::decompile` time, in us.
    pub decompile_us: f64,
    /// Median `pipeline::compile_circuit` time, in ms (0 when the
    /// decompiler rejects the region).
    pub compile_ms: f64,
}

/// Climbs every rung on the workload's leading ops. `window` is an
/// untraced window of the same rig, which the server, CAD and cache
/// rungs relate their figures to.
#[must_use]
pub fn climb(rig: &Rig, window: &Window, tracer: &mut Tracer) -> Ladder {
    let n = rig.shape.ladder_ops;
    let mut m = Metrics::default();
    let mut attempted = 0;
    let mut failed = 0;

    let mut images: Vec<Option<Prewarmed>> = rig.kernels.iter().map(|_| None).collect();
    let (insns, bad) = engine_rung(rig, &mut images, "mb-sim", || NullSink, tracer);
    let profiler = OnlineConfig::default().options.profiler;
    let (_, bad_profiled) =
        engine_rung(rig, &mut images, "warp-profiler", || Profiler::new(profiler), tracer);
    attempted += 2 * n;
    failed += bad + bad_profiled;
    let per_op = |t: &Tracer, cat: &str, name: &str| {
        t.durations_us(cat, name).iter().sum::<f64>() / n as f64
    };
    let engine_us = per_op(tracer, "mb-sim", "System::run_with_sink");
    let profiled_us = per_op(tracer, "warp-profiler", "System::run_with_sink");
    m.push("mb-sim.us_per_op", engine_us, "us");
    m.push("mb-sim.minsn_per_s", insns as f64 / (engine_us * n as f64), "Minsn/s");
    m.push("warp-profiler.us_per_op", profiled_us, "us");
    m.push("warp-profiler.frac_of_below", engine_us / profiled_us, "ratio");

    let (reports, bad) = session_rung(rig, n, tracer);
    attempted += n;
    failed += bad;
    let session_us = per_op(tracer, "warp-online", "OnlineSession::advance");
    let advances = tracer.durations_us("warp-online", "OnlineSession::advance");
    m.push("warp-online.us_per_op", session_us, "us");
    m.push("warp-online.frac_of_below", profiled_us / session_us, "ratio");
    m.push("warp-online.advance_us_p50", median(&advances), "us");

    let quanta_before = rig.server.fleet().quanta;
    let start = Instant::now();
    let served = rig.serve_loop(Stop::First(n), start, tracer, "warp-serve");
    let served_per_s = n as f64 / start.elapsed().as_secs_f64();
    attempted += n;
    failed += served.iter().filter(|r| !r.verified).count();
    let session_per_s = 1e6 / session_us;
    m.push(
        "warp-serve.frac_of_below",
        served_per_s / (rig.shape.workers as f64 * session_per_s),
        "ratio",
    );
    let quanta = rig.server.fleet().quanta - quanta_before;
    m.push("warp-serve.quanta_per_op", quanta as f64 / n as f64, "count");
    for (metric, call) in [
        ("warp-serve.create_us_p50", "Server::create"),
        ("warp-serve.grant_us_p50", "Server::run"),
        ("warp-serve.wait_us_p50", "Server::wait"),
    ] {
        m.push(metric, median(&tracer.durations_us("warp-serve", call)), "us");
    }

    // Every warp landed in the window, at its region's cold CAD cost.
    let regions = cad_rung(rig, window, tracer);
    let cost: BTreeMap<(usize, u32, u32), &RegionCad> =
        regions.iter().map(|c| ((c.kernel, c.head, c.tail), c)).collect();
    let landed: Vec<&RegionCad> = window
        .records
        .iter()
        .flat_map(|r| r.warped.iter().map(|&(head, tail)| cost[&(r.kernel, head, tail)]))
        .collect();
    let compile_ms: Vec<f64> = landed.iter().map(|c| c.compile_ms).collect();
    m.push(
        "warp-core.decompile_us_p50",
        median(&landed.iter().map(|c| c.decompile_us).collect::<Vec<_>>()),
        "us",
    );
    m.push("warp-core.compile_ms_p50", median(&compile_ms), "ms");
    m.push("warp-core.compile_ms_max", compile_ms.iter().copied().fold(0.0, f64::max), "ms");
    let cad_ms: f64 = landed.iter().map(|c| c.decompile_us / 1e3 + c.compile_ms).sum();
    m.push("warp-core.cad_frac", cad_ms / (window.elapsed_ns as f64 / 1e6), "ratio");
    // Host counters of the shared cache over the window. Its misses
    // count real recompiles and modeled rewrites alike (an image-store
    // rescue re-inserts without compiling).
    let (before, after) = window.cache;
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    m.push(
        "warp-core.cache_hit_rate",
        if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        "ratio",
    );
    let evictions = (after.evictions - before.evictions) as f64;
    m.push(
        "warp-core.cache_evictions_per_op",
        evictions / window.records.len().max(1) as f64,
        "count",
    );

    let n_wire = rig.shape.ladder_wire_ops;
    let (wire_reports, bad) = wire_rung(rig, n_wire, tracer);
    attempted += n_wire;
    failed += bad;
    // The socket share compares per-call medians, since the script's
    // query repeats until its stepped slice has run. It leaves out
    // `report`: that call waits for the session to finish, which
    // overlaps the other calls differently over TCP and in process.
    let (mut rtt_total, mut handle_total) = (0.0, 0.0);
    for (side, total) in [("wire.rtt", &mut rtt_total), ("wire.handle", &mut handle_total)] {
        for call in WIRE_CALLS {
            let p50 = median(&tracer.durations_us(side, call));
            if call != "report" {
                *total += p50;
            }
            m.push(&format!("{side}_us_p50.{call}"), p50, "us");
        }
    }
    m.push("wire.socket_frac", 1.0 - handle_total / rtt_total, "ratio");

    let bytes = proto_rung(&wire_reports, tracer);
    m.push("proto.report_bytes", bytes, "bytes");
    m.push(
        "proto.report_encode_us",
        median(&tracer.durations_us("proto", "Response::encode")),
        "us",
    );
    m.push(
        "proto.report_decode_us",
        median(&tracer.durations_us("proto", "Response::decode")),
        "us",
    );

    // Modeled counters, read from the session rung's reports: a single
    // thread replays the same ops in the same order, so without a shared
    // cache these repeat exactly for a seed whenever the modeled
    // timeline does.
    let per_report =
        |f: &dyn Fn(&OnlineReport) -> f64| mean(&reports.iter().map(f).collect::<Vec<_>>());
    m.push("model.sim_cycles_per_op", per_report(&|r| r.cycles as f64), "cycles");
    m.push("model.warps_per_op", per_report(&|r| r.events.len() as f64), "count");
    m.push(
        "model.cache_hit_warps_per_op",
        per_report(&|r| r.events.iter().filter(|e| e.cache_hit).count() as f64),
        "count",
    );
    m.push(
        "model.cad_cycles_per_op",
        per_report(&|r| r.events.iter().map(|e| e.cad_cycles).sum::<u64>() as f64),
        "cycles",
    );
    let ttfw: Vec<f64> =
        reports.iter().filter_map(|r| r.time_to_first_warp()).map(|c| c as f64).collect();
    m.push("model.ttfw_cycles_p50", median(&ttfw), "cycles");

    Ladder { metrics: m, attempted, failed, regions }
}

/// A kernel's warmed program image and a system that replays it: the
/// artifacts a session pool shares between tenants.
struct Prewarmed {
    sys: System,
    image: ProgramImage,
}

impl Prewarmed {
    fn new(built: &BuiltWorkload) -> Self {
        let config = OnlineConfig::default();
        let mut sys = built.instantiate(&config.mb);
        sys.prewarm();
        sys.run(config.max_cycles).expect("warm-up run of the unseeded program");
        sys.prewarm();
        let image = sys.capture_image(built.program.base);
        Prewarmed { sys, image }
    }

    /// Loads `built`'s data onto the pristine image, as a pooled
    /// session starts a repeat.
    fn rearm(&mut self, built: &BuiltWorkload) {
        self.sys.reset_run_state(self.image.entry_pc());
        self.sys.attach_image(&self.image);
        for (addr, words) in &built.data {
            self.sys.load_data(*addr, words).expect("op data fits data BRAM");
        }
    }
}

/// Runs each op's program software-only, once per repeat, into a
/// fresh sink per op. Returns instructions retired and failed ops.
fn engine_rung<S: TraceSink>(
    rig: &Rig,
    images: &mut [Option<Prewarmed>],
    cat: &'static str,
    mut sink: impl FnMut() -> S,
    tracer: &mut Tracer,
) -> (u64, usize) {
    let max_cycles = OnlineConfig::default().max_cycles;
    let (mut insns, mut failed) = (0, 0);
    for seq in 0..rig.shape.ladder_ops {
        let (built, k) = (rig.built(seq), rig.op(seq).kernel);
        let warm =
            images[k].get_or_insert_with(|| Prewarmed::new(&rig.kernels[k].build(features())));
        let mut sink = sink();
        let op = tracer.open(cat, "op", seq as u64, None);
        let mut ok = true;
        for _ in 0..rig.shape.repeats {
            warm.rearm(built);
            let out = tracer.span(cat, "System::run_with_sink", seq as u64, op, || {
                warm.sys.run_with_sink(max_cycles, &mut sink)
            });
            match out {
                Ok(o)
                    if o.stop == StopReason::Exited(0) && built.verify(warm.sys.dmem()).is_ok() =>
                {
                    insns += o.instructions;
                }
                _ => ok = false,
            }
        }
        tracer.close(op);
        failed += usize::from(!ok);
    }
    (insns, failed)
}

/// Drives each op's session to completion on this thread, one
/// scheduling quantum per `advance`, through a pool warmed the way the
/// server's set-up warms its workers.
fn session_rung(rig: &Rig, n: usize, tracer: &mut Tracer) -> (Vec<OnlineReport>, usize) {
    let pool = Arc::new(SessionPool::new());
    for (built, _) in rig.warm_up_programs() {
        let mut session = rig.session(&built).with_pool(Arc::clone(&pool));
        while session.advance(u64::MAX) == SessionStatus::Runnable {}
    }
    let (mut reports, mut failed) = (Vec::with_capacity(n), 0);
    for seq in 0..n {
        let mut session = rig.session(rig.built(seq)).with_pool(Arc::clone(&pool));
        let op = tracer.open("warp-online", "op", seq as u64, None);
        while tracer.span("warp-online", "OnlineSession::advance", seq as u64, op, || {
            session.advance(QUANTUM_SLICES)
        }) == SessionStatus::Runnable
        {}
        tracer.close(op);
        match session.into_outcome() {
            Some(Ok(report)) if report.exit_code == 0 => reports.push(report),
            other => {
                eprintln!("warp-online rung op {seq}: {other:?}");
                failed += 1;
            }
        }
    }
    (reports, failed)
}

/// Decompiles and compiles, from scratch, every distinct region that
/// landed as a warp in the window's ops, on the program of the first op
/// that warped it, `CAD_REPEATS` times each (medians). A region's spans
/// carry its index in the returned list as their op id.
fn cad_rung(rig: &Rig, window: &Window, tracer: &mut Tracer) -> Vec<RegionCad> {
    let mut first_op: BTreeMap<(usize, u32, u32), usize> = BTreeMap::new();
    for r in &window.records {
        for &(head, tail) in &r.warped {
            first_op.entry((r.kernel, head, tail)).or_insert(r.seq);
        }
    }
    let mut regions = Vec::with_capacity(first_op.len());
    for (i, (&(kernel, head, tail), &seq)) in first_op.iter().enumerate() {
        let (built, id) = (rig.built(seq), i as u64);
        let region = HotRegion { head, tail, count: 0 };
        for _ in 0..CAD_REPEATS {
            let decompiled = tracer.span("warp-core", "pipeline::decompile", id, None, || {
                pipeline::decompile(built, &region)
            });
            // A region the decompiler rejects costs only the attempt;
            // one the fabric rejects still paid for the whole chain.
            if let Ok(decompiled) = decompiled {
                let compiled =
                    tracer.span("warp-core", "pipeline::compile_circuit", id, None, || {
                        pipeline::compile_circuit(&decompiled)
                    });
                black_box(compiled.is_ok());
            }
        }
        regions.push(RegionCad {
            kernel,
            head,
            tail,
            decompile_us: median(&tracer.op_durations_us("warp-core", "pipeline::decompile", id)),
            compile_ms: median(&tracer.op_durations_us(
                "warp-core",
                "pipeline::compile_circuit",
                id,
            )) / 1e3,
        });
    }
    regions
}

/// Runs each op's wire script against a served `WireServer` over
/// loopback and against a twin's in-process `handle`. Returns the
/// reports that crossed the socket and the failed ops.
fn wire_rung(rig: &Rig, n: usize, tracer: &mut Tracer) -> (Vec<OnlineReport>, usize) {
    let config = ServeConfig { workers: rig.shape.workers, quantum_slices: QUANTUM_SLICES };
    let bind = || {
        WireServer::bind(
            "127.0.0.1:0",
            config.clone(),
            Arc::new(CircuitCache::bounded(CACHE_CAPACITY)),
        )
        .expect("bind a loopback port")
    };
    let served = bind();
    let mut client = Client::connect(served.local_addr().expect("bound address"))
        .expect("connect over loopback");
    drop(served.spawn());
    let twin = bind();
    let shape = &rig.shape;
    if shape.share_cache {
        let mut off = Tracer::new(false, Instant::now(), 0);
        for (built, seed) in rig.warm_up_programs() {
            for outcome in [
                script(&mut client, &built, seed, shape, &mut off, "warm-up", 0, None),
                script(&mut &twin, &built, seed, shape, &mut off, "warm-up", 0, None),
            ] {
                outcome.expect("warm-up tenant verifies");
            }
        }
    }
    let (mut reports, mut failed) = (Vec::with_capacity(n), 0);
    for seq in 0..n {
        let (built, seed, s) = (rig.built(seq), rig.op(seq).data_seed, seq as u64);
        let op = tracer.open("wire.rtt", "op", s, None);
        let remote = script(&mut client, built, seed, shape, tracer, "wire.rtt", s, op);
        tracer.close(op);
        let op = tracer.open("wire.handle", "op", s, None);
        let local = script(&mut &twin, built, seed, shape, tracer, "wire.handle", s, op);
        tracer.close(op);
        match (remote, local) {
            (Ok(r), Ok(l)) if r.exit_code == 0 && l.exit_code == 0 => reports.push(r),
            other => {
                eprintln!("wire rung op {seq}: {other:?}");
                failed += 1;
            }
        }
    }
    (reports, failed)
}

/// Encodes and decodes each report. Returns the mean encoded size.
fn proto_rung(reports: &[OnlineReport], tracer: &mut Tracer) -> f64 {
    let mut sizes = Vec::with_capacity(reports.len());
    for (i, report) in reports.iter().enumerate() {
        let response = Response::Report(report.clone());
        let mut bytes = Vec::new();
        for _ in 0..CODEC_REPEATS {
            bytes = tracer.span("proto", "Response::encode", i as u64, None, || {
                black_box(&response).encode()
            });
        }
        sizes.push(bytes.len() as f64);
        for _ in 0..CODEC_REPEATS {
            let decoded = tracer
                .span("proto", "Response::decode", i as u64, None, || {
                    Response::decode(black_box(&bytes))
                })
                .expect("an encoded report decodes");
            assert_eq!(decoded, response, "reports round-trip the codec");
        }
    }
    mean(&sizes)
}
