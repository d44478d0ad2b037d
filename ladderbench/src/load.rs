//! The three workloads: their set-up, and the closed loop that drives
//! their ops through the public serving APIs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mb_isa::MbFeatures;
use warp_core::{CacheStats, CadService, CircuitCache};
use warp_online::{OnlineConfig, OnlineReport, OnlineSession, TopKPolicy};
use warp_serve::proto::{Request, Response};
use warp_serve::tcp::{Client, WireServer};
use warp_serve::{ServeConfig, ServeError, Server};
use workloads::{BuiltWorkload, Workload};

use crate::host;
use crate::opgen::{self, Mix, Op};
use crate::stats::percentile;
use crate::trace::{SpanId, Tracer};

/// Scheduler slices a worker runs a session for before requeueing it
/// (the serving default).
pub const QUANTUM_SLICES: u64 = 32;
/// Entries of the shared circuit cache: fewer than the eight kernels,
/// so the cache must evict.
pub const CACHE_CAPACITY: usize = 6;
/// Warp policy of every session: at most this many warped regions.
pub const TOP_K: u32 = 2;
/// Minimum profiler heat before a region is warped.
pub const MIN_COUNT: u64 = 256;
/// First Chrome-trace track of the op-lifetime lanes.
const OP_LANES: u32 = 100;
/// Pause between the wire script's queries for its stepped slice.
const POLL: Duration = Duration::from_micros(50);
/// How long the wire script waits for its stepped slice to run.
const STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// The warm serving path: Zipf kernels, shared cache, CAD in set-up.
    FleetZipf,
    /// The default tenancy: uniform kernels, no shared cache, one CAD
    /// thread recompiling every session's regions.
    TenantCold,
    /// The control plane: scripted short sessions over loopback TCP.
    WireRpc,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::FleetZipf, Kind::TenantCold, Kind::WireRpc];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetZipf => "fleet_zipf",
            Kind::TenantCold => "tenant_cold",
            Kind::WireRpc => "wire_rpc",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's load and session parameters.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Kind::FleetZipf => Shape {
                mix: Mix::Zipf,
                // One worker leaves the second CPU to the load thread
                // and the host: with two busy workers the figures moved
                // twice as far from run to run.
                workers: 1,
                outstanding: 8,
                connections: 0,
                repeats: 4,
                share_cache: true,
                decks: 1,
                ladder_ops: 256,
                ladder_wire_ops: 64,
            },
            Kind::TenantCold => Shape {
                mix: Mix::Uniform,
                workers: 2,
                outstanding: 4,
                connections: 0,
                repeats: 4,
                share_cache: false,
                // Each program is also run once more, standalone, as
                // the reference its reports are checked against.
                decks: 64,
                ladder_ops: 48,
                ladder_wire_ops: 16,
            },
            Kind::WireRpc => Shape {
                mix: Mix::Uniform,
                workers: 1,
                outstanding: 2,
                connections: 2,
                repeats: 1,
                share_cache: true,
                decks: 128,
                ladder_ops: 256,
                ladder_wire_ops: 128,
            },
        }
    }
}

/// What differs between the workloads.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// How op kernels are drawn.
    pub mix: Mix,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Ops the load keeps in flight.
    pub outstanding: usize,
    /// Wire client connections, each driven by its own load thread (0:
    /// one load thread calls the in-process server).
    pub connections: usize,
    /// End-to-end executions per session.
    pub repeats: u32,
    /// Whether sessions attach the shared circuit cache; a workload
    /// that shares warms it with one tenant per kernel during set-up.
    pub share_cache: bool,
    /// Whole kernel decks ([`Mix::deck`]) the set-up builds programs
    /// for; the op sequence repeats with that period, and every whole
    /// period holds the mix exactly.
    pub decks: usize,
    /// Leading ops of the sequence the ladder's rungs replay.
    pub ladder_ops: usize,
    /// Leading ops the ladder's wire rung replays.
    pub ladder_wire_ops: usize,
}

impl Shape {
    /// Threads generating load.
    #[must_use]
    pub fn load_threads(&self) -> usize {
        self.connections.max(1)
    }
}

/// One measured op: a tenant session from submission to verified report.
pub struct OpRecord {
    /// Position in the op sequence.
    pub seq: usize,
    /// Index into [`opgen::kernels`].
    pub kernel: usize,
    /// Completion time, from the window's start.
    pub done_ns: u64,
    /// Submission to verified report.
    pub latency_ns: u64,
    /// Software instructions the session retired.
    pub instructions: u64,
    /// Modeled counters from the report: simulated cycles, warps
    /// landed, warps served from the circuit cache, CAD cycles charged.
    pub modeled: [u64; 4],
    /// Each landed warp's region, as (loop head, loop tail).
    pub warped: Vec<(u32, u32)>,
    /// Whether the report came back clean (see [`Rig::record`]).
    pub verified: bool,
    /// The report itself, kept where it is checked against a reference
    /// (boxed: records of every other op stay small).
    pub report: Option<Box<OnlineReport>>,
}

/// When a closed loop stops submitting.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Ops continue the rig's sequence until this instant.
    At(Instant),
    /// Exactly the first `n` ops of the sequence.
    First(usize),
}

/// A set-up workload: its server, op sequence and built programs.
pub struct Rig {
    /// Which workload.
    pub kind: Kind,
    /// Its parameters.
    pub shape: Shape,
    /// The kernels ops draw from.
    pub kernels: Vec<Workload>,
    /// One period of the op sequence.
    pub ops: Vec<Op>,
    /// Each op's seeded program, built in set-up.
    pub bank: Vec<Arc<BuiltWorkload>>,
    /// The circuit cache sharing sessions attach.
    pub cache: Arc<CircuitCache>,
    /// The one CAD thread in-process sessions share.
    pub cad: Arc<CadService>,
    /// The scheduler (for `wire_rpc`, the wire server's core).
    pub server: Arc<Server>,
    clients: Vec<Mutex<Client>>,
    seed: u64,
    next: AtomicUsize,
}

impl Rig {
    /// Starts the server, builds every op program, and (when sessions
    /// share the cache) runs one warm-up tenant per kernel.
    #[must_use]
    pub fn set_up(kind: Kind, seed: u64) -> Rig {
        let shape = kind.shape();
        let kernels = opgen::kernels();
        let cache = Arc::new(CircuitCache::bounded(CACHE_CAPACITY));
        let config = ServeConfig { workers: shape.workers, quantum_slices: QUANTUM_SLICES };
        let (server, clients) = if shape.connections > 0 {
            let wire = WireServer::bind("127.0.0.1:0", config, Arc::clone(&cache))
                .expect("bind a loopback port");
            let addr = wire.local_addr().expect("bound address");
            let server = Arc::clone(wire.core());
            // The accept loop has no shutdown; it idles until exit.
            drop(wire.spawn());
            let clients = (0..shape.connections)
                .map(|_| Mutex::new(Client::connect(addr).expect("connect over loopback")))
                .collect();
            (server, clients)
        } else {
            (Arc::new(Server::start(config)), Vec::new())
        };
        let period = shape.decks * shape.mix.deck(kernels.len()).len();
        let ops = opgen::generate(shape.mix, kernels.len(), seed, period);
        let bank = ops
            .iter()
            .map(|op| Arc::new(kernels[op.kernel].build_seeded(features(), op.data_seed)))
            .collect();
        let rig = Rig {
            kind,
            shape,
            kernels,
            ops,
            bank,
            cache,
            cad: Arc::new(CadService::new(1)),
            server,
            clients,
            seed,
            next: AtomicUsize::new(0),
        };
        if shape.share_cache {
            rig.warm_up();
        }
        rig
    }

    /// Warm-up tenants: one per kernel, their own data seeds.
    pub fn warm_up_programs(&self) -> Vec<(Arc<BuiltWorkload>, u64)> {
        let seeds = opgen::warm_up_seeds(self.seed, self.kernels.len());
        self.kernels
            .iter()
            .zip(seeds)
            .map(|(k, seed)| (Arc::new(k.build_seeded(features(), seed)), seed))
            .collect()
    }

    fn warm_up(&self) {
        let programs = self.warm_up_programs();
        let mut off = Tracer::new(false, Instant::now(), 0);
        if let Some(client) = self.clients.first() {
            let mut client = client.lock().expect("client lock");
            for (built, seed) in &programs {
                script(&mut *client, built, *seed, &self.shape, &mut off, "warm-up", 0, None)
                    .expect("warm-up tenant verifies");
            }
            return;
        }
        let ids: Vec<_> = programs
            .iter()
            .map(|(built, _)| {
                let id = self.server.create(self.session(built));
                self.server.run(id).expect("session just created");
                id
            })
            .collect();
        for id in ids {
            let report = self.server.wait(id).expect("warm-up tenant verifies");
            assert_eq!(report.exit_code, 0, "warm-up tenant exits cleanly");
        }
    }

    /// Op `seq`'s program.
    #[must_use]
    pub fn built(&self, seq: usize) -> &Arc<BuiltWorkload> {
        &self.bank[seq % self.bank.len()]
    }

    /// Op `seq`'s kernel and data seed.
    #[must_use]
    pub fn op(&self, seq: usize) -> Op {
        self.ops[seq % self.ops.len()]
    }

    /// A session configured as this workload's tenants are.
    #[must_use]
    pub fn session(&self, built: &Arc<BuiltWorkload>) -> OnlineSession {
        let config = OnlineConfig { repeats: self.shape.repeats, ..OnlineConfig::default() };
        let session = OnlineSession::new(Arc::clone(built), config)
            .with_policy(TopKPolicy { k: TOP_K as usize, min_count: MIN_COUNT })
            .with_service(Arc::clone(&self.cad));
        if self.shape.share_cache {
            session.with_cache(Arc::clone(&self.cache))
        } else {
            session
        }
    }

    fn next_seq(&self, stop: Stop, submitted: usize) -> Option<usize> {
        match stop {
            Stop::At(deadline) => {
                (Instant::now() < deadline).then(|| self.next.fetch_add(1, Ordering::Relaxed))
            }
            Stop::First(n) => (submitted < n).then_some(submitted),
        }
    }

    /// Measures `seconds` of closed-loop load. Ops continue the sequence
    /// where the last window stopped; ops in flight at the deadline
    /// drain and count.
    #[must_use]
    pub fn measure(&self, seconds: f64, tracer: &Tracer) -> Window {
        let cache_before = self.cache.stats();
        let (cpu_before, steal_before) = (host::cpu_ms(), host::steal_s());
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let loads: Vec<(Vec<OpRecord>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shape.load_threads())
                .map(|i| {
                    let mut tracer = tracer.fork(i as u32 + 1);
                    scope.spawn(move || {
                        let stop = Stop::At(deadline);
                        let records = match self.clients.get(i) {
                            Some(client) => {
                                let mut client = client.lock().expect("client lock");
                                self.wire_loop(&mut client, stop, start, &mut tracer)
                            }
                            None => self.serve_loop(stop, start, &mut tracer, "window"),
                        };
                        (records, tracer)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load thread")).collect()
        });
        let mut window = Window {
            records: Vec::new(),
            elapsed_ns: nanos(start.elapsed()),
            cpu_ms: host::cpu_ms() - cpu_before,
            steal_s: host::steal_s() - steal_before,
            cache: (cache_before, self.cache.stats()),
            tracer: tracer.fork(0),
        };
        for (records, t) in loads {
            // The first thread's records are moved, not copied, so a
            // single load thread adds no second copy to the peak memory.
            if window.records.is_empty() {
                window.records = records;
            } else {
                window.records.extend(records);
            }
            window.tracer.absorb(t);
        }
        window.records.sort_by_key(|r| r.done_ns);
        window
    }

    /// Keeps `outstanding` sessions in flight through the in-process
    /// server, waiting on the oldest, until `stop`.
    pub fn serve_loop(
        &self,
        stop: Stop,
        start: Instant,
        tracer: &mut Tracer,
        cat: &'static str,
    ) -> Vec<OpRecord> {
        let depth = self.shape.outstanding;
        let mut pending = VecDeque::with_capacity(depth);
        let mut records = Vec::new();
        let mut submitted = 0;
        loop {
            while pending.len() < depth {
                let Some(seq) = self.next_seq(stop, submitted) else { break };
                submitted += 1;
                let t0 = Instant::now();
                // Oldest-first waits mean op `seq` starts only after op
                // `seq - depth` finished, so `seq % depth` lanes never overlap.
                let lane = OP_LANES + (seq % depth) as u32;
                let op = tracer.open_on(lane, cat, "op", seq as u64, None);
                let s = seq as u64;
                let session =
                    tracer.span(cat, "OnlineSession::new", s, op, || self.session(self.built(seq)));
                let id = tracer.span(cat, "Server::create", s, op, || self.server.create(session));
                tracer
                    .span(cat, "Server::run", s, op, || self.server.run(id))
                    .expect("grant to a session just created");
                pending.push_back((seq, id, t0, op));
            }
            let Some((seq, id, t0, op)) = pending.pop_front() else { break };
            let outcome = tracer.span(cat, "Server::wait", seq as u64, op, || self.server.wait(id));
            let record = self.record(seq, outcome.map_err(|e| e.to_string()), t0, start);
            tracer.close(op);
            records.push(record);
        }
        records
    }

    /// Runs scripted wire sessions back to back on one connection.
    fn wire_loop(
        &self,
        client: &mut Client,
        stop: Stop,
        start: Instant,
        tracer: &mut Tracer,
    ) -> Vec<OpRecord> {
        let mut records = Vec::new();
        let mut submitted = 0;
        while let Some(seq) = self.next_seq(stop, submitted) {
            submitted += 1;
            let t0 = Instant::now();
            let op = tracer.open("window", "op", seq as u64, None);
            let (built, seed) = (self.built(seq), self.op(seq).data_seed);
            let outcome =
                script(client, built, seed, &self.shape, tracer, "window", seq as u64, op);
            records.push(self.record(seq, outcome, t0, start));
            tracer.close(op);
        }
        records
    }

    /// Times and checks one finished op. Verified means the session
    /// passed the golden-model check on every repeat (a failed check
    /// ends the session in an error), exited with code 0, and reports
    /// the op's own kernel and repeat count.
    fn record(
        &self,
        seq: usize,
        outcome: Result<OnlineReport, String>,
        t0: Instant,
        start: Instant,
    ) -> OpRecord {
        let done = Instant::now();
        let built = self.built(seq);
        let mut record = OpRecord {
            seq,
            kernel: self.op(seq).kernel,
            done_ns: nanos(done - start),
            latency_ns: nanos(done - t0),
            instructions: 0,
            modeled: [0; 4],
            warped: Vec::new(),
            verified: false,
            report: None,
        };
        match outcome {
            Ok(r) => {
                record.verified =
                    r.exit_code == 0 && r.name == built.name && r.repeats == self.shape.repeats;
                if !record.verified {
                    eprintln!("op {seq} ({}): unverified report {r:?}", built.name);
                }
                record.instructions = r.instructions;
                record.modeled = [
                    r.cycles,
                    r.events.len() as u64,
                    r.events.iter().filter(|e| e.cache_hit).count() as u64,
                    r.events.iter().map(|e| e.cad_cycles).sum(),
                ];
                record.warped = r.events.iter().map(|e| (e.head, e.tail)).collect();
                record.report = (self.kind == Kind::TenantCold).then(|| Box::new(r));
            }
            Err(e) => eprintln!("op {seq} ({}) failed: {e}", built.name),
        }
        record
    }
}

/// The feature set every program is built for.
#[must_use]
pub fn features() -> MbFeatures {
    MbFeatures::paper_default()
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("window shorter than 584 years")
}

/// A wire endpoint: a TCP client, or a server's in-process dispatch.
pub trait Rpc {
    /// Sends one request and returns its response.
    ///
    /// # Errors
    ///
    /// Socket or codec failure.
    fn rpc(&mut self, req: Request) -> Result<Response, ServeError>;
}

impl Rpc for Client {
    fn rpc(&mut self, req: Request) -> Result<Response, ServeError> {
        self.call(&req)
    }
}

impl Rpc for &WireServer {
    fn rpc(&mut self, req: Request) -> Result<Response, ServeError> {
        Ok(self.handle(req))
    }
}

/// One scripted short session: create, step one slice, query until
/// that slice has run, patch the already-executed entry word with its
/// own value (a copy-on-patch detach with no change in behaviour), run,
/// and take the report. Each call is a `cat` span under `parent`.
///
/// # Errors
///
/// The failing call and what went wrong.
#[allow(clippy::too_many_arguments)] // one op's identity plus its span context
pub fn script(
    rpc: &mut impl Rpc,
    built: &BuiltWorkload,
    seed: u64,
    shape: &Shape,
    tracer: &mut Tracer,
    cat: &'static str,
    op: u64,
    parent: Option<SpanId>,
) -> Result<OnlineReport, String> {
    let mut call = |name: &'static str, req: Request| match tracer.span(
        cat,
        name,
        op,
        parent,
        || rpc.rpc(req),
    ) {
        Ok(Response::Error(e)) => Err(format!("{name}: {e}")),
        Ok(resp) => Ok(resp),
        Err(e) => Err(format!("{name}: {e}")),
    };
    fn unexpected<T>(name: &str, resp: &Response) -> Result<T, String> {
        Err(format!("{name}: unexpected {resp:?}"))
    }
    let create = Request::Create {
        workload: built.name.clone(),
        seed,
        k: TOP_K,
        min_count: MIN_COUNT,
        slice_cycles: 0,
        repeats: shape.repeats,
        share_cache: shape.share_cache,
    };
    let id = match call("create", create)? {
        Response::Created(id) => id,
        other => return unexpected("create", &other),
    };
    match call("step", Request::Step { id, slices: 1 })? {
        Response::Ok => {}
        other => return unexpected("step", &other),
    }
    // `step` only queues the grant. Query until the slice has run, so
    // the patch lands on the session's live, image-attached system (a
    // copy-on-patch detach) rather than before its first slice.
    let deadline = Instant::now() + STEP_TIMEOUT;
    loop {
        match call("query", Request::Query(id))? {
            Response::Status(s) if s.slices >= 1 => break,
            Response::Status(_) if Instant::now() < deadline => std::thread::sleep(POLL),
            Response::Status(_) => return Err(format!("step: no slice ran in {STEP_TIMEOUT:?}")),
            other => return unexpected("query", &other),
        }
    }
    let entry = built.program.base;
    let word = built.program.words[0];
    for (name, req) in [
        ("patch", Request::Patch { id, addr: entry, words: vec![word] }),
        ("run", Request::Run(id)),
    ] {
        match call(name, req)? {
            Response::Ok => {}
            other => return unexpected(name, &other),
        }
    }
    match call("report", Request::Report(id))? {
        Response::Report(report) => Ok(report),
        other => unexpected("report", &other),
    }
}

/// One closed-loop measurement.
pub struct Window {
    /// Every op that finished, by completion time.
    pub records: Vec<OpRecord>,
    /// Start to the last drained completion.
    pub elapsed_ns: u64,
    /// Process CPU time over the window ([`host::cpu_ms`]).
    pub cpu_ms: f64,
    /// Steal time per CPU over the window ([`host::steal_s`]): a noise
    /// diagnostic, not part of any figure.
    pub steal_s: f64,
    /// Shared-cache counters before and after.
    pub cache: (CacheStats, CacheStats),
    /// The load threads' spans.
    pub tracer: Tracer,
}

/// End-to-end figures over a whole window.
#[derive(Clone, Copy, Default)]
pub struct EndToEnd {
    /// Verified ops completed per second.
    pub ops_per_s: f64,
    /// Median op latency, submission to verified report.
    pub op_p50_ms: f64,
    /// 90th-percentile op latency.
    pub op_p90_ms: f64,
    /// Simulated software instructions retired per host second, in
    /// millions.
    pub minsn_per_s: f64,
    /// Process CPU time per op.
    pub cpu_ms_per_op: f64,
}

impl Window {
    /// Ops that finished verified.
    #[must_use]
    pub fn verified(&self) -> usize {
        self.records.iter().filter(|r| r.verified).count()
    }

    /// Figures over the verified ops of the whole window.
    #[must_use]
    pub fn end_to_end(&self) -> EndToEnd {
        let done: Vec<&OpRecord> = self.records.iter().filter(|r| r.verified).collect();
        let secs = self.elapsed_ns as f64 / 1e9;
        let latency: Vec<f64> = done.iter().map(|r| r.latency_ns as f64 / 1e6).collect();
        let insns: u64 = done.iter().map(|r| r.instructions).sum();
        EndToEnd {
            ops_per_s: done.len() as f64 / secs,
            op_p50_ms: percentile(&latency, 50.0),
            op_p90_ms: percentile(&latency, 90.0),
            minsn_per_s: insns as f64 / 1e6 / secs,
            cpu_ms_per_op: self.cpu_ms / done.len().max(1) as f64,
        }
    }
}
