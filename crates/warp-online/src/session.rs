//! The online warp runtime: one owned, resumable state machine.
//!
//! An [`OnlineSession`] interleaves three actors on a single simulated
//! timeline:
//!
//! * the **MicroBlaze**, executing the workload in bounded cycle slices;
//! * the **profiler**, fed every retired instruction during the slice
//!   (it is the slice's [`TraceSink`](mb_sim::TraceSink)) and decayed
//!   on a fixed cadence so it tracks the current program phase;
//! * the **OCPM**, which — once the policy commits to a region — runs
//!   the real CAD chain host-side through the typed
//!   [`warp_core::pipeline`] stages on a background [`CadService`]
//!   worker, while the *modeled* lean-processor cycle cost is charged
//!   to the timeline; the patch lands only when that budget has elapsed
//!   in simulated time.
//!
//! # Concurrency without nondeterminism
//!
//! The paper's DPM is a separate processor: CAD runs *while* the
//! application keeps executing. The runtime reproduces that overlap in
//! host wall-clock — compilation is submitted to a worker thread at
//! detection and the MicroBlaze keeps simulating slices — without ever
//! letting host speed or `WARP_CAD_THREADS` leak into the modeled
//! timeline. The trick is that the background result is only *consumed*
//! at a boundary computed from modeled quantities: the first slice
//! boundary at-or-after `detected + decompile_floor` (a lower bound on
//! the CAD budget known at detection). If the worker is still running
//! there, the session blocks on it; if it finished earlier, the result
//! waited. Either way every downstream decision — blacklisting,
//! `ready_at`, the patch cycle — happens at the same simulated cycle on
//! every host, so [`OnlineReport`]s are byte-identical across thread
//! counts.
//!
//! Every compile computes through its [`CadService`]'s host store, so
//! the host maps, places, and routes each input once per service, and
//! charges the timeline only for what the session's modeled
//! [`CadCaches`] did not already hold. When a [`CircuitCache`] is
//! attached, a kernel it has memoized skips the CAD chain and pays only
//! the bitstream write, and the cache's [`CadCaches`] are the ones
//! charged: a re-warp of a shifted-but-similar kernel reuses mapped LUT
//! cones, placements, and first-pass net routes, charging only the delta
//! work (see [`warp_core::pipeline::compile_circuit_cached`]). A session
//! without a cache keeps private [`CadCaches`], so tenancy stays
//! invisible to its timeline.
//!
//! Hot-patching happens between slices through
//! [`System::write_imem`], which drops the pre-decoded slots and fused
//! blocks over the written words as it writes, so the next fetch of the
//! loop head sees the jump to the invocation stub. Because the stub
//! marshals the *current* counter, stream pointers, and accumulators, a
//! patch that lands mid-loop is safe: the next pass over the loop head
//! hands the remaining iterations to hardware.
//!
//! A session builds one [`System`] at its first slice (attaching its
//! [`SessionPool`]'s image, if it has one) and keeps it until the
//! report. A repeat re-enters the program on it with fresh registers
//! and data but the same instruction memory, so every patch written —
//! the OCPM's and a tenant's [`OnlineSession::patch_imem`] alike —
//! persists across repeats, as it does in the warp processor's
//! instruction BRAM.
//!
//! # Sliced, owned, and `Send`
//!
//! All of the loop-carried state — the simulated [`System`], the
//! profiler, the OCPM's in-flight/pending CAD job, the active patch,
//! the warp-event timeline — lives in the session struct.
//! [`OnlineSession::advance`] executes a bounded number of scheduler
//! slices before handing control back, and [`OnlineSession::run`]
//! advances to completion in one call.
//!
//! That inversion is what makes **warp-as-a-service** possible: a
//! session is `Send` and `'static` (it owns its workload via `Arc` and
//! shares the [`CircuitCache`]/[`CadService`] via `Arc`), so a server
//! can host thousands of them and time-slice runnable sessions across a
//! fixed worker pool, migrating a session between threads at any
//! `advance` boundary. Every slice does the same join/patch/detect work
//! in the same order whatever the slicing, so a served session's
//! [`OnlineReport`] is bit-identical to [`OnlineSession::run`] on the
//! same workload, no matter how its slices interleave with other
//! sessions or how many worker threads the server uses. The
//! compile-time `assert_send` at the bottom of this module keeps
//! regressions from ever reaching the server.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use mb_sim::{MbConfig, ProgramImage, StopReason, System};
use warp_core::dpm::{costs, DpmReport};
use warp_core::pipeline::{self, CompiledWcla};
use warp_core::{CadHandle, CadService, CircuitCache, WarpError, WarpOptions};
use warp_profiler::{HotRegion, Profiler};
use warp_wcla::patch::{apply_patch, revert_patch, PatchPlan};
use warp_wcla::CadCaches;
use warp_wcla::{WclaDevice, WclaStats, WCLA_BASE, WCLA_WINDOW};
use workloads::BuiltWorkload;

use crate::error::OnlineError;
use crate::policy::{PolicyCtx, ThresholdPolicy, WarpPolicy};
use crate::pool::SessionPool;
use crate::report::{OnlineReport, WarpEvent};
use crate::slot::SharedSlot;

/// Knobs of the online runtime.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Simulated system configuration (features are overridden per
    /// workload by [`BuiltWorkload::instantiate`]).
    pub mb: MbConfig,
    /// The warp flow's options: profiler geometry, power models, and —
    /// crucially here — `dpm_clock_hz`, the clock of the lean OCPM
    /// processor that the CAD cycle budget is converted with.
    pub options: WarpOptions,
    /// Cycle budget per scheduler slice. Smaller slices react faster
    /// (detection and patching happen at slice boundaries) but cost
    /// more host-side scheduling; one slice should cover at least a
    /// few hundred kernel iterations.
    pub slice_cycles: u64,
    /// Profiler decay cadence, in slices (0 disables decay). Decay is
    /// what lets the ranking *forget* a phase that ended or a kernel
    /// that moved to hardware.
    pub decay_interval: u32,
    /// Number of times to run the application end-to-end on one
    /// timeline. Every repeat re-enters the program on the session's
    /// one machine, whose instruction memory persists, so patches
    /// persist across repeats — a re-entered program starts warped, the
    /// paper's "transparent optimization amortized over reuse".
    pub repeats: u32,
    /// Hard timeline budget across all repeats.
    pub max_cycles: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            mb: MbConfig::paper_default(),
            options: WarpOptions::default(),
            slice_cycles: 20_000,
            decay_interval: 16,
            repeats: 1,
            max_cycles: 2_000_000_000,
        }
    }
}

/// What [`OnlineSession::advance`] left behind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionStatus {
    /// The program has more work; call `advance` again.
    Runnable,
    /// All repeats exited and verified; the [`OnlineReport`] is ready
    /// ([`OnlineSession::into_outcome`]).
    Finished,
    /// The run failed; the [`OnlineError`] is in
    /// [`OnlineSession::into_outcome`].
    Failed,
}

/// A committed warp whose CAD budget is still elapsing on the timeline.
struct PendingWarp {
    region: HotRegion,
    compiled: Arc<CompiledWcla>,
    plan: PatchPlan,
    detected_cycle: u64,
    cad_cycles: u64,
    ready_at: u64,
    cache_hit: bool,
}

/// A committed warp whose CAD chain is still running on a background
/// worker. Decompilation and patch planning already happened
/// synchronously at detection; only compilation is in flight.
struct InFlightWarp {
    region: HotRegion,
    plan: PatchPlan,
    detected_cycle: u64,
    /// First timeline cycle at which the background result may be
    /// consumed: detection plus the decompile floor — a lower bound on
    /// the modeled CAD budget computable *without* compiling. Joining
    /// no earlier than this keeps the timeline independent of how fast
    /// the host workers are.
    join_at: u64,
    handle: CadHandle<Result<CompiledWcla, WarpError>>,
}

/// The OCPM's one-job-at-a-time state machine.
enum CadState {
    /// No warp committed; detection may run.
    Idle,
    /// Compilation running on a background worker.
    InFlight(InFlightWarp),
    /// Compilation finished (or cache hit); the modeled budget is still
    /// elapsing toward `ready_at`.
    Ready(PendingWarp),
}

/// The warp currently holding the fabric.
struct ActiveWarp {
    region: (u32, u32),
    plan: PatchPlan,
    stats: Arc<Mutex<WclaStats>>,
    event_index: usize,
}

/// The online warp runtime for one workload, sliced for cooperative
/// scheduling. See the module docs.
pub struct OnlineSession {
    built: Arc<BuiltWorkload>,
    config: OnlineConfig,
    policy: Box<dyn WarpPolicy>,
    cache: Option<Arc<CircuitCache>>,
    /// The CAD pool; a session given none creates one at its first
    /// compile.
    service: Option<Arc<CadService>>,
    /// The modeled CAD tiers: the circuit cache's, or private ones
    /// built at the first compile.
    cad_caches: Option<Arc<CadCaches>>,
    /// Shared program images (see [`SessionPool`]), asked once, when
    /// the machine is built.
    pool: Option<Arc<SessionPool>>,

    profiler: Profiler,
    slot: SharedSlot,
    /// The session's one machine, built at its first slice (or first
    /// patch) and kept across every repeat; `None` before that and
    /// after the run completes.
    sys: Option<System>,
    rep: u32,

    cycles: u64,
    instructions: u64,
    slices: u64,
    slices_since_decay: u32,
    exit_code: u32,
    events: Vec<WarpEvent>,
    active: Option<ActiveWarp>,
    cad: CadState,
    blacklist: BTreeSet<(u32, u32)>,

    outcome: Option<Result<OnlineReport, OnlineError>>,
}

impl OnlineSession {
    /// Creates a session with the default [`ThresholdPolicy`] and no
    /// shared circuit cache. A session given no [`CadService`]
    /// ([`with_service`](OnlineSession::with_service)) creates a private
    /// one, sized by `WARP_CAD_THREADS`, at its first compile, so
    /// creating a session starts no thread.
    #[must_use]
    pub fn new(built: Arc<BuiltWorkload>, config: OnlineConfig) -> Self {
        let profiler = Profiler::new(config.options.profiler);
        OnlineSession {
            built,
            config,
            policy: Box::new(ThresholdPolicy { min_count: 2048 }),
            cache: None,
            service: None,
            cad_caches: None,
            pool: None,
            profiler,
            slot: SharedSlot::default(),
            sys: None,
            rep: 0,
            cycles: 0,
            instructions: 0,
            slices: 0,
            slices_since_decay: 0,
            exit_code: 0,
            events: Vec::new(),
            active: None,
            cad: CadState::Idle,
            blacklist: BTreeSet::new(),
            outcome: None,
        }
    }

    /// Replaces the warp policy.
    #[must_use]
    pub fn with_policy(mut self, policy: impl WarpPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Shares a circuit cache: kernels compiled by other sessions (or
    /// previous runs) warm-start this one, paying only reconfiguration
    /// cycles on the timeline; this session's compiles warm everyone
    /// else, including a compile still in flight when the program
    /// exits. The cache's sub-kernel [`CadCaches`] ride along into
    /// background compiles. Without a cache, tenancy stays invisible
    /// to the modeled timeline.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<CircuitCache>) -> Self {
        self.cad_caches = Some(cache.cad_caches());
        self.cache = Some(cache);
        self
    }

    /// Shares a CAD worker pool, and the host store its compiles
    /// compute through, instead of owning one. A server hosting
    /// thousands of sessions passes one pool; results are still
    /// consumed only at deterministic simulated-time boundaries, and
    /// the store never changes the modeled work, so neither the pool
    /// (with its contention) nor the store leaks into the modeled
    /// timeline.
    #[must_use]
    pub fn with_service(mut self, service: Arc<CadService>) -> Self {
        self.service = Some(service);
        self
    }

    /// Shares a [`SessionPool`]: when this session builds its machine,
    /// it attaches the pooled frozen program image (building it on
    /// first use) instead of loading the program and rebuilding
    /// decode/block stores privately. Execution is bit-identical to an
    /// unpooled session — the pool only changes where the program's
    /// tables come from.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<SessionPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches `pool` only if the session has none yet — the hook a
    /// server uses to give every session it hosts the server's pool
    /// without overriding an explicit
    /// [`with_pool`](OnlineSession::with_pool) choice. The pool is read
    /// only when the machine is built, so a session whose machine is
    /// already live keeps it for the rest of its timeline.
    pub fn adopt_pool(&mut self, pool: &Arc<SessionPool>) {
        if self.pool.is_none() {
            self.pool = Some(Arc::clone(pool));
        }
    }

    /// The workload this session runs.
    #[must_use]
    pub fn workload(&self) -> &BuiltWorkload {
        &self.built
    }

    /// Simulated cycles accumulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired in software so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Scheduler slices executed so far.
    #[must_use]
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Warp events landed so far.
    #[must_use]
    pub fn warp_count(&self) -> usize {
        self.events.len()
    }

    /// Timeline cycle of the first landed patch, if any yet.
    #[must_use]
    pub fn time_to_first_warp(&self) -> Option<u64> {
        self.events.first().map(|e| e.patched_cycle)
    }

    /// Current status without advancing.
    #[must_use]
    pub fn status(&self) -> SessionStatus {
        match &self.outcome {
            None => SessionStatus::Runnable,
            Some(Ok(_)) => SessionStatus::Finished,
            Some(Err(_)) => SessionStatus::Failed,
        }
    }

    /// Drives the session to completion on this thread: the one-call
    /// form of calling [`advance`](OnlineSession::advance) until it
    /// stops returning [`Runnable`](SessionStatus::Runnable).
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError`] if the simulated program faults, the
    /// final memory diverges from the golden model, a patch cannot be
    /// applied, a CAD phase fails for a reason other than "region not
    /// implementable" (those are skipped and blacklisted), or the
    /// timeline budget runs out.
    pub fn run(mut self) -> Result<OnlineReport, OnlineError> {
        while self.advance(u64::MAX) == SessionStatus::Runnable {}
        self.into_outcome().expect("advance stops only once the outcome is set")
    }

    /// Consumes the session and returns its outcome: `Some` once
    /// [`advance`](OnlineSession::advance) reported
    /// [`Finished`](SessionStatus::Finished) or
    /// [`Failed`](SessionStatus::Failed), `None` while still runnable.
    #[must_use]
    pub fn into_outcome(self) -> Option<Result<OnlineReport, OnlineError>> {
        self.outcome
    }

    /// Hot-patches the live instruction memory (tenant-driven code
    /// update over the wire protocol) through [`System::write_imem`],
    /// which drops the pre-decoded slots and blocks the words make
    /// stale, so the next fetch of a patched word sees the new code —
    /// exactly the interface the OCPM itself patches through. Like the
    /// OCPM's patch, the write persists across the session's later
    /// repeats: a re-entered program runs on the same instruction
    /// memory.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Patch`] if the write falls outside instruction
    /// memory.
    pub fn patch_imem(&mut self, addr: u32, words: &[u32]) -> Result<(), OnlineError> {
        self.ensure_system()?;
        let sys = self.sys.as_mut().expect("ensure_system populated the system");
        sys.write_imem(addr, words).map_err(OnlineError::Patch)
    }

    /// Builds the session's machine if none is live: load program and
    /// data, and map the fabric slot. The machine then serves every
    /// repeat until the report.
    ///
    /// With a [`SessionPool`], "load program" means attaching the
    /// shared program image (building it on this workload's first use)
    /// to the fresh `System`.
    fn ensure_system(&mut self) -> Result<(), OnlineError> {
        if self.sys.is_some() {
            return Ok(());
        }
        let image = match &self.pool {
            Some(pool) => {
                let key = self.built.fingerprint(&self.config.mb);
                Some(pool.image_or_build(key, || capture_warm_image(&self.built, &self.config))?)
            }
            None => None,
        };
        let mut sys = instantiate(&self.built, &self.config.mb, image.as_deref())?;
        sys.map_peripheral(WCLA_BASE, WCLA_WINDOW, Box::new(self.slot.clone()));
        self.sys = Some(sys);
        Ok(())
    }

    /// Re-enters the program on the same machine: reset run state and
    /// reload data. Instruction memory is untouched, as the warp
    /// processor's instruction BRAM is, so a standing patch is still in
    /// place (the repeat starts warped) and so is any tenant patch or
    /// the stub words of an evicted circuit past the live stub, which
    /// nothing branches to.
    fn rearm_repeat(&mut self) -> Result<(), OnlineError> {
        let sys = self.sys.as_mut().expect("exited repeat had a live system");
        sys.reset_run_state(self.built.program.base);
        load_data(sys, &self.built)
    }

    /// Drops the finished session's `System`. A background compile the
    /// timeline never consumed (the program exited before the join
    /// boundary) still produced a host-side artifact: publish it to the
    /// shared cache so sibling sessions of the same binary never re-pay
    /// the CAD chain.
    fn retire_system(&mut self) {
        self.sys = None;
        if let Some(cache) = &self.cache {
            if let CadState::InFlight(f) = std::mem::replace(&mut self.cad, CadState::Idle) {
                if let Ok(compiled) = f.handle.wait() {
                    cache.insert_compiled(&Arc::new(compiled));
                }
            }
        }
    }

    /// Runs up to `max_slices` scheduler slices (each bounded by the
    /// config's `slice_cycles`) and returns the resulting status. A
    /// finished or failed session returns immediately without work —
    /// `advance` is idempotent past the end.
    ///
    /// Each slice performs the same boundary work whatever the budget:
    /// profiler decay on its cadence, joining a background compile at
    /// its deterministic boundary, landing a ready patch, offering
    /// candidates to the policy, and rolling into the next repeat when
    /// the program exits — so any slicing of a run produces the
    /// identical timeline.
    pub fn advance(&mut self, max_slices: u64) -> SessionStatus {
        for _ in 0..max_slices {
            if self.outcome.is_some() {
                break;
            }
            if let Err(e) = self.step_slice() {
                self.outcome = Some(Err(e));
            }
        }
        self.status()
    }

    /// One scheduler slice plus its boundary work. Sets `outcome` when
    /// the final repeat completes.
    fn step_slice(&mut self) -> Result<(), OnlineError> {
        self.ensure_system()?;
        let sys = self.sys.as_mut().expect("ensure_system populated the system");

        let out = sys
            .run_with_sink(self.config.slice_cycles, &mut self.profiler)
            .map_err(OnlineError::Run)?;
        self.cycles += out.cycles;
        self.instructions += out.instructions;
        self.slices += 1;

        if self.config.decay_interval > 0 {
            self.slices_since_decay += 1;
            if self.slices_since_decay >= self.config.decay_interval {
                self.profiler.decay();
                self.slices_since_decay = 0;
            }
        }

        // Join: the background compile may only be consumed at the
        // first slice boundary at-or-after `join_at`. The host may
        // block here (the worker is slower than the floor) or the
        // result may have been waiting for many slices — the modeled
        // timeline cannot tell the difference.
        if matches!(&self.cad, CadState::InFlight(f) if self.cycles >= f.join_at) {
            let CadState::InFlight(f) = std::mem::replace(&mut self.cad, CadState::Idle) else {
                unreachable!("matched InFlight above")
            };
            match f.handle.wait() {
                Ok(compiled) => {
                    let compiled = Arc::new(compiled);
                    if let Some(c) = &self.cache {
                        c.insert_compiled(&compiled);
                    }
                    let cad_cycles = cad_timeline_cycles(
                        &compiled.dpm,
                        false,
                        self.config.mb.clock_hz,
                        self.config.options.dpm_clock_hz,
                    );
                    self.cad = CadState::Ready(PendingWarp {
                        region: f.region,
                        compiled,
                        plan: f.plan,
                        detected_cycle: f.detected_cycle,
                        cad_cycles,
                        ready_at: f.detected_cycle + cad_cycles,
                        cache_hit: false,
                    });
                }
                // Not WCLA-implementable: blacklisted at this
                // deterministic boundary, software continues.
                Err(e) if rejects_region(&e) => {
                    self.blacklist.insert((f.region.head, f.region.tail));
                }
                Err(e) => return Err(OnlineError::Warp(e)),
            }
        }

        // CAD completion: the pending warp's lean-processor budget has
        // elapsed — hot-patch, unless the PC sits in the stub words
        // about to be rewritten (retry next slice; the stub is
        // straight-line and exits quickly).
        let sys = self.sys.as_mut().expect("system is live within a slice");
        let ready = matches!(&self.cad, CadState::Ready(p) if self.cycles >= p.ready_at);
        if ready && stub_is_clear(sys.cpu().pc(), self.active.as_ref()) {
            let CadState::Ready(p) = std::mem::replace(&mut self.cad, CadState::Idle) else {
                unreachable!("matched Ready above")
            };
            let mut evicted = None;
            if let Some(old) = self.active.take() {
                revert_patch(sys, &old.plan).map_err(OnlineError::Patch)?;
                self.events[old.event_index].hw = *old.stats.lock().expect("wcla stats lock");
                evicted = Some(old.region);
            }
            apply_patch(sys, &p.plan).map_err(OnlineError::Patch)?;
            let (device, stats) =
                WclaDevice::new(Arc::clone(&p.compiled.circuit), self.config.mb.clock_hz);
            self.slot.install(device);
            let event_index = self.events.len();
            let work = p.compiled.work;
            let total_nets = p.compiled.circuit.compiled.route_stats.nets;
            self.events.push(WarpEvent {
                head: p.region.head,
                tail: p.region.tail,
                count_at_detection: p.region.count,
                fingerprint: p.compiled.fingerprint,
                detected_cycle: p.detected_cycle,
                cad_cycles: p.cad_cycles,
                patched_cycle: self.cycles,
                patched_insns: self.instructions,
                cache_hit: p.cache_hit,
                // A whole-circuit hit replayed everything; a (possibly
                // incremental) compile reports what its sub-kernel
                // caches replayed.
                reused_clusters: if p.cache_hit {
                    work.map.clusters
                } else {
                    work.map.clusters_reused
                },
                total_clusters: work.map.clusters,
                rerouted_nets: if p.cache_hit { 0 } else { total_nets - work.fabric.nets_restored },
                total_nets,
                cad_overlap_cycles: self.cycles - p.detected_cycle,
                evicted,
                dpm: p.compiled.dpm,
                model: p.compiled.circuit.model,
                hw: WclaStats::default(),
            });
            self.active = Some(ActiveWarp {
                region: (p.region.head, p.region.tail),
                plan: p.plan,
                stats,
                event_index,
            });
        } else if matches!(self.cad, CadState::Idle) {
            // Detection: offer ranked candidates to the policy.
            let active_key = self.active.as_ref().map(|a| a.region);
            let profiler_stats = self.profiler.stats();
            let ranked = self.profiler.hot_regions();
            let ctx = PolicyCtx {
                active: active_key,
                active_count: active_key
                    .and_then(|(h, t)| ranked.iter().find(|r| (r.head, r.tail) == (h, t)))
                    .map_or(0, |r| r.count),
                warps_committed: self.events.len(),
                timeline_cycles: self.cycles,
                profiler: profiler_stats,
            };
            let blacklist = &self.blacklist;
            let policy = &mut self.policy;
            let candidate = ranked
                .iter()
                .filter(|r| Some((r.head, r.tail)) != active_key)
                .filter(|r| !blacklist.contains(&(r.head, r.tail)))
                .find(|r| policy.should_warp(r, &ctx))
                .copied();
            if let Some(region) = candidate {
                match begin_warp(
                    &self.built,
                    self.cache.as_deref(),
                    &mut self.service,
                    &mut self.cad_caches,
                    &self.config,
                    &region,
                    self.cycles,
                ) {
                    Ok(Some(state)) => self.cad = state,
                    // Not decompilable/patchable: leave the region in
                    // software, permanently.
                    Ok(None) => {
                        self.blacklist.insert((region.head, region.tail));
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        // Detection and patching run on *every* slice boundary,
        // including the one where the program exits: the profiler's
        // view persists across re-entries, so heat retired in a run's
        // final slice (a kernel that finishes right before the exit)
        // must still be able to commit a warp — it lands in the next
        // repeat.
        if let StopReason::Exited(code) = out.stop {
            self.exit_code = code;
            let sys = self.sys.as_ref().expect("exited repeat had a live system");
            self.built.verify(sys.dmem()).map_err(OnlineError::Verify)?;
            self.rep += 1;
            if self.rep >= self.config.repeats.max(1) {
                self.outcome = Some(Ok(self.finalize()));
                self.retire_system();
            } else {
                self.rearm_repeat()?;
            }
            return Ok(());
        }
        if self.cycles >= self.config.max_cycles {
            return Err(OnlineError::BudgetExhausted {
                cycles: self.cycles,
                limit: self.config.max_cycles,
            });
        }
        Ok(())
    }

    /// Builds the final report (last repeat exited and verified).
    fn finalize(&mut self) -> OnlineReport {
        if let Some(a) = &self.active {
            self.events[a.event_index].hw = *a.stats.lock().expect("wcla stats lock");
        }
        OnlineReport {
            name: self.built.name.clone(),
            repeats: self.config.repeats.max(1),
            slices: self.slices,
            cycles: self.cycles,
            instructions: self.instructions,
            exit_code: self.exit_code,
            events: self.events.clone(),
            profiler: self.profiler.stats(),
        }
    }
}

/// `built` on a fresh system under `mb`: its program loaded, or `image`
/// attached in its place, then its data. This is
/// [`BuiltWorkload::instantiate`] with a program or data that does not
/// fit the memories failing the session instead of panicking.
fn instantiate(
    built: &BuiltWorkload,
    mb: &MbConfig,
    image: Option<&ProgramImage>,
) -> Result<System, OnlineError> {
    let mut sys = System::new(mb.clone().with_features(built.features));
    match image {
        Some(image) => sys.attach_image(image),
        None => sys.load_program(&built.program).map_err(OnlineError::Run)?,
    }
    load_data(&mut sys, built)?;
    Ok(sys)
}

fn load_data(sys: &mut System, built: &BuiltWorkload) -> Result<(), OnlineError> {
    for (addr, words) in &built.data {
        sys.load_data(*addr, words).map_err(OnlineError::Run)?;
    }
    Ok(())
}

/// Builds a workload's shared image the way the pool expects: load,
/// prewarm, run one full warm pass (the block store learns the OPB
/// split at the exit store), prewarm again (that learn invalidated the
/// exit-sequence block), capture.
fn capture_warm_image(
    built: &BuiltWorkload,
    config: &OnlineConfig,
) -> Result<ProgramImage, OnlineError> {
    let mut warm = instantiate(built, &config.mb, None)?;
    warm.prewarm();
    // A budget overrun or run error just means a partially warmed
    // image: siblings lazily build (privately) whatever is missing.
    let _ = warm.run(config.max_cycles);
    warm.prewarm();
    Ok(warm.capture_image(built.program.base))
}

/// Whether the PC is outside the stub words an eviction would rewrite.
/// (Patching the loop head itself is always safe — the current
/// iteration completes on the original body and the *next* head fetch
/// sees the jump; only overwriting straight-line stub code under the PC
/// would corrupt execution.)
fn stub_is_clear(pc: u32, active: Option<&ActiveWarp>) -> bool {
    match active {
        None => true,
        Some(a) => {
            let start = a.plan.stub_base;
            let end = start + 4 * a.plan.stub.len() as u32;
            !(start..end).contains(&pc)
        }
    }
}

/// Whether a CAD failure means "region not WCLA-implementable" — the
/// caller blacklists the region and execution simply continues in
/// software, exactly the partitioner's fallback in the paper.
pub(crate) fn rejects_region(e: &WarpError) -> bool {
    matches!(e, WarpError::Decompile(_) | WarpError::Fabric(_) | WarpError::Patch(_))
}

/// Starts the OCPM on a committed region: decompiles, plans the binary
/// rewrite, probes the circuit cache — all synchronously, so their
/// rejections blacklist at the detection boundary — then either returns
/// the cached circuit as [`CadState::Ready`] or submits compilation to
/// a background worker as [`CadState::InFlight`]. The first compile of
/// a session given no service creates it, and the first of a session
/// given no CAD caches builds private ones.
///
/// `Ok(None)` means decompilation or patch planning rejected the
/// region (blacklist it). Fabric rejections surface later, at the
/// in-flight join boundary.
fn begin_warp(
    built: &BuiltWorkload,
    cache: Option<&CircuitCache>,
    service: &mut Option<Arc<CadService>>,
    cad_caches: &mut Option<Arc<CadCaches>>,
    config: &OnlineConfig,
    region: &HotRegion,
    now: u64,
) -> Result<Option<CadState>, OnlineError> {
    let lift = |e: WarpError| -> Result<Option<CadState>, OnlineError> {
        if rejects_region(&e) {
            Ok(None)
        } else {
            Err(OnlineError::Warp(e))
        }
    };

    let decompiled = match pipeline::decompile(built, region) {
        Ok(d) => d,
        Err(e) => return lift(e),
    };
    // The rewrite plan depends only on the kernel and the program
    // image, so it is ready before compilation even starts.
    let plan = match pipeline::plan_patch_kernel(built, &decompiled.kernel) {
        Ok(p) => p.plan,
        Err(e) => return lift(e),
    };

    // A kernel the cache has memoized skips the CAD chain and pays only
    // the bitstream write, becoming resident on-chip again if it had
    // been evicted.
    if let Some(hit) = cache.and_then(|c| c.probe(&decompiled)) {
        let cad_cycles =
            cad_timeline_cycles(&hit.dpm, true, config.mb.clock_hz, config.options.dpm_clock_hz);
        return Ok(Some(CadState::Ready(PendingWarp {
            region: *region,
            compiled: hit,
            plan,
            detected_cycle: now,
            cad_cycles,
            ready_at: now + cad_cycles,
            cache_hit: true,
        })));
    }

    // The earliest the full budget could possibly elapse is the
    // decompile floor — known right here, before compiling anything —
    // so that is the deterministic join boundary for the background
    // result.
    let floor_dpm = decompiled.kernel.body_insns as u64 * costs::DECOMPILE_PER_INSN;
    let join_at =
        now + to_timeline_cycles(floor_dpm, config.mb.clock_hz, config.options.dpm_clock_hz);
    let service = service.get_or_insert_with(|| Arc::new(CadService::from_env()));
    let caches = Arc::clone(cad_caches.get_or_insert_with(Arc::default));
    let store = Arc::clone(service.store());
    let handle = service
        .submit(move || pipeline::compile_circuit_cached(&decompiled, &store, Some(&caches)));
    Ok(Some(CadState::InFlight(InFlightWarp {
        region: *region,
        plan,
        detected_cycle: now,
        join_at,
        handle,
    })))
}

/// Converts modeled OCPM cycles (at its own clock) into MicroBlaze
/// timeline cycles.
fn to_timeline_cycles(dpm_cycles: u64, mb_hz: u64, dpm_hz: u64) -> u64 {
    u64::try_from((u128::from(dpm_cycles) * u128::from(mb_hz)).div_ceil(u128::from(dpm_hz.max(1))))
        .unwrap_or(u64::MAX)
}

/// Converts the OCPM's modeled CAD cycles (at its own clock) into
/// MicroBlaze timeline cycles. A circuit-cache hit skips the whole CAD
/// chain and pays only the reconfiguration — the bitstream write.
///
/// That holds for every kernel the cache has memoised, resident or not:
/// a kernel evicted from the modeled on-chip residency and re-admitted
/// is charged exactly what a resident hit is, the bitstream write, and
/// never a recompile (pinned by `tests/pooling.rs`).
pub(crate) fn cad_timeline_cycles(
    dpm: &DpmReport,
    cache_hit: bool,
    mb_hz: u64,
    dpm_hz: u64,
) -> u64 {
    let dpm_cycles = if cache_hit { dpm.bitstream_cycles } else { dpm.total_cycles() };
    to_timeline_cycles(dpm_cycles, mb_hz, dpm_hz)
}

// The whole point of the session split: a session (with its simulated
// system, mapped fabric slot, in-flight CAD handle, and policy) must be
// an owned value the server can move between worker threads. Fail the
// build, not the server, if any component regains thread-pinned state.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<OnlineSession>();
    assert_send::<SessionStatus>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NeverPolicy, TopKPolicy};
    use mb_isa::MbFeatures;

    fn brev() -> Arc<BuiltWorkload> {
        Arc::new(workloads::by_name("brev").unwrap().build(MbFeatures::paper_default()))
    }

    /// A brev session committing to its kernel early enough to land
    /// mid-run.
    fn brev_session(built: &Arc<BuiltWorkload>, config: OnlineConfig) -> OnlineSession {
        OnlineSession::new(Arc::clone(built), config)
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
    }

    #[test]
    fn never_policy_is_a_pure_software_timeline() {
        let built = brev();
        let report = OnlineSession::new(Arc::clone(&built), OnlineConfig::default())
            .with_policy(NeverPolicy)
            .run()
            .unwrap();
        assert!(report.events.is_empty());
        assert_eq!(report.exit_code, 0);

        // The sliced never-warp timeline is cycle-identical to one
        // monolithic software run.
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let out = sys.run(500_000_000).unwrap();
        assert_eq!(report.cycles, out.cycles);
        assert_eq!(report.instructions, out.instructions);
    }

    #[test]
    fn brev_warps_mid_run_and_finishes_in_hardware() {
        let built = brev();
        let report = brev_session(&built, OnlineConfig::default()).run().unwrap();
        assert_eq!(report.events.len(), 1, "brev's cheap CAD must land within one run");
        let e = &report.events[0];
        assert_eq!((e.head, e.tail), (built.kernel.head, built.kernel.tail));
        assert!(e.patched_cycle >= e.detected_cycle + e.cad_cycles);
        assert!(e.patched_cycle < report.cycles, "patch must land before the program ends");
        assert!(e.hw.invocations >= 1, "the remaining iterations must run in hardware");
        assert!(e.hw.iterations > 0);
        assert!(!e.cache_hit);
        assert_eq!(e.evicted, None);
    }

    #[test]
    fn warm_cache_charges_only_reconfiguration() {
        let built = brev();
        let cache = Arc::new(CircuitCache::new());
        // Slices finer than the CAD budget, so the patch cycle resolves
        // the cold/warm difference instead of quantizing it away.
        let config = OnlineConfig { slice_cycles: 2_000, ..OnlineConfig::default() };
        let cold =
            brev_session(&built, config.clone()).with_cache(Arc::clone(&cache)).run().unwrap();
        let warm = brev_session(&built, config).with_cache(Arc::clone(&cache)).run().unwrap();
        assert!(!cold.events[0].cache_hit);
        assert!(warm.events[0].cache_hit, "the second session must warm-start");
        assert_eq!(warm.events[0].cad_cycles, {
            let dpm = warm.events[0].dpm;
            cad_timeline_cycles(&dpm, true, 85_000_000, warp_core::DEFAULT_DPM_CLOCK_HZ)
        });
        assert!(
            warm.events[0].cad_cycles < cold.events[0].cad_cycles,
            "warm start must shorten time-to-warp"
        );
        assert!(warm.time_to_first_warp().unwrap() < cold.time_to_first_warp().unwrap());
    }

    /// The megablock trace engine must be invisible to the online
    /// runtime: hot patches land between slices while the dispatcher is
    /// mid-trace on the patched loop, and the write must drop the traces
    /// over the written words so the very next head fetch sees the jump
    /// to the invocation stub. A full warped run with traces on therefore
    /// produces the *same* timeline, events, and profiler view as one
    /// with traces off.
    #[test]
    fn warped_timeline_is_identical_with_and_without_traces() {
        let built = brev();
        let run = |mb: MbConfig| {
            brev_session(&built, OnlineConfig { mb, repeats: 2, ..OnlineConfig::default() })
                .run()
                .unwrap()
        };
        let traced = run(MbConfig::paper_default());
        let untraced = run(MbConfig::paper_default().with_traces(false));

        assert_eq!(traced.cycles, untraced.cycles);
        assert_eq!(traced.instructions, untraced.instructions);
        assert_eq!(traced.slices, untraced.slices);
        assert_eq!(traced.exit_code, untraced.exit_code);
        assert_eq!(traced.profiler, untraced.profiler);
        assert_eq!(traced.events.len(), untraced.events.len());
        for (t, u) in traced.events.iter().zip(&untraced.events) {
            assert_eq!((t.head, t.tail), (u.head, u.tail));
            assert_eq!(t.detected_cycle, u.detected_cycle);
            assert_eq!(t.patched_cycle, u.patched_cycle);
            assert_eq!(t.patched_insns, u.patched_insns);
            assert_eq!(t.hw.invocations, u.hw.invocations);
            assert_eq!(t.hw.iterations, u.hw.iterations);
        }
        assert!(traced.events[0].hw.invocations >= 2, "patched kernel must run in hardware");
    }

    #[test]
    fn repeats_accumulate_one_timeline_and_stay_patched() {
        let built = brev();
        let config = OnlineConfig { repeats: 3, ..OnlineConfig::default() };
        let report = brev_session(&built, config.clone()).run().unwrap();
        assert_eq!(report.repeats, 3);
        assert_eq!(report.events.len(), 1, "the standing patch needs no second warp");
        // Repeats 2 and 3 enter the kernel already warped: one
        // invocation from the mid-run patch plus one per warm repeat.
        assert!(report.events[0].hw.invocations >= 3);

        // And the warped repeats are cheaper than software-only ones.
        let sw = OnlineSession::new(built, config).with_policy(NeverPolicy).run().unwrap();
        assert!(report.cycles < sw.cycles, "online {} vs software {}", report.cycles, sw.cycles);
    }

    #[test]
    fn cad_budget_scales_with_the_ocpm_clock() {
        let dpm = DpmReport {
            decompile_cycles: 500,
            synth_cycles: 500,
            bitstream_cycles: 100,
            ..DpmReport::default()
        };
        // Same clock: 1:1.
        assert_eq!(cad_timeline_cycles(&dpm, false, 85_000_000, 85_000_000), 1100);
        // A 10x faster OCPM charges a tenth of the timeline.
        assert_eq!(cad_timeline_cycles(&dpm, false, 85_000_000, 850_000_000), 110);
        // Warm start pays only the reconfiguration.
        assert_eq!(cad_timeline_cycles(&dpm, true, 85_000_000, 85_000_000), 100);
    }

    #[test]
    fn session_slicing_is_invisible_to_the_timeline() {
        let built = brev();
        let run_with_budgets = |budgets: &[u64]| {
            let mut session = brev_session(&built, OnlineConfig::default());
            let mut i = 0;
            while session.advance(budgets[i % budgets.len()]) == SessionStatus::Runnable {
                i += 1;
            }
            session.into_outcome().unwrap().unwrap()
        };
        let one_at_a_time = run_with_budgets(&[1]);
        let ragged = run_with_budgets(&[3, 1, 7, 2]);
        let all_at_once = run_with_budgets(&[u64::MAX]);
        let whole = brev_session(&built, OnlineConfig::default()).run().unwrap();
        assert_eq!(all_at_once, whole, "run() is advance to completion");

        for other in [&ragged, &all_at_once] {
            assert_eq!(one_at_a_time.cycles, other.cycles);
            assert_eq!(one_at_a_time.instructions, other.instructions);
            assert_eq!(one_at_a_time.slices, other.slices);
            assert_eq!(one_at_a_time.events, other.events);
            assert_eq!(one_at_a_time.profiler, other.profiler);
        }
        assert_eq!(one_at_a_time.events.len(), 1);
    }

    #[test]
    fn advance_past_the_end_is_idempotent() {
        let mut session = brev_session(&brev(), OnlineConfig::default());
        while session.advance(4) == SessionStatus::Runnable {}
        let (cycles, slices) = (session.cycles(), session.slices());
        assert_eq!(session.advance(10), SessionStatus::Finished);
        assert_eq!(session.cycles(), cycles);
        assert_eq!(session.slices(), slices);
        assert!(session.warp_count() >= 1);
        assert!(session.time_to_first_warp().unwrap() <= cycles);
    }

    #[test]
    fn sessions_migrate_between_threads_mid_run() {
        // Advance a few slices here, move the session to another thread,
        // finish it there: the report must match a single-thread run.
        let built =
            Arc::new(workloads::by_name("crc32").unwrap().build(MbFeatures::paper_default()));
        let fresh = |built: &Arc<BuiltWorkload>| {
            OnlineSession::new(Arc::clone(built), OnlineConfig::default())
                .with_policy(TopKPolicy { k: 1, min_count: 256 })
        };

        let mut migrated = fresh(&built);
        migrated.advance(5);
        let migrated = std::thread::spawn(move || {
            while migrated.advance(3) == SessionStatus::Runnable {}
            migrated.into_outcome().unwrap().unwrap()
        })
        .join()
        .unwrap();

        let local = fresh(&built).run().unwrap();

        assert_eq!(migrated.cycles, local.cycles);
        assert_eq!(migrated.instructions, local.instructions);
        assert_eq!(migrated.events, local.events);
        assert_eq!(migrated.profiler, local.profiler);
    }

    #[test]
    fn patch_imem_reaches_the_live_system() {
        let built = brev();
        let mut session = OnlineSession::new(Arc::clone(&built), OnlineConfig::default());
        // Overwrite a word far past the program image: harmless to
        // execution, visible through the system's imem.
        let addr = built.program.base + 4 * built.program.words.len() as u32 + 0x100;
        session.patch_imem(addr, &[0xDEAD_BEEF]).unwrap();
        let sys = session.sys.as_ref().unwrap();
        assert_eq!(sys.imem().read_word(addr).unwrap(), 0xDEAD_BEEF);

        // Out-of-range writes surface as patch errors.
        let err = session.patch_imem(u32::MAX - 64, &[1]).unwrap_err();
        assert!(matches!(err, OnlineError::Patch(_)));
    }

    /// A re-entered program runs on the same instruction memory, pooled
    /// or not: a word a tenant wrote past the program during repeat 1 is
    /// still there during repeat 2, and harmless to the run.
    #[test]
    fn patched_words_persist_into_the_next_repeat_pooled_or_not() {
        let built = brev();
        let config = OnlineConfig { slice_cycles: 2_000, repeats: 2, ..OnlineConfig::default() };
        let reference = brev_session(&built, config.clone()).run().unwrap();
        let addr = built.program.base + 4 * built.program.words.len() as u32 + 0x100;
        for pool in [None, Some(Arc::new(SessionPool::new()))] {
            let pooled = pool.is_some();
            let mut session = brev_session(&built, config.clone());
            if let Some(pool) = pool {
                session = session.with_pool(pool);
            }
            session.patch_imem(addr, &[0xDEAD_BEEF]).unwrap();
            while session.rep == 0 {
                assert_eq!(session.advance(1), SessionStatus::Runnable);
            }
            assert_eq!(session.advance(1), SessionStatus::Runnable, "repeat 2 is under way");
            let sys = session.sys.as_ref().expect("repeat 2 runs on a live system");
            assert_eq!(sys.imem().read_word(addr), Ok(0xDEAD_BEEF), "pooled: {pooled}");
            assert_eq!(session.run().unwrap(), reference, "pooled: {pooled}");
        }
    }
}
