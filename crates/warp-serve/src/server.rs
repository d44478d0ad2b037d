//! The sharded session table and the fair-share scheduler.
//!
//! A [`Server`] hosts many [`OnlineSession`]s — each a full online-warp
//! runtime (simulated MicroBlaze + profiler + OCPM) — and time-slices
//! the runnable ones across a fixed pool of worker threads. The design
//! center is the ISSUE's serving model:
//!
//! * **Ownership, not locking.** A session in the table is either
//!   `Parked` (the table owns the boxed state machine), `Running` (a
//!   worker has taken it out and owns it exclusively for one quantum),
//!   or `Done` (only the outcome remains). A session can never be
//!   advanced by two workers at once because only one of them can hold
//!   it; clients that need the machine itself (patch, step) wait on a
//!   condvar until it is parked again.
//! * **One shard per worker.** The session table and ready queue are
//!   split into per-worker shards (a session's home shard is
//!   `id % workers`), so the grant path and the park path touch only
//!   one short shard mutex instead of a fleet-global table lock. A
//!   worker drains its own shard first and steals round-robin from the
//!   others when idle, so load still balances; a fleet-wide `pending`
//!   counter plus a tiny notify-only lock wakes sleeping workers
//!   without ever serializing the slot bookkeeping.
//! * **Ready queues, not polling.** Runnable session ids sit in
//!   per-shard `VecDeque`s; workers block on a condvar when `pending`
//!   is zero. A parked session with no granted slices costs nothing —
//!   no timer, no scan, no wakeup — which is what lets one server hold
//!   thousands of mostly idle tenants.
//! * **Fair round-robin.** A worker advances a session by at most
//!   `quantum_slices` scheduler slices, then pushes it to the *back* of
//!   its shard's ready queue. Long-running sessions therefore
//!   interleave at quantum granularity instead of head-of-line blocking
//!   short ones.
//! * **Slice grants.** Every session carries a budget of granted
//!   slices. [`Server::run`] grants unbounded slices (serve to
//!   completion); [`Server::step`] grants an exact count, which is how
//!   a wire client single-steps a session it is debugging. The workers
//!   decrement grants as they advance, so both modes flow through the
//!   identical scheduling path.
//! * **Per-worker session pools.** Each worker owns a
//!   [`SessionPool`](warp_online::SessionPool) and hands it to every
//!   session it schedules ([`OnlineSession::adopt_pool`]): sessions of
//!   the same workload share one frozen program image and recycle
//!   `System` carcasses, so the steady-state serving path allocates
//!   nothing per session. Pooling is bit-identical plumbing (see
//!   `warp-online/tests/pooling.rs`), so determinism is untouched.
//! * **A panic costs one session.** A worker catches a panic while it
//!   advances a session (from a user policy, say), drops that session,
//!   and parks [`OnlineError::Panicked`] as its outcome for
//!   [`Server::wait`]; the worker keeps serving.
//!
//! Determinism: a session's timeline depends only on the sequence of
//! `advance` calls applied to it, never on wall-clock or on which
//! worker ran it (see the bit-identity tests in `tests/determinism.rs`
//! driving every registry workload at 1 and 8 workers). Attaching a
//! shared [`CircuitCache`](warp_core::CircuitCache) is the one opt-in
//! exception: cross-session cache hits shorten the hitting session's
//! modeled CAD budget, so *which* session pays the cold compile depends
//! on arrival order — the fleet is faster, and each report is still
//! internally consistent, but cross-run bit-identity is traded away.
//! The cache's own counters (hits, misses, evictions) depend on arrival
//! order too.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use warp_online::{
    ImageStore, OnlineError, OnlineReport, OnlineSession, SessionPool, SessionStatus,
};

use crate::error::ServeError;

/// Server-assigned session identifier, unique for the server's life.
pub type SessionId = u64;

/// Tuning knobs of the serving scheduler.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads advancing sessions (clamped to at least 1). The
    /// session table is sharded one shard per worker.
    pub workers: usize,
    /// Scheduler slices one worker runs a session for before requeueing
    /// it (the fairness quantum; clamped to at least 1). With the
    /// default 20k-cycle slices, 32 slices ≈ 640k simulated cycles per
    /// turn.
    pub quantum_slices: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { workers: 4, quantum_slices: 32 }
    }
}

/// Where a session's state machine currently lives.
enum SlotState {
    /// The table owns it; no worker is advancing it.
    Parked(Box<OnlineSession>),
    /// A worker took it out for one quantum.
    Running,
    /// Completed; only the outcome remains (taken by [`Server::wait`]).
    Done(Option<Result<OnlineReport, OnlineError>>),
}

/// Client-visible progress counters, refreshed every time the session
/// parks (so `query` never has to wait for a running session).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionSnapshot {
    /// Simulated cycles accumulated.
    pub cycles: u64,
    /// Instructions retired in software.
    pub instructions: u64,
    /// Scheduler slices executed.
    pub slices: u64,
    /// Warp events landed.
    pub warps: usize,
    /// Timeline cycle of the first landed patch, if any.
    pub time_to_first_warp: Option<u64>,
    /// Whether the session has completed (successfully or not).
    pub done: bool,
}

fn snapshot_of(s: &OnlineSession, done: bool) -> SessionSnapshot {
    SessionSnapshot {
        cycles: s.cycles(),
        instructions: s.instructions(),
        slices: s.slices(),
        warps: s.warp_count(),
        time_to_first_warp: s.time_to_first_warp(),
        done,
    }
}

struct Slot {
    state: SlotState,
    snapshot: SessionSnapshot,
    /// Granted scheduler slices not yet consumed (`u64::MAX` = serve to
    /// completion).
    grant: u64,
    /// Whether the id is already in the ready queue (guards against
    /// double-queueing when grants arrive while queued).
    queued: bool,
}

#[derive(Default)]
struct ShardInner {
    slots: HashMap<SessionId, Slot>,
    ready: VecDeque<SessionId>,
}

/// One worker's slice of the session table. All slot bookkeeping for a
/// session happens under its home shard's lock only.
#[derive(Default)]
struct Shard {
    inner: Mutex<ShardInner>,
    /// Signals clients blocked on this shard (patch, wait): a slot
    /// parked or finished.
    park_cv: Condvar,
}

/// Fleet-wide counters (monotonic; survive session removal).
#[derive(Default)]
struct FleetCounters {
    created: AtomicU64,
    finished: AtomicU64,
    failed: AtomicU64,
    quanta: AtomicU64,
    cycles: AtomicU64,
    instructions: AtomicU64,
    warps: AtomicU64,
    ttfw_sum: AtomicU64,
    ttfw_sessions: AtomicU64,
}

/// A fleet-wide metrics snapshot ([`Server::fleet`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FleetStats {
    /// Sessions ever created.
    pub created: u64,
    /// Sessions that ran to a successful report.
    pub finished: u64,
    /// Sessions that ended in an error.
    pub failed: u64,
    /// Scheduling quanta executed by the worker pool.
    pub quanta: u64,
    /// Simulated cycles across all completed sessions.
    pub cycles: u64,
    /// Software instructions retired across all completed sessions.
    pub instructions: u64,
    /// Warp events landed across all completed sessions.
    pub warps: u64,
    /// Sum of time-to-first-warp over sessions that warped (with
    /// [`FleetStats::ttfw_sessions`], yields the fleet mean).
    pub ttfw_sum: u64,
    /// Completed sessions that landed at least one warp.
    pub ttfw_sessions: u64,
}

struct Shared {
    shards: Vec<Shard>,
    /// Ready entries fleet-wide. Incremented before any push, decremented
    /// at every pop; workers sleep only while it reads zero.
    pending: AtomicU64,
    /// Notify-only lock pairing with `work_cv`. Its critical section is
    /// empty — it exists so a "push then notify" cannot slip between a
    /// worker's `pending == 0` check and its wait (the lost-wakeup
    /// window), not to protect any data.
    work_lock: Mutex<()>,
    /// Signals workers: `pending` became non-zero or shutting down.
    work_cv: Condvar,
    shutdown: AtomicBool,
    fleet: FleetCounters,
    /// Program images, shared by every worker's [`SessionPool`]: a
    /// binary is imaged once for the whole fleet, while `System`
    /// carcasses stay worker-local.
    images: Arc<ImageStore>,
}

impl Shared {
    fn shard_of(&self, id: SessionId) -> &Shard {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Wakes a sleeping worker after `pending` was raised. Must run
    /// *after* the push and its `pending` increment; the empty lock
    /// acquisition orders this notify against any worker mid-check.
    fn signal_work(&self) {
        drop(self.work_lock.lock().expect("serve work lock"));
        self.work_cv.notify_one();
    }
}

/// A multi-session warp-simulation server. Dropping it drains the
/// ready queues' current quanta and joins the workers.
pub struct Server {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    workers: Vec<JoinHandle<()>>,
    quantum_slices: u64,
}

impl Server {
    /// Starts the worker pool, one table shard per worker.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            shards: (0..worker_count).map(|_| Shard::default()).collect(),
            pending: AtomicU64::new(0),
            work_lock: Mutex::new(()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            fleet: FleetCounters::default(),
            images: Arc::new(ImageStore::new()),
        });
        let quantum = config.quantum_slices.max(1);
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("warp-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i, quantum))
                    .expect("spawn warp-serve worker")
            })
            .collect();
        Server { shared, next_id: AtomicU64::new(1), workers, quantum_slices: quantum }
    }

    /// Registers a session, parked with no granted slices. Pair with
    /// [`run`](Server::run) or [`step`](Server::step) to make it
    /// runnable. The session arrives fully configured — policy, shared
    /// [`CircuitCache`](warp_core::CircuitCache), shared
    /// [`CadService`](warp_core::CadService) — because those are
    /// builder decisions of [`OnlineSession`], not of the server. The
    /// one builder choice the server makes for it: a session without a
    /// [`SessionPool`](warp_online::SessionPool) adopts the pool of
    /// whichever worker schedules it.
    pub fn create(&self, session: OnlineSession) -> SessionId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let snapshot = snapshot_of(&session, false);
        let shard = self.shared.shard_of(id);
        shard.inner.lock().expect("serve shard lock").slots.insert(
            id,
            Slot { state: SlotState::Parked(Box::new(session)), snapshot, grant: 0, queued: false },
        );
        self.shared.fleet.created.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Grants unbounded slices: the scheduler serves the session to
    /// completion, interleaved fairly with every other runnable one.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if the id was never created or
    /// already waited out; granting to a finished session is a no-op.
    pub fn run(&self, id: SessionId) -> Result<(), ServeError> {
        self.grant(id, u64::MAX)
    }

    /// Grants exactly `slices` more scheduler slices (saturating into
    /// an unbounded grant). The session advances that much and parks
    /// again — the wire protocol's single-step.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if the id was never created or
    /// already waited out.
    pub fn step(&self, id: SessionId, slices: u64) -> Result<(), ServeError> {
        self.grant(id, slices)
    }

    fn grant(&self, id: SessionId, slices: u64) -> Result<(), ServeError> {
        let shard = self.shared.shard_of(id);
        let mut inner = shard.inner.lock().expect("serve shard lock");
        let slot = inner.slots.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
        if matches!(slot.state, SlotState::Done(_)) {
            return Ok(());
        }
        slot.grant = slot.grant.saturating_add(slices);
        let enqueued = slot.grant > 0 && !slot.queued && matches!(slot.state, SlotState::Parked(_));
        if enqueued {
            slot.queued = true;
            inner.ready.push_back(id);
            self.shared.pending.fetch_add(1, Ordering::SeqCst);
        }
        drop(inner);
        if enqueued {
            self.shared.signal_work();
        }
        Ok(())
    }

    /// Hot-patches the session's instruction memory. Waits until the
    /// session parks (patching never races a quantum), then applies the
    /// write through the live system — the same path the OCPM patches
    /// through, so the next fetch of a patched word decodes fresh.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a bad id,
    /// [`ServeError::SessionDone`] if it already completed, or
    /// [`ServeError::Session`] if the write lands outside instruction
    /// memory.
    pub fn patch(&self, id: SessionId, addr: u32, words: &[u32]) -> Result<(), ServeError> {
        let shard = self.shared.shard_of(id);
        let mut inner = shard.inner.lock().expect("serve shard lock");
        loop {
            let slot = inner.slots.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
            match &mut slot.state {
                SlotState::Parked(session) => {
                    return session.patch_imem(addr, words).map_err(ServeError::Session);
                }
                SlotState::Done(_) => return Err(ServeError::SessionDone(id)),
                SlotState::Running => {
                    inner = shard.park_cv.wait(inner).expect("serve shard lock");
                }
            }
        }
    }

    /// The session's progress counters, as of the last time it parked.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a bad id.
    pub fn query(&self, id: SessionId) -> Result<SessionSnapshot, ServeError> {
        let shard = self.shared.shard_of(id);
        let inner = shard.inner.lock().expect("serve shard lock");
        inner.slots.get(&id).map(|s| s.snapshot).ok_or(ServeError::UnknownSession(id))
    }

    /// Blocks until the session completes, removes it from the table,
    /// and returns its [`OnlineReport`].
    ///
    /// A parked session that runs out of grant before finishing would
    /// wait forever, so `wait` also grants unbounded slices first.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a bad id;
    /// [`ServeError::Session`] carries the session's own failure.
    pub fn wait(&self, id: SessionId) -> Result<OnlineReport, ServeError> {
        self.run(id)?;
        let shard = self.shared.shard_of(id);
        let mut inner = shard.inner.lock().expect("serve shard lock");
        loop {
            let slot = inner.slots.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
            if let SlotState::Done(outcome) = &mut slot.state {
                // `None` only for a session being discarded by
                // `remove` — indistinguishable from already-gone.
                let outcome = outcome.take().ok_or(ServeError::UnknownSession(id))?;
                inner.slots.remove(&id);
                return outcome.map_err(ServeError::Session);
            }
            inner = shard.park_cv.wait(inner).expect("serve shard lock");
        }
    }

    /// Removes a session in any state (a running one is dropped when
    /// its current quantum parks it). Unknown ids are a no-op — remove
    /// is how clients say "I no longer care".
    pub fn remove(&self, id: SessionId) {
        let shard = self.shared.shard_of(id);
        let mut inner = shard.inner.lock().expect("serve shard lock");
        if let Some(slot) = inner.slots.get_mut(&id) {
            match slot.state {
                SlotState::Running => {
                    // The worker holds the machine; mark for discard by
                    // zeroing the grant and parking into Done.
                    slot.grant = 0;
                    slot.state = SlotState::Done(None);
                }
                _ => {
                    inner.slots.remove(&id);
                }
            }
        }
    }

    /// Live session count (any state still in the table).
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.inner.lock().expect("serve shard lock").slots.len())
            .sum()
    }

    /// The fairness quantum workers use, in scheduler slices.
    #[must_use]
    pub fn quantum_slices(&self) -> u64 {
        self.quantum_slices
    }

    /// Fleet-wide monotonic counters.
    #[must_use]
    pub fn fleet(&self) -> FleetStats {
        let f = &self.shared.fleet;
        FleetStats {
            created: f.created.load(Ordering::Relaxed),
            finished: f.finished.load(Ordering::Relaxed),
            failed: f.failed.load(Ordering::Relaxed),
            quanta: f.quanta.load(Ordering::Relaxed),
            cycles: f.cycles.load(Ordering::Relaxed),
            instructions: f.instructions.load(Ordering::Relaxed),
            warps: f.warps.load(Ordering::Relaxed),
            ttfw_sum: f.ttfw_sum.load(Ordering::Relaxed),
            ttfw_sessions: f.ttfw_sessions.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(self.shared.work_lock.lock().expect("serve work lock"));
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Pops the next runnable session, scanning the worker's own shard
/// first and stealing round-robin from the others. Consumes (and
/// accounts for) stale ready entries along the way.
fn claim(
    shared: &Shared,
    me: usize,
    quantum_slices: u64,
) -> Option<(usize, SessionId, Box<OnlineSession>, u64)> {
    let n = shared.shards.len();
    for k in 0..n {
        let si = (me + k) % n;
        let mut inner = shared.shards[si].inner.lock().expect("serve shard lock");
        while let Some(id) = inner.ready.pop_front() {
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            let Some(slot) = inner.slots.get_mut(&id) else { continue };
            slot.queued = false;
            if slot.grant == 0 {
                continue;
            }
            let budget = slot.grant.min(quantum_slices);
            match std::mem::replace(&mut slot.state, SlotState::Running) {
                SlotState::Parked(session) => return Some((si, id, session, budget)),
                // Raced with remove(); put the marker back.
                other => {
                    slot.state = other;
                    continue;
                }
            }
        }
    }
    None
}

fn worker_loop(shared: &Shared, me: usize, quantum_slices: u64) {
    // One pool per worker, all sharing the server's image store:
    // recycled `System` carcasses stay core-local (the carcass mutex is
    // uncontended) while images are fleet-wide.
    let pool = Arc::new(SessionPool::sharing(&shared.images));
    loop {
        let Some((shard_idx, id, mut session, budget)) = claim(shared, me, quantum_slices) else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let guard = shared.work_lock.lock().expect("serve work lock");
            // Re-check under the notify lock: a push that raised
            // `pending` before we got here must not be slept through.
            if shared.pending.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst)
            {
                drop(shared.work_cv.wait(guard).expect("serve work lock"));
            }
            continue;
        };

        // Advance outside every lock: this is the expensive part, and
        // the whole point — many workers simulate many sessions at once.
        // A panic costs this session, never the worker.
        session.adopt_pool(&pool);
        let advanced = panic::catch_unwind(AssertUnwindSafe(|| session.advance(budget)));
        shared.fleet.quanta.fetch_add(1, Ordering::Relaxed);

        // Park the result back into its home shard.
        let shard = &shared.shards[shard_idx];
        let mut inner = shard.inner.lock().expect("serve shard lock");
        let Some(slot) = inner.slots.get_mut(&id) else {
            // Removed while running; drop the machine.
            continue;
        };
        if matches!(slot.state, SlotState::Done(_)) {
            // remove() marked it for discard while we ran.
            inner.slots.remove(&id);
            drop(inner);
            shard.park_cv.notify_all();
            continue;
        }
        slot.grant = slot.grant.saturating_sub(budget);
        let status = match advanced {
            Ok(status) => status,
            Err(payload) => {
                // Drop the machine, whose state the panic interrupted,
                // and park its failure for `wait`.
                shared.fleet.failed.fetch_add(1, Ordering::Relaxed);
                slot.snapshot.done = true;
                slot.state = SlotState::Done(Some(Err(OnlineError::Panicked(message(&*payload)))));
                drop(inner);
                shard.park_cv.notify_all();
                continue;
            }
        };
        slot.snapshot = snapshot_of(&session, status != SessionStatus::Runnable);
        let mut requeued = false;
        match status {
            SessionStatus::Runnable => {
                slot.state = SlotState::Parked(session);
                if slot.grant > 0 {
                    // Back of the queue: round-robin fairness.
                    slot.queued = true;
                    inner.ready.push_back(id);
                    shared.pending.fetch_add(1, Ordering::SeqCst);
                    requeued = true;
                }
            }
            SessionStatus::Finished | SessionStatus::Failed => {
                let f = &shared.fleet;
                match status {
                    SessionStatus::Finished => f.finished.fetch_add(1, Ordering::Relaxed),
                    _ => f.failed.fetch_add(1, Ordering::Relaxed),
                };
                f.cycles.fetch_add(session.cycles(), Ordering::Relaxed);
                f.instructions.fetch_add(session.instructions(), Ordering::Relaxed);
                f.warps.fetch_add(session.warp_count() as u64, Ordering::Relaxed);
                if let Some(ttfw) = session.time_to_first_warp() {
                    f.ttfw_sum.fetch_add(ttfw, Ordering::Relaxed);
                    f.ttfw_sessions.fetch_add(1, Ordering::Relaxed);
                }
                slot.state =
                    SlotState::Done(Some(session.into_outcome().expect("session completed")));
            }
        }
        drop(inner);
        shard.park_cv.notify_all();
        if requeued {
            // Other workers may be asleep while this shard has work.
            shared.signal_work();
        }
    }
}

/// The message a panic payload carries, if it is a string.
fn message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "non-string panic payload".to_string(),
    }
}

// A server handle crosses threads freely (wire front-ends run one
// client per thread against one shared server).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<ServeConfig>();
    assert_send_sync::<FleetStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::MbFeatures;
    use warp_online::{OnlineConfig, TopKPolicy};

    fn session(name: &str) -> OnlineSession {
        let built = Arc::new(workloads::by_name(name).unwrap().build(MbFeatures::paper_default()));
        OnlineSession::new(built, OnlineConfig::default())
            .with_policy(TopKPolicy { k: 1, min_count: 256 })
    }

    #[test]
    fn serve_one_session_to_completion() {
        let server = Server::start(ServeConfig { workers: 2, quantum_slices: 8 });
        let id = server.create(session("brev"));
        let report = server.wait(id).unwrap();
        assert_eq!(report.exit_code, 0);
        assert_eq!(report.events.len(), 1);
        assert_eq!(server.sessions(), 0, "wait consumes the session");
        let fleet = server.fleet();
        assert_eq!((fleet.created, fleet.finished, fleet.failed), (1, 1, 0));
        assert!(fleet.quanta >= 1);
        assert_eq!(fleet.warps, 1);
        assert_eq!(fleet.ttfw_sessions, 1);
    }

    #[test]
    fn created_sessions_idle_until_granted() {
        let server = Server::start(ServeConfig::default());
        let id = server.create(session("brev"));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let snap = server.query(id).unwrap();
        assert_eq!(snap.slices, 0, "no grant, no work");
        assert_eq!(server.fleet().quanta, 0);

        // An exact step grant runs exactly that many slices.
        server.step(id, 3).unwrap();
        while server.query(id).unwrap().slices < 3 {
            std::thread::yield_now();
        }
        // Settle: the worker must not run past the grant.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(server.query(id).unwrap().slices, 3);
    }

    #[test]
    fn many_sessions_interleave_and_all_finish() {
        let server = Server::start(ServeConfig { workers: 4, quantum_slices: 4 });
        let ids: Vec<_> = (0..16)
            .map(|_| {
                let id = server.create(session("brev"));
                server.run(id).unwrap();
                id
            })
            .collect();
        let mut cycles = None;
        for id in ids {
            let report = server.wait(id).unwrap();
            // Identical sessions, identical timelines — regardless of
            // scheduling order.
            let c = *cycles.get_or_insert(report.cycles);
            assert_eq!(report.cycles, c);
            assert_eq!(report.events.len(), 1);
        }
        let fleet = server.fleet();
        assert_eq!(fleet.finished, 16);
        assert!(fleet.quanta >= 16, "quantum fairness implies many turns");
    }

    #[test]
    fn unknown_and_removed_sessions_error() {
        let server = Server::start(ServeConfig { workers: 1, quantum_slices: 8 });
        assert!(matches!(server.run(99), Err(ServeError::UnknownSession(99))));
        assert!(matches!(server.query(99), Err(ServeError::UnknownSession(99))));
        let id = server.create(session("brev"));
        server.remove(id);
        assert!(matches!(server.query(id), Err(ServeError::UnknownSession(_))));
    }

    #[test]
    fn patch_waits_for_park_and_applies() {
        let server = Server::start(ServeConfig { workers: 2, quantum_slices: 2 });
        let id = server.create(session("brev"));
        server.step(id, 1).unwrap();
        // Address far outside imem: the error proves the write reached
        // the live system even while the scheduler owns the session.
        let err = server.patch(id, u32::MAX - 64, &[1]).unwrap_err();
        assert!(matches!(err, ServeError::Session(_)));
    }

    #[test]
    fn sessions_spread_across_shards_and_steal_cleanly() {
        // 4 shards, ids land round-robin; a single hot shard's work is
        // stolen by the other workers and everything still completes.
        let server = Server::start(ServeConfig { workers: 4, quantum_slices: 2 });
        let ids: Vec<_> = (0..8).map(|_| server.create(session("brev"))).collect();
        for &id in &ids {
            server.run(id).unwrap();
        }
        for id in ids {
            let report = server.wait(id).unwrap();
            assert_eq!(report.exit_code, 0);
        }
        assert_eq!(server.fleet().finished, 8);
    }
}
