//! The session table and the fair-share scheduler.
//!
//! A [`Server`] hosts many [`OnlineSession`]s — each a full online-warp
//! runtime (simulated MicroBlaze + profiler + OCPM) — and time-slices
//! the runnable ones across a fixed pool of worker threads:
//!
//! * **Ownership, not locking.** A session in the table is either
//!   `Parked` (the table owns the boxed state machine), `Running` (a
//!   worker has taken it out and owns it exclusively for one quantum),
//!   or `Done` (only the outcome remains). A session can never be
//!   advanced by two workers at once because only one of them can hold
//!   it; a client that needs the machine itself (patch) waits on a
//!   condvar until it is parked again and then takes it out the way a
//!   worker does, so the patch runs outside the table lock.
//! * **One table, one ready queue.** The session slots and a FIFO queue
//!   of runnable ids sit behind one mutex. Workers pop the queue's
//!   front, advance the session outside the lock, and park it back;
//!   while the queue is empty they wait on one condvar that every grant
//!   signals. A parked session with no granted slices costs nothing —
//!   no timer, no scan, no wakeup — which is what lets one server hold
//!   thousands of mostly idle tenants.
//! * **Fair round-robin.** A worker advances a session by at most
//!   `quantum_slices` scheduler slices, then pushes it to the *back* of
//!   the ready queue. Long-running sessions therefore interleave at
//!   quantum granularity instead of head-of-line blocking short ones.
//! * **Slice grants.** Every session carries a budget of granted
//!   slices. [`Server::run`] grants unbounded slices (serve to
//!   completion); [`Server::step`] grants an exact count, which is how
//!   a wire client single-steps a session it is debugging. The workers
//!   decrement grants as they advance, so both modes flow through the
//!   identical scheduling path.
//! * **One image pool.** The server hands its one
//!   [`SessionPool`](warp_online::SessionPool) to every session when it
//!   is created ([`OnlineSession::adopt_pool`]), so sessions of the same
//!   workload attach one frozen program image when they build their
//!   machine instead of each rebuilding its decode and block tables, and
//!   then rearm that machine in place for every repeat. Pooling is
//!   bit-identical plumbing (see `warp-online/tests/pooling.rs`), so
//!   determinism is untouched.
//! * **A failure costs one session.** A worker catches a panic while it
//!   advances a session (from a user policy, say), and [`Server::patch`]
//!   one while it patches a session; either drops that session and parks
//!   [`OnlineError::Panicked`] as its outcome for [`Server::wait`], and
//!   the worker keeps serving. Nothing that runs under the table lock
//!   touches a session's machine: a program that does not fit its
//!   memories fails that session with [`OnlineError::Run`].
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use warp_online::{OnlineError, OnlineReport, OnlineSession, SessionPool, SessionStatus};

use crate::error::ServeError;

/// Server-assigned session identifier, unique for the server's life.
pub type SessionId = u64;

/// Tuning knobs of the serving scheduler.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads advancing sessions (clamped to at least 1).
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

/// Everything the table lock guards.
#[derive(Default)]
struct Table {
    slots: HashMap<SessionId, Slot>,
    /// Runnable session ids, served front to back.
    ready: VecDeque<SessionId>,
    /// Set when the server drops; workers exit once the queue is empty.
    shutdown: bool,
}

impl Table {
    /// Pops the next runnable session, consuming stale ready entries
    /// (removed sessions, spent grants) along the way.
    fn claim(&mut self, quantum_slices: u64) -> Option<(SessionId, Box<OnlineSession>, u64)> {
        while let Some(id) = self.ready.pop_front() {
            let Some(slot) = self.slots.get_mut(&id) else { continue };
            slot.queued = false;
            if slot.grant == 0 {
                continue;
            }
            let budget = slot.grant.min(quantum_slices);
            match std::mem::replace(&mut slot.state, SlotState::Running) {
                SlotState::Parked(session) => return Some((id, session, budget)),
                // Raced with remove(); put the marker back.
                other => slot.state = other,
            }
        }
        None
    }
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

#[derive(Default)]
struct Shared {
    table: Mutex<Table>,
    /// Signals workers: a session became ready, or the server is
    /// shutting down.
    work_cv: Condvar,
    /// Signals clients blocked on a slot (patch, wait): a session
    /// parked or finished.
    park_cv: Condvar,
    fleet: FleetCounters,
    /// The program images every scheduled session attaches.
    pool: Arc<SessionPool>,
}

impl Shared {
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("serve table lock")
    }
}

/// A multi-session warp-simulation server. Dropping it drains the
/// ready queue and joins the workers.
pub struct Server {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    workers: Vec<JoinHandle<()>>,
    quantum_slices: u64,
}

impl Server {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        let shared = Arc::new(Shared::default());
        let quantum = config.quantum_slices.max(1);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("warp-serve-{i}"))
                    .spawn(move || worker_loop(&shared, quantum))
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
    /// [`SessionPool`] adopts the server's here.
    pub fn create(&self, mut session: OnlineSession) -> SessionId {
        session.adopt_pool(&self.shared.pool);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let snapshot = snapshot_of(&session, false);
        self.shared.table().slots.insert(
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
        let mut table = self.shared.table();
        let slot = table.slots.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
        if matches!(slot.state, SlotState::Done(_)) {
            return Ok(());
        }
        slot.grant = slot.grant.saturating_add(slices);
        if slot.grant > 0 && !slot.queued && matches!(slot.state, SlotState::Parked(_)) {
            slot.queued = true;
            table.ready.push_back(id);
            self.shared.work_cv.notify_one();
        }
        Ok(())
    }

    /// Hot-patches the session's instruction memory. Waits until the
    /// session parks (patching never races a quantum), takes it out of
    /// its slot as a worker does, and applies the write outside the
    /// table lock through the live system — the same path the OCPM
    /// patches through, so the next fetch of a patched word decodes
    /// fresh. The write persists across the session's later repeats. A
    /// panic while patching costs the session, as one while advancing
    /// does.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a bad id,
    /// [`ServeError::SessionDone`] if it already completed, or
    /// [`ServeError::Session`] if the write lands outside instruction
    /// memory, the session's program cannot be loaded, or the patch
    /// panicked.
    pub fn patch(&self, id: SessionId, addr: u32, words: &[u32]) -> Result<(), ServeError> {
        let mut session = {
            let mut table = self.shared.table();
            loop {
                let slot = table.slots.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
                match std::mem::replace(&mut slot.state, SlotState::Running) {
                    SlotState::Parked(session) => break session,
                    SlotState::Running => {
                        table = self.shared.park_cv.wait(table).expect("serve table lock");
                    }
                    done => {
                        slot.state = done;
                        return Err(ServeError::SessionDone(id));
                    }
                }
            }
        };
        let (status, result) =
            match panic::catch_unwind(AssertUnwindSafe(|| session.patch_imem(addr, words))) {
                Ok(patched) => (Ok(session.status()), patched.map_err(ServeError::Session)),
                Err(payload) => {
                    let msg = message(&*payload);
                    (Err(msg.clone()), Err(ServeError::Session(OnlineError::Panicked(msg))))
                }
            };
        let discarded = park(&self.shared, &mut self.shared.table(), id, session, 0, status);
        // A worker may have popped this session's ready entry while the
        // patch held it, in which case `park` requeued it.
        self.shared.work_cv.notify_one();
        self.shared.park_cv.notify_all();
        drop(discarded);
        result
    }

    /// The session's progress counters, as of the last time it parked.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a bad id.
    pub fn query(&self, id: SessionId) -> Result<SessionSnapshot, ServeError> {
        self.shared.table().slots.get(&id).map(|s| s.snapshot).ok_or(ServeError::UnknownSession(id))
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
        let mut table = self.shared.table();
        loop {
            let slot = table.slots.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
            if let SlotState::Done(outcome) = &mut slot.state {
                // `None` only for a session being discarded by
                // `remove` — indistinguishable from already-gone.
                let outcome = outcome.take().ok_or(ServeError::UnknownSession(id))?;
                table.slots.remove(&id);
                return outcome.map_err(ServeError::Session);
            }
            table = self.shared.park_cv.wait(table).expect("serve table lock");
        }
    }

    /// Removes a session in any state (a running one is dropped when
    /// its current quantum parks it). Unknown ids are a no-op — remove
    /// is how clients say "I no longer care".
    pub fn remove(&self, id: SessionId) {
        let mut table = self.shared.table();
        if let Some(slot) = table.slots.get_mut(&id) {
            match slot.state {
                SlotState::Running => {
                    // The worker holds the machine; mark for discard by
                    // zeroing the grant and parking into Done.
                    slot.grant = 0;
                    slot.state = SlotState::Done(None);
                }
                _ => {
                    table.slots.remove(&id);
                }
            }
        }
    }

    /// Live session count (any state still in the table).
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.shared.table().slots.len()
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
        // Setting the flag is valid whatever a panicking holder left.
        self.shared.table.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, quantum_slices: u64) {
    loop {
        let (id, mut session, budget) = {
            let mut table = shared.table();
            loop {
                if let Some(claimed) = table.claim(quantum_slices) {
                    break claimed;
                }
                if table.shutdown {
                    return;
                }
                table = shared.work_cv.wait(table).expect("serve table lock");
            }
        };

        // Advance outside the lock: this is the expensive part, and the
        // whole point — many workers simulate many sessions at once. A
        // panic costs this session, never the worker.
        let advanced = panic::catch_unwind(AssertUnwindSafe(|| session.advance(budget)))
            .map_err(|payload| message(&*payload));
        shared.fleet.quanta.fetch_add(1, Ordering::Relaxed);

        // A requeue in `park` needs no wakeup: this worker claims again
        // before it could sleep, so it never leaves the queue longer
        // than it found it, and every other entry came from a grant
        // that signalled.
        let discarded = park(shared, &mut shared.table(), id, session, budget, advanced);
        shared.park_cv.notify_all();
        drop(discarded);
    }
}

/// Puts a session back into its slot after one quantum (or a patch,
/// with a `budget` of 0): requeued while it has grant left and no ready
/// entry, or finished with its outcome recorded. `advanced` is the
/// session's status, or the message of the panic that interrupted it.
/// Returns a machine nobody will run again, to be dropped outside the
/// lock.
fn park(
    shared: &Shared,
    table: &mut Table,
    id: SessionId,
    session: Box<OnlineSession>,
    budget: u64,
    advanced: Result<SessionStatus, String>,
) -> Option<Box<OnlineSession>> {
    let Some(slot) = table.slots.get_mut(&id) else {
        // Removed while running.
        return Some(session);
    };
    if matches!(slot.state, SlotState::Done(_)) {
        // remove() marked it for discard while we ran.
        table.slots.remove(&id);
        return Some(session);
    }
    slot.grant = slot.grant.saturating_sub(budget);
    let status = match advanced {
        Ok(status) => status,
        Err(message) => {
            // Drop the machine, whose state the panic interrupted, and
            // park its failure for `wait`.
            shared.fleet.failed.fetch_add(1, Ordering::Relaxed);
            slot.snapshot.done = true;
            slot.state = SlotState::Done(Some(Err(OnlineError::Panicked(message))));
            return Some(session);
        }
    };
    slot.snapshot = snapshot_of(&session, status != SessionStatus::Runnable);
    if status == SessionStatus::Runnable {
        slot.state = SlotState::Parked(session);
        // A patch leaves the ready queue as it found it, so a session
        // patched while queued is still queued.
        if slot.grant > 0 && !slot.queued {
            // Back of the queue: round-robin fairness.
            slot.queued = true;
            table.ready.push_back(id);
        }
        return None;
    }
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
    slot.state = SlotState::Done(Some(session.into_outcome().expect("session completed")));
    None
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
    fn patch_before_the_first_slice_then_wait_reports_as_standalone() {
        let reference = session("brev").run().unwrap();
        let server = Server::start(ServeConfig { workers: 2, quantum_slices: 2 });
        let id = server.create(session("brev"));
        // A word past the program and its stub: the patch builds the
        // session's machine (and the pool's image) outside the table
        // lock, and nothing ever branches to the word.
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let addr = built.program.base + 4 * built.program.words.len() as u32 + 0x100;
        server.patch(id, addr, &[0xDEAD_BEEF]).unwrap();
        assert_eq!(server.wait(id).unwrap(), reference);
        assert_eq!(server.sessions(), 0);
    }

    #[test]
    fn patch_racing_remove_neither_panics_nor_hangs() {
        let server = Arc::new(Server::start(ServeConfig { workers: 2, quantum_slices: 2 }));
        for _ in 0..8 {
            let id = server.create(session("brev"));
            server.step(id, 3).unwrap();
            let start = Arc::new(std::sync::Barrier::new(2));
            let (tx, rx) = std::sync::mpsc::channel();
            let patcher = {
                let (server, start) = (Arc::clone(&server), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let _ = tx.send(server.patch(id, 0x100, &[0]));
                })
            };
            start.wait();
            server.remove(id);
            let patched = rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("the patch must return");
            patcher.join().expect("the patch must not panic");
            // Whichever came first, the patch either applied or found
            // the session gone.
            assert!(
                matches!(
                    patched,
                    Ok(()) | Err(ServeError::UnknownSession(_) | ServeError::SessionDone(_))
                ),
                "{patched:?}"
            );
            // A session removed while a worker runs it leaves the table
            // when the worker parks it.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
            while server.sessions() > 0 {
                assert!(std::time::Instant::now() < deadline, "the session must leave the table");
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn four_workers_drain_one_queue() {
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
        assert_eq!(server.sessions(), 0);
    }
}
