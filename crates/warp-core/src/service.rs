//! The concurrent CAD service: background compilation workers.
//!
//! The paper's DPM is a *separate* processor — CAD runs while the main
//! MicroBlaze keeps executing the application. This module gives the
//! reproduction the same shape in host wall-clock: a [`CadService`]
//! owns a small pool of worker threads, a submitted job (typically
//! [`compile_circuit_cached`](crate::pipeline::compile_circuit_cached))
//! runs on a worker while the caller keeps simulating, and the caller
//! picks the result up by waiting on its [`CadHandle`].
//!
//! Concurrency here is strictly a host-side overlap: nothing about the
//! *modeled* timeline may depend on how fast the workers are or how
//! many there are. Callers must consume results only at deterministic
//! simulated-time boundaries (see `warp-online`'s session), which
//! is what keeps reports byte-identical across `WARP_CAD_THREADS`
//! settings.
//!
//! A service also owns the one host [`CadStore`] its compiles compute
//! through: each cone is mapped, and each netlist placed and routed,
//! once per service, however many sessions warp it. The store changes
//! no modeled cost; that comes from each compile's modeled
//! [`CadCaches`](warp_wcla::CadCaches), which hold only keys.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use warp_wcla::CadStore;

/// Environment variable selecting the worker-pool size (default 1;
/// clamped to `1..=16`). The modeled timeline is identical for every
/// setting — the knob only trades host threads for wall-clock overlap.
pub const CAD_THREADS_ENV: &str = "WARP_CAD_THREADS";

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// State of one submitted job, shared between the worker and the
/// [`CadHandle`].
struct HandleState<T> {
    slot: Mutex<Slot<T>>,
    done: Condvar,
}

enum Slot<T> {
    Pending,
    Done(T),
    /// The job panicked on the worker; surfaced as a panic in
    /// [`CadHandle::wait`] rather than a silent hang.
    Poisoned,
}

/// A ticket for a job submitted to a [`CadService`].
pub struct CadHandle<T> {
    state: Arc<HandleState<T>>,
}

impl<T> CadHandle<T> {
    /// Blocks until the job finishes and takes its result.
    ///
    /// # Panics
    ///
    /// Panics if the job itself panicked on its worker.
    pub fn wait(self) -> T {
        let mut slot = self.state.slot.lock().expect("cad handle poisoned");
        loop {
            match std::mem::replace(&mut *slot, Slot::Pending) {
                Slot::Pending => {
                    slot = self.state.done.wait(slot).expect("cad handle poisoned");
                }
                Slot::Done(value) => return value,
                Slot::Poisoned => panic!("CAD job panicked on its worker thread"),
            }
        }
    }
}

/// A small pool of background CAD workers, plus the host [`CadStore`]
/// its compiles share.
///
/// Dropping the service stops the workers after their current job; jobs
/// still queued are discarded (their handles never resolve), so keep
/// the service alive as long as any handle is outstanding. The store is
/// unbounded and lives as long as the service.
pub struct CadService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    store: Arc<CadStore>,
}

impl CadService {
    /// Creates a service with `threads` workers (clamped to `1..=16`).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let shared =
            Arc::new(Shared { queue: Mutex::new(Queue::default()), available: Condvar::new() });
        let workers = (0..threads.clamp(1, 16))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cad-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn CAD worker")
            })
            .collect();
        CadService { shared, workers, store: Arc::default() }
    }

    /// Creates a service sized by [`CAD_THREADS_ENV`] (default 1).
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var(CAD_THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1);
        Self::new(threads)
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The host store that compiles on this service compute through.
    #[must_use]
    pub fn store(&self) -> &Arc<CadStore> {
        &self.store
    }

    /// Queues `job` for execution on a worker and returns its handle.
    pub fn submit<T, F>(&self, job: F) -> CadHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let state = Arc::new(HandleState { slot: Mutex::new(Slot::Pending), done: Condvar::new() });
        let worker_state = Arc::clone(&state);
        let wrapped: Job = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            let mut slot = worker_state.slot.lock().expect("cad handle poisoned");
            *slot = match result {
                Ok(value) => Slot::Done(value),
                Err(_) => Slot::Poisoned,
            };
            worker_state.done.notify_all();
        });
        let mut queue = self.shared.queue.lock().expect("cad queue poisoned");
        queue.jobs.push_back(wrapped);
        drop(queue);
        self.shared.available.notify_one();
        CadHandle { state }
    }
}

impl Drop for CadService {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("cad queue poisoned");
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("cad queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("cad queue poisoned");
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_resolve_through_wait() {
        let service = CadService::new(2);
        assert_eq!(service.threads(), 2);
        let h = service.submit(|| 6 * 7);
        assert_eq!(h.wait(), 42);

        let handles: Vec<_> = (0..8u64).map(|i| service.submit(move || i * i)).collect();
        let squares: Vec<u64> = handles.into_iter().map(CadHandle::wait).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn thread_count_is_clamped_and_env_defaults_to_one() {
        assert_eq!(CadService::new(0).threads(), 1);
        assert_eq!(CadService::new(64).threads(), 16);
    }
}
