//! Shared program images and recycled `System` carcasses.
//!
//! A serving fleet runs the same few binaries thousands of times. Two
//! costs dominate session setup: rebuilding the per-program artifacts
//! (decode slots, block/trace tables) and allocating a fresh
//! [`System`] (two 64 KiB BRAMs plus caches) per session — and again
//! per *repeat*. The pool removes both from the hot path:
//!
//! * **Images** — one frozen [`ProgramImage`] per workload fingerprint
//!   ([`workloads::BuiltWorkload::fingerprint`]), captured from a fully
//!   warmed run and attached read-only by every session
//!   (copy-on-patch, so a warping session never perturbs siblings).
//! * **Carcasses** — finished sessions return their [`System`] instead
//!   of dropping it; the next session with the same fingerprint resets
//!   the run state in place (registers, data memory, caches, stats,
//!   peripherals) and re-attaches the image. No buffer is reallocated.
//!
//! The intended deployment is **one pool per worker thread sharing one
//! [`ImageStore`]**: carcasses then never bounce between cores and the
//! carcass mutex is uncontended, while a binary is imaged once for the
//! whole fleet.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mb_sim::{ProgramImage, System};

/// Observable pool effectiveness (for benches and diagnostics).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Distinct program images currently held (in the shared store).
    pub images: usize,
    /// Idle `System` carcasses currently parked in this pool.
    pub carcasses: usize,
    /// Times an image had to be built (first session per fingerprint).
    pub image_builds: u64,
    /// Acquisitions served by recycling a carcass.
    pub recycled: u64,
    /// Acquisitions that had to build a fresh `System`.
    pub fresh: u64,
}

/// The fleet-shared layer of a [`SessionPool`]: frozen program images,
/// a pure function of program content, so one store can back any
/// number of per-worker pools.
#[derive(Default)]
pub struct ImageStore {
    images: Mutex<HashMap<u64, Arc<ProgramImage>>>,
    image_builds: AtomicU64,
}

impl ImageStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        ImageStore::default()
    }
}

/// A per-worker store of idle [`System`] carcasses plus a (possibly
/// shared) [`ImageStore`], keyed by workload fingerprint. See the
/// module docs.
pub struct SessionPool {
    store: Arc<ImageStore>,
    carcasses: Mutex<HashMap<u64, Vec<System>>>,
    recycled: AtomicU64,
    fresh: AtomicU64,
}

impl Default for SessionPool {
    fn default() -> Self {
        SessionPool::new()
    }
}

impl SessionPool {
    /// Creates an empty pool with its own private [`ImageStore`].
    #[must_use]
    pub fn new() -> Self {
        SessionPool::sharing(&Arc::new(ImageStore::new()))
    }

    /// Creates an empty pool whose images live in (and are shared
    /// through) `store`. Carcasses remain private to this pool.
    #[must_use]
    pub fn sharing(store: &Arc<ImageStore>) -> Self {
        SessionPool {
            store: Arc::clone(store),
            carcasses: Mutex::new(HashMap::new()),
            recycled: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
        }
    }

    /// Returns the image for `key`, building (and publishing) it with
    /// `build` on first use. The build runs outside the pool lock — it
    /// involves a full warm execution of the program — so concurrent
    /// first users may build redundantly; the first insert wins, which
    /// is safe because the image is a pure function of the key.
    pub fn image_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> ProgramImage,
    ) -> Arc<ProgramImage> {
        if let Some(image) = self.store.images.lock().expect("pool images lock").get(&key) {
            return Arc::clone(image);
        }
        self.store.image_builds.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        Arc::clone(self.store.images.lock().expect("pool images lock").entry(key).or_insert(built))
    }

    /// Takes an idle carcass for `key`, if any. The caller owns the
    /// rearm protocol: reset the run state, re-attach the image, load
    /// the session's data, map its peripherals.
    #[must_use]
    pub fn acquire(&self, key: u64) -> Option<System> {
        let taken =
            self.carcasses.lock().expect("pool carcass lock").get_mut(&key).and_then(Vec::pop);
        match taken {
            Some(sys) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                Some(sys)
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Parks a finished session's `System` for reuse under `key`. The
    /// caller must have unmapped session-private peripherals first;
    /// everything else is scrubbed at the next acquire.
    pub fn release(&self, key: u64, sys: System) {
        self.carcasses.lock().expect("pool carcass lock").entry(key).or_default().push(sys);
    }

    /// Current effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            images: self.store.images.lock().expect("pool images lock").len(),
            carcasses: self
                .carcasses
                .lock()
                .expect("pool carcass lock")
                .values()
                .map(Vec::len)
                .sum(),
            image_builds: self.store.image_builds.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
        }
    }
}

const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<SessionPool>();
    assert_sync::<ImageStore>();
};
