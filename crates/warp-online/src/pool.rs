//! Shared program images.
//!
//! A serving fleet runs the same few binaries thousands of times, and
//! rebuilding the per-program artifacts (decode slots, block/trace
//! tables) for every session would dominate session setup. A
//! [`SessionPool`] holds one frozen [`ProgramImage`] per workload
//! fingerprint ([`workloads::BuiltWorkload::fingerprint`]), captured
//! from a fully warmed run and attached read-only by every session
//! (copy-on-patch, so a warping session never perturbs siblings).
//!
//! A pooled session asks the pool once, when it builds its
//! [`System`](mb_sim::System): it attaches the image there, rearms that
//! system in place for each repeat as every session does, and drops it
//! when it finishes. A server shares one pool across all its workers,
//! so a binary is imaged once for the whole fleet.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mb_sim::ProgramImage;

/// Observable pool effectiveness (for benches and diagnostics).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Distinct program images currently held.
    pub images: usize,
    /// Times an image had to be built (first session per fingerprint).
    pub image_builds: u64,
}

/// Frozen program images keyed by workload fingerprint. See the module
/// docs.
#[derive(Default)]
pub struct SessionPool {
    images: Mutex<HashMap<u64, Arc<ProgramImage>>>,
    image_builds: AtomicU64,
}

impl SessionPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        SessionPool::default()
    }

    /// Returns the image for `key`, building (and publishing) it with
    /// `build` on first use. The build runs outside the pool lock — it
    /// involves a full warm execution of the program — so concurrent
    /// first users may build redundantly; the first insert wins, which
    /// is safe because the image is a pure function of the key.
    ///
    /// # Errors
    ///
    /// Returns `build`'s error; nothing is published then.
    pub fn image_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<ProgramImage, E>,
    ) -> Result<Arc<ProgramImage>, E> {
        if let Some(image) = self.images.lock().expect("pool images lock").get(&key) {
            return Ok(Arc::clone(image));
        }
        let built = Arc::new(build()?);
        self.image_builds.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::clone(self.images.lock().expect("pool images lock").entry(key).or_insert(built)))
    }

    /// Current effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            images: self.images.lock().expect("pool images lock").len(),
            image_builds: self.image_builds.load(Ordering::Relaxed),
        }
    }
}

const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<SessionPool>();
};
