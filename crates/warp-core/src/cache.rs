//! Content-addressed circuit cache.
//!
//! The multi-processor round-robin of [`multi`](crate::multi), the
//! configurability sweeps of [`experiments`](crate::experiments), and
//! the figure/table binaries all warp the *same* kernels repeatedly.
//! The CAD chain — synthesis, mapping, place & route, bitstream — is a
//! pure function of the decompiled kernel, so its output can be shared:
//! [`CircuitCache`] stores [`CompiledWcla`] artifacts keyed by
//! [`LoopKernel::fingerprint`](warp_cdfg::LoopKernel::fingerprint), a
//! stable content hash. A hit returns the compiled circuit without
//! performing any CAD work, and (because the whole flow is
//! deterministic) yields a [`WarpReport`](crate::WarpReport)
//! bit-identical to a cold run's.
//!
//! The cache is safe to share across the
//! [`BatchRunner`](crate::batch::BatchRunner)'s worker threads and the
//! `warp-serve` session fleet: lookups take a short mutex, but
//! compilation itself runs outside the lock so concurrent misses on
//! *different* kernels still compile in parallel.
//!
//! # Host memo and modeled residency
//!
//! One cache plays two roles. On the host it is a memo: every circuit
//! compiled through it is kept, unbounded, so a kernel is compiled
//! once for the cache's lifetime (more often only when compiles of it
//! race). On the simulated platform it models the warp processor's
//! on-chip configuration store: [`CircuitCache::bounded`] caps the
//! number of *resident* configurations and evicts the
//! least-recently-used fingerprint to admit a new one (recency is
//! bumped on every hit, probe, or insertion). An evicted kernel leaves
//! residency but not the memo, so its next lookup is served from the
//! memo as a hit and re-admitted — a bitstream rewrite, never a
//! recompile. The default [`CircuitCache::new`] is unbounded, so
//! nothing is ever evicted.
//!
//! [`CacheStats`] keeps the two roles apart: `hits` counts lookups
//! served without a host compile, `misses` counts host compiles, and
//! `evictions` and `entries` describe the modeled residency.
//!
//! Below whole circuits, the cache carries the modeled sub-kernel tiers
//! ([`CadCaches`]) that its sessions' compiles are charged against. They
//! hold only keys; the sub-kernel artifacts themselves live in each
//! compiling [`CadService`](crate::CadService)'s host store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use warp_wcla::CadCaches;

use crate::pipeline::{compile_circuit, CompiledWcla, DecompiledKernel};
use crate::system::WarpError;

/// Hit/miss/eviction counters for a [`CircuitCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups served from the host memo, without a compile.
    pub hits: u64,
    /// Host compiles published to the cache.
    pub misses: u64,
    /// Fingerprints evicted from the modeled on-chip residency to admit
    /// others (bounded caches only).
    pub evictions: u64,
    /// Kernels currently resident on-chip.
    pub entries: usize,
    /// Maximum resident kernels (`None` = unbounded).
    pub capacity: Option<usize>,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The keyed store behind the mutex.
#[derive(Default)]
struct Slots {
    /// Host memo: every circuit compiled through the cache.
    memo: HashMap<u64, Arc<CompiledWcla>>,
    /// Modeled on-chip residency: fingerprint to recency stamp.
    resident: HashMap<u64, u64>,
    /// Logical clock stamping recency (monotonic per cache, bumped on
    /// every touch).
    tick: u64,
}

/// A thread-safe, content-addressed store of compiled WCLA circuits.
///
/// Beyond whole-circuit artifacts, the cache carries a set of
/// [`CadCaches`] — the keys of the mapped LUT cones, placements, and
/// first-pass net routes its compiles produced — so an online runtime
/// attached to this cache is charged only the delta for a
/// *shifted-but-similar* kernel even when its whole-kernel fingerprint
/// misses.
pub struct CircuitCache {
    slots: Mutex<Slots>,
    /// Maximum resident entries; `usize::MAX` means unbounded (the
    /// default).
    capacity: usize,
    cad: Arc<CadCaches>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for CircuitCache {
    /// An unbounded cache, same as [`CircuitCache::new`].
    fn default() -> Self {
        CircuitCache {
            slots: Mutex::default(),
            capacity: usize::MAX,
            cad: Arc::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for CircuitCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitCache").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

impl CircuitCache {
    /// Creates an empty, unbounded cache (the historical behavior).
    #[must_use]
    pub fn new() -> Self {
        CircuitCache::default()
    }

    /// Creates an empty cache whose modeled on-chip store holds at most
    /// `capacity` circuits (clamped to at least 1); admitting a circuit
    /// beyond that evicts the least-recently-used one from residency.
    /// The host memo stays unbounded.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        CircuitCache { capacity: capacity.max(1), ..CircuitCache::default() }
    }

    /// The configured residency capacity (`None` when unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        (self.capacity != usize::MAX).then_some(self.capacity)
    }

    /// Returns the circuit for a kernel fingerprint if it is resident
    /// on-chip, marking it most-recently used. Does not touch the
    /// hit/miss counters. An evicted kernel reads `None` here although
    /// the memo still holds it: [`probe`](CircuitCache::probe) and
    /// [`lookup_or_compile`](CircuitCache::lookup_or_compile) serve it.
    #[must_use]
    pub fn get(&self, fingerprint: u64) -> Option<Arc<CompiledWcla>> {
        let mut guard = self.slots.lock().expect("cache lock");
        let slots = &mut *guard;
        slots.tick += 1;
        *slots.resident.get_mut(&fingerprint)? = slots.tick;
        slots.memo.get(&fingerprint).cloned()
    }

    /// The sub-kernel CAD caches carried by this circuit cache. A
    /// runtime that compiles against these caches is not charged for
    /// the cones, placements, and net routes any other compile against
    /// them already produced.
    #[must_use]
    pub fn cad_caches(&self) -> Arc<CadCaches> {
        Arc::clone(&self.cad)
    }

    /// Looks the kernel up in the memo, verifying the kernel itself
    /// (the 64-bit fingerprint is not collision-proof). A hit counts
    /// one hit and (re-)admits the kernel to residency; a miss counts
    /// nothing and is expected to be followed by
    /// [`CircuitCache::insert_compiled`], which counts the compile.
    #[must_use]
    pub fn probe(&self, decompiled: &DecompiledKernel) -> Option<Arc<CompiledWcla>> {
        let mut slots = self.slots.lock().expect("cache lock");
        let hit = Arc::clone(slots.memo.get(&decompiled.fingerprint)?);
        if hit.circuit.kernel != decompiled.kernel {
            return None;
        }
        self.admit(&mut slots, decompiled.fingerprint);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Publishes a freshly compiled circuit, counting a miss (one host
    /// compile), and admits it to residency. On a fingerprint collision
    /// the memo slot stays with its first owner; the caller keeps using
    /// its own artifact either way.
    pub fn insert_compiled(&self, compiled: &Arc<CompiledWcla>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.memoize(compiled);
    }

    /// Memoizes `compiled` (the first artifact per fingerprint keeps
    /// the slot) and admits it to residency. Returns the memoized
    /// artifact, so racing compilers of one kernel converge on one
    /// shared `Arc` — or `compiled` itself when its fingerprint
    /// collides with a different kernel's, which is neither memoized
    /// nor admitted.
    fn memoize(&self, compiled: &Arc<CompiledWcla>) -> Arc<CompiledWcla> {
        let mut slots = self.slots.lock().expect("cache lock");
        let stored = Arc::clone(
            slots.memo.entry(compiled.fingerprint).or_insert_with(|| Arc::clone(compiled)),
        );
        if !Arc::ptr_eq(&stored, compiled) && stored.circuit.kernel != compiled.circuit.kernel {
            return Arc::clone(compiled);
        }
        self.admit(&mut slots, compiled.fingerprint);
        stored
    }

    /// Marks `fingerprint` resident and most-recently used, evicting
    /// least-recently-used fingerprints down to capacity first if it
    /// was not resident.
    fn admit(&self, slots: &mut Slots, fingerprint: u64) {
        slots.tick += 1;
        let tick = slots.tick;
        if let Some(stamp) = slots.resident.get_mut(&fingerprint) {
            *stamp = tick;
            return;
        }
        while slots.resident.len() >= self.capacity {
            let Some((&victim, _)) = slots.resident.iter().min_by_key(|(_, &stamp)| stamp) else {
                break;
            };
            slots.resident.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        slots.resident.insert(fingerprint, tick);
    }

    /// Returns the compiled circuit for a decompiled kernel, running
    /// the CAD chain only when the memo does not hold it.
    ///
    /// The boolean is `true` on a hit. Compilation happens outside the
    /// cache lock, so concurrent misses on different kernels proceed in
    /// parallel; if two threads race on the *same* kernel, both compile
    /// (deterministically, to identical artifacts), both count a miss,
    /// and both are served the first insertion.
    ///
    /// # Errors
    ///
    /// Propagates [`WarpError::Fabric`] from compilation on a miss.
    pub fn lookup_or_compile(
        &self,
        decompiled: &DecompiledKernel,
    ) -> Result<(Arc<CompiledWcla>, bool), WarpError> {
        if let Some(hit) = self.probe(decompiled) {
            return Ok((hit, true));
        }
        let compiled = Arc::new(compile_circuit(decompiled)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((self.memoize(&compiled), false))
    }

    /// Current hit/miss/eviction/residency counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity(),
        }
    }

    /// Number of kernels currently resident on-chip.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().expect("cache lock").resident.len()
    }

    /// Whether no kernel is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized and resident circuit (counters are kept).
    pub fn clear(&self) {
        let mut slots = self.slots.lock().expect("cache lock");
        slots.memo.clear();
        slots.resident.clear();
    }
}

// The cache is shared by reference across scoped worker threads; fail
// the build loudly if a field ever loses thread safety.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<CircuitCache>();
    assert_sync::<CompiledWcla>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;
    use crate::WarpOptions;
    use mb_isa::MbFeatures;

    fn decompiled(name: &str) -> DecompiledKernel {
        let built = workloads::by_name(name).unwrap().build(MbFeatures::paper_default());
        let options = WarpOptions::default();
        let traced = pipeline::trace_software(&built, &options).unwrap();
        let hot = pipeline::profile_trace(&traced, &options).unwrap();
        pipeline::decompile(&built, &hot).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let cache = CircuitCache::new();
        let d = decompiled("brev");
        let (cold, hit0) = cache.lookup_or_compile(&d).unwrap();
        let (warm, hit1) = cache.lookup_or_compile(&d).unwrap();
        assert!(!hit0);
        assert!(hit1);
        assert!(Arc::ptr_eq(&cold, &warm), "hit must share the cached artifact");
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 1, evictions: 0, entries: 1, capacity: None }
        );
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_kernels_occupy_distinct_slots() {
        let cache = CircuitCache::new();
        let a = decompiled("brev");
        let b = decompiled("canrdr");
        assert_ne!(a.fingerprint, b.fingerprint);
        cache.lookup_or_compile(&a).unwrap();
        cache.lookup_or_compile(&b).unwrap();
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = CircuitCache::bounded(2);
        assert_eq!(cache.capacity(), Some(2));
        let a = decompiled("brev");
        let b = decompiled("canrdr");
        let c = decompiled("crc32");

        cache.lookup_or_compile(&a).unwrap();
        let (first_b, _) = cache.lookup_or_compile(&b).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.probe(&a).is_some());
        cache.lookup_or_compile(&c).unwrap();

        assert_eq!(cache.len(), 2);
        assert!(cache.get(a.fingerprint).is_some(), "recently-used entry must stay resident");
        assert!(cache.get(b.fingerprint).is_none(), "LRU entry must be evicted");
        assert!(cache.get(c.fingerprint).is_some(), "new entry must be admitted");
        assert_eq!(cache.stats().evictions, 1);

        // The evicted kernel left residency, not the memo: it comes
        // back as the same artifact, as a hit, without a compile, and
        // its re-admission evicts the now least-recently-used `a`.
        let (again_b, hit) = cache.lookup_or_compile(&b).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first_b, &again_b));
        assert!(cache.get(a.fingerprint).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 2, misses: 3, evictions: 2, entries: 2, capacity: Some(2) }
        );
    }

    #[test]
    fn evicted_kernel_returns_from_the_memo() {
        let cache = CircuitCache::bounded(1);
        let a = decompiled("brev");
        let b = decompiled("canrdr");
        let (first, _) = cache.lookup_or_compile(&a).unwrap();
        cache.lookup_or_compile(&b).unwrap(); // evicts `a` from residency
        assert!(cache.get(a.fingerprint).is_none());
        let (again, hit) = cache.lookup_or_compile(&a).unwrap();
        assert!(hit, "an evicted circuit is re-admitted, not recompiled");
        assert!(Arc::ptr_eq(&first, &again));
        assert!(cache.get(a.fingerprint).is_some());
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 2, evictions: 2, entries: 1, capacity: Some(1) }
        );
    }

    #[test]
    fn unbounded_default_never_evicts() {
        let cache = CircuitCache::new();
        assert_eq!(cache.capacity(), None);
        for name in ["brev", "canrdr", "crc32", "fir"] {
            cache.lookup_or_compile(&decompiled(name)).unwrap();
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 0);
    }
}
