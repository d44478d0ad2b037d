//! Concurrent shared-cache behavior (ISSUE satellite 3): many threads
//! warping identical and distinct kernels through one bounded, evicting
//! [`CircuitCache`] must observe bit-identical artifacts on hits and
//! must never lose an insertion, and a served fleet of same-kernel
//! tenants must show a nonzero cross-session hit rate.

use std::sync::Arc;

use mb_isa::MbFeatures;
use warp_core::pipeline;
use warp_core::CircuitCache;
use warp_online::{OnlineConfig, OnlineSession, TopKPolicy};
use warp_profiler::HotRegion;
use warp_serve::{ServeConfig, Server};

fn decompiled_kernel(name: &str) -> warp_core::pipeline::DecompiledKernel {
    let built = workloads::by_name(name).unwrap().build(MbFeatures::paper_default());
    let region = HotRegion { head: built.kernel.head, tail: built.kernel.tail, count: 4096 };
    pipeline::decompile(&built, &region).unwrap()
}

/// N threads hammer one bounded cache with the *same* kernel: exactly
/// one compile may win the slot, every hit must hand back the same
/// artifact bit-for-bit, and no thread may observe a torn entry.
#[test]
fn identical_kernels_share_one_artifact() {
    let cache = Arc::new(CircuitCache::bounded(4));
    let decompiled = Arc::new(decompiled_kernel("brev"));

    let results: Vec<_> = (0..8)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let decompiled = Arc::clone(&decompiled);
            std::thread::spawn(move || cache.lookup_or_compile(&decompiled).unwrap())
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();

    let (reference, _) = &results[0];
    for (artifact, _) in &results {
        assert_eq!(artifact.fingerprint, reference.fingerprint);
        assert_eq!(artifact.circuit.compiled.bitstream, reference.circuit.compiled.bitstream);
        assert_eq!(artifact.circuit.model, reference.circuit.model);
        assert_eq!(artifact.dpm, reference.dpm);
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 1, "one kernel, one slot");
    assert_eq!(stats.hits + stats.misses, 8, "every thread either hit or compiled");
    assert!(stats.hits >= 1, "concurrent same-kernel lookups must share");
    assert_eq!(stats.evictions, 0);
}

/// Distinct kernels racing through a cache big enough for all of them:
/// none may be lost, and each remains servable bit-identically.
#[test]
fn distinct_kernels_are_never_lost() {
    let names = ["brev", "crc32", "fir", "g3fax"];
    let cache = Arc::new(CircuitCache::bounded(names.len()));

    let handles: Vec<_> = names
        .iter()
        .map(|name| {
            let cache = Arc::clone(&cache);
            let name = name.to_string();
            std::thread::spawn(move || {
                let decompiled = decompiled_kernel(&name);
                let (first, _) = cache.lookup_or_compile(&decompiled).unwrap();
                // A second lookup must hit and serve the same artifact.
                let (again, hit) = cache.lookup_or_compile(&decompiled).unwrap();
                (first, again, hit)
            })
        })
        .collect();

    for h in handles {
        let (first, again, hit) = h.join().unwrap();
        assert!(hit, "second lookup of a resident kernel must hit");
        assert_eq!(first.circuit.compiled.bitstream, again.circuit.compiled.bitstream);
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, names.len(), "no insertion may be lost");
    assert_eq!(stats.evictions, 0, "capacity covers the working set");
    assert_eq!(stats.misses, names.len() as u64);
    assert!(stats.hits >= names.len() as u64);
}

/// More kernels than slots: the modeled residency must evict (counting
/// each one) instead of growing, and evicted kernels must come back from
/// the host memo as hits serving the very artifact compiled first.
#[test]
fn eviction_pressure_keeps_the_cache_bounded() {
    let names = ["brev", "crc32", "fir", "g3fax", "canrdr"];
    let cache = Arc::new(CircuitCache::bounded(2));

    let handles: Vec<_> = names
        .iter()
        .map(|name| {
            let cache = Arc::clone(&cache);
            let name = name.to_string();
            std::thread::spawn(move || {
                let decompiled = decompiled_kernel(&name);
                cache.lookup_or_compile(&decompiled).unwrap().0
            })
        })
        .collect();
    let first_pass: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let stats = cache.stats();
    assert!(cache.len() <= 2, "bounded cache grew past capacity");
    assert!(stats.evictions >= (names.len() - 2) as u64);

    // Whatever was evicted comes back, without a recompile.
    for (name, earlier) in names.iter().zip(&first_pass) {
        let (again, hit) = cache.lookup_or_compile(&decompiled_kernel(name)).unwrap();
        assert!(hit, "{name}: an evicted kernel must be served from the memo");
        assert!(Arc::ptr_eq(&again, earlier), "{name}: the memo serves the first artifact");
    }
    assert_eq!(cache.stats().misses, names.len() as u64, "no kernel compiled twice");
    assert!(cache.len() <= 2, "re-admission stays within capacity");
}

/// The serving payoff: a fleet of tenants running the *same* kernel
/// over different seeded data through one shared cache pays one cold
/// compile; everyone else warm-starts (nonzero cross-session hit rate),
/// and computation still verifies per-tenant (each session checks its
/// own golden model).
#[test]
fn same_kernel_tenants_warm_start_from_each_other() {
    let cache = Arc::new(CircuitCache::bounded(8));
    let server = Server::start(ServeConfig { workers: 4, quantum_slices: 8 });
    let spec = workloads::by_name("brev").unwrap();

    let ids: Vec<_> = (0..12)
        .map(|seed| {
            let built = Arc::new(spec.build_seeded(MbFeatures::paper_default(), 1000 + seed));
            let session = OnlineSession::new(built, OnlineConfig::default())
                .with_policy(TopKPolicy { k: 1, min_count: 256 })
                .with_cache(Arc::clone(&cache));
            let id = server.create(session);
            server.run(id).unwrap();
            id
        })
        .collect();

    let mut cache_hits = 0;
    for id in ids {
        let report = server.wait(id).unwrap();
        assert_eq!(report.exit_code, 0, "every tenant's data must verify");
        assert_eq!(report.events.len(), 1);
        if report.events[0].cache_hit {
            cache_hits += 1;
        }
    }
    assert!(cache_hits >= 1, "cross-session hits must occur");
    let stats = cache.stats();
    assert!(stats.hit_rate() > 0.0, "fleet-wide hit rate must be nonzero");
    assert_eq!(stats.entries, 1, "one kernel in the fleet, one slot used");
}
