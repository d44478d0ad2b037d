//! Session-pool equivalence: shared program images are pure plumbing.
//!
//! 1. **Pooling determinism** — for every registry workload, a pooled
//!    session (attaching the shared frozen image) reports
//!    bit-identically to an unpooled session that loads the program and
//!    builds its decode and block tables itself.
//! 2. **Copy-on-patch isolation** — two sessions share one program
//!    image; hot-patching one mid-trace changes *its* outcome and only
//!    its outcome: the sibling stays byte-identical to an unshared run.
//! 3. **Pooling is invisible to the shared cache** — a kernel evicted
//!    from a bounded cache's modeled residency comes back from its host
//!    memo as a hit, charged what a resident hit is, whether or not the
//!    session is pooled.

use std::sync::Arc;

use mb_isa::MbFeatures;
use warp_core::CircuitCache;
use warp_online::{OnlineConfig, OnlineSession, SessionPool, SessionStatus, TopKPolicy};
use workloads::BuiltWorkload;

fn policy() -> TopKPolicy {
    TopKPolicy { k: 1, min_count: 256 }
}

fn run_unpooled(built: &Arc<BuiltWorkload>, config: &OnlineConfig) -> warp_online::OnlineReport {
    OnlineSession::new(Arc::clone(built), config.clone()).with_policy(policy()).run().unwrap()
}

#[test]
fn pooled_sessions_match_unpooled_on_every_workload() {
    let config = OnlineConfig { repeats: 2, ..OnlineConfig::default() };
    for workload in workloads::all() {
        let built = Arc::new(workload.build(MbFeatures::paper_default()));
        let reference = run_unpooled(&built, &config);

        let pool = Arc::new(SessionPool::new());
        for round in 0..2 {
            let pooled = OnlineSession::new(Arc::clone(&built), config.clone())
                .with_policy(policy())
                .with_pool(Arc::clone(&pool))
                .run()
                .unwrap();
            assert_eq!(
                pooled, reference,
                "{} round {round}: pooled report must be bit-identical",
                workload.name
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.images, 1, "{}: one image per fingerprint", workload.name);
        assert_eq!(stats.image_builds, 1, "{}: the image is built once", workload.name);
    }
}

#[test]
fn seeded_siblings_share_one_image() {
    // Different seeds vary only the data, so they share a fingerprint —
    // and therefore one image.
    let workload = workloads::by_name("crc32").unwrap();
    let config = OnlineConfig::default();
    let pool = Arc::new(SessionPool::new());
    for seed in 0..3u64 {
        let built = Arc::new(workload.build_seeded(MbFeatures::paper_default(), seed));
        let reference = run_unpooled(&built, &config);
        let pooled = OnlineSession::new(built, config.clone())
            .with_policy(policy())
            .with_pool(Arc::clone(&pool))
            .run()
            .unwrap();
        assert_eq!(pooled, reference, "seed {seed}");
    }
    let stats = pool.stats();
    assert_eq!(stats.images, 1, "seeds must share one image");
    assert_eq!(stats.image_builds, 1);
}

#[test]
fn hot_patching_one_pooled_sibling_never_perturbs_the_other() {
    let built = Arc::new(workloads::by_name("brev").unwrap().build(MbFeatures::paper_default()));
    // Slices fine enough that the whole run spans many of them — the
    // patch must land mid-run, not after the program already exited.
    let config = OnlineConfig { slice_cycles: 2_000, ..OnlineConfig::default() };
    let reference = run_unpooled(&built, &config);

    let pool = Arc::new(SessionPool::new());
    let fresh = || {
        OnlineSession::new(Arc::clone(&built), config.clone())
            .with_policy(policy())
            .with_pool(Arc::clone(&pool))
    };
    let mut clean = fresh();
    let mut patched = fresh();

    // Let both siblings run a few slices on the shared image, then
    // hot-patch one mid-run: the kernel's backward branch becomes a
    // fall-through, so the patched session's loop stops iterating and
    // its final memory diverges from the golden model.
    assert_eq!(clean.advance(3), SessionStatus::Runnable);
    assert_eq!(patched.advance(3), SessionStatus::Runnable);
    let nop = mb_isa::encode(&mb_isa::Insn::addik(mb_isa::Reg::R0, mb_isa::Reg::R0, 0));
    patched.patch_imem(built.kernel.tail, &[nop]).unwrap();

    // Interleave to completion, as a server would.
    loop {
        let a = clean.advance(2);
        let b = patched.advance(2);
        if a != SessionStatus::Runnable && b != SessionStatus::Runnable {
            break;
        }
    }
    assert_eq!(patched.status(), SessionStatus::Failed, "the patch must change the outcome");
    let err = patched.into_outcome().unwrap().unwrap_err();
    assert!(
        matches!(err, warp_online::OnlineError::Verify(_)),
        "de-looped kernel must fail verification, got {err:?}"
    );

    let clean = clean.into_outcome().unwrap().unwrap();
    assert_eq!(clean, reference, "the sibling must stay byte-identical to an unshared run");
    assert_eq!(pool.stats().images, 1, "both siblings shared one image");
}

/// brev, then crc32 (evicting brev from a one-entry residency), then
/// brev again, then brev once more: the third session is served brev's
/// circuit from the cache's host memo — a hit that re-admits it, not a
/// recompile — and pays what the fourth, finding brev resident, pays:
/// the bitstream write only. A pooled fleet reports exactly what an
/// unpooled one does.
#[test]
fn evicted_kernels_return_from_the_memo_pooled_or_not() {
    let build =
        |name: &str| Arc::new(workloads::by_name(name).unwrap().build(MbFeatures::paper_default()));
    let programs = [build("brev"), build("crc32"), build("brev"), build("brev")];
    let fleet = |pool: Option<Arc<SessionPool>>| {
        let cache = Arc::new(CircuitCache::bounded(1));
        let reports: Vec<_> = programs
            .iter()
            .map(|built| {
                let session = OnlineSession::new(Arc::clone(built), OnlineConfig::default())
                    .with_policy(policy())
                    .with_cache(Arc::clone(&cache));
                match &pool {
                    Some(pool) => session.with_pool(Arc::clone(pool)),
                    None => session,
                }
                .run()
                .unwrap()
            })
            .collect();
        (reports, cache.stats())
    };
    let (pooled, pooled_stats) = fleet(Some(Arc::new(SessionPool::new())));
    let (unpooled, unpooled_stats) = fleet(None);

    assert_eq!(pooled, unpooled, "pooling must not change any report");
    let [cold, readmitted, resident] = [0, 2, 3].map(|i| &pooled[i].events[0]);
    assert!(!cold.cache_hit);
    assert!(readmitted.cache_hit, "the evicted kernel must come back as a hit");
    assert!(resident.cache_hit);
    assert_eq!(
        readmitted.cad_cycles, resident.cad_cycles,
        "a residency miss on a memoised kernel is charged the bitstream write only"
    );
    assert!(resident.cad_cycles < cold.cad_cycles);
    for stats in [pooled_stats, unpooled_stats] {
        assert_eq!((stats.hits, stats.misses), (2, 2), "{stats:?}");
    }
}
