//! Debug-only heap-allocation counter behind the process allocator.
//!
//! The serving hot path claims to be allocation-free in steady state
//! (shared program images, systems rearmed in place across repeats,
//! preallocated profiler scratch). Claims like that rot silently, so this module
//! puts a counting shim in front of the system allocator: in **debug**
//! builds every `alloc`/`realloc`/`alloc_zeroed` bumps a process-wide
//! counter; in **release** builds the counting is compiled out entirely
//! and the shim forwards straight to the system allocator, so the
//! published bench numbers are unperturbed.
//!
//! `serveperf` reports the execute-window count in `BENCH_serve.json`
//! (`"allocations"`, `null` when the counter is compiled out), and the
//! debug test suite asserts the steady-state slice path allocates
//! nothing (`tests/steady_state_alloc.rs`) — which is what CI runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Whether the counter is live (debug builds only).
pub const COUNTING: bool = cfg!(debug_assertions);

/// Counting shim over the system allocator; registered as this crate's
/// `#[global_allocator]`, so every binary and test of `warp-bench`
/// allocates through it.
pub struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

// SAFETY: pure pass-through to `System`; the counter has no effect on
// the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        #[cfg(debug_assertions)]
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        #[cfg(debug_assertions)]
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        #[cfg(debug_assertions)]
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Total allocations since process start (frozen at 0 in release).
#[must_use]
pub fn count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result plus the number of heap allocations
/// it (and any concurrent thread) performed — `None` when the counter
/// is compiled out (release builds).
pub fn delta_during<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let before = count();
    let result = f();
    let delta = COUNTING.then(|| count() - before);
    (result, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_live_exactly_in_debug_builds() {
        let (v, delta) = delta_during(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        // The Option must mirror the compile-time switch exactly…
        assert_eq!(delta.is_some(), COUNTING);
        // …and a live counter must have seen the fresh Vec.
        if let Some(n) = delta {
            assert!(n >= 1, "a fresh Vec must be counted");
        }
    }
}
