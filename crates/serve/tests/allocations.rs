//! Allocations per batch: after warm-up, the sharded executor's cost in
//! heap allocations must not grow with the number of frames. Every
//! worker reuses its solve scratch, and every shard fills a pooled map
//! slab in place, so a 256-frame batch allocates exactly what a 64-frame
//! batch does (channel and bookkeeping allocations only).
//!
//! A counting `#[global_allocator]` sees every thread of this process,
//! the pool's workers included, so this binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eigenmaps_core::prelude::*;
use eigenmaps_serve::ShardedExecutor;

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A 14 × 15 deployment with K = M = 8 and `frames` reading vectors.
fn workload(frames: usize) -> (Arc<Deployment>, Arc<Vec<Vec<f64>>>) {
    let maps: Vec<ThermalMap> = (0..80)
        .map(|t| {
            let t = t as f64;
            ThermalMap::from_fn(14, 15, |r, c| {
                let (r, c) = (r as f64, c as f64);
                50.0 + (t / 5.0 + r / 7.0).sin() * 3.0
                    + (t / 3.0 - c / 4.0).cos() * 2.0
                    + ((r * c) / 40.0 + t / 11.0).sin()
            })
        })
        .collect();
    let ensemble = MapEnsemble::from_maps(&maps).expect("consistent shapes");
    let deployment = Pipeline::new(&ensemble)
        .basis(BasisSpec::EigenExact { k: 8 })
        .sensors(8)
        .design()
        .expect("design");
    let frames = (0..frames)
        .map(|t| {
            deployment
                .sensors()
                .sample(&ensemble.map(t % ensemble.len()))
        })
        .collect();
    (Arc::new(deployment), Arc::new(frames))
}

/// Allocations made by one `execute` of `frames`, its result dropped
/// (which parks the slabs back in the pool).
fn allocations_of(
    executor: &ShardedExecutor,
    deployment: &Arc<Deployment>,
    frames: &Arc<Vec<Vec<f64>>>,
) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let maps = executor.execute(deployment, frames).expect("execute");
    assert_eq!(maps.len(), frames.len());
    drop(maps);
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn sharded_execute_allocates_the_same_for_64_and_256_frames() {
    let (deployment, large) = workload(256);
    let small = Arc::new(large[..64].to_vec());
    let executor = ShardedExecutor::new(2);
    // Warm-up: the workers size their scratch and the pool's slabs grow
    // to the largest batch.
    for _ in 0..4 {
        allocations_of(&executor, &deployment, &large);
    }
    // The injector channel allocates a fresh block every few dozen
    // sends, whatever the batch size, so compare the fewest allocations
    // over several interleaved rounds.
    let mut fewest = (u64::MAX, u64::MAX);
    for _ in 0..8 {
        fewest.0 = fewest.0.min(allocations_of(&executor, &deployment, &small));
        fewest.1 = fewest.1.min(allocations_of(&executor, &deployment, &large));
    }
    let (at_64, at_256) = fewest;
    assert_eq!(
        at_64, at_256,
        "64 frames took {at_64} allocations, 256 frames took {at_256}"
    );
    // A per-frame allocation would put 256 frames at ≥ 256.
    assert!(at_256 < 64, "{at_256} allocations per batch");
}
