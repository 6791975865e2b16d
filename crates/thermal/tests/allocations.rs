//! A transient step allocates nothing: the die power's DCT, the per-mode
//! solves and the die map's inverse DCT all run in buffers the simulator
//! keeps. A counting `#[global_allocator]` sees every thread of this
//! process, so this binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eigenmaps_thermal::{GridSpec, ThermalModel, TransientSim};

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

#[test]
fn a_step_allocates_nothing() {
    let model = ThermalModel::with_default_stack(GridSpec::new(28, 30, 4e-4, 4e-4)).unwrap();
    let mut sim = TransientSim::new(model, 0.05).unwrap();
    let powers: Vec<Vec<f64>> = (0..3)
        .map(|s| (0..840).map(|i| 0.01 * ((i + s) % 5) as f64).collect())
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for power in powers.iter().cycle().take(30) {
        sim.step(power).unwrap();
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated, 0, "30 steps allocated {allocated} times");
    assert!(sim.die_temperatures()[0] > 45.0);
}
