//! Allocation-budget regression: after warm-up, steady-state
//! [`Platform::step`] must perform **zero** heap allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms a platform until every queue and scratch buffer has reached its
//! steady capacity, arms the counter, runs a measurement stretch through
//! the optimized stepper and asserts the counter never moved.
//!
//! This file deliberately holds a single `#[test]`: the counter is
//! process-global, and a concurrently running sibling test would pollute
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_rng::Xoshiro256StarStar;
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::Mapping;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; only adds counting.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System::alloc` — the caller guarantees
    // a valid, non-zero-size layout; we add a counter and forward.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout is forwarded untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::realloc` — ptr/layout came from
    // this allocator (which is `System` underneath) and new_size is the
    // caller's obligation; we add a counter and forward.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's ptr/layout/new_size are forwarded untouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System::dealloc` — ptr was allocated by
    // this allocator with this layout; deallocation is not counted.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's ptr/layout are forwarded untouched.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `platform` for `cycles` with the counter armed and returns how
/// many allocations happened.
fn count_allocs(platform: &mut Platform, cycles: u64) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    platform.run_until(platform.now() + cycles);
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

fn build(model: ModelKind, seed: u64) -> Platform {
    let cfg = PlatformConfig::default(); // the paper's 8×16, 128 nodes
    let graph = fork_join(&ForkJoinParams::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mapping = if model.is_adaptive() {
        Mapping::random_uniform(&graph, cfg.dims, &mut rng)
    } else {
        Mapping::heuristic(&graph, cfg.dims)
    };
    let mut p = Platform::new(graph, &mapping, &model, cfg);
    p.randomize_phases(&mut rng);
    p
}

#[test]
fn steady_state_step_is_allocation_free() {
    for (name, model) in [
        ("baseline", ModelKind::NoIntelligence),
        ("ffw", ModelKind::ForagingForWork(FfwConfig::default())),
    ] {
        let mut p = build(model, 42);
        // Warm-up: 300 ms covers dozens of generation waves, the FFW
        // settling churn (task switches, bounces, gossip re-convergence)
        // and every queue's high-water mark.
        p.run_ms(300.0);
        let allocs = count_allocs(&mut p, 10_000);
        assert!(
            p.completions_total() > 0,
            "{name}: platform must actually be doing work"
        );
        assert_eq!(
            allocs, 0,
            "{name}: steady-state Platform::step must not touch the heap"
        );
    }
}
