//! Zero-allocation regression test for the steady-state simulate loop
//! (`bench` feature only: `cargo test -p gals-core --features bench`).
//!
//! The claim under test, made across several PRs and extended by the
//! slab-backed instruction store: once a run is past warm-up (construction,
//! scratch-buffer growth, the in-flight slab reaching its peak live count),
//! the simulate loop performs **no heap allocation at all** — not per
//! instruction, not per squash, not per domain tick.
//!
//! Method: allocations are counted for the same workload at a small and a
//! large committed-instruction budget. Construction and warm-up costs are
//! identical (same program, same configuration, deterministic simulator),
//! so any difference would have to come from the extra steady-state
//! instructions — the assertion is that there is none.

#![cfg(feature = "bench")]

use gals_core::alloc_counter::CountingAllocator;
use gals_core::{simulate, ProcessorConfig, SimLimits};
use gals_workload::{generate, Benchmark};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocation calls attributable to one `simulate` run (program generation
/// excluded — the program is built by the caller).
fn allocs_for(program: &gals_isa::Program, cfg: &ProcessorConfig, insts: u64) -> u64 {
    let before = ALLOC.allocations();
    let r = simulate(program, cfg.clone(), SimLimits::insts(insts)).expect("run failed");
    assert_eq!(r.committed, insts, "budget must be reached");
    ALLOC.allocations() - before
}

#[test]
fn steady_state_simulate_loop_allocates_nothing() {
    // Branchy integer code (squash paths hot) and FP-heavy code (all three
    // clusters active), on all four machines of the paper matrix: most of
    // its points are pausible, and the stretch and rendezvous paths are
    // theirs alone.
    let small = 12_000;
    let large = 30_000;
    for bench in [Benchmark::Gcc, Benchmark::Fpppp] {
        let program = generate(bench, 42);
        for (label, cfg) in [
            ("sync", ProcessorConfig::synchronous_1ghz()),
            ("gals", ProcessorConfig::gals_equal_1ghz(1)),
            ("latched", ProcessorConfig::pausible_equal_1ghz(1)),
            ("rendezvous", ProcessorConfig::pausible_rendezvous_1ghz(1)),
        ] {
            // Warm-up run: fills lazily grown scratch (thread-local or
            // allocator-side caches don't matter — we diff counts).
            let _ = allocs_for(&program, &cfg, small);
            let a_small = allocs_for(&program, &cfg, small);
            let a_large = allocs_for(&program, &cfg, large);
            assert_eq!(
                a_small,
                a_large,
                "{} / {label}: {} extra allocations over {} extra instructions \
                 — the steady-state loop must not allocate",
                bench.name(),
                a_large.saturating_sub(a_small),
                large - small,
            );
        }
    }
}
