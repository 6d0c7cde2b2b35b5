//! Compiling allocates per compile, not per circuit operation or per
//! emitted instruction: the instruction stream owns no heap memory (a
//! move indexes the executable's leg table), the walk over the circuit
//! builds no dependency graph, and the router lends its cached legs.
//!
//! A counting global allocator sees every allocation and reallocation
//! made while the Fig. 8 benchmarks compile on `l6(20)`, the paper's
//! L6 device at one of the figure's capacities. This file holds one
//! test, so no other test allocates while it counts.

use qccd_circuit::generators::Benchmark;
use qccd_compiler::{compile, CompilerConfig, ReorderMethod};
use qccd_device::presets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting each `alloc` and `realloc`.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Summed over the six Fig. 8 benchmarks under both reorder methods
/// (189k instructions): about 3 allocations per 100 instructions, nearly
/// all of them per-compile set-up (the route cache's rows, the per-qubit
/// next-use lists). A stream of 72-byte instructions that own their
/// legs, walked through a per-operation dependency DAG, made about 45.
#[test]
fn fig8_compiles_allocate_under_five_per_hundred_instructions() {
    let device = presets::l6(20);
    let (mut allocations, mut insts) = (0, 0);
    let mut per_compile = Vec::new();
    for benchmark in Benchmark::ALL {
        let circuit = benchmark.build();
        for reorder in ReorderMethod::ALL {
            let config = CompilerConfig::with_reorder(reorder);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let exe = compile(&circuit, &device, &config).expect("Fig. 8 circuits fit l6(20)");
            let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
            allocations += made;
            insts += exe.len();
            per_compile.push(format!("{benchmark} {reorder}: {made} for {}", exe.len()));
        }
    }
    assert!(
        allocations * 100 < 5 * insts,
        "{allocations} allocations for {insts} instructions: {per_compile:#?}"
    );
}
