//! Before/after microbenchmarks for every structure touched by the flat
//! data-layout refactor.
//!
//! Each group pairs the *naive* layout the hot loop used to run on (kept
//! here as a faithful in-bench reimplementation) against the *flat*
//! layout the crates now ship, over the same operation sequence:
//!
//! * `route_cache` — per-pair Dijkstra vs one batched single-source pass
//!   per row ([`RouteCache::warm`]).
//! * `ready_tracker` — sorted-`Vec` ready list vs the bitset + cursor
//!   tracker.
//! * `congestion` — `VecDeque<Leg>` window with recounted loads vs the
//!   claim-counter ring.
//! * `machine_state` — chain-scanning position lookups vs the O(1)
//!   position index.
//!
//! The structures are pinned bit-identical by unit tests and proptests;
//! these benches exist so the layout changes stay visible (and honest)
//! in `BENCH_sim.json` history.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qccd_circuit::generators;
use qccd_compiler::policy::Congestion;
use qccd_compiler::{MachineState, Placement};
use qccd_device::{presets, IonId, Leg, RouteCache, SegmentId, Side, TrapId};
use std::collections::VecDeque;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Batched all-pairs fill: one single-source Dijkstra per row. The
/// per-pair "before" is the existing `route_cache/g2x3_all_pairs/uncached`
/// entry in `compiler.rs`.
fn bench_route_cache_warm(c: &mut Criterion) {
    let grid = presets::g2x3(20);
    let mut g = c.benchmark_group("route_cache");
    g.bench_function("g2x3_warm_fill", |b| {
        b.iter(|| {
            let cache = RouteCache::new(&grid);
            cache.warm();
            black_box(cache.route(TrapId(0), TrapId(5)).expect("connected"));
        });
    });
    g.finish();
}

fn bench_ready_tracker(c: &mut Criterion) {
    let circuit = generators::qft(64);
    let dag = qccd_circuit::DependencyDag::new(&circuit);
    let mut g = c.benchmark_group("ready_tracker");
    // Before: a sorted ready list, popped from the front.
    g.bench_function("drain_qft64/naive_sorted_vec", |b| {
        b.iter(|| {
            let mut remaining: Vec<usize> =
                (0..dag.len()).map(|i| dag.predecessors(i).len()).collect();
            let mut ready: Vec<usize> = dag.roots();
            let mut drained = 0usize;
            while let Some(i) = (!ready.is_empty()).then(|| ready.remove(0)) {
                drained += 1;
                for &s in dag.successors(i) {
                    remaining[s] -= 1;
                    if remaining[s] == 0 {
                        let at = ready.partition_point(|&r| r < s);
                        ready.insert(at, s);
                    }
                }
            }
            black_box(drained)
        });
    });
    // After: the bitset tracker with a monotone scan cursor.
    g.bench_function("drain_qft64/bitset_cursor", |b| {
        b.iter(|| {
            let mut tracker = dag.ready_tracker();
            let mut drained = 0usize;
            while let Some(i) = tracker.pop_earliest() {
                drained += 1;
                tracker.complete(i);
            }
            black_box(drained)
        });
    });
    g.finish();
}

/// A pseudo-random stream of shuttle legs over the G2x3 segment space.
fn leg_stream(n: usize) -> Vec<Leg> {
    let mut state = 0x5851_f42d_4c95_7f2du64;
    (0..n)
        .map(|_| {
            let len = 1 + (xorshift(&mut state) % 3) as usize;
            Leg {
                from: TrapId((xorshift(&mut state) % 6) as u32),
                exit_side: Side::Right,
                to: TrapId((xorshift(&mut state) % 6) as u32),
                entry_side: Side::Left,
                segments: (0..len)
                    .map(|_| SegmentId((xorshift(&mut state) % 7) as u32))
                    .collect(),
                junctions: Vec::new(),
                length_units: len as u32,
            }
        })
        .collect()
}

fn bench_congestion(c: &mut Criterion) {
    let device = presets::g2x3(8);
    let legs = leg_stream(512);
    let mut g = c.benchmark_group("congestion");
    // Before: a `VecDeque<Leg>` window; every load query walks it.
    g.bench_function("window512_h20/naive_vecdeque", |b| {
        b.iter(|| {
            let mut window: VecDeque<Leg> = VecDeque::new();
            let mut total = 0u32;
            for leg in &legs {
                if window.len() == 20 {
                    window.pop_front();
                }
                window.push_back(leg.clone());
                let probe = leg.segments[0];
                total += window
                    .iter()
                    .map(|l| l.segments.iter().filter(|&&s| s == probe).count() as u32)
                    .sum::<u32>();
            }
            black_box(total)
        });
    });
    // After: the claim-counter ring; loads are O(1) reads.
    g.bench_function("window512_h20/counter_ring", |b| {
        b.iter(|| {
            let mut congestion = Congestion::with_horizon(&device, 20);
            let mut total = 0u32;
            for leg in &legs {
                congestion.commit(leg);
                total += congestion.segment_load(leg.segments[0]);
            }
            black_box(total)
        });
    });
    g.finish();
}

fn bench_machine_state(c: &mut Criterion) {
    // One long chain: the worst case for a scanning position lookup.
    let chain: Vec<IonId> = (0..64).map(IonId).collect();
    let st = MachineState::new(&Placement::from_chains(vec![chain.clone()]));
    let mut g = c.benchmark_group("machine_state");
    // Before: find the ion's index by scanning its chain.
    g.bench_function("position_64x64/naive_scan", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &ion in &chain {
                let trap = st.trap_of(ion).expect("placed");
                acc += st
                    .chain(trap)
                    .iter()
                    .position(|&i| i == ion)
                    .expect("in chain");
            }
            black_box(acc)
        });
    });
    // After: the O(1) position index.
    g.bench_function("position_64x64/indexed", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &ion in &chain {
                acc += st.position(ion);
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_route_cache_warm,
    bench_ready_tracker,
    bench_congestion,
    bench_machine_state
);
criterion_main!(benches);
