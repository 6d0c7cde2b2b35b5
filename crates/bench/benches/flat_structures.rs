//! Microbenchmarks of the flat data layouts the hot loops run on:
//!
//! * `route_cache` — one batched single-source pass per row
//!   ([`RouteCache::warm`]).
//! * `congestion` — the claim-counter ring.
//! * `machine_state` — the O(1) position index.
//!
//! The structures are pinned by unit tests and proptests; these
//! benches keep their cost visible in `BENCH_sim.json` history, whose
//! `notes` record the naive layouts they replaced.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qccd_compiler::policy::Congestion;
use qccd_compiler::{MachineState, Placement};
use qccd_device::{presets, IonId, Leg, RouteCache, SegmentId, Side, TrapId};

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
    // One 64-ion chain, looked up ion by ion.
    let chain: Vec<IonId> = (0..64).map(IonId).collect();
    let st = MachineState::new(&Placement::from_chains(vec![chain.clone()]));
    let mut g = c.benchmark_group("machine_state");
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
    bench_congestion,
    bench_machine_state
);
criterion_main!(benches);
