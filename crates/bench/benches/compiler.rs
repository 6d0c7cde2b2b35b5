//! Criterion benchmarks of individual compiler stages: mapping, routing
//! (fresh Dijkstra vs the memoized all-pairs [`RouteCache`], and one
//! congestion-aware query) and full compilation, plus OpenQASM parsing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qccd_circuit::{generators, qasm};
use qccd_compiler::policy::Congestion;
use qccd_compiler::{compile, initial_map, CompilerConfig, RoutingKind};
use qccd_device::{presets, RouteCache, RouteScratch, TrapId};

fn bench_mapping(c: &mut Criterion) {
    let circuit = generators::qft(64);
    let device = presets::l6(20);
    c.bench_function("initial_map/qft64_l6", |b| {
        b.iter(|| initial_map(&circuit, &device, 2).expect("fits"));
    });
}

fn bench_routing(c: &mut Criterion) {
    let linear = presets::l6(20);
    let grid = presets::g2x3(20);
    c.bench_function("route/l6_end_to_end", |b| {
        b.iter(|| linear.route(TrapId(0), TrapId(5)).expect("connected"));
    });
    c.bench_function("route/g2x3_diagonal", |b| {
        b.iter(|| grid.route(TrapId(0), TrapId(5)).expect("connected"));
    });

    // One lookahead-congestion query across an 8x8 grid whose window is
    // full of legs on the query's own static route, so the router runs
    // its weighted search rather than serving the static leg.
    let grid8 = presets::grid(
        8,
        8,
        12,
        presets::DEFAULT_GRID_STUB,
        presets::DEFAULT_GRID_LINK,
    );
    let cache = RouteCache::new(&grid8);
    cache.warm();
    let (from, to) = (TrapId(0), TrapId(63));
    let mut congestion = Congestion::new(&grid8);
    let loaded = &cache.route(from, to).expect("connected").legs()[0];
    for _ in 0..Congestion::DEFAULT_HORIZON {
        congestion.commit(loaded);
    }
    let mut scratch = RouteScratch::new();
    c.bench_function("route/lookahead_leg_g8x8_loaded", |b| {
        b.iter(|| {
            RoutingKind::LookaheadCongestion
                .next_route(&cache, &congestion, &mut scratch, from, to)
                .expect("connected")
        });
    });
}

/// The satellite speedup demonstration: querying every ordered trap pair
/// of the G2x3 grid, recomputing Dijkstra per query (what the compiler
/// did per gate before the cache) versus hitting the warm memo (what the
/// routing/eviction policies do now).
fn bench_route_cache(c: &mut Criterion) {
    let grid = presets::g2x3(20);
    let pairs: Vec<(TrapId, TrapId)> = grid
        .trap_ids()
        .flat_map(|a| grid.trap_ids().map(move |b| (a, b)))
        .filter(|(a, b)| a != b)
        .collect();
    let mut group = c.benchmark_group("route_cache");
    group.bench_function("g2x3_all_pairs/uncached", |b| {
        b.iter(|| {
            for &(from, to) in &pairs {
                black_box(grid.route(from, to).expect("connected"));
            }
        });
    });
    let cache = RouteCache::new(&grid);
    group.bench_function("g2x3_all_pairs/cached", |b| {
        b.iter(|| {
            for &(from, to) in &pairs {
                black_box(cache.route(from, to).expect("connected"));
            }
        });
    });
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile");
    group.sample_size(10);
    let device = presets::l6(20);
    let config = CompilerConfig::default();
    for (name, circuit) in [
        ("adder64", generators::adder_paper()),
        ("supremacy64", generators::supremacy_paper()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| compile(&circuit, &device, &config).expect("compiles"));
        });
    }
    // The largest scale-tier compile: 512 qubits on a 32-trap line,
    // where every long shuttle re-plans at each intermediate trap.
    let circuit = generators::random_circuit(512, 8000, 0.5, 1);
    let line = presets::linear(32, 20, presets::DEFAULT_LINEAR_SPACING);
    let lookahead = CompilerConfig::with_routing(RoutingKind::LookaheadCongestion);
    group.bench_function("random512_l32_lookahead", |b| {
        b.iter(|| compile(&circuit, &line, &lookahead).expect("compiles"));
    });
    // The same circuit on the 8x8 grid, where loaded routes have
    // detours and most lookahead queries run the weighted search.
    let grid8 = presets::grid(
        8,
        8,
        12,
        presets::DEFAULT_GRID_STUB,
        presets::DEFAULT_GRID_LINK,
    );
    group.bench_function("random512_g8x8_lookahead", |b| {
        b.iter(|| compile(&circuit, &grid8, &lookahead).expect("compiles"));
    });
    group.finish();
}

fn bench_qasm(c: &mut Criterion) {
    let circuit = generators::adder_paper();
    let text = qasm::write(&circuit);
    c.bench_function("qasm/parse_adder64", |b| {
        b.iter(|| qasm::parse(&text).expect("parses"));
    });
}

criterion_group!(
    benches,
    bench_mapping,
    bench_routing,
    bench_route_cache,
    bench_compile,
    bench_qasm
);
criterion_main!(benches);
