//! `qccd-perfbench`: the end-to-end and per-layer benchmark of the
//! compile -> simulate -> project sweep pipeline.
//!
//! ```text
//! qccd-perfbench --workload <fig8-cold|scale-compile|warm-resweep>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! qccd-perfbench [--seed N] [--seconds S] [--trace 0|1]   # every workload
//! qccd-perfbench --record [--seconds S]                   # rewrite baseline.json
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer
//! metrics of the traced serial replay under `--trace 1`. A readable
//! report, the environment record and the layer split go to standard
//! error. See `perfbench/README.md` for the metrics and workloads.

mod replay;
mod sys;
mod workloads;

use replay::{Breakdown, Counts, Recorder, LAYERS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use sys::median;
use workloads::{Counters, Iteration, Prepared, Workload};

const BASELINE: &str = "perfbench/baseline.json";
const WORK_ROOT: &str = ".bench_work";
const TRACE_ROOT: &str = ".bench_out";
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 2;
const DEFAULT_SECONDS: f64 = 25.0;
/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Fewest timed iterations, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    /// Where a child of `--record` writes its digests and counters.
    record_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: qccd-perfbench [--workload fig8-cold|scale-compile|warm-resweep] \
         [--seed N] [--seconds S] [--trace 0|1] [--record]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: false,
        record_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--record" => args.record = true,
            "--record-out" => args.record_out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let code = match (args.workload, args.record) {
        (Some(workload), false) => run_workload(workload, &args),
        (None, false) => run_all(&args),
        (None, true) => record(&args),
        (Some(_), true) => usage(),
    };
    std::process::exit(code);
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a ratio over zero work is 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs one workload in this process and prints its result line.
fn run_workload(workload: Workload, args: &Args) -> i32 {
    let work = PathBuf::from(WORK_ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
    let outcome = measure(workload, args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT); // only if no other run is using it
    match outcome {
        Ok(m) => {
            println!(
                "{}",
                result_line(m.failed == 0, m.attempted, m.failed, &m.metrics)
            );
            i32::from(m.failed != 0)
        }
        Err(e) => {
            eprintln!("qccd-perfbench: {}: {e}", workload.name());
            println!("{}", result_line(false, 1, 1, &[]));
            1
        }
    }
}

struct Measured {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn measure(workload: Workload, args: &Args, work: &Path) -> Result<Measured, String> {
    let baseline = if args.record_out.is_some() {
        None
    } else {
        Some(load_baseline()?)
    };
    let env = sys::environment(Path::new("."));
    eprintln!(
        "qccd-perfbench: workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &env {
        eprintln!("  env {k}: {v}");
    }

    // Set-up, several times, each in a fresh directory; the last
    // set-up's inputs are used.
    let mut setup_samples = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(work);
        let t0 = Instant::now();
        prepared = Some(workloads::setup(workload, args.seed, work)?);
        setup_samples.push(t0.elapsed().as_secs_f64());
    }
    let mut p: Prepared = prepared.ok_or("no set-up ran")?;
    if let Some(baseline) = &baseline {
        check_recorded(baseline, workload, args.seed, &mut p)?;
    }

    // Warm-up: fixes any digest still unknown and runs the reference
    // checks; its runs are the traced replay's twins.
    let warm = p.iterate()?;
    p.check(&warm)?;
    if let Some(baseline) = &baseline {
        check_recorded_counters(baseline, workload, args.seed, &warm.counters)?;
    }

    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let timed = timed_iterations(&p, &warm.counters, untraced_budget);
    let wall: Vec<f64> = timed.samples.iter().map(|s| s.0).collect();
    let cpu: Vec<f64> = timed.samples.iter().map(|s| s.1).collect();
    if wall.is_empty() {
        return Err("every timed iteration failed".into());
    }
    let sweep_s = median(&wall);
    let cpu_s = median(&cpu);
    let setup_s = median(&setup_samples);
    eprintln!(
        "  {} timed iterations ({} failed), {} set-ups; sweep_s min {:.6} max {:.6}",
        timed.attempted,
        timed.failed,
        setup_samples.len(),
        wall.iter().copied().fold(f64::INFINITY, f64::min),
        wall.iter().copied().fold(0.0, f64::max)
    );

    let metrics = if args.trace {
        let trace_file = PathBuf::from(TRACE_ROOT).join(format!(
            "trace-{}-seed{}.jsonl",
            workload.name(),
            args.seed
        ));
        traced_metrics(
            &p,
            &warm,
            args.seconds / 2.0,
            sweep_s,
            cpu_s,
            &trace_file,
            workload,
        )?
    } else {
        let insts = warm.counters.sim_insts as f64;
        let m = vec![
            metric("sweep_s", sweep_s, "s"),
            metric("cpu_s", cpu_s, "s"),
            metric("sim_insts_per_s", insts / sweep_s, "inst/s"),
            metric("peak_rss_mb", sys::peak_rss_mib()?, "MiB"),
            metric("setup_s", setup_s, "s"),
        ];
        let failed_frac = timed.failed as f64 / timed.attempted as f64;
        for x in &m {
            eprintln!("  {:<18} {:>16.6} {}", x.name, x.value, x.unit);
        }
        eprintln!("  {:<18} {:>16.6} ratio", "failed_frac", failed_frac);
        eprintln!(
            "  sweep_s is the median of {} iterations; setup_s of {} set-ups",
            wall.len(),
            setup_samples.len()
        );
        m
    };

    if let Some(out) = &args.record_out {
        write_record(out, &p, &warm.counters, &metrics, &env)?;
    }
    Ok(Measured {
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
    })
}

struct Timed {
    attempted: usize,
    failed: usize,
    /// Wall and CPU seconds of each iteration that passed its checks.
    samples: Vec<(f64, f64)>,
}

/// Untraced iterations for `budget` seconds (at least
/// [`MIN_ITERATIONS`]), stopping at the first that fails: errors, or
/// produces artifacts or counters that differ from the warm-up's.
fn timed_iterations(p: &Prepared, want: &Counters, budget: f64) -> Timed {
    let mut timed = Timed {
        attempted: 0,
        failed: 0,
        samples: Vec::new(),
    };
    let start = Instant::now();
    while timed.attempted < MIN_ITERATIONS || start.elapsed().as_secs_f64() < budget {
        timed.attempted += 1;
        let checked = p.iterate().and_then(|it| {
            p.verify(&it)?;
            if it.counters != *want {
                return Err(format!(
                    "counters {:?} differ from the warm-up's {want:?}",
                    it.counters
                ));
            }
            Ok(it)
        });
        match checked {
            Ok(it) => timed.samples.push((it.wall_s, it.cpu_s)),
            Err(e) => {
                // One failure already makes the run incorrect.
                eprintln!("  iteration {} failed: {e}", timed.attempted);
                timed.failed += 1;
                break;
            }
        }
    }
    timed
}

/// Per-layer metrics from traced serial replays run for `budget`
/// seconds (at least two).
fn traced_metrics(
    p: &Prepared,
    warm: &Iteration,
    budget: f64,
    sweep_s: f64,
    cpu_s: f64,
    trace_file: &Path,
    workload: Workload,
) -> Result<Vec<Metric>, String> {
    let mut rec = Recorder::new();
    let mut counts: Option<Counts> = None;
    let start = Instant::now();
    let mut n = 0;
    while n < 2 || start.elapsed().as_secs_f64() < budget {
        let c = replay::replay(&mut rec, p, &warm.runs)?;
        if counts.is_some_and(|prev| prev != c) {
            return Err(format!("replay counters {c:?} differ from {counts:?}"));
        }
        counts = Some(c);
        n += 1;
    }
    let c = counts.ok_or("no replay ran")?;
    if c.sim_insts != warm.counters.sim_insts {
        return Err(format!(
            "replay simulated {} instructions, the engine {}",
            c.sim_insts, warm.counters.sim_insts
        ));
    }
    let breakdown = rec.breakdown()?;
    if let Some(dir) = trace_file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    rec.write(trace_file, workload.name())?;

    let secs = |f: &dyn Fn(&Breakdown) -> u64| {
        median(
            &breakdown
                .iter()
                .map(|b| f(b) as f64 * 1e-9)
                .collect::<Vec<_>>(),
        )
    };
    let layer = |name: &str| {
        let l = LAYERS
            .iter()
            .position(|&n| n == name)
            .expect("a layer named in LAYERS");
        secs(&|b: &Breakdown| b.layer_ns[l])
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let wall = secs(&|b: &Breakdown| b.wall_ns);
    let parse_s = layer("circuit.parse");
    let compile_s = layer("compiler.compile");
    let simulate_s = layer("sim.simulate");
    let memo_hits = c.placement_hits + c.route_hits;
    let memo_total = memo_hits + c.placement_misses + c.route_misses;
    let metrics = vec![
        metric("circuit.parse_s", parse_s, "s"),
        metric(
            "circuit.parse_mb_per_s",
            c.circuit_bytes as f64 / 1e6 / parse_s,
            "MB/s",
        ),
        metric("engine.expand_s", layer("engine.expand"), "s"),
        metric("engine.jobs", c.jobs as f64, "count"),
        metric("engine.compile_groups", c.compile_groups as f64, "count"),
        metric("engine.parallel_speedup", cpu_s / sweep_s, "x"),
        metric("device.route_rows_s", layer("device.route_rows"), "s"),
        metric("compiler.compile_s", compile_s, "s"),
        metric("compiler.place_s", secs(&|b: &Breakdown| b.place_ns), "s"),
        metric("compiler.insts_out", c.insts_out as f64, "count"),
        metric(
            "compiler.ns_per_inst",
            compile_s * 1e9 / c.insts_out as f64,
            "ns",
        ),
        metric("compiler.infeasible", c.infeasible as f64, "count"),
        metric(
            "compiler.memo_hit_ratio",
            ratio(memo_hits, memo_total),
            "ratio",
        ),
        metric("sim.simulate_s", simulate_s, "s"),
        metric("sim.runs", c.sim_runs as f64, "count"),
        metric("sim.insts", c.sim_insts as f64, "count"),
        metric(
            "sim.ns_per_inst",
            simulate_s * 1e9 / c.sim_insts as f64,
            "ns",
        ),
        metric("cache.load_s", layer("cache.load"), "s"),
        metric("cache.loads", c.loads as f64, "count"),
        metric("cache.hit_ratio", ratio(c.hits, c.loads), "ratio"),
        metric("cache.store_s", layer("cache.store"), "s"),
        metric("cache.stores", c.stores as f64, "count"),
        metric("cache.bytes_written", c.bytes_written as f64, "B"),
        metric("sink.emit_s", layer("sink.emit"), "s"),
        metric("sink.bytes", c.sink_bytes as f64, "B"),
        metric("trace.wall_s", wall, "s"),
        metric(
            "trace.unattributed_s",
            secs(&|b: &Breakdown| b.unattributed_ns),
            "s",
        ),
        metric("trace.overhead_frac", wall / cpu_s - 1.0, "ratio"),
    ];

    let layer_sum: f64 = LAYERS.iter().map(|l| layer(l)).sum();
    eprintln!("  traced serial replay: {n} iterations, median wall {wall:.6} s");
    eprintln!(
        "  {:<20} {:>12} {:>8}",
        "layer (self time)", "seconds", "share"
    );
    for l in LAYERS {
        let s = layer(l);
        eprintln!("  {l:<20} {s:>12.6} {:>7.1}%", 100.0 * s / layer_sum);
    }
    for m in &metrics {
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(metrics)
}

// ---------------------------------------------------------------------
// The recorded baseline: digests and counters at the seed commit.
// ---------------------------------------------------------------------

fn load_baseline() -> Result<Value, String> {
    let text = std::fs::read_to_string(BASELINE).map_err(|e| format!("{BASELINE}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{BASELINE}: {e}"))
}

/// The recorded entry for (`workload`, `seed`), falling back to the
/// default seed's entry for data the seed does not change.
fn recorded(baseline: &Value, workload: Workload, seed: u64, seeded: bool) -> Option<&Value> {
    let runs = baseline.get("runs")?.get(workload.name())?;
    match runs.get(&seed.to_string()) {
        Some(entry) => Some(entry),
        None if !seeded => runs.get(&DEFAULT_SEED.to_string()),
        None => None,
    }
}

fn parse_digest(v: &Value) -> Option<u64> {
    match v {
        Value::Str(s) => u64::from_str_radix(s, 16).ok(),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Pins the expected artifact digests to the recorded ones, where the
/// baseline has them for this seed.
fn check_recorded(
    baseline: &Value,
    workload: Workload,
    seed: u64,
    p: &mut Prepared,
) -> Result<(), String> {
    let Some(entry) = recorded(baseline, workload, seed, workload.seeded_artifacts()) else {
        return if workload.seeded_artifacts() {
            Ok(())
        } else {
            Err(format!("{BASELINE} has no entry for {}", workload.name()))
        };
    };
    let artifacts = entry
        .get("artifacts")
        .ok_or("baseline entry lacks artifacts")?;
    for (input, expected) in p.specs.iter().zip(p.expected.iter_mut()) {
        let want = artifacts
            .get(&input.name)
            .and_then(parse_digest)
            .ok_or_else(|| format!("{BASELINE} has no digest for {}", input.name))?;
        match expected {
            Some(have) if *have != want => {
                return Err(format!(
                    "set-up artifact {} digest {have:016x} differs from the recorded {want:016x}",
                    input.name
                ))
            }
            _ => *expected = Some(want),
        }
    }
    Ok(())
}

fn check_recorded_counters(
    baseline: &Value,
    workload: Workload,
    seed: u64,
    have: &Counters,
) -> Result<(), String> {
    let Some(counters) = recorded(baseline, workload, seed, workload.seeded_counters())
        .and_then(|e| e.get("counters"))
    else {
        return Ok(());
    };
    let want = |k: &str| counters.get(k).and_then(as_u64);
    let pairs = [
        ("jobs", have.jobs as u64),
        ("executed", have.executed as u64),
        ("cached", have.cached as u64),
        ("compile_groups", have.compile_groups as u64),
        ("sim_insts", have.sim_insts),
    ];
    for (k, v) in pairs {
        if want(k) != Some(v) {
            return Err(format!(
                "counter {k} = {v} differs from the recorded {:?}",
                want(k)
            ));
        }
    }
    Ok(())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn write_record(
    out: &Path,
    p: &Prepared,
    counters: &Counters,
    metrics: &[Metric],
    env: &[(&'static str, String)],
) -> Result<(), String> {
    let artifacts = p
        .specs
        .iter()
        .zip(&p.expected)
        .map(|(s, d)| {
            (
                s.name.clone(),
                Value::Str(format!("{:016x}", d.unwrap_or_default())),
            )
        })
        .collect();
    let record = obj(vec![
        ("artifacts", Value::Object(artifacts)),
        (
            "counters",
            obj(vec![
                ("jobs", Value::UInt(counters.jobs as u64)),
                ("executed", Value::UInt(counters.executed as u64)),
                ("cached", Value::UInt(counters.cached as u64)),
                (
                    "compile_groups",
                    Value::UInt(counters.compile_groups as u64),
                ),
                ("sim_insts", Value::UInt(counters.sim_insts)),
            ]),
        ),
        (
            "metrics",
            Value::Object(
                metrics
                    .iter()
                    .map(|m| (format!("{} ({})", m.name, m.unit), Value::Float(m.value)))
                    .collect(),
            ),
        ),
        (
            "environment",
            Value::Object(
                env.iter()
                    .map(|(k, v)| ((*k).to_owned(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]);
    let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))
}

// ---------------------------------------------------------------------
// Driving every workload, each in a process of its own.
// ---------------------------------------------------------------------

fn child(workload: Workload, seed: u64, args: &Args, record_out: Option<&Path>) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(out) = record_out {
        cmd.arg("--record-out").arg(out);
    }
    let output = cmd.output().ok()?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()?
        .to_owned();
    output.status.success().then_some(last)
}

fn run_all(args: &Args) -> i32 {
    let mut ok = true;
    for w in Workload::ALL {
        match child(w, args.seed, args, None) {
            Some(line) => println!("{}: {line}", w.name()),
            None => {
                println!("{}: FAILED", w.name());
                ok = false;
            }
        }
    }
    i32::from(!ok)
}

/// Runs every workload on the default and the held-out seed and writes
/// their digests, counters, metric medians and the environment to
/// `perfbench/baseline.json`.
fn record(args: &Args) -> i32 {
    let tmp = PathBuf::from(WORK_ROOT).join(format!("record-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("qccd-perfbench: {}: {e}", tmp.display());
        return 1;
    }
    let mut runs = Vec::new();
    let mut environment = Value::Null;
    let mut ok = true;
    for w in Workload::ALL {
        let mut seeds = Vec::new();
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let out = tmp.join(format!("{}-{seed}.json", w.name()));
            let entry = child(w, seed, args, Some(&out))
                .and_then(|_| std::fs::read_to_string(&out).ok())
                .and_then(|t| serde_json::from_str::<Value>(&t).ok());
            match entry {
                Some(Value::Object(mut fields)) => {
                    if let Some(pos) = fields.iter().position(|(k, _)| k == "environment") {
                        environment = fields.remove(pos).1;
                    }
                    seeds.push((seed.to_string(), Value::Object(fields)));
                }
                _ => {
                    eprintln!("qccd-perfbench: recording {} seed {seed} failed", w.name());
                    ok = false;
                }
            }
        }
        runs.push((w.name().to_owned(), Value::Object(seeds)));
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(WORK_ROOT);
    if !ok {
        return 1;
    }
    let baseline = obj(vec![
        (
            "about",
            Value::Str(
                "Written by `qccd-perfbench --record`: artifact digests (64-bit FNV-1a of the \
                 JsonSink bytes), exact-repeat counters and metric medians per workload and \
                 seed, measured at the commit that added the benchmark. Runs check their \
                 artifacts and counters against these entries."
                    .to_owned(),
            ),
        ),
        ("default_seed", Value::UInt(DEFAULT_SEED)),
        ("held_out_seed", Value::UInt(HELD_OUT_SEED)),
        ("seconds", Value::Float(args.seconds)),
        ("environment", environment),
        ("runs", Value::Object(runs)),
    ]);
    let text = match serde_json::to_string_pretty(&baseline) {
        Ok(t) => t + "\n",
        Err(e) => {
            eprintln!("qccd-perfbench: {e}");
            return 1;
        }
    };
    match std::fs::write(BASELINE, text) {
        Ok(()) => {
            eprintln!("qccd-perfbench: wrote {BASELINE}");
            0
        }
        Err(e) => {
            eprintln!("qccd-perfbench: {BASELINE}: {e}");
            1
        }
    }
}
