//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Since the experiment-engine redesign every artifact binary
//! (`table1`, `table2`, `fig6`, `fig7`, `fig8`, `all`, `ablations`) is
//! a two-line wrapper over [`artifact_main`], which builds the matching
//! [`ExperimentSpec`] preset, applies the CLI overrides, runs it
//! through the engine and emits the artifact through the CSV/JSON
//! sinks. The `run` binary is the generic spec-driven entry point:
//!
//! ```text
//! cargo run --release -p qccd-bench --bin fig6              # full sweep
//! cargo run --release -p qccd-bench --bin fig6 -- --quick   # 3 capacities
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/fig6.json
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/fig6.json \
//!     --quick --cache /tmp/qccd-cache --json fig6.json      # cached re-runs skip all jobs
//! cargo run --release -p qccd-bench --bin run -- --device examples/devices/l6_cap20.json
//!
//! # Multi-process sharding: each worker executes one hash-partitioned
//! # slice into the shared cache; --merge assembles the artifact.
//! cargo run --release -p qccd-bench --bin run -- --spec f.json --cache dir --shard 0/2
//! cargo run --release -p qccd-bench --bin run -- --spec f.json --cache dir --shard 1/2
//! cargo run --release -p qccd-bench --bin run -- --spec f.json --cache dir --merge
//! cargo run --release -p qccd-bench --bin run -- --cache dir --cache-gc --cache-max-entries 10000
//! ```
//!
//! Device descriptions, compiler configs and physical models can be
//! loaded from JSON files instead of the built-in presets where a study
//! supports it, and the compiler's policy seams can be selected
//! directly from the command line on the `run` and `ablations` bins
//! (`--mapping usage-weighted --routing lookahead-congestion …`).
//! Which binary accepts which flag is declared once in [`BIN_FLAGS`];
//! anything else is rejected with a usage error so nothing is ever
//! silently ignored.

#![warn(missing_docs)]

use qccd::engine::{
    merge_spec, run_spec, run_spec_jobs, Artifact, ArtifactSink, CircuitSpec, ConfigSpec, CsvSink,
    DeviceSpec, Engine, EngineOptions, ExperimentSpec, JsonSink, ModelSpec, Projection,
    ResultCache, Shard, SpecRun, StageCache, STAGE_SUBDIR,
};
use qccd::experiments::{PAPER_CAPACITIES, QUICK_CAPACITIES};
use qccd_circuit::generators::Benchmark;
use qccd_compiler::{
    CompilerConfig, EvictionKind, MappingKind, Pipeline, ReorderMethod, RoutingKind,
};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Parsed command-line options shared by all harness binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Use the reduced capacity set.
    pub quick: bool,
    /// Explicit capacity list (overrides `quick`).
    pub caps: Option<Vec<u32>>,
    /// Where to additionally dump the artifact as JSON.
    pub json: Option<PathBuf>,
    /// Experiment spec file driving the generic `run --spec` mode.
    pub spec: Option<PathBuf>,
    /// Engine result-cache directory (repeated runs skip finished
    /// jobs; sharded runs coordinate through it).
    pub cache: Option<PathBuf>,
    /// Execute only one slice of the job grid (`--shard k/M`); the
    /// other slices are skipped and no artifact is emitted.
    pub shard: Option<Shard>,
    /// Assemble the artifact purely from the shared cache once every
    /// shard has run (`--merge`).
    pub merge: bool,
    /// Garbage-collect the cache directory (`--cache-gc`): stale-salt
    /// entries and orphaned temp files are removed.
    pub cache_gc: bool,
    /// Entry cap enforced by `--cache-gc` (oldest entries beyond it are
    /// evicted).
    pub cache_max_entries: Option<usize>,
    /// Stage-memo cap enforced by `--cache-gc` on `<cache>/stages/`
    /// (oldest stage files beyond it are evicted).
    pub cache_max_stages: Option<usize>,
    /// Stage-memo age limit in seconds enforced by `--cache-gc` on
    /// `<cache>/stages/` (stage files not touched for longer are
    /// evicted).
    pub cache_max_stage_age: Option<u64>,
    /// JSON device description replacing the study's preset topology.
    pub device: Option<PathBuf>,
    /// JSON compiler configuration replacing the study's default.
    pub config: Option<PathBuf>,
    /// JSON physical model replacing the study's default.
    pub model: Option<PathBuf>,
    /// Mapping-policy override (pipeline seam 1).
    pub mapping: Option<MappingKind>,
    /// Routing-policy override (pipeline seam 2).
    pub routing: Option<RoutingKind>,
    /// Reorder-policy override (pipeline seam 3).
    pub reorder: Option<ReorderMethod>,
    /// Eviction-policy override (pipeline seam 4).
    pub eviction: Option<EvictionKind>,
}

/// The declarative allowed-flags table: which binary consumes which
/// flag (`--json` is accepted everywhere). [`HarnessArgs::validate`]
/// checks a parsed argument set against this table, replacing the
/// per-bin rejection lists each binary used to re-implement.
pub const BIN_FLAGS: &[(&str, &[&str])] = &[
    ("table1", &["--model"]),
    ("table2", &[]),
    (
        "fig6",
        &["--quick", "--caps", "--device", "--config", "--cache"],
    ),
    ("fig7", &["--quick", "--caps", "--config", "--cache"]),
    ("fig8", &["--quick", "--caps", "--device", "--cache"]),
    ("all", &["--quick", "--caps", "--cache"]),
    (
        "ablations",
        &[
            "--quick",
            "--caps",
            "--config",
            "--mapping",
            "--routing",
            "--reorder",
            "--eviction",
            "--cache",
        ],
    ),
    (
        "run",
        &[
            "--spec",
            "--quick",
            "--caps",
            "--device",
            "--config",
            "--model",
            "--mapping",
            "--routing",
            "--reorder",
            "--eviction",
            "--cache",
            "--shard",
            "--merge",
            "--cache-gc",
            "--cache-max-entries",
            "--cache-max-stages",
            "--cache-max-stage-age",
        ],
    ),
];

impl HarnessArgs {
    /// Parses `std::env::args()`. Unknown flags abort with a usage
    /// message.
    pub fn parse() -> Self {
        // qccd-lint: allow(ambient-nondeterminism) — argv is the harness's own
        // input, parsed once at startup; it never feeds simulation state.
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|message| usage(&message))
    }

    /// Parses an explicit argument list; returns the usage-error message
    /// instead of aborting (testable core of [`HarnessArgs::parse`]).
    ///
    /// # Errors
    ///
    /// Returns the human-readable message for a malformed or unknown
    /// flag; unknown policy names list the accepted spellings.
    pub fn parse_from<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = HarnessArgs::default();
        let mut args = args.into_iter();
        let path = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next()
                .map(PathBuf::from)
                .ok_or(format!("{flag} needs a path"))
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--caps" => {
                    let list = args.next().ok_or("--caps needs a value")?;
                    let caps: Result<Vec<u32>, _> =
                        list.split(',').map(|s| s.trim().parse()).collect();
                    out.caps = Some(caps.map_err(|_| "--caps expects e.g. 14,22,30")?);
                }
                "--json" => out.json = Some(path("--json", &mut args)?),
                "--spec" => out.spec = Some(path("--spec", &mut args)?),
                "--cache" => out.cache = Some(path("--cache", &mut args)?),
                "--shard" => {
                    let value = args.next().ok_or("--shard needs index/count (e.g. 0/2)")?;
                    out.shard = Some(value.parse().map_err(|e| format!("--shard: {e}"))?);
                }
                "--merge" => out.merge = true,
                "--cache-gc" => out.cache_gc = true,
                "--cache-max-entries" => {
                    let value = args.next().ok_or("--cache-max-entries needs a count")?;
                    out.cache_max_entries = Some(
                        value
                            .parse()
                            .map_err(|_| "--cache-max-entries expects a non-negative integer")?,
                    );
                }
                "--cache-max-stages" => {
                    let value = args.next().ok_or("--cache-max-stages needs a count")?;
                    out.cache_max_stages = Some(
                        value
                            .parse()
                            .map_err(|_| "--cache-max-stages expects a non-negative integer")?,
                    );
                }
                "--cache-max-stage-age" => {
                    let value = args
                        .next()
                        .ok_or("--cache-max-stage-age needs a number of seconds")?;
                    out.cache_max_stage_age = Some(value.parse().map_err(|_| {
                        "--cache-max-stage-age expects a non-negative number of seconds"
                    })?);
                }
                "--device" => out.device = Some(path("--device", &mut args)?),
                "--config" => out.config = Some(path("--config", &mut args)?),
                "--model" => out.model = Some(path("--model", &mut args)?),
                "--mapping" => {
                    let name = args.next().ok_or("--mapping needs a policy name")?;
                    out.mapping = Some(name.parse().map_err(|e| format!("{e}"))?);
                }
                "--routing" => {
                    let name = args.next().ok_or("--routing needs a policy name")?;
                    out.routing = Some(name.parse().map_err(|e| format!("{e}"))?);
                }
                "--reorder" => {
                    let name = args.next().ok_or("--reorder needs a policy name")?;
                    out.reorder = Some(name.parse().map_err(|e| format!("{e}"))?);
                }
                "--eviction" => {
                    let name = args.next().ok_or("--eviction needs a policy name")?;
                    out.eviction = Some(name.parse().map_err(|e| format!("{e}"))?);
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(out)
    }

    /// The flags present in this argument set (spelled as given on the
    /// command line).
    pub fn given_flags(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (flag, given) in [
            ("--quick", self.quick),
            ("--caps", self.caps.is_some()),
            ("--spec", self.spec.is_some()),
            ("--cache", self.cache.is_some()),
            ("--shard", self.shard.is_some()),
            ("--merge", self.merge),
            ("--cache-gc", self.cache_gc),
            ("--cache-max-entries", self.cache_max_entries.is_some()),
            ("--cache-max-stages", self.cache_max_stages.is_some()),
            ("--cache-max-stage-age", self.cache_max_stage_age.is_some()),
            ("--device", self.device.is_some()),
            ("--config", self.config.is_some()),
            ("--model", self.model.is_some()),
            ("--mapping", self.mapping.is_some()),
            ("--routing", self.routing.is_some()),
            ("--reorder", self.reorder.is_some()),
            ("--eviction", self.eviction.is_some()),
        ] {
            if given {
                out.push(flag);
            }
        }
        out
    }

    /// Checks every given flag against `bin`'s row of [`BIN_FLAGS`],
    /// aborting with a usage error on the first unsupported one, so
    /// nothing is ever silently ignored (`--json` is always accepted).
    ///
    /// # Panics
    ///
    /// Panics if `bin` has no [`BIN_FLAGS`] row (a harness bug, not a
    /// user error).
    pub fn validate(&self, bin: &str) {
        let supported = BIN_FLAGS
            .iter()
            .find(|(name, _)| *name == bin)
            .map(|(_, flags)| *flags)
            .unwrap_or_else(|| panic!("binary `{bin}` is missing from BIN_FLAGS"));
        for flag in self.given_flags() {
            if !supported.contains(&flag) {
                let hint = if supported.is_empty() {
                    "only --json".to_owned()
                } else {
                    format!("--json, {}", supported.join(", "))
                };
                usage(&format!(
                    "`{bin}` does not support {flag} (supported here: {hint})"
                ));
            }
        }
    }

    /// The capacity sweep to run.
    pub fn capacities(&self) -> Vec<u32> {
        if let Some(caps) = &self.caps {
            caps.clone()
        } else if self.quick {
            QUICK_CAPACITIES.to_vec()
        } else {
            PAPER_CAPACITIES.to_vec()
        }
    }

    /// An engine configured from the CLI: result cache from `--cache`,
    /// per-batch progress on stderr.
    pub fn engine(&self) -> Engine {
        Engine::with_options(EngineOptions {
            cache_dir: self.cache.clone(),
            batch_size: 0,
            verbose: true,
            shard: self.shard,
            ..EngineOptions::default()
        })
    }

    /// Loads the `--config` file (or the default compiler config), then
    /// applies any `--mapping`/`--routing`/`--reorder`/`--eviction`
    /// policy overrides on top.
    pub fn load_config_or_default(&self) -> CompilerConfig {
        let base = self
            .config
            .as_deref()
            .map_or_else(CompilerConfig::default, |path| {
                CompilerConfig::from_json(&read(path)).unwrap_or_else(|e| die(path, &e.to_string()))
            });
        self.apply_policies(base)
    }

    /// Applies the CLI policy overrides to `config`.
    pub fn apply_policies(&self, mut config: CompilerConfig) -> CompilerConfig {
        if let Some(mapping) = self.mapping {
            config.mapping = mapping;
        }
        if let Some(routing) = self.routing {
            config.routing = routing;
        }
        if let Some(reorder) = self.reorder {
            config.reorder = reorder;
        }
        if let Some(eviction) = self.eviction {
            config.eviction = eviction;
        }
        config
    }

    /// Whether any `--mapping`/`--routing`/`--reorder`/`--eviction`
    /// override was given.
    pub fn has_policy_overrides(&self) -> bool {
        self.mapping.is_some()
            || self.routing.is_some()
            || self.reorder.is_some()
            || self.eviction.is_some()
    }

    /// Rewrites `spec`'s axes from the CLI overrides: `--caps`/`--quick`
    /// replace the capacities, `--device` the device axis, `--config`
    /// (or any policy flag) the config axis, `--model` the model axis.
    pub fn apply_to_spec(&self, spec: &mut ExperimentSpec) {
        if self.caps.is_some() || self.quick {
            spec.capacities = self.capacities();
        }
        if let Some(path) = &self.device {
            spec.devices = vec![DeviceSpec::File {
                path: path.display().to_string(),
            }];
        }
        if self.config.is_some() {
            spec.configs = vec![ConfigSpec::Config(self.load_config_or_default())];
        } else if self.has_policy_overrides() {
            // Steer the policy seams of every explicit config in place
            // (a policy-grid axis entry already sweeps all seams).
            for entry in &mut spec.configs {
                if let ConfigSpec::Config(c) = entry {
                    *c = self.apply_policies(*c);
                }
            }
        }
        if let Some(path) = &self.model {
            spec.models = vec![ModelSpec::File {
                path: path.display().to_string(),
            }];
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(path, &e.to_string()))
}

fn die(path: &Path, message: &str) -> ! {
    eprintln!("error: {}: {message}", path.display());
    std::process::exit(2);
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!(
        "usage: <bin> [--quick] [--caps 14,22,30] [--json out.json] \
         [--spec experiment.json] [--cache dir] \
         [--shard k/M] [--merge] [--cache-gc] [--cache-max-entries N] \
         [--cache-max-stages N] [--cache-max-stage-age SECS] \
         [--device dev.json] [--config cfg.json] [--model model.json] \
         [--mapping round-robin|usage-weighted] \
         [--routing greedy-shortest|lookahead-congestion] \
         [--reorder gs|is] \
         [--eviction furthest-next-use|chain-end]"
    );
    std::process::exit(if message.is_empty() { 0 } else { 2 });
}

/// Emits an engine artifact through the CSV sink (stdout) and, when a
/// path is given, the JSON sink — the same bytes the goldens pin.
pub fn emit_artifact(artifact: &Artifact, json: Option<&Path>) {
    if let Err(e) = CsvSink::new(std::io::stdout().lock()).emit(artifact) {
        write_failed("stdout", e);
    }
    if let Some(path) = json {
        if let Err(e) = JsonSink::new(path).emit(artifact) {
            write_failed(path.display(), e);
        }
        eprintln!("wrote {}", path.display());
    }
}

/// Writes a multi-artifact bundle as pretty JSON to `path`.
fn write_json(path: &Path, bundle: &impl Serialize) {
    let written = serde_json::to_string_pretty(bundle)
        .map_err(|e| e.to_string())
        .and_then(|text| std::fs::write(path, text).map_err(|e| e.to_string()));
    if let Err(e) = written {
        write_failed(path.display(), e);
    }
    eprintln!("wrote {}", path.display());
}

/// Reports an output that could not be written and exits 1.
fn write_failed(target: impl std::fmt::Display, error: impl std::fmt::Display) -> ! {
    eprintln!("error: could not write {target}: {error}");
    std::process::exit(1);
}

/// Runs a spec on the engine, aborting with a readable message on spec
/// errors, and reporting the run stats on stderr.
fn run_spec_or_die(spec: &ExperimentSpec, engine: &Engine) -> SpecRun {
    let run = run_spec(spec, engine).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    eprintln!("engine[{}]: {}", spec.name, run.stats.summary());
    run
}

/// The shared driver behind every artifact binary: builds the preset
/// [`ExperimentSpec`] for `bin`, applies the CLI overrides, executes it
/// on the engine and emits the artifact. `all` and `ablations` run
/// their artifact sequence through the same engine (sharing one result
/// cache when `--cache` is given).
pub fn artifact_main(bin: &str) {
    let args = HarnessArgs::parse();
    args.validate(bin);
    let engine = args.engine();
    match bin {
        "table1" | "table2" | "fig6" | "fig7" | "fig8" => {
            let mut spec = match bin {
                "table1" => ExperimentSpec::table1(),
                "table2" => ExperimentSpec::table2(),
                "fig6" => ExperimentSpec::fig6(&args.capacities()),
                "fig7" => ExperimentSpec::fig7(&args.capacities()),
                _ => ExperimentSpec::fig8(&args.capacities()),
            };
            args.apply_to_spec(&mut spec);
            let run = run_spec_or_die(&spec, &engine);
            emit_artifact(&run.artifact, args.json.as_deref());
        }
        "all" => all_main(&args, &engine),
        "ablations" => ablations_main(&args, &engine),
        other => panic!("artifact_main does not drive `{other}`"),
    }
}

/// Regenerates every paper artifact in one process (the `all` binary).
fn all_main(args: &HarnessArgs, engine: &Engine) {
    let caps = args.capacities();

    let t1 = run_spec_or_die(&ExperimentSpec::table1(), engine)
        .artifact
        .into_table();
    println!("{t1}");
    let t2 = run_spec_or_die(&ExperimentSpec::table2(), engine)
        .artifact
        .into_table();
    println!("{t2}");

    eprintln!("running fig6 ({} capacities)...", caps.len());
    let f6 = run_spec_or_die(&ExperimentSpec::fig6(&caps), engine)
        .artifact
        .into_figure();
    println!("{f6}");
    eprintln!("running fig7...");
    let f7 = run_spec_or_die(&ExperimentSpec::fig7(&caps), engine)
        .artifact
        .into_figure();
    println!("{f7}");
    eprintln!("running fig8...");
    let f8 = run_spec_or_die(&ExperimentSpec::fig8(&caps), engine)
        .artifact
        .into_figure();
    println!("{f8}");

    if let Some(path) = args.json.as_deref() {
        write_json(
            path,
            &serde_json::json!({
                "table1": t1, "table2": t2, "fig6": f6, "fig7": f7, "fig8": f8,
            }),
        );
    }
}

/// Runs the five ablation studies (the `ablations` binary).
fn ablations_main(args: &HarnessArgs, engine: &Engine) {
    let caps = args.capacities();
    let base = args.load_config_or_default();
    eprintln!("compiler: {}", Pipeline::from_config(&base).describe());

    eprintln!("A1: mapping buffer sweep (supremacy, L6 cap 20)...");
    let a1 = run_spec_or_die(&ExperimentSpec::ablation_buffer(&base), engine)
        .artifact
        .into_figure();
    println!("{a1}");

    eprintln!("A2: heating-model ablation (supremacy)...");
    let a2 = run_spec_or_die(&ExperimentSpec::ablation_heating(&caps, &base), engine)
        .artifact
        .into_figure();
    println!("{a2}");

    eprintln!("A3: junction-cost sensitivity (squareroot, cap 20)...");
    let a3 = run_spec_or_die(&ExperimentSpec::ablation_junction(&base), engine)
        .artifact
        .into_figure();
    println!("{a3}");

    eprintln!("A4: device-size sweep (qft, capacity 25, 50-250 device qubits)...");
    let a4 = run_spec_or_die(&ExperimentSpec::ablation_device_size(&base), engine)
        .artifact
        .into_figure();
    println!("{a4}");

    eprintln!("A5: compiler policy-pipeline matrix (qft, caps 16/24)...");
    let a5 = run_spec_or_die(&ExperimentSpec::ablation_policy(base.buffer_slots), engine)
        .artifact
        .into_figure();
    println!("{a5}");

    if let Some(path) = args.json.as_deref() {
        write_json(
            path,
            &serde_json::json!({"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5}),
        );
    }
}

/// The `run` binary: `--spec` executes any experiment spec file;
/// without it, `--device` runs the Table II suite on a JSON-loaded
/// device and emits the generic per-cell table.
///
/// Multi-process mode: `--shard k/M` executes one hash-partitioned
/// slice of the spec's job grid into the shared `--cache` directory
/// (stats only, no artifact); `--merge` assembles the artifact purely
/// from that cache once every shard has run. `--cache-gc` sweeps the
/// cache (stale-salt entries, orphaned temp files, and — with
/// `--cache-max-entries` — the oldest entries beyond the cap); when a
/// `stages/` subdirectory exists it gets the same sweep, capped by
/// `--cache-max-stages` and aged out by `--cache-max-stage-age`
/// (seconds since a stage file was last written).
pub fn run_main() {
    let args = HarnessArgs::parse();
    args.validate("run");
    if args.shard.is_some() && args.merge {
        usage(
            "--shard runs one slice of the grid and --merge assembles finished results; pick one",
        );
    }
    if (args.shard.is_some() || args.merge || args.cache_gc) && args.cache.is_none() {
        usage("--shard/--merge/--cache-gc coordinate through a shared cache; add --cache <dir>");
    }
    if (args.cache_max_entries.is_some()
        || args.cache_max_stages.is_some()
        || args.cache_max_stage_age.is_some())
        && !args.cache_gc
    {
        usage(
            "--cache-max-entries/--cache-max-stages/--cache-max-stage-age only apply to a \
             --cache-gc sweep",
        );
    }
    if args.shard.is_some() && args.json.is_some() {
        usage("--shard emits no artifact (each process owns one slice); --json needs --merge or an unsharded run");
    }
    if (args.shard.is_some() || args.merge) && args.spec.is_none() {
        usage("--shard/--merge need --spec <experiment.json>");
    }

    if let (true, Some(dir)) = (args.cache_gc, args.cache.as_deref()) {
        let cache = ResultCache::open(dir).unwrap_or_else(|e| die(dir, &e.to_string()));
        match cache.gc(args.cache_max_entries) {
            Ok(stats) => eprintln!("cache-gc[{}]: {}", dir.display(), stats.summary()),
            Err(e) => die(dir, &e.to_string()),
        }
        let stage_dir = dir.join(STAGE_SUBDIR);
        if stage_dir.is_dir() {
            let stages =
                StageCache::open(&stage_dir).unwrap_or_else(|e| die(&stage_dir, &e.to_string()));
            let max_age = args.cache_max_stage_age.map(std::time::Duration::from_secs);
            match stages.gc(args.cache_max_stages, max_age) {
                Ok(stats) => {
                    eprintln!("stage-gc[{}]: {}", stage_dir.display(), stats.summary());
                }
                Err(e) => die(&stage_dir, &e.to_string()),
            }
        }
        if args.spec.is_none() && args.device.is_none() {
            return; // a pure GC invocation
        }
    }

    let mut spec = if let Some(spec_path) = &args.spec {
        ExperimentSpec::from_file(spec_path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    } else if args.device.is_some() {
        // The device file fixes the trap sizes, so there is no capacity
        // axis to override; reject rather than silently ignore the flags.
        if args.quick || args.caps.is_some() {
            usage(
                "`run --device` (without --spec) has no capacity sweep; --quick/--caps need --spec",
            );
        }
        // The Table II suite under the default config and model, whose
        // device/config/model axes the CLI overrides replace below.
        ExperimentSpec {
            name: "run".into(),
            projection: Projection::Cells,
            circuits: Benchmark::ALL
                .iter()
                .map(|&b| CircuitSpec::Benchmark(b))
                .collect(),
            capacities: vec![],
            devices: vec![],
            configs: vec![ConfigSpec::Config(CompilerConfig::default())],
            models: vec![ModelSpec::Default],
        }
    } else {
        eprintln!("error: `run` requires --spec <experiment.json> or --device <file.json>");
        eprintln!("       (see examples/experiments/, examples/devices/ and the README)");
        std::process::exit(2);
    };
    args.apply_to_spec(&mut spec);

    let engine = args.engine();
    if let Some(shard) = args.shard {
        // Worker mode: execute this slice into the shared cache.
        // No artifact — the grid is only partially evaluated here.
        let run = run_spec_jobs(&spec, &engine).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "engine[{} shard {shard}]: {}",
            spec.name,
            run.stats.summary()
        );
        return;
    }
    let run = if args.merge {
        let run = merge_spec(&spec, &engine).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        eprintln!("engine[{} merge]: {}", spec.name, run.stats.summary());
        run
    } else {
        run_spec_or_die(&spec, &engine)
    };
    emit_artifact(&run.artifact, args.json.as_deref());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn capacities_default_quick_and_explicit() {
        let default = HarnessArgs::default();
        assert_eq!(default.capacities(), PAPER_CAPACITIES.to_vec());
        let quick = HarnessArgs {
            quick: true,
            ..Default::default()
        };
        assert_eq!(quick.capacities(), QUICK_CAPACITIES.to_vec());
        let explicit = HarnessArgs {
            caps: Some(vec![10, 12]),
            quick: true,
            ..Default::default()
        };
        assert_eq!(explicit.capacities(), vec![10, 12]);
    }

    #[test]
    fn policy_flags_parse_every_spelling() {
        let args = parse(&[
            "--mapping",
            "usage-weighted",
            "--routing",
            "LC",
            "--reorder",
            "IonSwap",
            "--eviction",
            "chain_end",
        ])
        .unwrap();
        assert_eq!(args.mapping, Some(MappingKind::UsageWeighted));
        assert_eq!(args.routing, Some(RoutingKind::LookaheadCongestion));
        assert_eq!(args.reorder, Some(ReorderMethod::IonSwap));
        assert_eq!(args.eviction, Some(EvictionKind::ChainEnd));
    }

    #[test]
    fn spec_and_cache_flags_parse() {
        let args = parse(&["--spec", "f.json", "--cache", "/tmp/c"]).unwrap();
        assert_eq!(args.spec, Some(PathBuf::from("f.json")));
        assert_eq!(args.cache, Some(PathBuf::from("/tmp/c")));
        assert_eq!(args.given_flags(), vec!["--spec", "--cache"]);
        assert!(parse(&["--spec"]).unwrap_err().contains("--spec needs"));
    }

    #[test]
    fn shard_merge_and_gc_flags_parse() {
        let args = parse(&["--shard", "1/4", "--cache", "/tmp/c"]).unwrap();
        assert_eq!(args.shard, Some(Shard::new(1, 4).unwrap()));
        assert_eq!(args.given_flags(), vec!["--cache", "--shard"]);

        let args = parse(&[
            "--merge",
            "--cache-gc",
            "--cache-max-entries",
            "100",
            "--cache-max-stages",
            "40",
            "--cache-max-stage-age",
            "86400",
        ])
        .unwrap();
        assert!(args.merge);
        assert!(args.cache_gc);
        assert_eq!(args.cache_max_entries, Some(100));
        assert_eq!(args.cache_max_stages, Some(40));
        assert_eq!(args.cache_max_stage_age, Some(86400));
        assert_eq!(
            args.given_flags(),
            vec![
                "--merge",
                "--cache-gc",
                "--cache-max-entries",
                "--cache-max-stages",
                "--cache-max-stage-age"
            ]
        );

        // Malformed values carry the flag name and the accepted shape.
        let err = parse(&["--shard", "4/4"]).unwrap_err();
        assert!(err.contains("--shard"), "{err}");
        assert!(err.contains("out of range"), "{err}");
        let err = parse(&["--shard", "two/4"]).unwrap_err();
        assert!(err.contains("index/count"), "{err}");
        assert!(parse(&["--shard"]).unwrap_err().contains("--shard needs"));
        let err = parse(&["--cache-max-entries", "many"]).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
        let err = parse(&["--cache-max-stages", "many"]).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
        let err = parse(&["--cache-max-stage-age", "soon"]).unwrap_err();
        assert!(err.contains("number of seconds"), "{err}");
    }

    #[test]
    fn sharding_flags_are_run_only() {
        let flags_of = |bin: &str| {
            BIN_FLAGS
                .iter()
                .find(|(name, _)| *name == bin)
                .map(|(_, f)| *f)
                .unwrap()
        };
        for flag in [
            "--shard",
            "--merge",
            "--cache-gc",
            "--cache-max-entries",
            "--cache-max-stages",
            "--cache-max-stage-age",
        ] {
            assert!(flags_of("run").contains(&flag), "run must accept {flag}");
            for bin in [
                "table1",
                "table2",
                "fig6",
                "fig7",
                "fig8",
                "all",
                "ablations",
            ] {
                assert!(
                    !flags_of(bin).contains(&flag),
                    "`{bin}` must not accept {flag}"
                );
            }
        }
    }

    #[test]
    fn unknown_policy_names_report_the_accepted_set() {
        let err = parse(&["--routing", "warp"]).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        assert!(err.contains("greedy-shortest"), "{err}");
        assert!(err.contains("lookahead-congestion"), "{err}");
        let err = parse(&["--mapping"]).unwrap_err();
        assert!(err.contains("--mapping needs"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
    }

    #[test]
    fn apply_policies_overrides_only_given_seams() {
        let args = parse(&["--routing", "lookahead-congestion"]).unwrap();
        let config = args.apply_policies(CompilerConfig::default());
        assert_eq!(config.routing, RoutingKind::LookaheadCongestion);
        assert_eq!(config.mapping, MappingKind::RoundRobin);
        assert_eq!(config.reorder, ReorderMethod::GateSwap);
        assert_eq!(config.eviction, EvictionKind::FurthestNextUse);
        assert_eq!(config.buffer_slots, 2);
    }

    #[test]
    fn bin_flags_table_covers_every_artifact_binary() {
        for bin in [
            "table1",
            "table2",
            "fig6",
            "fig7",
            "fig8",
            "all",
            "ablations",
            "run",
        ] {
            assert!(
                BIN_FLAGS.iter().any(|(name, _)| *name == bin),
                "`{bin}` missing from BIN_FLAGS"
            );
        }
        // Spot-check a few rules the old per-bin lists enforced.
        let flags_of = |bin: &str| {
            BIN_FLAGS
                .iter()
                .find(|(name, _)| *name == bin)
                .map(|(_, f)| *f)
                .unwrap()
        };
        assert!(!flags_of("table2").contains(&"--device"));
        assert!(
            !flags_of("fig7").contains(&"--device"),
            "fig7 is L6-vs-G2x3 by design"
        );
        assert!(
            !flags_of("fig8").contains(&"--config"),
            "fig8 sweeps reorders itself"
        );
        assert!(flags_of("run").contains(&"--spec"));
    }

    #[test]
    fn apply_to_spec_rewrites_the_right_axes() {
        let args = parse(&["--quick", "--device", "dev.json"]).unwrap();
        let mut spec = ExperimentSpec::fig6(&PAPER_CAPACITIES);
        args.apply_to_spec(&mut spec);
        assert_eq!(spec.capacities, QUICK_CAPACITIES.to_vec());
        assert_eq!(
            spec.devices,
            vec![DeviceSpec::File {
                path: "dev.json".into()
            }]
        );
        // A policy flag steers explicit configs without touching a
        // policy-grid axis entry.
        let args = parse(&["--routing", "LC"]).unwrap();
        let mut spec = ExperimentSpec::ablation_policy(2);
        spec.configs
            .push(ConfigSpec::Config(CompilerConfig::default()));
        args.apply_to_spec(&mut spec);
        assert_eq!(spec.configs[0], ConfigSpec::PolicyGrid { buffer_slots: 2 });
        match &spec.configs[1] {
            ConfigSpec::Config(c) => {
                assert_eq!(c.routing, RoutingKind::LookaheadCongestion)
            }
            other => panic!("expected config, got {other:?}"),
        }
    }
}
