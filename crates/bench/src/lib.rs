//! The command-line harness behind the `run` binary, the one way to
//! produce a paper artifact. Each of the paper's studies (Tables I–II,
//! Figs. 6–8, ablations A1–A5) is a committed experiment spec under
//! `examples/experiments/`; [`run_main`] loads it, applies the CLI
//! overrides, runs it through the engine and emits the artifact through
//! the CSV/JSON sinks:
//!
//! ```text
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/table1.json
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/fig6.json  # full sweep
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/fig6.json \
//!     --quick --cache /tmp/qccd-cache --json fig6.json      # cached re-runs skip all jobs
//! cargo run --release -p qccd-bench --bin run -- --device examples/devices/l6_cap20.json
//! ```
//!
//! `--quick`/`--caps` replace a spec's capacity axis, `--device`,
//! `--config` and `--model` its device, config and model axes, and the
//! policy flags (`--mapping usage-weighted --routing
//! lookahead-congestion …`) steer every explicit config in place. Any
//! other flag is rejected with a usage error, so nothing is ever
//! silently ignored.

#![warn(missing_docs)]

use qccd::engine::{
    run_spec, Artifact, ArtifactSink, CircuitSpec, ConfigSpec, CsvSink, DeviceSpec, Engine,
    EngineOptions, ExperimentSpec, JsonSink, ModelSpec, Projection, SpecRun,
};
use qccd::experiments::QUICK_CAPACITIES;
use qccd_circuit::generators::Benchmark;
use qccd_compiler::{CompilerConfig, EvictionKind, MappingKind, ReorderMethod, RoutingKind};
use std::path::{Path, PathBuf};

/// Parsed command-line options of the `run` binary.
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
    /// jobs).
    pub cache: Option<PathBuf>,
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

    /// The capacity sweep `--caps` (or else `--quick`) asks for; `None`
    /// keeps the spec's own.
    pub fn capacities(&self) -> Option<Vec<u32>> {
        self.caps
            .clone()
            .or_else(|| self.quick.then(|| QUICK_CAPACITIES.to_vec()))
    }

    /// An engine configured from the CLI: result cache from `--cache`,
    /// per-batch progress on stderr.
    pub fn engine(&self) -> Engine {
        Engine::with_options(EngineOptions {
            cache_dir: self.cache.clone(),
            verbose: true,
        })
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
        if let Some(caps) = self.capacities() {
            spec.capacities = caps;
        }
        if let Some(path) = &self.device {
            spec.devices = vec![DeviceSpec::File {
                path: path.display().to_string(),
            }];
        }
        if let Some(path) = &self.config {
            let config = CompilerConfig::from_json(&read(path))
                .unwrap_or_else(|e| die(path, &e.to_string()));
            spec.configs = vec![ConfigSpec::Config(self.apply_policies(config))];
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
        "usage: run [--quick] [--caps 14,22,30] [--json out.json] \
         [--spec experiment.json] [--cache dir] \
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

/// The `run` binary: `--spec` executes any experiment spec file;
/// without it, `--device` runs the Table II suite on a JSON-loaded
/// device and emits the generic per-cell table.
pub fn run_main() {
    let args = HarnessArgs::parse();
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

    let run = run_spec_or_die(&spec, &args.engine());
    emit_artifact(&run.artifact, args.json.as_deref());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    /// Loads the committed study `examples/experiments/<name>.json`.
    fn committed(name: &str) -> ExperimentSpec {
        let path = format!(
            "{}/../../examples/experiments/{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        ExperimentSpec::from_file(path).unwrap()
    }

    #[test]
    fn capacities_default_quick_and_explicit() {
        let default = HarnessArgs::default();
        assert_eq!(default.capacities(), None, "the spec keeps its own sweep");
        let quick = HarnessArgs {
            quick: true,
            ..Default::default()
        };
        assert_eq!(quick.capacities(), Some(QUICK_CAPACITIES.to_vec()));
        let explicit = HarnessArgs {
            caps: Some(vec![10, 12]),
            quick: true,
            ..Default::default()
        };
        assert_eq!(explicit.capacities(), Some(vec![10, 12]));
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
        assert!(parse(&["--spec"]).unwrap_err().contains("--spec needs"));
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
        for (args, flag) in [
            (&["--frobnicate"][..], "--frobnicate"),
            (&["--shard", "0/2"], "--shard"),
            (&["--cache", "/tmp/x", "--cache-gc"], "--cache-gc"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        }
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
    fn apply_to_spec_rewrites_the_right_axes() {
        let args = parse(&["--quick", "--device", "dev.json"]).unwrap();
        let mut spec = committed("fig6");
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
        let mut spec = committed("ablation_policy");
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
