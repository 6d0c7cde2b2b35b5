//! The command-line harness behind the `run` binary, the one way to
//! produce a paper artifact. Each of the paper's studies (Tables I–II,
//! Figs. 6–8, ablations A1–A5) is a committed experiment spec under
//! `examples/experiments/`; [`run_main`] loads it, runs it through the
//! engine and emits the artifact through the CSV/JSON sinks:
//!
//! ```text
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/table1.json
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/fig6.json \
//!     --cache /tmp/qccd-cache --json fig6.json   # cached re-runs skip all jobs
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/device_files.json
//! ```
//!
//! The spec is the whole study: capacities, devices, configs and models
//! are its axes, never flags; to sweep other capacities, edit the spec's
//! `capacities`. Any flag other than `--spec`, `--json` and `--cache` is
//! rejected with a usage error, so nothing is ever silently ignored.

#![warn(missing_docs)]

use qccd::engine::{
    run_spec, Artifact, ArtifactSink, CsvSink, Engine, EngineOptions, ExperimentSpec, JsonSink,
    SpecRun,
};
use std::path::{Path, PathBuf};

/// Parsed command-line options of the `run` binary.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Experiment spec file to run.
    pub spec: PathBuf,
    /// Where to additionally dump the artifact as JSON.
    pub json: Option<PathBuf>,
    /// Engine result-cache directory (repeated runs skip finished
    /// jobs).
    pub cache: Option<PathBuf>,
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
    /// flag, or a missing `--spec`.
    pub fn parse_from<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let (mut spec, mut json, mut cache) = (None, None, None);
        let mut args = args.into_iter();
        let path = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next()
                .map(PathBuf::from)
                .ok_or(format!("{flag} needs a path"))
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => json = Some(path("--json", &mut args)?),
                "--spec" => spec = Some(path("--spec", &mut args)?),
                "--cache" => cache = Some(path("--cache", &mut args)?),
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(HarnessArgs {
            spec: spec.ok_or("`run` requires --spec <experiment.json>")?,
            json,
            cache,
        })
    }

    /// An engine configured from the CLI: result cache from `--cache`,
    /// a progress line on stderr every
    /// [`DEFAULT_BATCH_SIZE`](qccd::engine::DEFAULT_BATCH_SIZE) executed
    /// jobs.
    pub fn engine(&self) -> Engine {
        Engine::with_options(EngineOptions {
            cache_dir: self.cache.clone(),
            verbose: true,
        })
    }
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!(
        "usage: run --spec experiment.json [--json out.json] [--cache dir]\n       \
         (the committed studies are in examples/experiments/)"
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

/// The `run` binary: executes the `--spec` experiment file.
pub fn run_main() {
    let args = HarnessArgs::parse();
    let spec = ExperimentSpec::from_file(&args.spec).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let run = run_spec_or_die(&spec, &args.engine());
    emit_artifact(&run.artifact, args.json.as_deref());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn spec_and_cache_flags_parse() {
        let args = parse(&["--spec", "f.json", "--cache", "/tmp/c"]).unwrap();
        assert_eq!(args.spec, PathBuf::from("f.json"));
        assert_eq!(args.cache, Some(PathBuf::from("/tmp/c")));
        assert!(parse(&["--spec"]).unwrap_err().contains("--spec needs"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for (args, flag) in [
            (&["--frobnicate"][..], "--frobnicate"),
            (&["--shard", "0/2"], "--shard"),
            (&["--cache", "/tmp/x", "--cache-gc"], "--cache-gc"),
            (&["--spec", "fig6.json", "--quick"], "--quick"),
            (&["--spec", "fig6.json", "--caps", "14,22,30"], "--caps"),
            (&["--device", "dev.json"], "--device"),
            (&["--config", "cfg.json"], "--config"),
            (&["--model", "model.json"], "--model"),
            (&["--mapping", "usage-weighted"], "--mapping"),
            (&["--routing", "lookahead-congestion"], "--routing"),
            (&["--reorder", "is"], "--reorder"),
            (&["--eviction", "chain-end"], "--eviction"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        }
    }
}
