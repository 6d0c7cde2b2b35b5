//! The three workloads: their set-up, one untraced iteration through
//! the public engine API, and the output checks every iteration must
//! pass.

use crate::sys::{fnv1a, process_cpu_s, SplitMix};
use qccd::circuit::generators::{random_circuit, supremacy};
use qccd::circuit::qasm;
use qccd::engine::{
    run_spec, ArtifactSink, Engine, EngineOptions, ExperimentSpec, JobOutcome, JsonSink, SpecRun,
};
use qccd::experiments::QUICK_CAPACITIES;
use qccd::sim::SimReport;
use qccd::Toolflow;
use std::path::{Path, PathBuf};
use std::time::Instant;

const FIG8_SPEC: &str = "examples/experiments/fig8.json";
const FIG8_QUICK_GOLDEN: &str = "tests/goldens/fig8_quick.json";

/// Every committed sweep spec (the paper's figures and ablations A1–A5);
/// the tables run no jobs.
const SWEEP_SPECS: [&str; 8] = [
    "examples/experiments/fig6.json",
    "examples/experiments/fig7.json",
    "examples/experiments/fig8.json",
    "examples/experiments/ablation_buffer.json",
    "examples/experiments/ablation_heating.json",
    "examples/experiments/ablation_junction.json",
    "examples/experiments/ablation_device_size.json",
    "examples/experiments/ablation_policy.json",
];

/// Each `warm-resweep` iteration starts without cache entries holding
/// about one in `REMOVAL_RATE` of the cached simulated instructions.
const REMOVAL_RATE: u64 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig8Cold,
    ScaleCompile,
    WarmResweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig8Cold,
        Workload::ScaleCompile,
        Workload::WarmResweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Cold => "fig8-cold",
            Workload::ScaleCompile => "scale-compile",
            Workload::WarmResweep => "warm-resweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the artifacts depend on `--seed` (only the generated
    /// circuits of `scale-compile` do).
    pub fn seeded_artifacts(self) -> bool {
        self == Workload::ScaleCompile
    }

    /// Whether the exact-repeat counters depend on `--seed` (the
    /// `warm-resweep` removal sample changes what executes).
    pub fn seeded_counters(self) -> bool {
        self != Workload::Fig8Cold
    }
}

/// One spec an iteration runs, and where its artifact goes.
pub struct SpecInput {
    pub name: String,
    pub path: PathBuf,
    pub out: PathBuf,
}

/// A workload's inputs, built once before the timed iterations.
pub struct Prepared {
    pub specs: Vec<SpecInput>,
    /// The result cache every engine of an iteration shares, if any.
    pub cache_dir: Option<PathBuf>,
    /// Cache entries (job ids) removed before every iteration.
    pub removed: Vec<String>,
    /// Every file under the cache after set-up; files an iteration adds
    /// beyond these are deleted before the next one.
    cache_files: Vec<PathBuf>,
    /// Artifact digest per spec that every iteration must reproduce;
    /// `None` until the warm-up iteration fixes it.
    pub expected: Vec<Option<u64>>,
    /// Per-cell outcomes from direct serial `Toolflow` runs, which the
    /// engine's parallel run must reproduce (`scale-compile`).
    reference: Option<Vec<JobOutcome>>,
}

/// Counters an iteration must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub jobs: usize,
    pub executed: usize,
    pub cached: usize,
    pub compile_groups: usize,
    pub sim_insts: u64,
}

/// One untraced iteration: timings, counters and the spec runs (kept
/// for the traced replay to check against).
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub counters: Counters,
    pub runs: Vec<SpecRun>,
}

/// Instructions a simulation executed, summed from its report's counts.
pub fn insts_of(report: &SimReport) -> u64 {
    let c = &report.counts;
    (c.one_qubit_gates
        + c.two_qubit_gates
        + c.swap_gates
        + c.ion_swaps
        + c.splits
        + c.moves
        + c.merges
        + c.measurements) as u64
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", path.display())
}

fn spec_input(path: &str, work: &Path) -> Result<SpecInput, String> {
    let spec = ExperimentSpec::from_file(path).map_err(|e| e.to_string())?;
    Ok(SpecInput {
        out: work.join(format!("{}.json", spec.name)),
        name: spec.name,
        path: PathBuf::from(path),
    })
}

fn emit(run: &SpecRun, out: &Path) -> Result<(), String> {
    JsonSink::new(out)
        .emit(&run.artifact)
        .map_err(|e| io_err(out, e))
}

fn digest_file(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|b| fnv1a(&b))
        .map_err(|e| io_err(path, e))
}

/// Builds a workload's inputs under `work` (which must be empty).
pub fn setup(workload: Workload, seed: u64, work: &Path) -> Result<Prepared, String> {
    std::fs::create_dir_all(work).map_err(|e| io_err(work, e))?;
    let mut prepared = Prepared {
        specs: Vec::new(),
        cache_dir: None,
        removed: Vec::new(),
        cache_files: Vec::new(),
        expected: Vec::new(),
        reference: None,
    };
    match workload {
        Workload::Fig8Cold => {
            // The quick-capacity sweep must reproduce the committed
            // golden byte for byte through the same sink.
            let mut quick = ExperimentSpec::from_file(FIG8_SPEC).map_err(|e| e.to_string())?;
            quick.capacities = QUICK_CAPACITIES.to_vec();
            let run = run_spec(&quick, &Engine::new()).map_err(|e| e.to_string())?;
            let out = work.join("fig8_quick.json");
            emit(&run, &out)?;
            let golden = std::fs::read(FIG8_QUICK_GOLDEN)
                .map_err(|e| io_err(Path::new(FIG8_QUICK_GOLDEN), e))?;
            let produced = std::fs::read(&out).map_err(|e| io_err(&out, e))?;
            if produced != golden {
                return Err(format!(
                    "fig8 at the quick capacities differs from {FIG8_QUICK_GOLDEN}"
                ));
            }
            prepared.specs.push(spec_input(FIG8_SPEC, work)?);
        }
        Workload::ScaleCompile => {
            let spec_path = write_scale_inputs(seed, work)?;
            let input = spec_input(&spec_path, work)?;
            prepared.reference = Some(reference_outcomes(&input.path)?);
            prepared.specs.push(input);
        }
        Workload::WarmResweep => {
            let cache = work.join("cache");
            prepared.cache_dir = Some(cache.clone());
            // Run every sweep cold into the cache; these artifacts are
            // the ones every warm rerun must reproduce.
            let mut entries: Vec<(String, u64)> = Vec::new();
            for path in SWEEP_SPECS {
                let input = spec_input(path, work)?;
                let spec = ExperimentSpec::from_file(path).map_err(|e| e.to_string())?;
                let run = run_spec(&spec, &cached_engine(&cache)).map_err(|e| e.to_string())?;
                emit(&run, &input.out)?;
                prepared.expected.push(Some(digest_file(&input.out)?));
                for (job, outcome) in run.grid.jobs().iter().zip(run.results.job_outcomes()) {
                    if let Ok(report) = outcome {
                        entries.push((job.id.as_str().to_owned(), insts_of(report)));
                    }
                }
                prepared.specs.push(input);
            }
            prepared.removed = removal_sample(entries, seed);
            for id in &prepared.removed {
                let entry = entry_path(&cache, id);
                if !entry.is_file() {
                    return Err(format!("no cache entry at {}", entry.display()));
                }
            }
            prepared.cache_files = files_under(&cache)?;
        }
    }
    if prepared.expected.is_empty() {
        prepared.expected = vec![None; prepared.specs.len()];
    }
    Ok(prepared)
}

fn cached_engine(cache: &Path) -> Engine {
    Engine::with_options(EngineOptions {
        cache_dir: Some(cache.to_path_buf()),
        ..EngineOptions::default()
    })
}

/// The result cache stores each outcome as `<cache>/<job-id>.json`.
pub fn entry_path(cache: &Path, id: &str) -> PathBuf {
    cache.join(format!("{id}.json"))
}

/// A seeded sample of distinct feasible entries holding about
/// 1/`REMOVAL_RATE` of their simulated instructions: entries are taken
/// in seeded order while they fit under that target. Which entries are
/// removed changes with the seed; the work re-executing them costs
/// nearly the same for every seed, so the seed does not move the timings.
fn removal_sample(mut entries: Vec<(String, u64)>, seed: u64) -> Vec<String> {
    entries.sort();
    entries.dedup();
    let target = entries.iter().map(|(_, insts)| insts).sum::<u64>() / REMOVAL_RATE;
    let mut rng = SplitMix::new(seed);
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.below(i + 1));
    }
    let mut removed = Vec::new();
    let mut total = 0;
    for (id, insts) in entries {
        if total + insts <= target {
            total += insts;
            removed.push(id);
        }
    }
    removed.sort();
    removed
}

fn files_under(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).map_err(|e| io_err(&d, e))? {
            let path = entry.map_err(|e| io_err(&d, e))?.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Generates the seeded scale-tier circuits, writes them as QASM and
/// writes the spec that sweeps them; returns the spec's path.
fn write_scale_inputs(seed: u64, work: &Path) -> Result<String, String> {
    let mut rng = SplitMix::new(seed);
    let circuits = [
        random_circuit(512, 8000, 0.5, rng.next_u64()),
        random_circuit(256, 6000, 0.5, rng.next_u64()),
        supremacy(16, 16, 10, rng.next_u64()),
    ];
    let mut qasm_paths = Vec::new();
    for (i, circuit) in circuits.iter().enumerate() {
        let path = work.join(format!("scale{i}.qasm"));
        std::fs::write(&path, qasm::write(circuit)).map_err(|e| io_err(&path, e))?;
        qasm_paths.push(format!("{{\"qasm\": \"{}\"}}", path.display()));
    }
    let spec = format!(
        r#"{{
  "name": "scale-compile",
  "projection": "cells",
  "circuits": [{}],
  "devices": [
    {{"linear": {{"traps": 32, "capacity": 20}}}},
    {{"grid": {{"rows": 4, "cols": 8, "capacity": 20}}}},
    {{"grid": {{"rows": 8, "cols": 8, "capacity": 12}}}}
  ],
  "configs": [
    {{"mapping": "round-robin", "routing": "lookahead-congestion"}},
    {{"mapping": "usage-weighted", "routing": "lookahead-congestion"}},
    {{"mapping": "usage-weighted", "routing": "greedy-shortest"}}
  ],
  "models": ["default"]
}}
"#,
        qasm_paths.join(", ")
    );
    let path = work.join("scale-compile.spec.json");
    std::fs::write(&path, spec).map_err(|e| io_err(&path, e))?;
    Ok(path.display().to_string())
}

/// Every cell of the spec run directly through `Toolflow`, serially and
/// without the engine, in cell order.
fn reference_outcomes(spec_path: &Path) -> Result<Vec<JobOutcome>, String> {
    let grid = ExperimentSpec::from_file(spec_path)
        .and_then(|s| s.expand())
        .map_err(|e| e.to_string())?;
    let mut cells = Vec::with_capacity(grid.cell_count());
    for circuit in grid.circuits() {
        for device in grid.devices() {
            for config in grid.configs() {
                for model in grid.models() {
                    cells.push(
                        Toolflow::with_config(device.clone(), *model, *config)
                            .run(circuit)
                            .map_err(|e| e.to_string()),
                    );
                }
            }
        }
    }
    Ok(cells)
}

impl Prepared {
    /// Puts the result cache back into its post-set-up state minus the
    /// removal sample. Runs outside every timer.
    pub fn restore(&self) -> Result<(), String> {
        let Some(cache) = &self.cache_dir else {
            return Ok(());
        };
        for file in files_under(cache)? {
            if self.cache_files.binary_search(&file).is_err() {
                std::fs::remove_file(&file).map_err(|e| io_err(&file, e))?;
            }
        }
        for id in &self.removed {
            let entry = entry_path(cache, id);
            match std::fs::remove_file(&entry) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&entry, e)),
            }
        }
        Ok(())
    }

    /// One untraced iteration: every spec from load to artifact bytes
    /// written, with a fresh `Engine` per spec.
    pub fn iterate(&self) -> Result<Iteration, String> {
        self.restore()?;
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let mut runs = Vec::with_capacity(self.specs.len());
        for input in &self.specs {
            let spec = ExperimentSpec::from_file(&input.path).map_err(|e| e.to_string())?;
            let engine = match &self.cache_dir {
                Some(cache) => cached_engine(cache),
                None => Engine::new(),
            };
            let run = run_spec(&spec, &engine).map_err(|e| e.to_string())?;
            emit(&run, &input.out)?;
            runs.push(run);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let counters = self.counters(&runs);
        Ok(Iteration {
            wall_s,
            cpu_s,
            counters,
            runs,
        })
    }

    /// Sums the run counters, and the instructions simulated by the jobs
    /// that executed rather than loaded from the cache.
    fn counters(&self, runs: &[SpecRun]) -> Counters {
        let mut c = Counters::default();
        let mut seen: Vec<&str> = Vec::new();
        for run in runs {
            c.jobs += run.stats.jobs;
            c.executed += run.stats.executed;
            c.cached += run.stats.cached;
            c.compile_groups += run.stats.compiles;
            for (job, outcome) in run.grid.jobs().iter().zip(run.results.job_outcomes()) {
                let id = job.id.as_str();
                let executed = match self.cache_dir {
                    None => true,
                    // A removed entry executes in the first spec that
                    // needs it and is loaded by later ones.
                    Some(_) => {
                        self.removed
                            .binary_search_by(|r| r.as_str().cmp(id))
                            .is_ok()
                            && !seen.contains(&id)
                    }
                };
                if executed {
                    seen.push(id);
                    if let Ok(report) = outcome {
                        c.sim_insts += insts_of(report);
                    }
                }
            }
        }
        c
    }

    /// Checks the warm-up iteration: cell by cell against the serial
    /// reference where there is one, then as [`Prepared::verify`] after
    /// fixing any digest still unknown to the one it produced.
    pub fn check(&mut self, it: &Iteration) -> Result<(), String> {
        if let Some(reference) = self.reference.take() {
            let run = &it.runs[0];
            for (cell, want) in reference.iter().enumerate() {
                if run.results.outcome_at_cell(cell) != want {
                    return Err(format!(
                        "cell {cell} differs from the direct serial Toolflow run"
                    ));
                }
            }
        }
        for (input, expected) in self.specs.iter().zip(self.expected.iter_mut()) {
            if expected.is_none() {
                *expected = Some(digest_file(&input.out)?);
            }
        }
        self.verify(it)
    }

    /// Checks an iteration's artifact bytes against the expected digests
    /// and that exactly the expected jobs executed.
    pub fn verify(&self, it: &Iteration) -> Result<(), String> {
        let executed_expected = match self.cache_dir {
            None => it.counters.jobs,
            Some(_) => self.removed.len(),
        };
        if it.counters.executed != executed_expected {
            return Err(format!(
                "{} jobs executed, expected {executed_expected}",
                it.counters.executed
            ));
        }
        for (input, expected) in self.specs.iter().zip(&self.expected) {
            let digest = digest_file(&input.out)?;
            if *expected != Some(digest) {
                return Err(format!(
                    "artifact {} digest {digest:016x} differs from {expected:016x?}",
                    input.name
                ));
            }
        }
        Ok(())
    }
}
