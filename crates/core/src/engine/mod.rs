//! The declarative experiment engine.
//!
//! This module turns a declarative study description into paper
//! artifacts in four stages:
//!
//! ```text
//! ExperimentSpec ──expand──► JobGrid ──Engine::run──► GridResults
//!        (axes + projection)   (deduplicated,           │
//!                               content-hashed jobs)    ▼
//!                                            run_spec projection
//!                                                       │
//!                                                       ▼
//!                                         Artifact ──► ArtifactSink
//!                                     (Figure/Table)   (CSV text, JSON)
//! ```
//!
//! * [`ExperimentSpec`] — a JSON-loadable description of the study's
//!   axes (circuits, devices, capacities, compiler policies, physical
//!   models) plus the projection that shapes the results. The paper's
//!   studies are the committed `examples/experiments/*.json` files.
//! * [`JobGrid`] — the resolved, deduplicated cartesian product;
//!   every unique cell gets a stable content-hashed [`JobId`].
//! * [`Engine`] — executes a grid in parallel batches on top of
//!   [`crate::sweep::parallel_map`]. Jobs differing only in physical
//!   model share one compilation (the executable does not depend on
//!   the model — the optimization behind the paper's Fig. 8 study).
//!   With a cache directory configured, completed jobs are persisted
//!   under their id, so interrupted or repeated sweeps skip every cell
//!   that already ran.
//! * [`run_spec`] — the end-to-end entry point: expand, execute,
//!   project. Every paper artifact is produced this way, and the golden
//!   snapshots pin the bytes.
//!
//! # Example
//!
//! ```
//! use qccd::engine::{run_spec, Engine, ExperimentSpec};
//! # std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).unwrap();
//!
//! // A scaled-down Fig. 6: the committed spec sweeps 11 capacities.
//! let mut spec = ExperimentSpec::from_file("examples/experiments/fig6.json").unwrap();
//! spec.capacities = vec![8];
//! let run = run_spec(&spec, &Engine::new()).unwrap();
//! let figure = run.artifact.into_figure();
//! assert_eq!(figure.id, "6");
//! assert_eq!(run.stats.executed, run.stats.jobs);
//! ```

pub mod cache;
pub mod grid;
pub mod sink;
pub mod spec;

pub use cache::ResultCache;
// Stage-file persistence for memoized compiles outside the engine
// (perfbench's traced replay); `Engine::run` never opens it.
pub use cache::{StageCache, STAGE_SUBDIR};
pub use grid::{GridResults, Job, JobGrid, JobId, JobOutcome};
pub use sink::{Artifact, ArtifactSink, CsvSink, JsonSink};
pub use spec::{
    CircuitSpec, ConfigSpec, DeviceSpec, ExperimentSpec, ModelSpec, Projection, SpecError,
};

use crate::experiments::{ablations, fig6, fig7, fig8, table1, table2, Table};
use crate::sweep::parallel_map;
use crate::toolflow::ToolflowError;
use qccd_compiler::Pipeline;
use std::path::PathBuf;

/// Execution knobs for an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Directory of the on-disk result cache; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Stream per-batch progress to stderr.
    pub verbose: bool,
}

/// Number of jobs per execution batch (progress is streamed per batch,
/// and the cache is written as each batch completes).
pub const DEFAULT_BATCH_SIZE: usize = 32;

/// Counters describing one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Unique jobs in the grid.
    pub jobs: usize,
    /// Jobs actually executed this run.
    pub executed: usize,
    /// Jobs served from the result cache.
    pub cached: usize,
    /// Execution batches run.
    pub batches: usize,
    /// Compilations performed (jobs differing only in physical model
    /// share one).
    pub compiles: usize,
    /// Circuits constructed (parsed or generated) for the grid — each
    /// distinct circuit-axis entry once, however many jobs share it.
    pub parses: usize,
}

impl RunStats {
    /// One-line human-readable summary (`executed N of M jobs, …`).
    pub fn summary(&self) -> String {
        format!(
            "executed {} of {} jobs ({} cached, {} compiles, {} batches, {} parses)",
            self.executed, self.jobs, self.cached, self.compiles, self.batches, self.parses,
        )
    }
}

/// Executes [`JobGrid`]s: batched, parallel, optionally cached.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    options: EngineOptions,
}

/// The outcome of one engine run over a grid.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Per-job outcomes, addressable through the grid.
    pub results: GridResults,
    /// Execution counters.
    pub stats: RunStats,
}

impl Engine {
    /// An engine with default options (no cache, silent).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine with explicit options.
    pub fn with_options(options: EngineOptions) -> Engine {
        Engine { options }
    }

    /// Executes every job of `grid` and returns the outcomes.
    ///
    /// Cached jobs are loaded without executing; fresh outcomes are
    /// persisted as soon as their batch completes, so an interrupted
    /// run resumes from the last finished batch.
    pub fn run(&self, grid: &JobGrid) -> EngineRun {
        let jobs = grid.jobs();
        let cache = self.options.cache_dir.as_ref().and_then(|dir| {
            ResultCache::open(dir)
                .map_err(|e| {
                    eprintln!(
                        "engine: cache directory {} unusable ({e}); running uncached",
                        dir.display()
                    );
                })
                .ok()
        });

        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let mut stats = RunStats {
            jobs: jobs.len(),
            ..RunStats::default()
        };
        if let Some(cache) = &cache {
            for (i, job) in jobs.iter().enumerate() {
                if let Some(outcome) = cache.load(&job.id) {
                    outcomes[i] = Some(outcome);
                    stats.cached += 1;
                }
            }
        }

        stats.parses = grid.parses();
        let pending: Vec<usize> = (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect();

        let total_batches = pending.len().div_ceil(DEFAULT_BATCH_SIZE);
        for (bi, batch) in pending.chunks(DEFAULT_BATCH_SIZE).enumerate() {
            // Group jobs that share (circuit, device, config): the
            // executable is model-independent, so each group compiles
            // once and simulates once per member.
            let order = group_by_compile_key(
                batch,
                |ji| (jobs[ji].circuit, jobs[ji].device, jobs[ji].config),
                (
                    grid.circuits().len(),
                    grid.devices().len(),
                    grid.configs().len(),
                ),
            );
            stats.compiles += order.len();

            let batch_results: Vec<Vec<(usize, JobOutcome)>> =
                parallel_map(&order, |(first, members)| {
                    let lead = &jobs[*first];
                    let circuit = &grid.circuits()[lead.circuit];
                    let device = &grid.devices()[lead.device];
                    let config = grid.configs()[lead.config];
                    // Errors are wrapped the way Toolflow::compile wraps
                    // them, so the persisted outcome text is the same.
                    let compiled = Pipeline::from_config(&config)
                        .compile(circuit, device)
                        .map_err(|e| ToolflowError::from(e).to_string());
                    match compiled {
                        Err(e) => members.iter().map(|&ji| (ji, Err(e.clone()))).collect(),
                        Ok(exe) => members
                            .iter()
                            .map(|&ji| {
                                let model = &grid.models()[jobs[ji].model];
                                let report = qccd_sim::simulate(&exe, device, model)
                                    .map_err(|e| ToolflowError::from(e).to_string());
                                (ji, report)
                            })
                            .collect(),
                    }
                });
            for pairs in batch_results {
                for (ji, outcome) in pairs {
                    if let Some(cache) = &cache {
                        cache.store(&jobs[ji].id, &outcome);
                    }
                    stats.executed += 1;
                    outcomes[ji] = Some(outcome);
                }
            }
            stats.batches += 1;
            if self.options.verbose {
                eprintln!(
                    "engine: batch {}/{total_batches}: {}/{} jobs settled ({} cached)",
                    bi + 1,
                    stats.cached + stats.executed,
                    stats.jobs,
                    stats.cached,
                );
            }
        }

        let outcomes: Vec<JobOutcome> = outcomes
            .into_iter()
            // qccd-lint: allow(engine-panic) — the job loop fills every slot before this map runs
            .map(|o| o.expect("every job executed or cached"))
            .collect();
        EngineRun {
            results: GridResults::new(outcomes, grid),
            stats,
        }
    }
}

/// The result of running a spec end to end.
#[derive(Debug, Clone)]
pub struct SpecRun {
    /// The projected artifact.
    pub artifact: Artifact,
    /// Execution counters.
    pub stats: RunStats,
    /// The expanded grid (axes in resolved form).
    pub grid: JobGrid,
    /// The raw per-job outcomes.
    pub results: GridResults,
}

/// Expands `spec`, executes its grid on `engine`, and applies the
/// spec's projection.
///
/// # Errors
///
/// Returns a [`SpecError`] if the spec does not expand or its
/// projection's axis requirements are not met.
pub fn run_spec(spec: &ExperimentSpec, engine: &Engine) -> Result<SpecRun, SpecError> {
    let grid = spec.expand()?;
    // Check the projection's axis assumptions before spending any
    // compute on the grid — the single call site for this validation
    // on the execute path (`project` assumes it already ran).
    check_axes(spec.projection, &grid)?;
    let run = engine.run(&grid);
    let artifact = project(spec, &grid, &run.results)?;
    Ok(SpecRun {
        artifact,
        stats: run.stats,
        grid,
        results: run.results,
    })
}

/// Groups a batch's job indices by shared `(circuit, device, config)`
/// compile key: the executable is model-independent, so each group
/// compiles once. Returns `(first member, all members)` per group in
/// **first-appearance order** over `batch` — grouping is reproducible by
/// construction because the key lookup is a dense array over the axis
/// index space (`dims` = circuit/device/config axis lengths), not a
/// hash map with iteration-order freedom.
fn group_by_compile_key(
    batch: &[usize],
    key_of: impl Fn(usize) -> (usize, usize, usize),
    dims: (usize, usize, usize),
) -> Vec<(usize, Vec<usize>)> {
    /// Dense-map sentinel: "this key has no group yet".
    const NO_GROUP: u32 = u32::MAX;
    let (_, nd, ncfg) = dims;
    let mut group_of: Vec<u32> = vec![NO_GROUP; (dims.0 * nd * ncfg).max(1)];
    let mut order: Vec<(usize, Vec<usize>)> = Vec::new();
    for &ji in batch {
        let (c, d, cfg) = key_of(ji);
        let key = (c * nd + d) * ncfg + cfg;
        match group_of[key] {
            NO_GROUP => {
                group_of[key] = order.len() as u32;
                order.push((ji, vec![ji]));
            }
            g => order[g as usize].1.push(ji),
        }
    }
    order
}

/// The minimum expanded axis lengths a projection's layout assumes:
/// `(circuits, devices, configs, models)`. Checked before projecting so
/// a hand-authored spec with too-thin axes gets a [`SpecError`] naming
/// the shortfall instead of an index panic.
fn axis_minima(projection: Projection) -> (usize, usize, usize, usize) {
    match projection {
        Projection::Table1 => (0, 0, 0, 1),
        Projection::Table2 | Projection::Fig8 | Projection::Cells => (0, 0, 0, 0),
        // Fig. 6/7 index the first config and model inside their
        // circuit × capacity loops.
        Projection::Fig6 | Projection::Fig7 => (0, 0, 1, 1),
        Projection::BufferAblation => (1, 1, 0, 1),
        // Heating compares the scaled-k1 and constant-k1 model entries.
        Projection::HeatingAblation => (1, 0, 1, 2),
        // Junction compares the linear and grid device entries.
        Projection::JunctionAblation => (1, 2, 1, 0),
        Projection::DeviceSizeAblation => (1, 0, 1, 1),
        Projection::PolicyAblation => (1, 0, 0, 1),
    }
}

/// Verifies `grid` satisfies the projection's axis minima, and that a
/// Fig. 7 device axis pairs its linear half with its grid half.
fn check_axes(projection: Projection, grid: &JobGrid) -> Result<(), SpecError> {
    let (circuits, devices, configs, models) = axis_minima(projection);
    for (axis, need, have) in [
        ("circuits", circuits, grid.circuits().len()),
        ("devices", devices, grid.devices().len()),
        ("configs", configs, grid.configs().len()),
        ("models", models, grid.models().len()),
    ] {
        if have < need {
            return Err(SpecError::Invalid(format!(
                "the {projection} projection needs at least {need} `{axis}` axis \
                 {} after expansion, found {have}",
                if need == 1 { "entry" } else { "entries" }
            )));
        }
    }
    if projection == Projection::Fig7 {
        let caps: Vec<u32> = grid
            .devices()
            .iter()
            .map(qccd_device::Device::max_trap_capacity)
            .collect();
        let (linear, grid_half) = caps.split_at(caps.len() / 2);
        if caps.is_empty() || linear != grid_half {
            return Err(SpecError::Invalid(format!(
                "the fig7 projection needs a non-empty `devices` axis whose two halves \
                 (linear, then grid) match trap capacity position by position, found \
                 capacities {caps:?} after expansion"
            )));
        }
    }
    Ok(())
}

/// Applies a spec's projection to evaluated grid results. Callers must
/// have run [`check_axes`] on the grid first ([`run_spec`] does, before
/// touching the cache or spending compute), so projection error paths
/// stay single-sourced.
fn project(
    spec: &ExperimentSpec,
    grid: &JobGrid,
    results: &GridResults,
) -> Result<Artifact, SpecError> {
    Ok(match spec.projection {
        Projection::Table1 => Artifact::Table(table1::generate(&grid.models()[0].shuttle)),
        Projection::Table2 => Artifact::Table(table2::generate_for(grid.circuits())),
        Projection::Fig6 => Artifact::Figure(fig6::project(grid, results)),
        Projection::Fig7 => Artifact::Figure(fig7::project(grid, results)),
        Projection::Fig8 => Artifact::Figure(fig8::project(grid, results)),
        Projection::BufferAblation => Artifact::Figure(ablations::project_buffer(grid, results)),
        Projection::HeatingAblation => Artifact::Figure(ablations::project_heating(grid, results)),
        Projection::JunctionAblation => {
            Artifact::Figure(ablations::project_junction(grid, results))
        }
        Projection::DeviceSizeAblation => {
            Artifact::Figure(ablations::project_device_size(grid, results))
        }
        Projection::PolicyAblation => Artifact::Figure(ablations::project_policy(grid, results)),
        Projection::Cells => Artifact::Table(cells_table(&spec.name, grid, results)),
    })
}

/// The generic projection: one table row per grid cell, in cell order.
fn cells_table(name: &str, grid: &JobGrid, results: &GridResults) -> Table {
    let mut rows = Vec::with_capacity(grid.cell_count());
    for (ci, circuit) in grid.circuits().iter().enumerate() {
        for (di, device) in grid.devices().iter().enumerate() {
            for (cfgi, config) in grid.configs().iter().enumerate() {
                for (mi, model) in grid.models().iter().enumerate() {
                    let mut row = vec![
                        circuit.name().to_owned(),
                        format!("{}c{}", device.name(), device.max_trap_capacity()),
                        config.policy_label(),
                        model.gate_impl.name().to_owned(),
                    ];
                    match results.outcome(grid, ci, di, cfgi, mi) {
                        Ok(r) => row.extend([
                            qccd_sim::canonical_float(r.total_time_s()),
                            qccd_sim::canonical_float(r.fidelity()),
                            r.ms_executions.to_string(),
                            r.counts.swap_gates.to_string(),
                            r.counts.moves.to_string(),
                            "ok".to_owned(),
                        ]),
                        Err(e) => row.extend([
                            String::new(),
                            String::new(),
                            String::new(),
                            String::new(),
                            String::new(),
                            e.clone(),
                        ]),
                    }
                    rows.push(row);
                }
            }
        }
    }
    Table {
        id: "cells".into(),
        caption: format!("Per-cell engine results: {name}"),
        headers: [
            "circuit", "device", "config", "gate", "time_s", "fidelity", "ms", "swaps", "moves",
            "status",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::spec::committed;
    use super::*;
    use crate::toolflow::Toolflow;
    use qccd_circuit::generators;
    use qccd_compiler::CompilerConfig;
    use qccd_device::presets;
    use qccd_physics::{GateImpl, PhysicalModel};

    fn tiny_grid() -> JobGrid {
        JobGrid::from_axes(
            vec![generators::bv(&[true; 8]), generators::qaoa(10, 1, 2)],
            vec![presets::l6(6), presets::l6(8)],
            vec![CompilerConfig::default()],
            vec![
                PhysicalModel::default(),
                PhysicalModel::with_gate(GateImpl::Am1),
            ],
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qccd-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn compile_groups_form_in_first_appearance_order() {
        // Keys interleave so that a map with iteration-order freedom
        // could emit any of several group orders; the dense map must
        // pin first-appearance order over the batch, with members in
        // batch order within each group.
        let keys = [
            (1, 0, 1), // ji 0 -> group 0
            (0, 1, 0), // ji 1 -> group 1
            (1, 0, 1), // ji 2 -> group 0
            (0, 0, 0), // ji 3 -> group 2
            (0, 1, 0), // ji 4 -> group 1
            (1, 0, 1), // ji 5 -> group 0
        ];
        let batch: Vec<usize> = (0..keys.len()).collect();
        let order = group_by_compile_key(&batch, |ji| keys[ji], (2, 2, 2));
        assert_eq!(
            order,
            vec![(0, vec![0, 2, 5]), (1, vec![1, 4]), (3, vec![3]),]
        );
        // Reversing the batch reverses the group order the same way —
        // the order is a function of the batch, not of the key values.
        let reversed: Vec<usize> = batch.iter().rev().copied().collect();
        let order = group_by_compile_key(&reversed, |ji| keys[ji], (2, 2, 2));
        assert_eq!(
            order,
            vec![(5, vec![5, 2, 0]), (4, vec![4, 1]), (3, vec![3]),]
        );
    }

    #[test]
    fn summary_reports_run_counters() {
        // Per-stage work of one run: parses, compile groups, batches.
        let stats = RunStats {
            jobs: 4,
            executed: 2,
            cached: 2,
            batches: 1,
            compiles: 2,
            parses: 3,
        };
        assert_eq!(
            stats.summary(),
            "executed 2 of 4 jobs (2 cached, 2 compiles, 1 batches, 3 parses)"
        );
        // The CLI contracts grep these two shapes out of stderr; they
        // must survive summary format changes.
        let warm = RunStats {
            jobs: 2,
            cached: 2,
            ..RunStats::default()
        };
        assert!(
            warm.summary().starts_with("executed 0 of"),
            "{}",
            warm.summary()
        );
        assert!(warm.summary().contains("(2 cached"), "{}", warm.summary());
    }

    #[test]
    fn engine_outcomes_match_direct_toolflow_runs() {
        let grid = tiny_grid();
        let run = Engine::new().run(&grid);
        assert_eq!(run.stats.jobs, 8);
        assert_eq!(run.stats.executed, 8);
        assert_eq!(run.stats.cached, 0);
        // Jobs sharing (circuit, device, config) compiled once.
        assert_eq!(run.stats.compiles, 4);
        for (ci, circuit) in grid.circuits().iter().enumerate() {
            for (di, device) in grid.devices().iter().enumerate() {
                for (mi, model) in grid.models().iter().enumerate() {
                    let direct =
                        Toolflow::with_config(device.clone(), *model, CompilerConfig::default())
                            .run(circuit)
                            .map_err(|e| e.to_string());
                    assert_eq!(
                        run.results.outcome(&grid, ci, di, 0, mi),
                        &direct,
                        "cell ({ci},{di},0,{mi}) diverged from the direct toolflow"
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_jobs_report_the_toolflow_error_text() {
        let grid = JobGrid::from_axes(
            vec![generators::qft(64)],
            vec![presets::l6(4)], // 24 slots < 64 qubits
            vec![CompilerConfig::default()],
            vec![PhysicalModel::default()],
        );
        let run = Engine::new().run(&grid);
        let direct = Toolflow::new(presets::l6(4), PhysicalModel::default())
            .run(&generators::qft(64))
            .unwrap_err();
        assert_eq!(
            run.results.outcome(&grid, 0, 0, 0, 0),
            &Err(direct.to_string())
        );
    }

    #[test]
    fn second_cached_run_executes_zero_jobs_with_identical_outcomes() {
        let dir = temp_dir("rerun");
        let options = EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        };
        let grid = tiny_grid();
        let first = Engine::with_options(options.clone()).run(&grid);
        assert_eq!(first.stats.executed, first.stats.jobs);

        let second = Engine::with_options(options).run(&grid);
        assert_eq!(second.stats.executed, 0, "cache should satisfy every job");
        assert_eq!(second.stats.cached, second.stats.jobs);
        assert_eq!(second.stats.compiles, 0);
        assert_eq!(
            first.results.job_outcomes(),
            second.results.job_outcomes(),
            "cached outcomes must be bit-identical to fresh ones"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_runs_resume_from_the_cache() {
        let dir = temp_dir("resume");
        let options = EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        };
        // Warm the cache with a smaller grid (a subset of the jobs).
        let subset = JobGrid::from_axes(
            vec![generators::bv(&[true; 8])],
            vec![presets::l6(6)],
            vec![CompilerConfig::default()],
            vec![PhysicalModel::default()],
        );
        Engine::with_options(options.clone()).run(&subset);

        let grid = tiny_grid();
        let run = Engine::with_options(options).run(&grid);
        assert_eq!(run.stats.cached, 1, "the warmed job is reused");
        assert_eq!(run.stats.executed, run.stats.jobs - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batching_does_not_change_outcomes() {
        // 3 devices × 16 pipelines = 48 jobs: one full batch and a
        // partial one, each cell checked against a serial toolflow run.
        let circuit = generators::bv(&[true; 8]);
        let devices = vec![presets::l6(6), presets::l6(8), presets::g2x3(6)];
        let configs = CompilerConfig::policy_grid(2);
        let model = PhysicalModel::default();
        let grid = JobGrid::from_axes(
            vec![circuit.clone()],
            devices.clone(),
            configs.clone(),
            vec![model],
        );
        assert!(grid.job_count() > DEFAULT_BATCH_SIZE);
        let run = Engine::new().run(&grid);
        assert_eq!(run.stats.batches, 2);
        for (di, device) in devices.iter().enumerate() {
            for (cfgi, config) in configs.iter().enumerate() {
                let direct = Toolflow::with_config(device.clone(), model, *config)
                    .run(&circuit)
                    .map_err(|e| e.to_string());
                assert_eq!(
                    run.results.outcome(&grid, 0, di, cfgi, 0),
                    &direct,
                    "cell (0,{di},{cfgi},0) diverged from the direct toolflow"
                );
            }
        }
    }

    #[test]
    fn cells_projection_lists_every_cell() {
        let spec = ExperimentSpec {
            name: "mini".into(),
            projection: Projection::Cells,
            circuits: vec![CircuitSpec::Benchmark(
                qccd_circuit::generators::Benchmark::Bv,
            )],
            capacities: vec![14, 16],
            devices: vec![DeviceSpec::Preset {
                family: "l6".into(),
                capacity: None,
            }],
            configs: vec![ConfigSpec::Config(CompilerConfig::default())],
            models: vec![ModelSpec::Default],
        };
        let run = run_spec(&spec, &Engine::new()).unwrap();
        let table = run.artifact.into_table();
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0][0], "bv_n63");
        assert_eq!(table.rows[0][1], "L6c14");
        assert!(table.rows.iter().all(|r| r[9] == "ok"));
    }

    #[test]
    fn spec_run_table1_renders_the_model_axis() {
        let run = run_spec(&committed("table1"), &Engine::new()).unwrap();
        assert_eq!(run.stats.jobs, 0, "table1 runs no simulations");
        let table = run.artifact.into_table();
        assert_eq!(table.id, "I");
    }

    #[test]
    fn projections_reject_too_thin_axes_instead_of_panicking() {
        // A valid spec whose axes don't satisfy the projection's layout
        // must surface as a SpecError, not an index panic.
        let mut heating = committed("ablation_heating");
        heating.capacities = vec![8];
        heating.models.truncate(1); // needs scaled + constant entries
        let err = run_spec(&heating, &Engine::new()).unwrap_err();
        assert!(err.to_string().contains("heating-ablation"), "{err}");
        assert!(err.to_string().contains("models"), "{err}");

        let mut junction = committed("ablation_junction");
        junction.devices.truncate(1); // needs linear + grid entries
        let err = run_spec(&junction, &Engine::new()).unwrap_err();
        assert!(err.to_string().contains("devices"), "{err}");

        let mut table1 = committed("table1");
        table1.models.clear();
        let err = run_spec(&table1, &Engine::new()).unwrap_err();
        assert!(err.to_string().contains("models"), "{err}");

        let mut buffer = committed("ablation_buffer");
        buffer.circuits.clear();
        assert!(run_spec(&buffer, &Engine::new()).is_err());

        // Fig. 7 splits its devices into a linear and a grid half; one
        // device file swept over three capacities has no such halves.
        let mut fig7 = committed("fig7");
        fig7.capacities = vec![14, 22, 30];
        fig7.devices = vec![DeviceSpec::Preset {
            family: "l6".into(),
            capacity: None,
        }];
        let err = run_spec(&fig7, &Engine::new()).unwrap_err();
        assert!(err.to_string().contains("fig7"), "{err}");
        assert!(err.to_string().contains("devices"), "{err}");
    }
}
