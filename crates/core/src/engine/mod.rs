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
//!   models) plus the projection that shapes the results. The six
//!   paper artifacts are preset constructors ([`ExperimentSpec::fig6`]
//!   and friends).
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
//!
//! // A scaled-down Fig. 6: the full paper run uses PAPER_CAPACITIES.
//! let spec = ExperimentSpec::fig6(&[8]);
//! let run = run_spec(&spec, &Engine::new()).unwrap();
//! let figure = run.artifact.into_figure();
//! assert_eq!(figure.id, "6");
//! assert_eq!(run.stats.executed, run.stats.jobs);
//! ```

pub mod cache;
pub mod grid;
pub mod sink;
pub mod spec;

pub use cache::{GcStats, ResultCache, StageCache, STAGE_SUBDIR};
pub use grid::{GridResults, Job, JobGrid, JobId, JobOutcome};
pub use sink::{Artifact, ArtifactSink, CsvSink, JsonSink};
pub use spec::{
    CircuitSpec, ConfigSpec, DeviceSpec, ExperimentSpec, ModelSpec, Projection, SpecError,
};

use crate::experiments::{ablations, fig6, fig7, fig8, table1, table2, Table};
use crate::sweep::parallel_map;
use crate::toolflow::{Toolflow, ToolflowError};
use qccd_compiler::{CompileMemo, CompileMemoRef, Executable, Pipeline, StagePersist};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// One slice of a deterministic shard partition: an engine configured
/// with shard `index` of `count` executes only the jobs whose id hashes
/// to `index` modulo `count` (see [`JobId::shard_of`]), skipping the
/// rest. Because the assignment hashes the content-stable job id (not
/// the job's position in the grid), shards stay disjoint and exhaustive
/// across processes and stable under grid edits — `count` cooperating
/// processes sharing one cache directory cover every job exactly once,
/// and [`Engine::merge`] assembles the full result set afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Shard `index` of `count` (0-based).
    ///
    /// # Errors
    ///
    /// Returns a message if `count` is zero or `index` is out of range.
    pub fn new(index: usize, count: usize) -> Result<Shard, String> {
        if count == 0 {
            return Err("shard count must be positive".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s) (indices are 0-based)"
            ));
        }
        Ok(Shard { index, count })
    }

    /// This shard's 0-based index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of shards in the partition.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this shard owns the job with id `id`.
    pub fn owns(&self, id: &JobId) -> bool {
        id.shard_of(self.count) == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for Shard {
    type Err = String;

    /// Parses the CLI spelling `index/count`, e.g. `0/2`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("expected `index/count` (e.g. 0/2), got `{s}`");
        let (index, count) = s.split_once('/').ok_or_else(err)?;
        let index: usize = index.trim().parse().map_err(|_| err())?;
        let count: usize = count.trim().parse().map_err(|_| err())?;
        Shard::new(index, count)
    }
}

/// Execution knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Directory of the on-disk result cache; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Jobs per execution batch (progress is streamed per batch);
    /// `0` uses the default.
    pub batch_size: usize,
    /// Stream per-batch progress to stderr.
    pub verbose: bool,
    /// Execute only this slice of the grid's jobs; `None` runs them
    /// all. Sharded runs normally also set [`EngineOptions::cache_dir`]
    /// (to a directory shared by all shards) so [`Engine::merge`] can
    /// assemble the full results afterwards.
    pub shard: Option<Shard>,
    /// Share compile stages (route rows, placements, routing episodes)
    /// across the jobs of a run through a per-device
    /// [`qccd_compiler::CompileMemo`], and — when
    /// [`EngineOptions::cache_dir`] is set — persist them under
    /// `<cache-dir>/stages/` so a re-invoked sweep warm-starts across
    /// processes. Memoized compiles are bit-identical to cold ones
    /// (the stage memo only reuses pure functions of its keys), so
    /// this is on by default; turning it off exists for A/B timing
    /// and debugging.
    pub stage_memo: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            cache_dir: None,
            batch_size: 0,
            verbose: false,
            shard: None,
            stage_memo: true,
        }
    }
}

/// Default number of jobs per execution batch.
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
    /// Jobs skipped because another shard owns them.
    pub skipped: usize,
    /// Execution batches run.
    pub batches: usize,
    /// Compilations performed (jobs differing only in physical model
    /// share one).
    pub compiles: usize,
    /// Circuits constructed (parsed or generated) for the grid — each
    /// distinct circuit-axis entry once, however many jobs share it.
    pub parses: usize,
    /// Placement stages served from the stage memo (in-memory or
    /// persisted) instead of recomputed.
    pub placement_hits: u64,
    /// Placement stages computed cold this run.
    pub placement_misses: u64,
    /// Route stages (dense route rows and congestion-window routing
    /// episodes) served from the stage memo.
    pub route_hits: u64,
    /// Route stages computed cold this run.
    pub route_misses: u64,
}

impl RunStats {
    /// One-line human-readable summary (`executed N of M jobs, …`).
    /// Stage counters render as `hits/total` so reuse is observable at
    /// a glance; totals are zero when the stage memo is disabled or
    /// nothing compiled.
    pub fn summary(&self) -> String {
        format!(
            "executed {} of {} jobs ({} cached, {} skipped, {} compiles, {} batches, \
             {} parses, {}/{} placement hits, {}/{} route hits)",
            self.executed,
            self.jobs,
            self.cached,
            self.skipped,
            self.compiles,
            self.batches,
            self.parses,
            self.placement_hits,
            self.placement_hits + self.placement_misses,
            self.route_hits,
            self.route_hits + self.route_misses,
        )
    }
}

/// Error from [`Engine::merge`]: the shared cache does not (yet) hold a
/// complete result set for the grid.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The engine has no cache directory configured — there is nothing
    /// to merge from.
    NoCache,
    /// The cache directory exists but could not be opened.
    Unusable {
        /// The cache directory that failed to open.
        path: String,
        /// The underlying error text.
        message: String,
    },
    /// One or more jobs have no cache entry: some shard has not run (or
    /// not finished) yet.
    Incomplete {
        /// Ids of the jobs with no cached outcome, in grid job order.
        missing: Vec<JobId>,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoCache => {
                write!(f, "merge needs a result cache directory (none configured)")
            }
            MergeError::Unusable { path, message } => {
                write!(f, "cache directory {path} unusable: {message}")
            }
            MergeError::Incomplete { missing } => {
                spec::fmt_missing_jobs(f, missing.iter().map(JobId::as_str))
            }
        }
    }
}

impl std::error::Error for MergeError {}

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

    /// The engine's options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Executes every job of `grid` this engine owns and returns the
    /// outcomes.
    ///
    /// Cached jobs are loaded without executing; fresh outcomes are
    /// persisted as soon as their batch completes, so an interrupted
    /// run resumes from the last finished batch. With a
    /// [`EngineOptions::shard`] configured, jobs owned by other shards
    /// are skipped entirely (never executed, loaded, or stored): their
    /// outcome slot carries a synthetic `skipped` error and
    /// [`RunStats::skipped`] counts them — assemble the complete result
    /// set with [`Engine::merge`] once every shard has run.
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
        if let Some(shard) = self.options.shard {
            for (i, job) in jobs.iter().enumerate() {
                if !shard.owns(&job.id) {
                    outcomes[i] = Some(Err(format!(
                        "skipped: shard {}/{} owns this job, not {shard}",
                        job.id.shard_of(shard.count()),
                        shard.count()
                    )));
                    stats.skipped += 1;
                }
            }
        }
        if let Some(cache) = &cache {
            for (i, job) in jobs.iter().enumerate() {
                if outcomes[i].is_none() {
                    if let Some(outcome) = cache.load(&job.id) {
                        outcomes[i] = Some(outcome);
                        stats.cached += 1;
                    }
                }
            }
        }

        stats.parses = grid.parses();
        let pending: Vec<usize> = (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect();

        // One compile-stage memo per device, initialized lazily by the
        // first group that compiles on it and shared by every circuit
        // and config of the run: route rows, placements, and routing
        // episodes are computed once per stage key, not once per job.
        // With a cache directory, stages also persist under
        // `<cache-dir>/stages/` so the next process warm-starts.
        let stage_persist: Option<Arc<dyn StagePersist>> = match (&cache, self.options.stage_memo) {
            (Some(cache), true) => StageCache::open(cache.dir().join(STAGE_SUBDIR))
                .map_err(|e| {
                    eprintln!(
                        "engine: stage directory under {} unusable ({e}); \
                         stages stay in-memory only",
                        cache.dir().display()
                    );
                })
                .ok()
                .map(|s| Arc::new(s) as Arc<dyn StagePersist>),
            _ => None,
        };
        let memos: Vec<OnceLock<CompileMemo<'_>>> = if self.options.stage_memo {
            (0..grid.devices().len()).map(|_| OnceLock::new()).collect()
        } else {
            Vec::new()
        };
        let batch_size = if self.options.batch_size == 0 {
            DEFAULT_BATCH_SIZE
        } else {
            self.options.batch_size
        };
        let total_batches = pending.len().div_ceil(batch_size);
        for (bi, batch) in pending.chunks(batch_size).enumerate() {
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
                    // The memoized path compiles through the pipeline
                    // directly; errors are wrapped the same way
                    // Toolflow::compile wraps them so the persisted
                    // outcome text is identical either way.
                    let compiled: Result<Executable, String> = match memos.get(lead.device) {
                        Some(slot) => {
                            let memo = slot.get_or_init(|| {
                                CompileMemo::with_persist(device, stage_persist.clone())
                            });
                            Pipeline::from_config(&config)
                                .compile_with(
                                    circuit,
                                    device,
                                    Some(CompileMemoRef::new(
                                        memo,
                                        grid.circuit_digest(lead.circuit),
                                    )),
                                )
                                .map_err(|e| ToolflowError::from(e).to_string())
                        }
                        None => {
                            Toolflow::with_config(device.clone(), grid.models()[lead.model], config)
                                .compile(circuit)
                                .map_err(|e| e.to_string())
                        }
                    };
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
                // Skipped jobs count as settled, so a sharded run's
                // progress still converges on N of N.
                eprintln!(
                    "engine: batch {}/{total_batches}: {}/{} jobs settled ({} cached, {} skipped)",
                    bi + 1,
                    stats.cached + stats.executed + stats.skipped,
                    stats.jobs,
                    stats.cached,
                    stats.skipped,
                );
            }
        }

        for memo in memos.iter().filter_map(OnceLock::get) {
            let counters = memo.counters();
            stats.placement_hits += counters.placement_hits;
            stats.placement_misses += counters.placement_misses;
            stats.route_hits += counters.route_hits;
            stats.route_misses += counters.route_misses;
        }

        let outcomes: Vec<JobOutcome> = outcomes
            .into_iter()
            // qccd-lint: allow(engine-panic, panic-discipline) — the job loop fills every slot before this map runs
            .map(|o| o.expect("every job executed, cached, or skipped"))
            .collect();
        EngineRun {
            results: GridResults::new(outcomes, grid),
            stats,
        }
    }

    /// Assembles `grid`'s complete result set purely from the shared
    /// result cache, executing nothing — the final step of a sharded
    /// multi-process run, after every shard has finished against the
    /// same cache directory.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::Incomplete`] with the ids of every job
    /// that has no cached outcome (a shard is still running, or was
    /// never launched), [`MergeError::NoCache`] if the engine has no
    /// cache directory, and [`MergeError::Unusable`] if the directory
    /// cannot be opened.
    pub fn merge(&self, grid: &JobGrid) -> Result<EngineRun, MergeError> {
        let dir = self.options.cache_dir.as_ref().ok_or(MergeError::NoCache)?;
        let cache = ResultCache::open(dir).map_err(|e| MergeError::Unusable {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let jobs = grid.jobs();
        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
        let mut missing: Vec<JobId> = Vec::new();
        for job in jobs {
            match cache.load(&job.id) {
                Some(outcome) => outcomes.push(outcome),
                None => missing.push(job.id.clone()),
            }
        }
        if !missing.is_empty() {
            return Err(MergeError::Incomplete { missing });
        }
        let stats = RunStats {
            jobs: jobs.len(),
            cached: jobs.len(),
            parses: grid.parses(),
            ..RunStats::default()
        };
        Ok(EngineRun {
            results: GridResults::new(outcomes, grid),
            stats,
        })
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
    // A shard-configured engine evaluates only a slice of the grid;
    // projecting that would silently render the other shards' cells as
    // failed/missing points. Refuse instead of emitting a wrong
    // artifact — the sharded flow is run_spec_jobs + merge_spec.
    if let Some(shard) = engine.options().shard {
        return Err(SpecError::Invalid(format!(
            "the engine is configured for shard {shard}, which evaluates only a slice of \
             the grid; execute the slice with run_spec_jobs and assemble the artifact \
             with merge_spec"
        )));
    }
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

/// Executes a spec's expanded grid without projecting an artifact —
/// the per-shard worker mode of a multi-process run. Each worker runs
/// this with a distinct [`EngineOptions::shard`] against one shared
/// cache directory; [`merge_spec`] produces the artifact afterwards.
///
/// # Errors
///
/// Returns a [`SpecError`] if the spec does not expand or its axes do
/// not satisfy the projection (checked here so a doomed study fails on
/// every worker before burning compute, not at merge time). For a
/// shard-configured engine the shared cache is the worker's only
/// output, so a missing or unopenable cache directory is an error too
/// — silently running uncached would discard every result and leave
/// the merge permanently incomplete.
pub fn run_spec_jobs(spec: &ExperimentSpec, engine: &Engine) -> Result<EngineRun, SpecError> {
    if engine.options().shard.is_some() {
        match &engine.options().cache_dir {
            None => {
                return Err(SpecError::Invalid(
                    "a sharded engine persists results only through the shared cache; \
                     configure EngineOptions::cache_dir"
                        .into(),
                ))
            }
            Some(dir) => {
                ResultCache::open(dir).map_err(|e| SpecError::Io {
                    path: dir.display().to_string(),
                    message: format!(
                        "shard workers persist results only through the shared cache, \
                         which cannot be opened: {e}"
                    ),
                })?;
            }
        }
    }
    let grid = spec.expand()?;
    check_axes(spec.projection, &grid)?;
    Ok(engine.run(&grid))
}

/// Assembles a spec's results purely from the engine's shared result
/// cache — executing nothing — and applies the spec's projection: the
/// final step of a sharded multi-process run.
///
/// # Errors
///
/// Returns [`SpecError::IncompleteCache`] naming every job id the
/// cache is missing when not all shards have run, and otherwise as
/// [`run_spec`].
pub fn merge_spec(spec: &ExperimentSpec, engine: &Engine) -> Result<SpecRun, SpecError> {
    let grid = spec.expand()?;
    check_axes(spec.projection, &grid)?;
    let run = engine.merge(&grid).map_err(|e| match e {
        MergeError::Incomplete { missing } => SpecError::IncompleteCache {
            missing: missing.iter().map(|id| id.as_str().to_owned()).collect(),
        },
        // An unopenable cache is an environment problem, not a spec
        // problem — keep the error category truthful. A missing cache
        // directory is engine misconfiguration (like run_spec's shard
        // guard); say so rather than implicating the spec.
        MergeError::Unusable { path, message } => SpecError::Io { path, message },
        MergeError::NoCache => SpecError::Invalid(
            "merge_spec needs an engine with EngineOptions::cache_dir configured \
             (the cache is the only input a merge reads)"
                .into(),
        ),
    })?;
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

/// Verifies `grid` satisfies the projection's axis minima.
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
    Ok(())
}

/// Applies a spec's projection to evaluated grid results. Callers must
/// have run [`check_axes`] on the grid first (both entry points —
/// [`run_spec`] and [`merge_spec`] — do, before touching the cache or
/// spending compute), so projection error paths stay single-sourced.
fn project(
    spec: &ExperimentSpec,
    grid: &JobGrid,
    results: &GridResults,
) -> Result<Artifact, SpecError> {
    Ok(match spec.projection {
        Projection::Table1 => Artifact::Table(table1::generate(&grid.models()[0].shuttle)),
        Projection::Table2 => Artifact::Table(table2::generate_for(grid.circuits())),
        Projection::Fig6 => Artifact::Figure(fig6::project(grid, results, &spec.capacities)),
        Projection::Fig7 => Artifact::Figure(fig7::project(grid, results, &spec.capacities)),
        Projection::Fig8 => Artifact::Figure(fig8::project(grid, results, &spec.capacities)),
        Projection::BufferAblation => Artifact::Figure(ablations::project_buffer(grid, results)),
        Projection::HeatingAblation => {
            Artifact::Figure(ablations::project_heating(grid, results, &spec.capacities))
        }
        Projection::JunctionAblation => {
            Artifact::Figure(ablations::project_junction(grid, results))
        }
        Projection::DeviceSizeAblation => {
            Artifact::Figure(ablations::project_device_size(grid, results))
        }
        Projection::PolicyAblation => {
            Artifact::Figure(ablations::project_policy(grid, results, &spec.capacities))
        }
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
    use super::*;
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
    fn summary_reports_stage_counters() {
        let stats = RunStats {
            jobs: 4,
            executed: 2,
            cached: 1,
            skipped: 1,
            batches: 1,
            compiles: 2,
            parses: 3,
            placement_hits: 5,
            placement_misses: 2,
            route_hits: 7,
            route_misses: 3,
        };
        assert_eq!(
            stats.summary(),
            "executed 2 of 4 jobs (1 cached, 1 skipped, 2 compiles, 1 batches, \
             3 parses, 5/7 placement hits, 7/10 route hits)"
        );
        // The CLI contracts grep these two shapes out of stderr; they
        // must survive summary format changes.
        let warm = RunStats {
            jobs: 2,
            cached: 1,
            skipped: 1,
            ..RunStats::default()
        };
        assert!(
            warm.summary().starts_with("executed 0 of"),
            "{}",
            warm.summary()
        );
        assert!(
            warm.summary().contains("(1 cached, 1 skipped"),
            "{}",
            warm.summary()
        );
    }

    #[test]
    fn stage_memo_is_bit_identical_and_counts_reuse() {
        // Two configs sharing the mapping stage: the second compile
        // group reuses the first group's placement, and outcomes are
        // identical to a memo-free run.
        let grid = JobGrid::from_axes(
            vec![generators::bv(&[true; 8])],
            vec![presets::l6(8)],
            vec![
                CompilerConfig::default(),
                CompilerConfig {
                    eviction: qccd_compiler::EvictionKind::ChainEnd,
                    ..CompilerConfig::default()
                },
            ],
            vec![PhysicalModel::default()],
        );
        // The memo's claim protocol keeps the counts below exact even
        // when both compile groups race in one batch: the second racer
        // blocks on the first's in-flight claim instead of missing too.
        let memoized = Engine::new().run(&grid);
        let cold = Engine::with_options(EngineOptions {
            stage_memo: false,
            ..EngineOptions::default()
        })
        .run(&grid);
        assert_eq!(
            memoized.results.job_outcomes(),
            cold.results.job_outcomes(),
            "stage-memoized outcomes must be bit-identical to cold ones"
        );
        assert_eq!(memoized.stats.compiles, 2);
        assert_eq!(
            memoized.stats.placement_misses, 1,
            "one distinct placement stage"
        );
        assert_eq!(
            memoized.stats.placement_hits, 1,
            "the second config reuses it"
        );
        // Warming the device's route cache computes one row per trap.
        assert_eq!(memoized.stats.route_misses, 6);
        assert_eq!(memoized.stats.parses, 1);
        // The memo-free engine reports all-zero stage counters.
        assert_eq!(cold.stats.placement_hits + cold.stats.placement_misses, 0);
        assert_eq!(cold.stats.route_hits + cold.stats.route_misses, 0);
    }

    #[test]
    fn persisted_stages_warm_start_the_next_process() {
        let dir = temp_dir("stage-warm");
        let options = EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        };
        let grid = |model| {
            JobGrid::from_axes(
                vec![generators::bv(&[true; 8])],
                vec![presets::l6(8)],
                vec![CompilerConfig::default()],
                vec![model],
            )
        };
        // Cold run: every stage misses, and the stage files land next
        // to the result entries.
        let first = Engine::with_options(options.clone()).run(&grid(PhysicalModel::default()));
        assert_eq!(first.stats.placement_misses, 1);
        assert_eq!(first.stats.route_misses, 6);
        assert_eq!(first.stats.placement_hits + first.stats.route_hits, 0);
        let stages = StageCache::open(dir.join(STAGE_SUBDIR)).unwrap();
        assert_eq!(stages.len(), 7, "6 route rows + 1 placement persisted");

        // A different model is a different job (result-cache miss), but
        // every compile stage warm-starts from disk — as a re-invoked
        // sweep with one edited axis would.
        let second =
            Engine::with_options(options).run(&grid(PhysicalModel::with_gate(GateImpl::Am1)));
        assert_eq!(
            second.stats.cached, 0,
            "new job id: the result cache misses"
        );
        assert_eq!(second.stats.executed, 1);
        assert_eq!(second.stats.placement_hits, 1);
        assert_eq!(second.stats.placement_misses, 0);
        assert_eq!(second.stats.route_hits, 6);
        assert_eq!(second.stats.route_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
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
        let grid = tiny_grid();
        let whole = Engine::new().run(&grid);
        let tiny_batches = Engine::with_options(EngineOptions {
            batch_size: 1,
            ..EngineOptions::default()
        })
        .run(&grid);
        assert_eq!(
            whole.results.job_outcomes(),
            tiny_batches.results.job_outcomes()
        );
        assert_eq!(tiny_batches.stats.batches, 8);
        // One-job batches cannot share compilations.
        assert_eq!(tiny_batches.stats.compiles, 8);
    }

    #[test]
    fn shard_parsing_and_validation() {
        assert_eq!("0/2".parse::<Shard>().unwrap(), Shard::new(0, 2).unwrap());
        assert_eq!("1/3".parse::<Shard>().unwrap().to_string(), "1/3");
        assert_eq!(" 1 / 3 ".parse::<Shard>().unwrap().index(), 1);
        for bad in ["2/2", "x/2", "1", "1/", "/2", "1/0", "-1/2"] {
            assert!(bad.parse::<Shard>().is_err(), "`{bad}` must not parse");
        }
        assert!(Shard::new(0, 0).is_err());
        assert!(Shard::new(3, 3).is_err());
    }

    #[test]
    fn sharded_runs_skip_unowned_jobs_and_merge_reassembles() {
        let dir = temp_dir("shard");
        let grid = tiny_grid();
        let full = Engine::new().run(&grid);

        let mut total_executed = 0;
        for k in 0..3 {
            let engine = Engine::with_options(EngineOptions {
                cache_dir: Some(dir.clone()),
                shard: Some(Shard::new(k, 3).unwrap()),
                ..EngineOptions::default()
            });
            let run = engine.run(&grid);
            assert_eq!(
                run.stats.executed + run.stats.skipped + run.stats.cached,
                run.stats.jobs,
                "shard {k}/3: every job accounted for"
            );
            assert_eq!(run.stats.cached, 0, "disjoint shards share no jobs");
            // Skipped jobs carry a synthetic error naming the owner.
            for (job, outcome) in grid.jobs().iter().zip(run.results.job_outcomes()) {
                if !Shard::new(k, 3).unwrap().owns(&job.id) {
                    let err = outcome.as_ref().unwrap_err();
                    assert!(err.starts_with("skipped: shard"), "{err}");
                }
            }
            total_executed += run.stats.executed;
        }
        assert_eq!(
            total_executed,
            grid.job_count(),
            "the shards together executed each job exactly once"
        );

        let merged = Engine::with_options(EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        })
        .merge(&grid)
        .expect("every job cached");
        assert_eq!(merged.stats.executed, 0);
        assert_eq!(merged.stats.cached, grid.job_count());
        assert_eq!(
            merged.results.job_outcomes(),
            full.results.job_outcomes(),
            "merged results must match an unsharded run bit for bit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_requires_a_cache_and_names_missing_jobs() {
        let grid = tiny_grid();
        assert_eq!(Engine::new().merge(&grid).unwrap_err(), MergeError::NoCache);

        let dir = temp_dir("merge-missing");
        let options = EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        };
        let engine = Engine::with_options(options);
        match engine.merge(&grid).unwrap_err() {
            MergeError::Incomplete { missing } => {
                assert_eq!(missing.len(), grid.job_count(), "empty cache misses all");
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
        // Fill all but the first job; the error names exactly that one.
        let cache = ResultCache::open(&dir).unwrap();
        for job in &grid.jobs()[1..] {
            cache.store(&job.id, &Err("stub".into()));
        }
        match engine.merge(&grid).unwrap_err() {
            MergeError::Incomplete { missing } => {
                assert_eq!(missing, vec![grid.jobs()[0].id.clone()]);
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_spec_refuses_a_shard_configured_engine() {
        // A projection over one shard's slice would silently drop the
        // other shards' cells; run_spec must error, not emit it.
        let engine = Engine::with_options(EngineOptions {
            shard: Some(Shard::new(0, 2).unwrap()),
            ..EngineOptions::default()
        });
        let err = run_spec(&ExperimentSpec::fig6(&[8]), &engine).unwrap_err();
        assert!(err.to_string().contains("shard 0/2"), "{err}");
        assert!(err.to_string().contains("run_spec_jobs"), "{err}");
    }

    #[test]
    fn run_spec_jobs_guards_the_sharded_worker_mode() {
        let spec = ExperimentSpec::fig6(&[8]);

        // No cache: a shard worker's results would be discarded.
        let engine = Engine::with_options(EngineOptions {
            shard: Some(Shard::new(0, 2).unwrap()),
            ..EngineOptions::default()
        });
        let err = run_spec_jobs(&spec, &engine).unwrap_err();
        assert!(err.to_string().contains("cache"), "{err}");

        // Unopenable cache: a hard error, not a silent uncached run
        // that leaves the merge permanently incomplete.
        let file =
            std::env::temp_dir().join(format!("qccd-shard-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "x").unwrap();
        let engine = Engine::with_options(EngineOptions {
            cache_dir: Some(file.clone()),
            shard: Some(Shard::new(0, 2).unwrap()),
            ..EngineOptions::default()
        });
        let err = run_spec_jobs(&spec, &engine).unwrap_err();
        assert!(matches!(err, SpecError::Io { .. }), "{err:?}");
        let _ = std::fs::remove_file(&file);

        // Axis shortfalls fail on every worker before any compute,
        // not at merge time.
        let dir = temp_dir("worker-axes");
        let engine = Engine::with_options(EngineOptions {
            cache_dir: Some(dir.clone()),
            shard: Some(Shard::new(0, 2).unwrap()),
            ..EngineOptions::default()
        });
        let mut heating = ExperimentSpec::ablation_heating(&[8], &CompilerConfig::default());
        heating.models.truncate(1); // needs scaled + constant entries
        let err = run_spec_jobs(&heating, &engine).unwrap_err();
        assert!(err.to_string().contains("models"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_surfaces_an_unusable_cache_as_an_io_error() {
        // cache_dir pointing at a regular file cannot be opened; that
        // is an environment error, not a spec error.
        let file = std::env::temp_dir().join(format!("qccd-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "x").unwrap();
        let engine = Engine::with_options(EngineOptions {
            cache_dir: Some(file.clone()),
            ..EngineOptions::default()
        });
        let err = merge_spec(&ExperimentSpec::fig6(&[8]), &engine).unwrap_err();
        assert!(matches!(err, SpecError::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("qccd-not-a-dir"), "{err}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn merge_spec_projects_from_the_cache_and_reports_missing_ids() {
        let dir = temp_dir("merge-spec");
        let mut spec = ExperimentSpec::fig6(&[8]);
        spec.circuits.truncate(2);
        let cached_engine = Engine::with_options(EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        });

        // Before any shard ran, the merge names what is missing.
        let err = merge_spec(&spec, &cached_engine).unwrap_err();
        match &err {
            SpecError::IncompleteCache { missing } => assert_eq!(missing.len(), 2),
            other => panic!("expected IncompleteCache, got {other:?}"),
        }
        assert!(err.to_string().contains("missing 2 job(s)"), "{err}");

        // Run both shards, then the merge reproduces the direct run.
        let direct = run_spec(&spec, &Engine::new()).unwrap();
        for k in 0..2 {
            let engine = Engine::with_options(EngineOptions {
                cache_dir: Some(dir.clone()),
                shard: Some(Shard::new(k, 2).unwrap()),
                ..EngineOptions::default()
            });
            run_spec_jobs(&spec, &engine).unwrap();
        }
        let merged = merge_spec(&spec, &cached_engine).unwrap();
        assert_eq!(merged.stats.executed, 0);
        assert_eq!(
            serde_json::to_string_pretty(&merged.artifact).unwrap(),
            serde_json::to_string_pretty(&direct.artifact).unwrap(),
            "merged artifact bytes must match the single-process run"
        );
        let _ = std::fs::remove_dir_all(&dir);
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
        let run = run_spec(&ExperimentSpec::table1(), &Engine::new()).unwrap();
        assert_eq!(run.stats.jobs, 0, "table1 runs no simulations");
        let table = run.artifact.into_table();
        assert_eq!(table.id, "I");
    }

    #[test]
    fn projections_reject_too_thin_axes_instead_of_panicking() {
        // A valid spec whose axes don't satisfy the projection's layout
        // must surface as a SpecError, not an index panic.
        let mut heating = ExperimentSpec::ablation_heating(&[8], &CompilerConfig::default());
        heating.models.truncate(1); // needs scaled + constant entries
        let err = run_spec(&heating, &Engine::new()).unwrap_err();
        assert!(err.to_string().contains("heating-ablation"), "{err}");
        assert!(err.to_string().contains("models"), "{err}");

        let mut junction = ExperimentSpec::ablation_junction(&CompilerConfig::default());
        junction.devices.truncate(1); // needs linear + grid entries
        let err = run_spec(&junction, &Engine::new()).unwrap_err();
        assert!(err.to_string().contains("devices"), "{err}");

        let mut table1 = ExperimentSpec::table1();
        table1.models.clear();
        let err = run_spec(&table1, &Engine::new()).unwrap_err();
        assert!(err.to_string().contains("models"), "{err}");

        let mut buffer = ExperimentSpec::ablation_buffer(&CompilerConfig::default());
        buffer.circuits.clear();
        assert!(run_spec(&buffer, &Engine::new()).is_err());
    }
}
