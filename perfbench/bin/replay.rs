//! The traced run: a serial replay of a workload iteration through the
//! public functions of each layer, in `Engine::run`'s call order, with a
//! span around every call made from here.
//!
//! The replay mirrors the engine: spec load and grid expansion (circuit
//! resolution as child spans), result-cache lookups, then per batch one
//! compile per (circuit, device, config) group through the per-device
//! `CompileMemo`, one simulation per model, and the batch's stores; the
//! artifact is emitted through `JsonSink`. Projection is not public, so
//! the replay emits the artifact its untraced twin projected, and
//! checks that every replayed outcome equals the untraced one.

use crate::sys::fnv1a;
use crate::workloads::{entry_path, insts_of, Prepared, SpecInput};
use qccd::circuit::{qasm, Circuit};
use qccd::compiler::{CompileMemo, CompileMemoRef, CompilerConfig, Pipeline, StagePersist};
use qccd::engine::{
    ArtifactSink, ConfigSpec, ExperimentSpec, JobGrid, JobOutcome, JsonSink, ModelSpec,
    ResultCache, SpecRun, StageCache, DEFAULT_BATCH_SIZE, STAGE_SUBDIR,
};
use qccd::ToolflowError;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The layers a replay attributes time to, named after the crates and
/// modules whose public functions their spans wrap.
pub const LAYERS: [&str; 8] = [
    "circuit.parse",
    "engine.expand",
    "device.route_rows",
    "compiler.compile",
    "sim.simulate",
    "cache.load",
    "cache.store",
    "sink.emit",
];

const ITER: &str = "iter";
const PROBE: &str = "probe";
const PLACE: &str = "compiler.place";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    iteration: usize,
}

/// Spans kept in memory for the whole run and written once at its end.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    iteration: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            iteration: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iteration: self.iteration,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path, workload: &str) -> Result<(), String> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"workload\": \"{workload}\", \"iteration\": {}}}\n",
                s.name, s.start_ns, s.end_ns, s.iteration
            ));
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(text.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Per traced iteration: self time of each layer in [`LAYERS`]
    /// order, the unattributed time (iteration wall minus its top-level
    /// spans), the iteration wall and the placement-probe time, all in
    /// nanoseconds.
    pub fn breakdown(&self) -> Result<Vec<Breakdown>, String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<Breakdown> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            if s.name == ITER {
                out.push(Breakdown {
                    layer_ns: [0; LAYERS.len()],
                    unattributed_ns: dur - child_ns[i],
                    wall_ns: dur,
                    place_ns: 0,
                });
                continue;
            }
            let b = out.last_mut().ok_or("span outside a traced iteration")?;
            if s.name == PLACE {
                b.place_ns += dur;
            } else if let Some(l) = LAYERS.iter().position(|&n| n == s.name) {
                b.layer_ns[l] += dur - child_ns[i];
            }
        }
        for b in &out {
            let attributed: u64 = b.layer_ns.iter().sum();
            if attributed + b.unattributed_ns != b.wall_ns {
                return Err(format!(
                    "layer self times ({attributed} ns) plus unattributed ({} ns) \
                     do not equal the traced wall ({} ns)",
                    b.unattributed_ns, b.wall_ns
                ));
            }
        }
        Ok(out)
    }
}

/// One traced iteration's time split, in nanoseconds.
pub struct Breakdown {
    pub layer_ns: [u64; LAYERS.len()],
    pub unattributed_ns: u64,
    pub wall_ns: u64,
    pub place_ns: u64,
}

/// Work counted by one traced iteration; every field must repeat
/// exactly from one iteration to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub jobs: u64,
    pub compile_groups: u64,
    pub infeasible: u64,
    pub insts_out: u64,
    pub sim_runs: u64,
    pub sim_insts: u64,
    pub loads: u64,
    pub hits: u64,
    pub stores: u64,
    pub bytes_written: u64,
    pub sink_bytes: u64,
    pub circuit_bytes: u64,
    pub placement_hits: u64,
    pub placement_misses: u64,
    pub route_hits: u64,
    pub route_misses: u64,
}

/// What one spec's replay hands to the checks and probes that run after
/// the iteration span closes.
struct SpecReplay {
    grid: JobGrid,
    outcomes: Vec<JobOutcome>,
    /// Circuit-axis positions resolved (not cloned) during expansion.
    resolved: Vec<usize>,
    /// (circuit, device, config) of every compile group.
    groups: Vec<(usize, usize, usize)>,
}

/// Replays every spec of `p` once, serially, checking each against the
/// untraced run in `reference` (same order as `p.specs`).
pub fn replay(rec: &mut Recorder, p: &Prepared, reference: &[SpecRun]) -> Result<Counts, String> {
    p.restore()?;
    rec.iteration += 1;
    let mut c = Counts::default();
    let iter = rec.open(ITER, None);
    let mut replays = Vec::with_capacity(p.specs.len());
    for (input, twin) in p.specs.iter().zip(reference) {
        replays.push(replay_spec(
            rec,
            iter,
            input,
            p.cache_dir.as_deref(),
            twin,
            &mut c,
        )?);
    }
    rec.close(iter);

    // Checks and probes, outside the traced wall.
    for (((input, twin), r), want) in p.specs.iter().zip(reference).zip(&replays).zip(&p.expected) {
        let ids = |g: &JobGrid| g.jobs().iter().map(|j| j.id.clone()).collect::<Vec<_>>();
        if ids(&r.grid) != ids(&twin.grid) {
            return Err(format!(
                "{}: replayed grid differs from expand()",
                input.name
            ));
        }
        if r.outcomes != twin.results.job_outcomes() {
            return Err(format!(
                "{}: replayed outcomes differ from the engine's",
                input.name
            ));
        }
        let bytes =
            std::fs::read(&input.out).map_err(|e| format!("{}: {e}", input.out.display()))?;
        if Some(fnv1a(&bytes)) != *want {
            return Err(format!("{}: replayed artifact digest differs", input.name));
        }
        c.jobs += r.grid.job_count() as u64;
        c.sink_bytes += bytes.len() as u64;
        for &i in &r.resolved {
            c.circuit_bytes += qasm::write(&r.grid.circuits()[i]).len() as u64;
        }
    }
    let probe = rec.open(PROBE, None);
    for r in &replays {
        for &(ci, di, cfgi) in &r.groups {
            let config = r.grid.configs()[cfgi];
            let pipeline = Pipeline::from_config(&config);
            let span = rec.open(PLACE, Some(probe));
            let placed = pipeline.mapping().place(
                &r.grid.circuits()[ci],
                &r.grid.devices()[di],
                config.buffer_slots,
            );
            rec.close(span);
            std::hint::black_box(placed.is_ok());
        }
    }
    rec.close(probe);
    Ok(c)
}

fn replay_spec(
    rec: &mut Recorder,
    iter: usize,
    input: &SpecInput,
    cache_dir: Option<&Path>,
    twin: &SpecRun,
    c: &mut Counts,
) -> Result<SpecReplay, String> {
    // ExperimentSpec::expand, rebuilt from the public axis resolvers so
    // circuit resolution gets spans of its own.
    let expand = rec.open("engine.expand", Some(iter));
    let spec = ExperimentSpec::from_file(&input.path).map_err(|e| e.to_string())?;
    let mut keyed: Vec<(String, Circuit)> = Vec::new();
    let mut circuits = Vec::with_capacity(spec.circuits.len());
    let mut resolved = Vec::new();
    for cs in &spec.circuits {
        let key = serde_json::to_string(cs).map_err(|e| e.to_string())?;
        match keyed.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(pos) => circuits.push(keyed[pos].1.clone()),
            Err(pos) => {
                let span = rec.open("circuit.parse", Some(expand));
                let circuit = cs.resolve().map_err(|e| e.to_string())?;
                rec.close(span);
                resolved.push(circuits.len());
                keyed.insert(pos, (key, circuit.clone()));
                circuits.push(circuit);
            }
        }
    }
    let mut devices = Vec::new();
    for d in &spec.devices {
        devices.extend(d.expand(&spec.capacities).map_err(|e| e.to_string())?);
    }
    let configs: Vec<CompilerConfig> = spec.configs.iter().flat_map(ConfigSpec::expand).collect();
    let models = spec
        .models
        .iter()
        .map(ModelSpec::resolve)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let grid = JobGrid::from_axes(circuits, devices, configs, models).with_parses(keyed.len());
    rec.close(expand);

    let (outcomes, groups) = run_grid(rec, iter, &grid, cache_dir, c)?;

    let span = rec.open("sink.emit", Some(iter));
    JsonSink::new(&input.out)
        .emit(&twin.artifact)
        .map_err(|e| format!("{}: {e}", input.out.display()))?;
    rec.close(span);
    Ok(SpecReplay {
        grid,
        outcomes,
        resolved,
        groups,
    })
}

type GroupKeys = Vec<(usize, usize, usize)>;

/// `Engine::run` over `grid`, serially.
fn run_grid(
    rec: &mut Recorder,
    iter: usize,
    grid: &JobGrid,
    cache_dir: Option<&Path>,
    c: &mut Counts,
) -> Result<(Vec<JobOutcome>, GroupKeys), String> {
    let jobs = grid.jobs();
    let span = rec.open("cache.load", Some(iter));
    let cache = cache_dir
        .map(ResultCache::open)
        .transpose()
        .map_err(|e| format!("opening the result cache: {e}"))?;
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    if let Some(cache) = &cache {
        for (slot, job) in outcomes.iter_mut().zip(jobs) {
            c.loads += 1;
            *slot = cache.load(&job.id);
            c.hits += u64::from(slot.is_some());
        }
    }
    let persist: Option<Arc<dyn StagePersist>> = match &cache {
        Some(cache) => Some(Arc::new(
            StageCache::open(cache.dir().join(STAGE_SUBDIR))
                .map_err(|e| format!("opening the stage cache: {e}"))?,
        )),
        None => None,
    };
    rec.close(span);

    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect();
    let mut memos: Vec<Option<CompileMemo<'_>>> = (0..grid.devices().len()).map(|_| None).collect();
    let mut groups = Vec::new();
    for batch in pending.chunks(DEFAULT_BATCH_SIZE) {
        let mut fresh = Vec::with_capacity(batch.len());
        for (first, members) in group_by_compile_key(grid, batch) {
            let lead = &jobs[first];
            let circuit = &grid.circuits()[lead.circuit];
            let device = &grid.devices()[lead.device];
            let config = grid.configs()[lead.config];
            groups.push((lead.circuit, lead.device, lead.config));
            let memo = match &mut memos[lead.device] {
                Some(memo) => memo,
                slot => {
                    let span = rec.open("device.route_rows", Some(iter));
                    let memo = slot.insert(CompileMemo::with_persist(device, persist.clone()));
                    rec.close(span);
                    memo
                }
            };
            let span = rec.open("compiler.compile", Some(iter));
            let compiled = Pipeline::from_config(&config)
                .compile_with(
                    circuit,
                    device,
                    Some(CompileMemoRef::new(memo, grid.circuit_digest(lead.circuit))),
                )
                .map_err(|e| ToolflowError::from(e).to_string());
            rec.close(span);
            c.compile_groups += 1;
            match compiled {
                Err(e) => {
                    c.infeasible += 1;
                    for &ji in &members {
                        outcomes[ji] = Some(Err(e.clone()));
                        fresh.push(ji);
                    }
                }
                Ok(exe) => {
                    c.insts_out += exe.len() as u64;
                    for &ji in &members {
                        let model = &grid.models()[jobs[ji].model];
                        let span = rec.open("sim.simulate", Some(iter));
                        let report = qccd::sim::simulate(&exe, device, model)
                            .map_err(|e| ToolflowError::from(e).to_string());
                        rec.close(span);
                        c.sim_runs += 1;
                        if let Ok(r) = &report {
                            c.sim_insts += insts_of(r);
                        }
                        outcomes[ji] = Some(report);
                        fresh.push(ji);
                    }
                }
            }
        }
        let span = rec.open("cache.store", Some(iter));
        if let Some(cache) = &cache {
            for &ji in &fresh {
                if let Some(outcome) = &outcomes[ji] {
                    cache.store(&jobs[ji].id, outcome);
                    c.stores += 1;
                }
            }
        }
        rec.close(span);
        if let Some(cache) = &cache {
            for &ji in &fresh {
                let entry = entry_path(cache.dir(), jobs[ji].id.as_str());
                c.bytes_written += std::fs::metadata(&entry).map_or(0, |m| m.len());
            }
        }
    }
    for memo in memos.iter().flatten() {
        let k = memo.counters();
        c.placement_hits += k.placement_hits;
        c.placement_misses += k.placement_misses;
        c.route_hits += k.route_hits;
        c.route_misses += k.route_misses;
    }
    let outcomes = outcomes
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("a job was neither loaded nor executed")?;
    Ok((outcomes, groups))
}

/// The engine's batch grouping: jobs sharing (circuit, device, config)
/// compile once, groups in first-appearance order over the batch.
fn group_by_compile_key(grid: &JobGrid, batch: &[usize]) -> Vec<(usize, Vec<usize>)> {
    let key = |ji: usize| {
        let j = &grid.jobs()[ji];
        (j.circuit, j.device, j.config)
    };
    let mut order: Vec<(usize, Vec<usize>)> = Vec::new();
    for &ji in batch {
        match order.iter_mut().find(|(first, _)| key(*first) == key(ji)) {
            Some((_, members)) => members.push(ji),
            None => order.push((ji, vec![ji])),
        }
    }
    order
}
