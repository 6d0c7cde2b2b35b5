//! The resolved job grid: every (circuit × device × config × model)
//! cell of an experiment, deduplicated behind stable content-hashed
//! job ids.
//!
//! A [`JobGrid`] is the boundary between the declarative layer
//! ([`crate::engine::ExperimentSpec`]) and execution: the spec resolves
//! its axes into concrete values, the grid enumerates the cartesian
//! product, and identical cells (same circuit, device, compiler config
//! and physical model, by serialized content) collapse onto one
//! [`Job`]. Job ids are content hashes, so they are stable across
//! processes and machines — the property the on-disk result cache
//! keys on.

use qccd_circuit::Circuit;
use qccd_compiler::{content_digest, fnv1a, CompilerConfig};
use qccd_device::Device;
use qccd_physics::PhysicalModel;
use qccd_sim::SimReport;
use std::fmt;

/// Version salt folded into every job id; bump when the executable or
/// report semantics change so stale caches invalidate themselves. The
/// result cache also embeds this salt in every entry and reads entries
/// written under an older salt as misses.
pub(crate) const JOB_ID_VERSION: &str = "qccd-job-v1";

/// Stable identifier of one unique job: a human-readable prefix
/// (circuit and device) plus the 64-bit content hash of the job's full
/// serialized description.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobId(String);

impl JobId {
    fn new(label: &str, hash: u64) -> Self {
        let safe: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        JobId(format!("{safe}-{hash:016x}"))
    }

    /// The id as a string (also the cache file stem).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// One unique unit of work: indices into the grid's axes plus the
/// stable id.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into [`JobGrid::circuits`].
    pub circuit: usize,
    /// Index into [`JobGrid::devices`].
    pub device: usize,
    /// Index into [`JobGrid::configs`].
    pub config: usize,
    /// Index into [`JobGrid::models`].
    pub model: usize,
    /// Content-hash identity (cache key).
    pub id: JobId,
}

/// The deduplicated cartesian product of four resolved axes.
#[derive(Debug, Clone)]
pub struct JobGrid {
    circuits: Vec<Circuit>,
    devices: Vec<Device>,
    configs: Vec<CompilerConfig>,
    models: Vec<PhysicalModel>,
    jobs: Vec<Job>,
    /// Flat cell index (circuit-major, model-minor) → job index.
    cells: Vec<usize>,
    /// Per-circuit [`qccd_compiler::content_digest`]s, kept so a
    /// memoized compile over the grid can key its stages without
    /// re-serializing circuits per job.
    c_digests: Vec<u64>,
    /// How many circuits were actually constructed (parsed/generated)
    /// to build this grid. Defaults to the circuit-axis length;
    /// [`ExperimentSpec::expand`](super::ExperimentSpec::expand)
    /// overrides it with the deduplicated count.
    parses: usize,
}

impl JobGrid {
    /// Builds the grid over the cartesian product of the four axes,
    /// collapsing content-identical cells onto one job.
    pub fn from_axes(
        circuits: Vec<Circuit>,
        devices: Vec<Device>,
        configs: Vec<CompilerConfig>,
        models: Vec<PhysicalModel>,
    ) -> JobGrid {
        // Hash each axis element once; a job's content hash combines the
        // four element hashes under a version salt.
        let c_digests: Vec<u64> = circuits.iter().map(content_digest).collect();
        let d_digests: Vec<u64> = devices.iter().map(content_digest).collect();
        let cfg_digests: Vec<u64> = configs.iter().map(content_digest).collect();
        let m_digests: Vec<u64> = models.iter().map(content_digest).collect();

        let mut jobs: Vec<Job> = Vec::new();
        // Sorted (id, job index) pairs: a binary-searched Vec instead of
        // a hash map, so dedup behavior is deterministic by construction
        // (no hasher state) and iteration order questions cannot arise.
        let mut by_id: Vec<(String, usize)> = Vec::new();
        let mut cells =
            Vec::with_capacity(circuits.len() * devices.len() * configs.len() * models.len());
        for (ci, circuit) in circuits.iter().enumerate() {
            for (di, device) in devices.iter().enumerate() {
                for (cfgi, cfg_digest) in cfg_digests.iter().enumerate() {
                    for (mi, m_digest) in m_digests.iter().enumerate() {
                        let content = format!(
                            "{JOB_ID_VERSION}|{:016x}|{:016x}|{cfg_digest:016x}|{m_digest:016x}",
                            c_digests[ci], d_digests[di]
                        );
                        let label = format!(
                            "{}-{}c{}",
                            circuit.name(),
                            device.name(),
                            device.max_trap_capacity()
                        );
                        let id = JobId::new(&label, fnv1a(content.as_bytes()));
                        let job_index =
                            match by_id.binary_search_by(|(s, _)| s.as_str().cmp(id.as_str())) {
                                Ok(p) => by_id[p].1,
                                Err(p) => {
                                    jobs.push(Job {
                                        circuit: ci,
                                        device: di,
                                        config: cfgi,
                                        model: mi,
                                        id: id.clone(),
                                    });
                                    by_id.insert(p, (id.as_str().to_owned(), jobs.len() - 1));
                                    jobs.len() - 1
                                }
                            };
                        cells.push(job_index);
                    }
                }
            }
        }
        let parses = circuits.len();
        JobGrid {
            circuits,
            devices,
            configs,
            models,
            jobs,
            cells,
            c_digests,
            parses,
        }
    }

    /// Records how many circuits were actually constructed (parsed or
    /// generated) while building this grid — the circuit-axis length by
    /// default, less when duplicate axis entries were resolved once.
    pub fn with_parses(mut self, parses: usize) -> JobGrid {
        self.parses = parses;
        self
    }

    /// Number of circuit constructions behind this grid (reported as
    /// [`RunStats::parses`](super::RunStats::parses)).
    pub fn parses(&self) -> usize {
        self.parses
    }

    /// Content digest of a circuit-axis entry: the
    /// [`qccd_compiler::content_digest`] of that circuit, computed once
    /// when the grid was built. A caller compiling through a
    /// [`qccd_compiler::CompileMemo`] passes this as its circuit key, so
    /// placement stage keys are computed once per circuit, not once per
    /// job.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is out of range for the circuit axis.
    pub fn circuit_digest(&self, circuit: usize) -> u64 {
        self.c_digests[circuit]
    }

    /// The circuit axis.
    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// The device axis.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The compiler-config axis.
    pub fn configs(&self) -> &[CompilerConfig] {
        &self.configs
    }

    /// The physical-model axis.
    pub fn models(&self) -> &[PhysicalModel] {
        &self.models
    }

    /// The unique jobs, in first-seen (cell) order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of unique jobs (≤ [`JobGrid::cell_count`]).
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of cells in the full cartesian product.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Flat index of a cell (circuit-major, model-minor).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for its axis.
    pub fn cell_index(&self, circuit: usize, device: usize, config: usize, model: usize) -> usize {
        assert!(circuit < self.circuits.len(), "circuit index out of range");
        assert!(device < self.devices.len(), "device index out of range");
        assert!(config < self.configs.len(), "config index out of range");
        assert!(model < self.models.len(), "model index out of range");
        ((circuit * self.devices.len() + device) * self.configs.len() + config) * self.models.len()
            + model
    }
}

/// Outcome of one executed (or cache-loaded) job: the simulation report,
/// or the toolflow error rendered to text (so outcomes stay
/// serializable for the cache).
pub type JobOutcome = Result<SimReport, String>;

/// Per-job outcomes of an engine run, addressable by grid coordinates.
#[derive(Debug, Clone)]
pub struct GridResults {
    outcomes: Vec<JobOutcome>,
    cells: Vec<usize>,
}

impl GridResults {
    pub(crate) fn new(outcomes: Vec<JobOutcome>, grid: &JobGrid) -> GridResults {
        assert_eq!(outcomes.len(), grid.job_count());
        GridResults {
            outcomes,
            cells: grid.cells.clone(),
        }
    }

    /// Outcomes in job order (aligned with [`JobGrid::jobs`]).
    pub fn job_outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// The outcome at a cell, by the owning grid's flat cell index.
    pub fn outcome_at_cell(&self, cell: usize) -> &JobOutcome {
        &self.outcomes[self.cells[cell]]
    }

    /// The outcome at (circuit, device, config, model) grid coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range for `grid` or if
    /// `grid` is not the grid these results were produced from.
    pub fn outcome<'a>(
        &'a self,
        grid: &JobGrid,
        circuit: usize,
        device: usize,
        config: usize,
        model: usize,
    ) -> &'a JobOutcome {
        self.outcome_at_cell(grid.cell_index(circuit, device, config, model))
    }

    /// The successful report at grid coordinates, or `None` for a
    /// failed/infeasible cell — the shape the figure projections
    /// consume.
    pub fn report<'a>(
        &'a self,
        grid: &JobGrid,
        circuit: usize,
        device: usize,
        config: usize,
        model: usize,
    ) -> Option<&'a SimReport> {
        self.outcome(grid, circuit, device, config, model)
            .as_ref()
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::generators;
    use qccd_device::presets;

    fn tiny_grid() -> JobGrid {
        JobGrid::from_axes(
            vec![generators::bv(&[true; 6]), generators::qft(5)],
            vec![presets::l6(6), presets::l6(8)],
            vec![CompilerConfig::default()],
            vec![PhysicalModel::default()],
        )
    }

    #[test]
    fn cartesian_product_enumerates_every_cell() {
        let grid = tiny_grid();
        assert_eq!(grid.cell_count(), 4);
        assert_eq!(grid.job_count(), 4);
        // Model-minor ordering: cell 1 differs from cell 0 in device.
        let j0 = &grid.jobs()[grid.cells[0]];
        let j1 = &grid.jobs()[grid.cells[1]];
        assert_eq!((j0.circuit, j0.device), (0, 0));
        assert_eq!((j1.circuit, j1.device), (0, 1));
    }

    #[test]
    fn identical_cells_deduplicate_onto_one_job() {
        let grid = JobGrid::from_axes(
            vec![generators::bv(&[true; 6])],
            vec![presets::l6(6), presets::l6(6)], // same device twice
            vec![CompilerConfig::default()],
            vec![PhysicalModel::default()],
        );
        assert_eq!(grid.cell_count(), 2);
        assert_eq!(grid.job_count(), 1, "duplicate cells share one job");
        assert_eq!(grid.cells[0], grid.cells[1]);
    }

    #[test]
    fn job_ids_are_stable_and_content_sensitive() {
        let a = tiny_grid();
        let b = tiny_grid();
        for (ja, jb) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(ja.id, jb.id, "ids stable across constructions");
        }
        // Changing any axis element changes the id.
        let c = JobGrid::from_axes(
            vec![generators::bv(&[true; 6])],
            vec![presets::l6(6)],
            vec![CompilerConfig::with_reorder(
                qccd_compiler::ReorderMethod::IonSwap,
            )],
            vec![PhysicalModel::default()],
        );
        assert_ne!(a.jobs()[0].id, c.jobs()[0].id);
    }

    #[test]
    fn job_id_label_is_filesystem_safe() {
        let grid = tiny_grid();
        for job in grid.jobs() {
            assert!(job
                .id
                .as_str()
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
        }
    }

    #[test]
    fn empty_axes_produce_an_empty_grid() {
        let grid = JobGrid::from_axes(
            vec![],
            vec![presets::l6(6)],
            vec![CompilerConfig::default()],
            vec![PhysicalModel::default()],
        );
        assert_eq!(grid.cell_count(), 0);
        assert_eq!(grid.job_count(), 0);
    }

    #[test]
    fn circuit_digests_match_the_compiler_content_digest() {
        // The stage memo keys placements by qccd_compiler::content_digest;
        // the grid precomputes the same FNV-1a-over-JSON value, so the
        // two must never drift apart.
        let grid = tiny_grid();
        for (ci, circuit) in grid.circuits().iter().enumerate() {
            assert_eq!(
                grid.circuit_digest(ci),
                qccd_compiler::content_digest(circuit),
                "digest of circuit {ci} diverged"
            );
        }
    }

    #[test]
    fn parses_defaults_to_the_circuit_axis_length() {
        let grid = tiny_grid();
        assert_eq!(grid.parses(), grid.circuits().len());
        assert_eq!(grid.clone().with_parses(1).parses(), 1);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// FNV-1a over each committed spec's job ids, in grid order and
    /// joined by `\n`. On-disk result caches key on these ids, so they
    /// must not change between builds; the constants were recorded
    /// while circuit digests still went through `serde_json::to_string`.
    #[test]
    fn committed_specs_keep_their_job_ids() {
        use crate::engine::spec::{committed, DeviceSpec};
        const PINNED: [(&str, u64); 11] = [
            ("ablation_buffer", 0x1372_9872_9011_9209),
            ("ablation_device_size", 0x5bc3_e386_f509_37c1),
            ("ablation_heating", 0x69ef_9d31_41c8_a756),
            ("ablation_junction", 0x0367_4741_90a4_a012),
            ("ablation_policy", 0xaa38_2535_34c2_c0fb),
            ("device_files", 0x882a_7309_753c_57b8),
            ("fig6", 0xdce9_1da5_5ae3_5472),
            ("fig7", 0x5015_a579_8809_c7de),
            ("fig8", 0x2dba_d9cc_2407_c514),
            // No job grid: the hash of no bytes.
            ("table1", 0xcbf2_9ce4_8422_2325),
            ("table2", 0xcbf2_9ce4_8422_2325),
        ];
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut names: Vec<String> = std::fs::read_dir(format!("{root}/examples/experiments"))
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter_map(|f| f.strip_suffix(".json").map(str::to_owned))
            .collect();
        names.sort();
        let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, pinned, "every committed spec is pinned");
        for (name, want) in PINNED {
            let mut spec = committed(name);
            // Device files are named relative to the repository root.
            for d in &mut spec.devices {
                if let DeviceSpec::File { path } = d {
                    *path = format!("{root}/{path}");
                }
            }
            let grid = spec.expand().unwrap();
            let ids: Vec<&str> = grid.jobs().iter().map(|j| j.id.as_str()).collect();
            assert_eq!(
                fnv1a(ids.join("\n").as_bytes()),
                want,
                "job ids of {name} changed"
            );
            if name == "fig8" {
                assert_eq!(ids[0], "supremacy_8x8_d20-L6c14-252c720ead80040a");
            }
        }
    }

    /// FNV-1a over every committed golden under `tests/goldens/`, name
    /// then bytes, in name order, for each `JOB_ID_VERSION` it was
    /// committed under. A change that moves a golden moves the digest,
    /// so it must append a row with a bumped version (and bump
    /// `JOB_ID_VERSION` to it): every result cache then reads entries
    /// computed before the move as misses instead of serving them.
    #[test]
    fn committed_goldens_move_with_the_job_id_version() {
        const ROWS: [(&str, u64); 1] = [("qccd-job-v1", 0xe71e_13a7_aa41_8ee5)];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens");
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|f| f.ends_with(".json"))
            .collect();
        names.sort();
        let mut bytes = Vec::new();
        for name in &names {
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(0);
            bytes.extend(std::fs::read(format!("{dir}/{name}")).unwrap());
            bytes.push(0);
        }
        assert!(
            ROWS.windows(2).all(|w| w[0].0 != w[1].0),
            "each row bumps the version"
        );
        let (version, digest) = ROWS[ROWS.len() - 1];
        assert_eq!(
            version, JOB_ID_VERSION,
            "the last row is the current version"
        );
        assert_eq!(
            fnv1a(&bytes),
            digest,
            "the goldens {names:?} moved: append a row with a bumped JOB_ID_VERSION"
        );
    }
}
