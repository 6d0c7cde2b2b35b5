//! On-disk result cache keyed by stable job id.
//!
//! Each completed job is persisted as one small JSON file
//! (`<cache-dir>/<job-id>.json`) holding the [`JobOutcome`] — either
//! the full [`qccd_sim::SimReport`] or the error text. Because job ids
//! are content hashes of the job's entire description (circuit, device,
//! compiler config, physical model — see [`crate::engine::JobGrid`]),
//! a cache entry can never be served for a different computation, and
//! interrupted or repeated sweeps skip every cell that already ran.
//!
//! Corrupt or truncated entries are treated as misses and overwritten;
//! a cache read can therefore never fail a run.
//!
//! The directory is safe to share between concurrent processes: every
//! write lands in a unique sibling temp file
//! (`<name>.tmp-<process-token>-<seq>`) that is renamed over its final
//! name, so a reader observes either a previous complete entry or the
//! new complete entry — never a partial write. Entries written under an
//! older job-id version salt read as misses; deleting the directory
//! reclaims its space.

use super::grid::{JobId, JobOutcome, JOB_ID_VERSION};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The serialized form of one cache entry. The id is stored inside the
/// file too, so an entry renamed to the wrong filename is rejected
/// rather than mis-served; the version salt turns entries from before a
/// [`JOB_ID_VERSION`] bump into misses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    id: String,
    version: String,
    ok: Option<qccd_sim::SimReport>,
    err: Option<String>,
}

/// Process-wide counter making concurrent temp-file names unique even
/// between threads of one process (the process token alone would
/// collide).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A startup token unique to this process *across hosts*: the cache
/// directory may be a shared mount written by several machines, and
/// pids alone recycle independently per host, so two writers could
/// otherwise pick the same temp name and interleave. Mixes the wall
/// clock at first use, the pid, and an ASLR-randomized address.
fn temp_token() -> u64 {
    static TOKEN: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *TOKEN.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let aslr = &TOKEN as *const _ as u64;
        nanos ^ (u64::from(std::process::id()).rotate_left(32)) ^ aslr.rotate_left(17)
    })
}

/// Writes `text` to `path` atomically: the bytes land in a unique
/// sibling temp file (`<name>.tmp-<process-token>-<seq>`) which is
/// renamed over `path`. Because rename is atomic on POSIX filesystems
/// (the temp file lives in the same directory), a concurrent reader
/// sees either the previous complete content or the new complete
/// content, never a truncated file.
pub(crate) fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(format!(".tmp-{:016x}-{seq}", temp_token()));
    let tmp = path.with_file_name(name);
    // qccd-lint: allow(atomic-write) — this IS the temp-file + rename helper:
    // the write targets a unique temp name, then renames into place below.
    std::fs::write(&tmp, text)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Whether a file stem is shaped like a [`JobId`]
/// (`<label>-<16 lowercase hex digits>` over filesystem-safe
/// characters), so foreign `*.json` files are never counted as entries.
fn is_entry_stem(stem: &str) -> bool {
    let Some((label, hash)) = stem.rsplit_once('-') else {
        return false;
    };
    !label.is_empty()
        && label
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        && hash.len() == 16
        && hash
            .chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
}

/// Reads an entry whose report has a `-inf` log-fidelity (some operation
/// failed outright). JSON has no infinities, so such a report is written
/// with `"log_fidelity":null`; this reads that `null` back as `-inf`, the
/// only non-finite value a log-fidelity takes (it is a sum of
/// `ln(1 - err) <= 0` terms). `None` if the entry is anything else that
/// failed to load.
fn entry_with_failed_fidelity(text: &str) -> Option<CacheEntry> {
    let mut value: serde::Value = serde_json::from_str(text).ok()?;
    let serde::Value::Object(fields) = &mut value else {
        return None;
    };
    let (_, serde::Value::Object(report)) = fields.iter_mut().find(|(k, _)| k == "ok")? else {
        return None;
    };
    let (_, fidelity) = report.iter_mut().find(|(k, _)| k == "log_fidelity")?;
    if *fidelity != serde::Value::Null {
        return None;
    }
    *fidelity = serde::Value::Float(f64::NEG_INFINITY);
    CacheEntry::from_value(&value).ok()
}

/// A directory of per-job result files.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, id: &JobId) -> PathBuf {
        self.dir.join(format!("{id}.json"))
    }

    /// Loads the outcome for `id`, or `None` on a miss (including
    /// unreadable or corrupt entries, which execution will overwrite).
    pub fn load(&self, id: &JobId) -> Option<JobOutcome> {
        let text = std::fs::read_to_string(self.path_of(id)).ok()?;
        let entry: CacheEntry = match serde_json::from_str(&text) {
            Ok(entry) => entry,
            Err(_) => entry_with_failed_fidelity(&text)?,
        };
        if entry.id != id.as_str() || entry.version != JOB_ID_VERSION {
            return None;
        }
        match (entry.ok, entry.err) {
            (Some(report), None) => Some(Ok(report)),
            (None, Some(message)) => Some(Err(message)),
            _ => None,
        }
    }

    /// Persists the outcome for `id`, atomically (temp file + rename),
    /// so a concurrent reader — another thread or another process on
    /// the same cache directory — can never observe a
    /// partial entry. Best-effort: an unwritable cache degrades to
    /// re-execution next run instead of failing this one.
    pub fn store(&self, id: &JobId, outcome: &JobOutcome) {
        let entry = CacheEntry {
            id: id.as_str().to_owned(),
            version: JOB_ID_VERSION.to_owned(),
            ok: outcome.as_ref().ok().cloned(),
            err: outcome.as_ref().err().cloned(),
        };
        // qccd-lint: allow(engine-panic) — serializing plain data structs cannot fail
        let text = serde_json::to_string(&entry).expect("cache entries serialize");
        let _ = write_atomic(&self.path_of(id), &text);
    }

    /// Number of entry files currently on disk (diagnostics/tests):
    /// only well-formed `<job-id>.json` names count, so foreign files
    /// and leftover temp files in the directory are ignored.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| {
                        e.file_name()
                            .to_str()
                            .and_then(|name| name.strip_suffix(".json"))
                            .is_some_and(is_entry_stem)
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Version salt embedded in every stage-memo file so a future change
/// to the on-disk envelope can invalidate old entries wholesale.
const STAGE_FILE_VERSION: &str = "qccd-stage-file-v1";

/// The directory under a result-cache dir where a persisted
/// [`qccd_compiler::CompileMemo`] keeps its stage files.
pub const STAGE_SUBDIR: &str = "stages";

/// The serialized envelope of one stage-memo file. Kind and key are
/// stored inside the file too, so a renamed or mis-hashed file is
/// rejected rather than mis-served (the payload itself is opaque to
/// this layer — [`qccd_compiler::CompileMemo`] validates it again on
/// load).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StageEntry {
    kind: String,
    key: String,
    version: String,
    payload: String,
}

/// On-disk persistence for compile-stage memos: one JSON file per
/// stage entry (`<dir>/<kind>-<key>.json`), written with the same
/// atomic temp-file + rename protocol as result entries, so a fresh
/// [`qccd_compiler::CompileMemo`] can warm-start its route rows and
/// placements from a previous process. Stage keys already hash the
/// full upstream content (see [`qccd_compiler::CompileMemo`]), so an
/// entry can never be served for a different device, circuit, or
/// policy; corrupt or mismatched files read as misses and are
/// overwritten.
///
/// The engine compiles without a memo and never opens a stage
/// directory. A `stages/` directory left in a result cache by an
/// older build is inert, and deleting it is always safe.
#[derive(Debug, Clone)]
pub struct StageCache {
    dir: PathBuf,
}

impl StageCache {
    /// Opens (creating if needed) the stage directory.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<StageCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(StageCache { dir })
    }

    /// The stage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.json"))
    }
}

impl qccd_compiler::StagePersist for StageCache {
    fn load(&self, kind: &str, key: u64) -> Option<String> {
        let text = std::fs::read_to_string(self.path_of(kind, key)).ok()?;
        let entry: StageEntry = serde_json::from_str(&text).ok()?;
        (entry.kind == kind
            && entry.key == format!("{key:016x}")
            && entry.version == STAGE_FILE_VERSION)
            .then_some(entry.payload)
    }

    fn store(&self, kind: &str, key: u64, payload: &str) {
        let entry = StageEntry {
            kind: kind.to_owned(),
            key: format!("{key:016x}"),
            version: STAGE_FILE_VERSION.to_owned(),
            payload: payload.to_owned(),
        };
        // qccd-lint: allow(engine-panic) — serializing plain data structs cannot fail
        let text = serde_json::to_string(&entry).expect("stage entries serialize");
        // Best-effort like ResultCache::store: an unwritable stage dir
        // degrades to recomputation, never a failed run.
        let _ = write_atomic(&self.path_of(kind, key), &text);
    }
}

#[cfg(test)]
mod tests {
    use super::super::grid::JobGrid;
    use super::*;
    use qccd_circuit::generators;
    use qccd_compiler::CompilerConfig;
    use qccd_device::presets;
    use qccd_physics::PhysicalModel;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("qccd-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).expect("temp cache dir")
    }

    fn one_job_id() -> JobId {
        let grid = JobGrid::from_axes(
            vec![generators::bv(&[true; 6])],
            vec![presets::l6(6)],
            vec![CompilerConfig::default()],
            vec![PhysicalModel::default()],
        );
        grid.jobs()[0].id.clone()
    }

    #[test]
    fn round_trips_ok_and_err_outcomes() {
        let cache = temp_cache("roundtrip");
        let id = one_job_id();
        assert!(cache.load(&id).is_none(), "fresh cache misses");

        let report = crate::Toolflow::new(presets::l6(6), PhysicalModel::default())
            .run(&generators::bv(&[true; 6]))
            .expect("fits");
        cache.store(&id, &Ok(report.clone()));
        assert_eq!(cache.load(&id), Some(Ok(report)));

        cache.store(&id, &Err("compile: it broke".into()));
        assert_eq!(cache.load(&id), Some(Err("compile: it broke".into())));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = temp_cache("corrupt");
        let id = one_job_id();
        std::fs::write(cache.dir().join(format!("{id}.json")), "{ truncated").unwrap();
        assert!(cache.load(&id).is_none());
        // An entry whose embedded id disagrees with its filename is
        // rejected too.
        std::fs::write(
            cache.dir().join(format!("{id}.json")),
            r#"{"id": "someone-else", "ok": null, "err": "x"}"#,
        )
        .unwrap();
        assert!(cache.load(&id).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn len_counts_entries() {
        let cache = temp_cache("len");
        assert!(cache.is_empty());
        let id = one_job_id();
        cache.store(&id, &Err("e".into()));
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn store_leaves_no_temp_files_behind() {
        let cache = temp_cache("atomic");
        let id = one_job_id();
        cache.store(&id, &Err("e".into()));
        cache.store(&id, &Err("f".into()));
        let names: Vec<String> = std::fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![format!("{id}.json")], "only the final entry");
        assert_eq!(cache.load(&id), Some(Err("f".into())));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn len_ignores_foreign_and_temp_files() {
        let cache = temp_cache("len-foreign");
        let id = one_job_id();
        cache.store(&id, &Err("e".into()));
        std::fs::write(cache.dir().join("notes.json"), "{}").unwrap();
        std::fs::write(cache.dir().join("README.md"), "hi").unwrap();
        std::fs::write(
            cache.dir().join(format!("{id}.json.tmp-999-0")),
            "{ partial",
        )
        .unwrap();
        assert_eq!(cache.len(), 1, "only the well-formed entry counts");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// The exact bytes of one entry file, as the `Value`-tree serializer
    /// wrote them, for an `Ok` and an `Err` outcome: caches written by
    /// earlier builds must keep reading, and their entries stay as they
    /// are.
    #[test]
    fn entry_file_bytes_are_pinned() {
        use qccd_compiler::OpCounts;
        use qccd_sim::{ErrorTotals, SimReport, TimeBreakdown};
        let report = SimReport {
            name: "bv_n6".into(),
            total_time_us: 2605.0,
            log_fidelity: -0.007056733197598517,
            counts: OpCounts {
                one_qubit_gates: 38,
                two_qubit_gates: 6,
                swap_gates: 3,
                ion_swaps: 0,
                splits: 5,
                moves: 5,
                merges: 5,
                junction_crossings: 0,
                measurements: 6,
            },
            peak_motional_energy: 0.3794444444444445,
            ms_executions: 15,
            ms_background_error_sum: 0.0015000000000000005,
            ms_motional_error_sum: 0.0005563417918213433,
            errors: ErrorTotals {
                one_qubit: 0.0037999999999999974,
                two_qubit: 0.0008539200573797319,
                swap: 0.0024024217344416118,
                measure: 0.0,
            },
            time: TimeBreakdown {
                compute_us: 2105.0,
                communication_us: 500.0,
                shuttle_wait_us: 0.0,
            },
        };
        const OK: &str = concat!(
            r#"{"id":"bv_n6-L6c6-c181955e2a747aa7","version":"qccd-job-v1","ok":{"#,
            r#""name":"bv_n6","total_time_us":2605.0,"log_fidelity":-0.007056733197598517,"#,
            r#""counts":{"one_qubit_gates":38,"two_qubit_gates":6,"swap_gates":3,"#,
            r#""ion_swaps":0,"splits":5,"moves":5,"merges":5,"junction_crossings":0,"#,
            r#""measurements":6},"peak_motional_energy":0.3794444444444445,"#,
            r#""ms_executions":15,"ms_background_error_sum":0.0015000000000000005,"#,
            r#""ms_motional_error_sum":0.0005563417918213433,"errors":{"#,
            r#""one_qubit":0.0037999999999999974,"two_qubit":0.0008539200573797319,"#,
            r#""swap":0.0024024217344416118,"measure":0.0},"time":{"compute_us":2105.0,"#,
            r#""communication_us":500.0,"shuttle_wait_us":0.0}},"err":null}"#,
        );
        const ERR: &str = concat!(
            r#"{"id":"bv_n6-L6c6-c181955e2a747aa7","version":"qccd-job-v1","ok":null,"#,
            r#""err":"compile: \"it\" broke\n"}"#,
        );
        let cache = temp_cache("pinned-bytes");
        let id = one_job_id();
        let path = cache.dir().join(format!("{id}.json"));
        cache.store(&id, &Ok(report.clone()));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), OK);
        assert_eq!(cache.load(&id), Some(Ok(report)));
        let message = "compile: \"it\" broke\n".to_owned();
        cache.store(&id, &Err(message.clone()));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), ERR);
        assert_eq!(cache.load(&id), Some(Err(message)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A failed run's `-inf` log-fidelity is written as `null` and reads
    /// back as the stored report, so the job is served from the cache.
    #[test]
    fn failed_fidelity_entries_load_as_hits() {
        let cache = temp_cache("failed-fidelity");
        let id = one_job_id();
        let mut report = crate::Toolflow::new(presets::l6(6), PhysicalModel::default())
            .run(&generators::bv(&[true; 6]))
            .expect("fits");
        report.log_fidelity = f64::NEG_INFINITY;
        cache.store(&id, &Ok(report.clone()));
        let path = cache.dir().join(format!("{id}.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""log_fidelity":null"#), "{text}");
        assert_eq!(cache.load(&id), Some(Ok(report)));
        // Any other null where a number belongs is still a miss.
        std::fs::write(
            &path,
            text.replace(r#""total_time_us":"#, r#""total_time_us":null,"x":"#),
        )
        .unwrap();
        assert!(cache.load(&id).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_version_entries_read_as_misses() {
        let cache = temp_cache("stale-version");
        let id = one_job_id();
        std::fs::write(
            cache.dir().join(format!("{id}.json")),
            format!(r#"{{"id": "{id}", "version": "qccd-job-v0", "ok": null, "err": "x"}}"#),
        )
        .unwrap();
        assert!(cache.load(&id).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stage_cache_round_trips_and_rejects_mismatches() {
        use qccd_compiler::StagePersist;
        let dir = std::env::temp_dir().join(format!("qccd-stage-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stages = StageCache::open(&dir).unwrap();
        assert_eq!(stages.load("placement", 7), None, "fresh cache misses");

        stages.store("placement", 7, "[1,2,3]");
        assert_eq!(stages.load("placement", 7), Some("[1,2,3]".to_owned()));
        // The wrong kind or key never serves the entry.
        assert_eq!(stages.load("route-row", 7), None);
        assert_eq!(stages.load("placement", 8), None);

        // Overwrites land atomically; no temp files remain.
        stages.store("placement", 7, "[4]");
        assert_eq!(stages.load("placement", 7), Some("[4]".to_owned()));
        let names: Vec<String> = std::fs::read_dir(stages.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["placement-0000000000000007.json".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_cache_treats_corrupt_and_stale_files_as_misses() {
        use qccd_compiler::StagePersist;
        let dir = std::env::temp_dir().join(format!("qccd-stage-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stages = StageCache::open(&dir).unwrap();
        let path = stages.dir().join("placement-0000000000000001.json");
        std::fs::write(&path, "{ truncated").unwrap();
        assert_eq!(stages.load("placement", 1), None);
        // A file whose embedded kind/key disagrees with its name, or
        // whose version salt is stale, is rejected too.
        std::fs::write(
            &path,
            r#"{"kind": "route-row", "key": "0000000000000001", "version": "qccd-stage-file-v1", "payload": "x"}"#,
        )
        .unwrap();
        assert_eq!(stages.load("placement", 1), None);
        std::fs::write(
            &path,
            r#"{"kind": "placement", "key": "0000000000000001", "version": "qccd-stage-file-v0", "payload": "x"}"#,
        )
        .unwrap();
        assert_eq!(stages.load("placement", 1), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_stem_shape_is_recognized() {
        assert!(is_entry_stem("bv_n63-L6c14-0123456789abcdef"));
        assert!(!is_entry_stem("notes"));
        assert!(!is_entry_stem("bv_n63-L6c14-0123456789ABCDEF")); // uppercase hex
        assert!(!is_entry_stem("bv_n63-L6c14-0123456789abcde")); // 15 digits
        assert!(!is_entry_stem("-0123456789abcdef")); // empty label
        assert!(!is_entry_stem("bad name-0123456789abcdef")); // space
    }
}
