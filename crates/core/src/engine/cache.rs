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
//! The directory is safe to share between concurrent processes (the
//! substrate of sharded multi-host runs): every write lands in a unique
//! sibling temp file (`<name>.tmp-<process-token>-<seq>`) that is
//! renamed over its final name, so a reader observes either a previous
//! complete entry or the new complete entry — never a partial write. A process
//! killed between write and rename leaves an orphaned temp file behind;
//! [`ResultCache::gc`] sweeps those, along with entries written under a
//! stale version salt and (optionally) the oldest entries beyond a size
//! cap.

use super::grid::{JobId, JobOutcome, JOB_ID_VERSION};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The serialized form of one cache entry. The id is stored inside the
/// file too, so an entry renamed to the wrong filename is rejected
/// rather than mis-served; the version salt lets [`ResultCache::gc`]
/// evict entries from before a [`JOB_ID_VERSION`] bump.
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
/// characters), so foreign `*.json` files are never counted as entries
/// or touched by [`ResultCache::gc`].
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

/// Counters from one [`ResultCache::gc`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Valid current-version entries left in the cache.
    pub kept: usize,
    /// Entries removed for a stale version salt, a mismatched embedded
    /// id, or unparseable content.
    pub removed_stale: usize,
    /// Valid entries removed (oldest first) to enforce the entry cap.
    pub removed_excess: usize,
    /// Orphaned temp files swept (writers killed mid-store).
    pub removed_temp: usize,
}

impl GcStats {
    /// Total files removed by the sweep.
    pub fn removed(&self) -> usize {
        self.removed_stale + self.removed_excess + self.removed_temp
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "kept {} entries, removed {} ({} stale, {} over the entry cap, {} orphaned temp files)",
            self.kept,
            self.removed(),
            self.removed_stale,
            self.removed_excess,
            self.removed_temp
        )
    }
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
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
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
    /// so a concurrent reader — another thread or another sharded
    /// process on the same cache directory — can never observe a
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

    /// Garbage-collects the cache directory:
    ///
    /// * removes orphaned temp files (a writer killed between write and
    ///   rename),
    /// * removes entries whose embedded version salt predates the
    ///   current [`JOB_ID_VERSION`] (they can never be served again —
    ///   the salt is folded into every job id), along with entries whose
    ///   content is unparseable or disagrees with their filename,
    /// * when `max_entries` is given, removes the oldest valid entries
    ///   (by modification time) until at most that many remain.
    ///
    /// Files that are not shaped like cache entries are left untouched.
    /// Run it from one process at a time; a writer racing a sweep loses
    /// at worst its in-flight temp file and re-executes that job.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be listed;
    /// individual file removals are best-effort.
    pub fn gc(&self, max_entries: Option<usize>) -> io::Result<GcStats> {
        let mut stats = GcStats::default();
        let mut kept: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            // Only our own temp names (`<entry-stem>.json.tmp-…`) are
            // sweepable; a foreign file that merely contains ".tmp-"
            // is left alone like any other foreign file.
            if let Some((stem, _)) = name.split_once(".json.tmp-") {
                if is_entry_stem(stem) {
                    if std::fs::remove_file(&path).is_ok() {
                        stats.removed_temp += 1;
                    }
                    continue;
                }
            }
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            if !is_entry_stem(stem) {
                continue; // foreign file: not ours to delete
            }
            let current = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| serde_json::from_str::<CacheEntry>(&text).ok())
                .is_some_and(|e| e.version == JOB_ID_VERSION && e.id == stem);
            if current {
                let modified = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                kept.push((modified, path));
            } else if std::fs::remove_file(&path).is_ok() {
                stats.removed_stale += 1;
            }
        }
        if let Some(max) = max_entries {
            if kept.len() > max {
                kept.sort(); // oldest first, path as the tie-breaker
                for (_, path) in kept.drain(..kept.len() - max) {
                    if std::fs::remove_file(&path).is_ok() {
                        stats.removed_excess += 1;
                    }
                }
            }
        }
        stats.kept = kept.len();
        Ok(stats)
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
/// older build is inert: [`ResultCache::gc`] skips it (it skips
/// non-files), and deleting it is always safe.
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
    fn gc_sweeps_stale_entries_and_orphaned_temps_but_not_foreign_files() {
        let cache = temp_cache("gc");
        let id = one_job_id();
        cache.store(&id, &Err("e".into()));
        // A stale-salt entry under a well-formed name, an orphaned temp
        // file, and two foreign files.
        let stale_name = "old_job-00000000deadbeef.json";
        std::fs::write(
            cache.dir().join(stale_name),
            r#"{"id": "old_job-00000000deadbeef", "version": "qccd-job-v0", "ok": null, "err": "x"}"#,
        )
        .unwrap();
        std::fs::write(cache.dir().join(format!("{id}.json.tmp-999-7")), "{ par").unwrap();
        std::fs::write(cache.dir().join("notes.json"), "{}").unwrap();
        std::fs::write(cache.dir().join("README.md"), "hi").unwrap();
        // Foreign files that merely contain ".tmp-" are not ours.
        std::fs::write(cache.dir().join("backup.tmp-2024"), "keep").unwrap();
        std::fs::write(cache.dir().join("notes.tmp-1.json"), "keep").unwrap();

        let stats = cache.gc(None).unwrap();
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.removed_stale, 1);
        assert_eq!(stats.removed_temp, 1);
        assert_eq!(stats.removed_excess, 0);
        assert_eq!(stats.removed(), 2);
        assert_eq!(cache.load(&id), Some(Err("e".into())), "valid entry kept");
        assert!(cache.dir().join("notes.json").exists(), "foreign json kept");
        assert!(cache.dir().join("README.md").exists(), "foreign file kept");
        assert!(
            cache.dir().join("backup.tmp-2024").exists(),
            "foreign tmp-lookalike kept"
        );
        assert!(
            cache.dir().join("notes.tmp-1.json").exists(),
            "foreign tmp-lookalike json kept"
        );
        assert!(!cache.dir().join(stale_name).exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_enforces_the_entry_cap_oldest_first() {
        let cache = temp_cache("gc-cap");
        let grid = JobGrid::from_axes(
            vec![generators::bv(&[true; 6]), generators::qft(5)],
            vec![presets::l6(6), presets::l6(8)],
            vec![CompilerConfig::default()],
            vec![PhysicalModel::default()],
        );
        let ids: Vec<JobId> = grid.jobs().iter().map(|j| j.id.clone()).collect();
        assert_eq!(ids.len(), 4);
        for (k, id) in ids.iter().enumerate() {
            cache.store(id, &Err(format!("e{k}")));
            // Distinct mtimes so "oldest first" is deterministic.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let stats = cache.gc(Some(2)).unwrap();
        assert_eq!(stats.kept, 2);
        assert_eq!(stats.removed_excess, 2);
        // The two most recently stored entries survive.
        assert!(cache.load(&ids[0]).is_none());
        assert!(cache.load(&ids[1]).is_none());
        assert_eq!(cache.load(&ids[2]), Some(Err("e2".into())));
        assert_eq!(cache.load(&ids[3]), Some(Err("e3".into())));
        // A cap at/above the entry count removes nothing.
        assert_eq!(cache.gc(Some(2)).unwrap().removed(), 0);
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
    fn result_gc_leaves_the_stage_subdirectory_alone() {
        use qccd_compiler::StagePersist;
        let cache = temp_cache("gc-stages");
        let id = one_job_id();
        cache.store(&id, &Err("e".into()));
        let stages = StageCache::open(cache.dir().join(STAGE_SUBDIR)).unwrap();
        stages.store("route-row", 3, "[]");
        let stats = cache.gc(Some(0)).unwrap();
        assert_eq!(stats.kept, 0, "the result entry is evicted by the cap");
        assert_eq!(
            stages.load("route-row", 3),
            Some("[]".to_owned()),
            "stage files survive a result-cache sweep"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
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
