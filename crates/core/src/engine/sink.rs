//! Artifact sinks: where projected experiment results go.
//!
//! The engine produces [`Artifact`]s (a paper [`Figure`] or [`Table`]);
//! sinks emit them in the two golden formats the harness has always
//! used — the CSV-like `Display` text and the pretty-printed JSON dump.
//! An [`Artifact`] serializes and prints exactly like the figure or
//! table it wraps.

use crate::experiments::{Figure, Table};
use serde::{Serialize, Writer};
use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;

/// One projected experiment result.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A tabular artifact (Tables I–II, cell listings).
    Table(Table),
    /// A multi-panel figure artifact (Figs. 6–8, ablations).
    Figure(Figure),
}

impl Artifact {
    /// Unwraps the figure.
    ///
    /// # Panics
    ///
    /// Panics if the artifact is a table.
    pub fn into_figure(self) -> Figure {
        match self {
            Artifact::Figure(f) => f,
            Artifact::Table(t) => panic!("expected a figure artifact, got table {}", t.id),
        }
    }

    /// Unwraps the table.
    ///
    /// # Panics
    ///
    /// Panics if the artifact is a figure.
    pub fn into_table(self) -> Table {
        match self {
            Artifact::Table(t) => t,
            Artifact::Figure(f) => panic!("expected a table artifact, got figure {}", f.id),
        }
    }
}

// Transparent delegation: an `Artifact` must print and serialize
// exactly like its inner figure/table or the goldens would drift.
impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Artifact::Table(t) => t.fmt(f),
            Artifact::Figure(fig) => fig.fmt(f),
        }
    }
}

impl Serialize for Artifact {
    fn serialize<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match self {
            Artifact::Table(t) => t.serialize(w),
            Artifact::Figure(f) => f.serialize(w),
        }
    }
}

/// A destination for emitted artifacts.
pub trait ArtifactSink {
    /// Emits one artifact.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the artifact cannot be
    /// written.
    fn emit(&mut self, artifact: &Artifact) -> io::Result<()>;
}

/// Writes the artifact's CSV-like `Display` text with one trailing
/// newline, as `println!` would.
pub struct CsvSink<W: Write> {
    writer: W,
}

impl<W: Write> CsvSink<W> {
    /// A sink writing to `writer` (commonly stdout or a `Vec<u8>`).
    pub fn new(writer: W) -> Self {
        CsvSink { writer }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> ArtifactSink for CsvSink<W> {
    fn emit(&mut self, artifact: &Artifact) -> io::Result<()> {
        writeln!(self.writer, "{artifact}")
    }
}

/// Writes the artifact as pretty-printed JSON to a file — the format
/// the golden snapshots pin.
pub struct JsonSink {
    path: PathBuf,
}

impl JsonSink {
    /// A sink writing to `path` (truncating any existing file).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonSink { path: path.into() }
    }

    /// The destination path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl ArtifactSink for JsonSink {
    fn emit(&mut self, artifact: &Artifact) -> io::Result<()> {
        // qccd-lint: allow(engine-panic) — serializing plain data structs cannot fail
        let text = serde_json::to_string_pretty(artifact).expect("artifacts serialize");
        // Atomic (temp file + rename): a concurrent reader of the
        // artifact path sees a previous complete dump or this one,
        // never a half-written JSON that could pass for a final file.
        super::cache::write_atomic(&self.path, &text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Panel, Series};

    fn sample_figure() -> Figure {
        Figure {
            id: "6".into(),
            caption: "test".into(),
            panels: vec![Panel {
                id: "6a".into(),
                title: "t".into(),
                y_label: "y".into(),
                x: vec![14],
                series: vec![Series {
                    label: "s".into(),
                    y: vec![Some(0.5)],
                }],
            }],
        }
    }

    #[test]
    fn artifact_prints_and_serializes_transparently() {
        let fig = sample_figure();
        let artifact = Artifact::Figure(fig.clone());
        assert_eq!(artifact.to_string(), fig.to_string());
        assert_eq!(
            serde_json::to_string_pretty(&artifact).unwrap(),
            serde_json::to_string_pretty(&fig).unwrap()
        );
    }

    #[test]
    fn csv_sink_matches_legacy_println() {
        let mut sink = CsvSink::new(Vec::new());
        let artifact = Artifact::Figure(sample_figure());
        sink.emit(&artifact).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text, format!("{artifact}\n"));
    }

    #[test]
    fn json_sink_writes_golden_format_bytes() {
        let dir = std::env::temp_dir().join(format!("qccd-sink-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let artifact = Artifact::Figure(sample_figure());
        JsonSink::new(&path).emit(&artifact).unwrap();
        JsonSink::new(&path).emit(&artifact).unwrap(); // overwrite in place
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, serde_json::to_string_pretty(&artifact).unwrap());
        // The atomic write leaves no temp file next to the artifact.
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "only the artifact itself may remain"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accessors_discriminate() {
        let fig = Artifact::Figure(sample_figure());
        assert!(!matches!(fig, Artifact::Table(_)));
        let table = Artifact::Table(Table {
            id: "I".into(),
            caption: "c".into(),
            headers: vec![],
            rows: vec![],
        });
        assert!(matches!(table, Artifact::Table(_)));
        assert_eq!(table.into_table().id, "I");
    }
}
