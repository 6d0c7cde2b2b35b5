//! Umbrella package for the QCCD-Sim workspace.
//!
//! This package exists to host the repository's integration tests
//! (`tests/`) and runnable studies (`examples/`), which import the
//! member crates (`qccd`, `qccd-circuit`, `qccd-compiler`, …) directly.
//! The library itself exports nothing: `qccd` already re-exports every
//! member crate for library consumers.

#![warn(missing_docs)]
