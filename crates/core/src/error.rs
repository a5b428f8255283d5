//! Structured errors for the search runtime.
//!
//! Library paths in [`crate::search`] and [`crate::gp`] never panic on
//! recoverable conditions: empty inputs, populations where every candidate
//! timed out, interrupted runs and checkpoint problems all surface as typed
//! variants so callers (the bench pipeline, the CLI) can report exactly what
//! failed and decide whether to retry, resume or skip.

use std::fmt;
use std::path::PathBuf;

/// Errors from reading or writing search checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint file could not be read or written.
    Io {
        /// Path of the offending file or directory.
        path: PathBuf,
        /// Operating-system error text.
        detail: String,
    },
    /// The file exists but does not decode to a valid snapshot.
    Corrupt {
        /// Path of the offending file.
        path: PathBuf,
        /// What failed to decode.
        detail: String,
    },
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Path of the offending file.
        path: PathBuf,
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The snapshot belongs to a different search (other configuration or
    /// other training examples); resuming from it would silently produce
    /// wrong results.
    StateMismatch {
        /// Path of the offending file.
        path: PathBuf,
        /// Which identity check failed.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint i/o error at {}: {detail}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            CheckpointError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {} has format version {found}, this build expects {expected}",
                path.display()
            ),
            CheckpointError::StateMismatch { path, detail } => write!(
                f,
                "checkpoint {} belongs to a different search: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Errors from the feature-search runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The search was given no training examples.
    EmptyTrainingSet,
    /// The configuration cannot be run as given.
    InvalidConfig {
        /// Human-readable description of the offending setting.
        detail: String,
    },
    /// Every individual of a GP run was invalid — each candidate timed out,
    /// produced a non-finite value, or panicked — so there is no best
    /// feature to report.
    NoViableCandidate {
        /// Generations the run executed before giving up.
        generations: usize,
        /// Fitness evaluations performed (excluding memo hits).
        evaluations: usize,
    },
    /// The run was cancelled cooperatively (Ctrl-C handler, injected fault,
    /// shutdown request). If checkpointing was enabled, `checkpoint` names
    /// the snapshot to resume from.
    Interrupted {
        /// Snapshot written at the interruption point, if any.
        checkpoint: Option<PathBuf>,
        /// Total GP generations executed when the run stopped.
        total_generations: usize,
    },
    /// A checkpoint operation failed.
    Checkpoint(CheckpointError),
    /// A message for process-level island workers could not be encoded
    /// for the wire.
    WireEncode {
        /// The message and the encoder's complaint.
        detail: String,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptyTrainingSet => {
                write!(f, "feature search needs at least one training example")
            }
            SearchError::InvalidConfig { detail } => {
                write!(f, "invalid search configuration: {detail}")
            }
            SearchError::NoViableCandidate {
                generations,
                evaluations,
            } => write!(
                f,
                "no viable candidate: every individual was invalid after \
                 {generations} generations and {evaluations} evaluations"
            ),
            SearchError::Interrupted {
                checkpoint,
                total_generations,
            } => match checkpoint {
                Some(path) => write!(
                    f,
                    "search interrupted after {total_generations} generations; \
                     resume from {}",
                    path.display()
                ),
                None => write!(
                    f,
                    "search interrupted after {total_generations} generations \
                     (no checkpoint was written)"
                ),
            },
            SearchError::Checkpoint(e) => write!(f, "{e}"),
            SearchError::WireEncode { detail } => {
                write!(f, "cannot encode a worker message: {detail}")
            }
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for SearchError {
    fn from(e: CheckpointError) -> Self {
        SearchError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_essentials() {
        let e = SearchError::NoViableCandidate {
            generations: 7,
            evaluations: 91,
        };
        let text = e.to_string();
        assert!(text.contains('7') && text.contains("91"), "{text}");

        let e = SearchError::Interrupted {
            checkpoint: Some(PathBuf::from("/tmp/ck/search.ckpt.json")),
            total_generations: 40,
        };
        assert!(e.to_string().contains("search.ckpt.json"));

        let e: SearchError = CheckpointError::VersionMismatch {
            path: PathBuf::from("x.json"),
            found: 9,
            expected: 1,
        }
        .into();
        assert!(e.to_string().contains("version 9"));
    }
}
