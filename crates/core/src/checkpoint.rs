//! Versioned on-disk snapshots of a running feature search.
//!
//! A [`SearchCheckpoint`] captures everything the outer greedy loop and the
//! in-flight GP run need to continue deterministically: the accepted feature
//! list, the outer RNG stream, budget counters, and (when interrupted
//! mid-GP) the full [`IslandsSnapshot`] — per island the population,
//! fitness memo and the GP run's own RNG stream, plus the migration ledger.
//! Expressions travel as their canonical text; print/parse round-trips are
//! exact, so nothing is lost.
//!
//! Derived data (feature columns, internal CV splits, the baseline and
//! oracle speedups) is deliberately *not* stored: it is a deterministic
//! function of the configuration and the training examples, and recomputing
//! it on resume keeps the snapshot small and impossible to de-synchronise.
//!
//! Two identity fingerprints guard against resuming the wrong search: a
//! hash of the [`SearchConfig`][crate::search::SearchConfig] and a digest of
//! the training examples. A mismatch is a typed
//! [`CheckpointError::StateMismatch`], never a silently wrong result.
//!
//! Writes are atomic and durable: temp file + fsync + rename in the target
//! directory, then an fsync of the directory itself — a crash mid-write
//! leaves the previous checkpoint intact, and a crash immediately after
//! the rename cannot lose the new one to an unflushed directory entry.
//!
//! Version 3 holds every in-flight GP run as an [`IslandsSnapshot`] — a
//! single-population search is the one-island case — with per-island
//! populations and statuses plus the digest-guarded migration ledger.
//! Retries are telemetry-only, so no restart counter is stored. Version 4
//! drops each GP run's panic-generation count and degraded-evaluation flag
//! (fitness evaluation within a generation is sequential; island worker
//! slots are the one parallel layer). Version 5 digests the training
//! examples by content, over the rows process workers receive
//! ([`examples_digest`]), instead of over `Debug` text that held
//! process-local symbol indices. Older versions are refused with
//! [`CheckpointError::VersionMismatch`]. The snapshot is also the wire
//! format of process-level island workers — there is no second
//! serialization path.

use crate::error::CheckpointError;
use crate::faults::fnv1a;
use crate::gp::island::IslandsSnapshot;
use crate::search::{SearchConfig, TrainingExample};
use crate::training_rows::TrainingRows;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Format version written to and expected from checkpoint files.
pub const CHECKPOINT_VERSION: u32 = 5;

/// File name used inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "search.ckpt.json";

/// One accepted feature, as recorded in a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// The feature, printed.
    pub feature: String,
    /// Internal-validation speedup after adding it.
    pub speedup: f64,
    /// GP generations spent finding it.
    pub generations: usize,
}

/// Full serialized state of a feature search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Fingerprint of the search configuration.
    pub config_fingerprint: u64,
    /// Digest of the training examples.
    pub examples_digest: u64,
    /// Outer RNG stream state (already past the seed draw for the current
    /// GP run when `islands` is present).
    pub rng: [u64; 4],
    /// Accepted features so far, printed.
    pub features: Vec<String>,
    /// Per-feature history.
    pub steps: Vec<StepRecord>,
    /// Best internal-validation speedup reached so far.
    pub best_speedup: f64,
    /// Consecutive failed additions.
    pub failed: usize,
    /// GP generations consumed by *completed* per-feature runs (the
    /// in-flight run's generations live in `islands`).
    pub total_generations: usize,
    /// The in-flight GP run's island states, captured at a round boundary;
    /// `None` at an outer-loop boundary.
    pub islands: Option<IslandsSnapshot>,
}

/// Stable fingerprint of a search configuration, for checkpoint identity.
pub fn config_fingerprint(config: &SearchConfig) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

/// Content digest of the training examples, for checkpoint identity: the
/// [`TrainingRows::digest`] of their rows, which names symbols by text, so
/// the same examples digest the same in every process whatever order their
/// names were interned in.
pub fn examples_digest(examples: &[TrainingExample]) -> u64 {
    TrainingRows::from_examples_uncapped(examples).digest()
}

/// Resolves a user-supplied checkpoint path: a directory means "the
/// [`CHECKPOINT_FILE`] inside it".
pub fn resolve_path(path: &Path) -> PathBuf {
    if path.is_dir() {
        path.join(CHECKPOINT_FILE)
    } else {
        path.to_path_buf()
    }
}

impl SearchCheckpoint {
    /// Writes the checkpoint atomically into `dir`, returning the final
    /// file path. The directory is created if needed; an existing
    /// checkpoint is replaced only once the new one is fully on disk.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io {
            path: dir.to_path_buf(),
            detail: e.to_string(),
        })?;
        let text = serde_json::to_string_pretty(self).map_err(|e| CheckpointError::Io {
            path: dir.join(CHECKPOINT_FILE),
            detail: format!("serialization failed: {e}"),
        })?;
        let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        let path = dir.join(CHECKPOINT_FILE);
        let io_err = |p: &Path| {
            let path = p.to_path_buf();
            move |e: std::io::Error| CheckpointError::Io {
                path,
                detail: e.to_string(),
            }
        };
        std::fs::write(&tmp, text).map_err(io_err(&tmp))?;
        // Flush the temp file's *contents* before the rename makes it
        // visible, so the rename can never publish a partially-flushed
        // checkpoint.
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(io_err(&tmp))?;
        std::fs::rename(&tmp, &path).map_err(io_err(&path))?;
        // And flush the *directory entry*: without this, a crash right
        // after the rename can lose the checkpoint entirely on some
        // filesystems (the rename itself lives in the parent directory).
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err(dir))?;
        Ok(path)
    }

    /// Loads a checkpoint from `path` (a file, or a directory containing
    /// [`CHECKPOINT_FILE`]).
    pub fn load(path: &Path) -> Result<SearchCheckpoint, CheckpointError> {
        let path = resolve_path(path);
        let text = std::fs::read_to_string(&path).map_err(|e| CheckpointError::Io {
            path: path.clone(),
            detail: e.to_string(),
        })?;
        let checkpoint: SearchCheckpoint = match serde_json::from_str(&text) {
            Ok(c) => c,
            Err(e) => {
                // Distinguish "newer format we cannot decode" from plain
                // corruption when the version field itself is readable.
                if let Some(found) = peek_version(&text) {
                    if found != CHECKPOINT_VERSION {
                        return Err(CheckpointError::VersionMismatch {
                            path,
                            found,
                            expected: CHECKPOINT_VERSION,
                        });
                    }
                }
                return Err(CheckpointError::Corrupt {
                    path,
                    detail: e.to_string(),
                });
            }
        };
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                path,
                found: checkpoint.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        Ok(checkpoint)
    }

    /// Verifies that this checkpoint belongs to the given search identity:
    /// `config` and the training set whose [`examples_digest`] is
    /// `examples_digest`.
    pub fn verify_identity(
        &self,
        path: &Path,
        config: &SearchConfig,
        examples_digest: u64,
    ) -> Result<(), CheckpointError> {
        if self.config_fingerprint != config_fingerprint(config) {
            return Err(CheckpointError::StateMismatch {
                path: path.to_path_buf(),
                detail: "search configuration differs from the checkpointed run".into(),
            });
        }
        if self.examples_digest != examples_digest {
            return Err(CheckpointError::StateMismatch {
                path: path.to_path_buf(),
                detail: "training examples differ from the checkpointed run".into(),
            });
        }
        Ok(())
    }
}

/// Best-effort extraction of the top-level `version` field from text that
/// failed to decode as the current format (of a checkpoint or a model
/// artifact). Every other field is skipped unread.
pub(crate) fn peek_version(text: &str) -> Option<u32> {
    #[derive(Deserialize)]
    struct VersionProbe {
        version: u32,
    }
    serde_json::from_str::<VersionProbe>(text)
        .ok()
        .map(|probe| probe.version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrNode;

    fn sample() -> SearchCheckpoint {
        SearchCheckpoint {
            version: CHECKPOINT_VERSION,
            config_fingerprint: 11,
            examples_digest: 22,
            rng: [1, 2, 3, 4],
            features: vec!["count(//*)".into()],
            steps: vec![StepRecord {
                feature: "count(//*)".into(),
                speedup: 1.25,
                generations: 9,
            }],
            best_speedup: 1.25,
            failed: 1,
            total_generations: 40,
            islands: None,
        }
    }

    /// A version-2 checkpoint written mid-GP by a single-population search.
    const V2_CHECKPOINT: &str = r#"{
  "version": 2,
  "config_fingerprint": 11,
  "examples_digest": 22,
  "rng": [1, 2, 3, 4],
  "features": [],
  "steps": [],
  "best_speedup": 1.0,
  "failed": 0,
  "total_generations": 0,
  "gp": {
    "population": ["count(//*)"],
    "best": null,
    "stagnant": 0,
    "generations": 1,
    "evaluations": 1,
    "panics": 0,
    "panic_generations": 0,
    "degraded": false,
    "memo": [["count(//*)", 1.0]],
    "rng": [5, 6, 7, 8]
  },
  "islands": null
}"#;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fegen-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let ckpt = sample();
        let path = ckpt.save(&dir).unwrap();
        assert!(path.ends_with(CHECKPOINT_FILE));
        // Load via the file and via the directory.
        assert_eq!(SearchCheckpoint::load(&path).unwrap(), ckpt);
        assert_eq!(SearchCheckpoint::load(&dir).unwrap(), ckpt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_is_io_error() {
        let err = SearchCheckpoint::load(Path::new("/nonexistent/nowhere.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
    }

    #[test]
    fn load_garbage_is_corrupt() {
        let dir = temp_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        std::fs::write(&path, "{ not json").unwrap();
        let err = SearchCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_detected() {
        let dir = temp_dir("version");
        let mut ckpt = sample();
        ckpt.version = CHECKPOINT_VERSION + 7;
        let path = ckpt.save(&dir).unwrap();
        let err = SearchCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::VersionMismatch { found, expected, .. }
                    if found == CHECKPOINT_VERSION + 7 && expected == CHECKPOINT_VERSION
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_2_checkpoint_is_refused_typed() {
        // Version 2 stored single-population runs under `gp` and island
        // restart counters; neither exists any more.
        let dir = temp_dir("v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        std::fs::write(&path, V2_CHECKPOINT).unwrap();
        let err = SearchCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::VersionMismatch {
                    found: 2,
                    expected: 5,
                    ..
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_checks_catch_foreign_checkpoints() {
        let config = SearchConfig::quick();
        let examples = vec![TrainingExample {
            ir: IrNode::new("loop"),
            cycles: vec![10.0, 8.0],
        }];
        let mut ckpt = sample();
        ckpt.config_fingerprint = config_fingerprint(&config);
        ckpt.examples_digest = examples_digest(&examples);
        let path = Path::new("x.json");
        let digest = examples_digest(&examples);
        assert!(ckpt.verify_identity(path, &config, digest).is_ok());

        let mut other_config = config.clone();
        other_config.seed ^= 1;
        assert!(matches!(
            ckpt.verify_identity(path, &other_config, digest),
            Err(CheckpointError::StateMismatch { .. })
        ));

        let mut other_examples = examples.clone();
        other_examples[0].cycles.push(9.0);
        assert!(matches!(
            ckpt.verify_identity(path, &config, examples_digest(&other_examples)),
            Err(CheckpointError::StateMismatch { .. })
        ));
    }

    /// Prints the examples digest of one fixed loop whose names this
    /// process interns in the order `names` gives, with the interning
    /// index of `probe-insn`; run alone in a fresh process by
    /// `digest_ignores_interning_order`.
    #[allow(clippy::print_stdout)] // the parent test reads the line
    fn digest_probe(names: [&str; 3]) {
        for name in names {
            crate::ir::Symbol::intern(name);
        }
        let ir = IrNode::build("probe-loop", |l| {
            l.attr_num("probe-trip", 12.0);
            l.attr_enum("probe-mode", "probe-si");
            l.child("probe-insn", |_| {});
        });
        let examples = [TrainingExample {
            ir,
            cycles: vec![10.0, 8.5],
        }];
        println!(
            "probe digest={:016x} first={}",
            examples_digest(&examples),
            crate::ir::Symbol::intern("probe-insn").index()
        );
    }

    #[test]
    #[ignore = "run in a fresh process by digest_ignores_interning_order"]
    fn digest_probe_forward() {
        digest_probe(["probe-insn", "probe-loop", "probe-mode"]);
    }

    #[test]
    #[ignore = "run in a fresh process by digest_ignores_interning_order"]
    fn digest_probe_reverse() {
        digest_probe(["probe-mode", "probe-loop", "probe-insn"]);
    }

    /// The symbol interner is process-global, so two interning orders of
    /// the same names need two processes: each probe runs alone in a fresh
    /// copy of this test binary.
    #[test]
    fn digest_ignores_interning_order() {
        let probe = |name: &str| -> (String, String) {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--ignored", "--exact", "--nocapture", "--test-threads=1"])
                .arg(format!("checkpoint::tests::{name}"))
                .output()
                .expect("the test binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            // The harness prints the test's name on the probe's line.
            let line = stdout
                .split_once("probe digest=")
                .and_then(|(_, rest)| rest.lines().next())
                .unwrap_or_else(|| panic!("{name} printed no digest: {stdout}"));
            let (digest, first) = line.split_once(" first=").expect("digest and index");
            (digest.to_owned(), first.to_owned())
        };
        let (forward, forward_first) = probe("digest_probe_forward");
        let (reverse, reverse_first) = probe("digest_probe_reverse");
        // `probe-insn` is interned first in one process and last in the
        // other...
        assert_ne!(forward_first, reverse_first);
        // ...and the digest does not see it.
        assert_eq!(forward, reverse);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = TrainingExample {
            ir: IrNode::new("loop"),
            cycles: vec![1.0],
        };
        let b = TrainingExample {
            ir: IrNode::new("insn"),
            cycles: vec![2.0],
        };
        assert_ne!(
            examples_digest(&[a.clone(), b.clone()]),
            examples_digest(&[b, a])
        );
    }
}
