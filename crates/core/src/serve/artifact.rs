//! Versioned on-disk model artifacts.
//!
//! A [`ModelArtifact`] is what the search produces and the serve daemon
//! consumes: the ordered feature list (as canonical text — print/parse
//! round-trips are exact), the trained decision tree, and the evaluation
//! budget the features were validated under. Like checkpoints, the file
//! carries a format version, a fingerprint of the training configuration
//! and a digest of the feature list; every mismatch is a typed
//! [`ModelError`], never a silently wrong prediction.
//!
//! Writes are atomic and durable (temp file + fsync + rename + directory
//! fsync), so a daemon hot-reloading the artifact can never observe a
//! half-written model: it sees the old file or the new one, nothing in
//! between.

use crate::checkpoint::{config_fingerprint, peek_version};
use crate::faults::fnv1a;
use crate::lang::{parse_feature, EvalPool, FeatureExpr};
use crate::search::{SearchConfig, TrainingExample};
use fegen_ml::data::Dataset;
use fegen_ml::tree::DecisionTree;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Format version written to and expected from model artifact files.
pub const MODEL_VERSION: u32 = 1;

/// Typed failures of artifact save/load/train. The daemon maps every one
/// of these to an error response or a refused startup — never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Filesystem failure.
    Io {
        /// The file involved.
        path: PathBuf,
        /// Operating-system detail.
        detail: String,
    },
    /// The file exists but does not decode as any known artifact format.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// Decoder detail.
        detail: String,
    },
    /// The file decodes but was written by a different format version.
    VersionMismatch {
        /// The file involved.
        path: PathBuf,
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The stored feature-list digest does not match the stored features —
    /// the artifact was hand-edited or corrupted in a digest-preserving
    /// decode.
    DigestMismatch {
        /// The file involved.
        path: PathBuf,
        /// Digest recorded in the artifact.
        stored: u64,
        /// Digest recomputed from the feature list.
        computed: u64,
    },
    /// The artifact is structurally well-formed but unusable (unparseable
    /// feature, tree wider than the feature list, no training signal).
    Invalid {
        /// What was wrong.
        detail: String,
    },
    /// The artifact could not be encoded for its content digest.
    Encode {
        /// Encoder detail.
        detail: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Io { path, detail } => {
                write!(f, "model artifact I/O failure at {}: {detail}", path.display())
            }
            ModelError::Corrupt { path, detail } => {
                write!(f, "model artifact {} is corrupt: {detail}", path.display())
            }
            ModelError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "model artifact {} has version {found}, this build expects {expected}",
                path.display()
            ),
            ModelError::DigestMismatch {
                path,
                stored,
                computed,
            } => write!(
                f,
                "model artifact {} feature digest mismatch: stored {stored:#x}, \
                 recomputed {computed:#x}",
                path.display()
            ),
            ModelError::Invalid { detail } => write!(f, "model artifact invalid: {detail}"),
            ModelError::Encode { detail } => write!(f, "model artifact does not encode: {detail}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Stable digest of an ordered feature list (order-sensitive: the tree's
/// column indices depend on it).
pub fn feature_digest(features: &[String]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for (i, f) in features.iter().enumerate() {
        h ^= fnv1a(format!("{i}:{f}").as_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A trained unroll-decision model, as serialized to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Format version ([`MODEL_VERSION`]).
    pub version: u32,
    /// Fingerprint of the [`SearchConfig`] the model was trained under.
    pub config_fingerprint: u64,
    /// Digest of `features` ([`feature_digest`]), checked on load.
    pub feature_digest: u64,
    /// The feature list, printed canonically, in tree-column order.
    pub features: Vec<String>,
    /// Number of decision classes (unroll factors 0..n_classes).
    pub n_classes: usize,
    /// Step budget per feature evaluation — the budget the features were
    /// validated under; the daemon evaluates with the same one.
    pub eval_budget: u64,
    /// The trained decision tree over the feature columns.
    pub tree: DecisionTree,
}

impl ModelArtifact {
    /// Trains an artifact from scratch: evaluates `features` over the
    /// examples (a failure on some loops contributes `0.0` there, the
    /// deployment rule), derives labels from the cycle tables and fits a
    /// decision tree under `config.tree`.
    ///
    /// # Errors
    ///
    /// [`ModelError::Invalid`] when there are no examples, no features, a
    /// feature fails on every example (its column would be all defaults),
    /// or the labels collapse in a way the tree cannot train on.
    pub fn train(
        config: &SearchConfig,
        features: &[FeatureExpr],
        examples: &[TrainingExample],
    ) -> Result<ModelArtifact, ModelError> {
        if features.is_empty() {
            return Err(ModelError::Invalid {
                detail: "empty feature list".into(),
            });
        }
        if examples.is_empty() {
            return Err(ModelError::Invalid {
                detail: "no training examples".into(),
            });
        }
        let n_classes = examples
            .iter()
            .map(|e| e.cycles.len())
            .max()
            .unwrap_or_default();
        if n_classes == 0 {
            return Err(ModelError::Invalid {
                detail: "training examples have empty cycle tables".into(),
            });
        }
        let pool = EvalPool::new(examples.iter().map(|e| &e.ir), crate::lang::EvalEngine::default());
        let budget = config.eval_budget_per_example;
        let mut rows: Vec<Vec<f64>> = vec![Vec::with_capacity(features.len()); examples.len()];
        for f in features {
            let mut failures = 0;
            for (i, row) in rows.iter_mut().enumerate() {
                row.push(pool.eval(f, i, budget).unwrap_or_else(|_| {
                    failures += 1;
                    0.0
                }));
            }
            if failures == examples.len() {
                return Err(ModelError::Invalid {
                    detail: format!("feature `{f}` fails on all {failures} training loop(s)"),
                });
            }
        }
        let labels: Vec<usize> = examples.iter().map(TrainingExample::best_value).collect();
        let data = Dataset::new(rows, labels, n_classes).map_err(|e| ModelError::Invalid {
            detail: format!("dataset rejected: {e}"),
        })?;
        let tree = DecisionTree::train(&data, &config.tree);
        let printed: Vec<String> = features.iter().map(|f| f.to_string()).collect();
        let digest = feature_digest(&printed);
        Ok(ModelArtifact {
            version: MODEL_VERSION,
            config_fingerprint: config_fingerprint(config),
            feature_digest: digest,
            features: printed,
            n_classes,
            eval_budget: budget,
            tree,
        })
    }

    /// A small trained artifact for in-crate tests (two structural
    /// features over six synthetic loops).
    #[cfg(test)]
    pub(crate) fn tiny_for_tests() -> ModelArtifact {
        use crate::ir::IrNode;
        let examples: Vec<TrainingExample> = (0..6)
            .map(|i| {
                let ir = IrNode::build("loop", |l| {
                    l.attr_num("num-iter", 4.0 + i as f64);
                    for _ in 0..=i {
                        l.child("insn", |n| {
                            n.attr_enum("mode", "SI");
                        });
                    }
                });
                let cycles = (0..4)
                    .map(|k| 100.0 + (k as f64 - (i % 4) as f64).abs() * 10.0)
                    .collect();
                TrainingExample { ir, cycles }
            })
            .collect();
        let features = vec![
            parse_feature("count(//*)").expect("test feature parses"),
            parse_feature("count(filter(//*, is-type(insn)))").expect("test feature parses"),
        ];
        ModelArtifact::train(&SearchConfig::quick(), &features, &examples)
            .expect("tiny test artifact trains")
    }

    /// Re-parses the stored feature texts.
    ///
    /// # Errors
    ///
    /// [`ModelError::Invalid`] when any stored feature fails to parse —
    /// an artifact that cannot rebuild its own features must be refused,
    /// not served with a silently shorter vector.
    pub fn parsed_features(&self) -> Result<Vec<FeatureExpr>, ModelError> {
        self.features
            .iter()
            .map(|s| {
                parse_feature(s).map_err(|e| ModelError::Invalid {
                    detail: format!("stored feature `{s}` does not parse: {e}"),
                })
            })
            .collect()
    }

    /// Whole-artifact content digest, used by the daemon to detect a new
    /// model on hot-reload and reported to clients in the handshake.
    ///
    /// # Errors
    ///
    /// [`ModelError::Encode`] when the artifact does not encode — never a
    /// digest of empty text, which every such artifact would share.
    pub fn digest(&self) -> Result<u64, ModelError> {
        let json = serde_json::to_string(self).map_err(|e| ModelError::Encode {
            detail: e.to_string(),
        })?;
        Ok(fnv1a(json.as_bytes()))
    }

    /// Validates the internal consistency rules shared by `train` and
    /// `load`: digest matches, features parse, the tree never indexes past
    /// the feature vector, and the class space is non-empty.
    fn validate(&self, path: &Path) -> Result<(), ModelError> {
        let computed = feature_digest(&self.features);
        if computed != self.feature_digest {
            return Err(ModelError::DigestMismatch {
                path: path.to_path_buf(),
                stored: self.feature_digest,
                computed,
            });
        }
        self.parsed_features()?;
        if self.tree.n_features() > self.features.len() {
            return Err(ModelError::Invalid {
                detail: format!(
                    "tree reads {} feature columns but the artifact stores only {}",
                    self.tree.n_features(),
                    self.features.len()
                ),
            });
        }
        if self.n_classes == 0 {
            return Err(ModelError::Invalid {
                detail: "artifact declares zero decision classes".into(),
            });
        }
        Ok(())
    }

    /// Writes the artifact atomically to `path` (temp file + fsync +
    /// rename + parent-directory fsync).
    ///
    /// # Errors
    ///
    /// [`ModelError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ModelError> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir).map_err(|e| ModelError::Io {
                path: dir.to_path_buf(),
                detail: e.to_string(),
            })?;
        }
        let text = serde_json::to_string_pretty(self).map_err(|e| ModelError::Io {
            path: path.to_path_buf(),
            detail: format!("serialization failed: {e}"),
        })?;
        let tmp = path.with_extension("tmp");
        let io_err = |p: &Path| {
            let path = p.to_path_buf();
            move |e: std::io::Error| ModelError::Io {
                path,
                detail: e.to_string(),
            }
        };
        std::fs::write(&tmp, text).map_err(io_err(&tmp))?;
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(io_err(&tmp))?;
        std::fs::rename(&tmp, path).map_err(io_err(path))?;
        if let Some(dir) = dir {
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(io_err(dir))?;
        }
        Ok(())
    }

    /// Loads and fully validates an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Every failure mode is typed: [`ModelError::Io`] (missing file),
    /// [`ModelError::Corrupt`] (undecodable), [`ModelError::VersionMismatch`]
    /// (decodable version field, wrong value), [`ModelError::DigestMismatch`]
    /// and [`ModelError::Invalid`] (consistency rules).
    pub fn load(path: &Path) -> Result<ModelArtifact, ModelError> {
        let text = std::fs::read_to_string(path).map_err(|e| ModelError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        let artifact: ModelArtifact = match serde_json::from_str(&text) {
            Ok(a) => a,
            Err(e) => {
                if let Some(found) = peek_version(&text) {
                    if found != MODEL_VERSION {
                        return Err(ModelError::VersionMismatch {
                            path: path.to_path_buf(),
                            found,
                            expected: MODEL_VERSION,
                        });
                    }
                }
                return Err(ModelError::Corrupt {
                    path: path.to_path_buf(),
                    detail: e.to_string(),
                });
            }
        };
        if artifact.version != MODEL_VERSION {
            return Err(ModelError::VersionMismatch {
                path: path.to_path_buf(),
                found: artifact.version,
                expected: MODEL_VERSION,
            });
        }
        artifact.validate(path)?;
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrNode;

    fn sample_examples() -> Vec<TrainingExample> {
        (0..6)
            .map(|i| {
                let ir = IrNode::build("loop", |l| {
                    l.attr_num("num-iter", 4.0 + i as f64);
                    for _ in 0..=i {
                        l.child("insn", |n| {
                            n.attr_enum("mode", "SI");
                        });
                    }
                });
                // Loops with more insns prefer smaller factors.
                let cycles = (0..4)
                    .map(|k| 100.0 + (k as f64 - (i % 4) as f64).abs() * 10.0)
                    .collect();
                TrainingExample { ir, cycles }
            })
            .collect()
    }

    fn sample_artifact() -> ModelArtifact {
        let features = vec![
            parse_feature("count(//*)").unwrap(),
            parse_feature("count(filter(//*, is-type(insn)))").unwrap(),
        ];
        ModelArtifact::train(&SearchConfig::quick(), &features, &sample_examples()).unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fegen-model-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn train_save_load_roundtrip() {
        let artifact = sample_artifact();
        let path = temp_path("roundtrip");
        artifact.save(&path).unwrap();
        let loaded = ModelArtifact::load(&path).unwrap();
        assert_eq!(loaded, artifact);
        assert_eq!(loaded.digest().unwrap(), artifact.digest().unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn train_refuses_a_feature_that_fails_on_every_loop() {
        // Every sample loop has a descendant, so the overflowing body is
        // non-finite on all six.
        let features = vec![
            parse_feature("count(//*)").unwrap(),
            parse_feature("sum(//*, 1.7e308 * 1.7e308)").unwrap(),
        ];
        let err = ModelArtifact::train(&SearchConfig::quick(), &features, &sample_examples())
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::Invalid {
                detail: format!("feature `{}` fails on all 6 training loop(s)", features[1])
            }
        );

        // A childless loop sums nothing: the feature now fails on six of
        // seven loops, which trains with the 0.0 deployment default.
        let mut examples = sample_examples();
        examples.push(TrainingExample {
            ir: IrNode::build("loop", |l| {
                l.attr_num("num-iter", 3.0);
            }),
            cycles: vec![100.0, 110.0, 120.0, 130.0],
        });
        ModelArtifact::train(&SearchConfig::quick(), &features, &examples).unwrap();
    }

    #[test]
    fn load_missing_is_io() {
        let err = ModelArtifact::load(Path::new("/nonexistent/model.json")).unwrap_err();
        assert!(matches!(err, ModelError::Io { .. }), "{err}");
    }

    #[test]
    fn load_garbage_is_corrupt() {
        let path = temp_path("garbage");
        std::fs::write(&path, "{ nope").unwrap();
        let err = ModelArtifact::load(&path).unwrap_err();
        assert!(matches!(err, ModelError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_skew_is_typed() {
        let mut artifact = sample_artifact();
        artifact.version = MODEL_VERSION + 3;
        let path = temp_path("version");
        artifact.save(&path).unwrap();
        let err = ModelArtifact::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                ModelError::VersionMismatch { found, expected, .. }
                    if found == MODEL_VERSION + 3 && expected == MODEL_VERSION
            ),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tampered_features_fail_digest() {
        let mut artifact = sample_artifact();
        artifact.features[0] = "count(filter(//*, is-type(reg)))".into();
        let path = temp_path("tamper");
        artifact.save(&path).unwrap();
        let err = ModelArtifact::load(&path).unwrap_err();
        assert!(matches!(err, ModelError::DigestMismatch { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unparseable_feature_is_invalid() {
        let mut artifact = sample_artifact();
        artifact.features[0] = "count(((".into();
        artifact.feature_digest = feature_digest(&artifact.features);
        let path = temp_path("parse");
        artifact.save(&path).unwrap();
        let err = ModelArtifact::load(&path).unwrap_err();
        assert!(matches!(err, ModelError::Invalid { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn feature_digest_is_order_sensitive() {
        let a = vec!["count(//*)".to_owned(), "count(/*)".to_owned()];
        let b = vec!["count(/*)".to_owned(), "count(//*)".to_owned()];
        assert_ne!(feature_digest(&a), feature_digest(&b));
    }
}
