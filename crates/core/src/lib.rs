//! # fegen-core — automatic feature generation for optimizing compilers
//!
//! This crate is the reproduction of the central contribution of
//! *"Automatic Feature Generation for Machine Learning Based Optimizing
//! Compilation"* (Leather, Bonilla, O'Boyle — CGO 2009): instead of asking a
//! compiler writer to hand-design the feature vector fed to a machine-learning
//! heuristic, the space of features is described by a **grammar derived
//! automatically from the compiler's IR** and then **searched with genetic
//! programming**, using the downstream learner's predictive quality as the
//! fitness signal.
//!
//! The crate is generic over the compiler: it consumes IR exported as
//! [`ir::IrNode`] trees (any compiler can produce these — `fegen-rtl` exports
//! its GCC-RTL-style loops this way) and produces an ordered list of
//! [`lang::FeatureExpr`]s together with the learned model quality.
//!
//! Modules:
//!
//! - [`ir`] — the exported-IR data model: interned node kinds, attributes.
//! - [`lang`] — the feature expression language (`count`, `filter`, `sum`,
//!   `max`, `is-type`, `get-attr`, `/*`, `//*`, `[n]` …): AST, parser,
//!   printer and a step-budgeted evaluator.
//! - [`grammar`] — automatic derivation of a feature grammar from observed IR
//!   (node vocabularies, attribute kinds and ranges) and random sentence
//!   generation from it.
//! - [`gp`] — the GP/grammatical-evolution hybrid search: mutation, crossover,
//!   tournament selection, parsimony pressure and stagnation-based stopping.
//! - [`search`] — the outer loop of the paper's Figure 5: greedy forward
//!   construction of a base feature list, one GP search per added feature,
//!   with a decision-tree-based fitness function under internal
//!   cross-validation.
//! - [`error`] — the typed error hierarchy of the search runtime.
//! - [`checkpoint`] — versioned, atomically-written snapshots of a running
//!   search, enabling deterministic kill-and-resume.
//! - [`training_rows`] — the training set as compact rows: what
//!   process-level island workers receive and what checkpoint identities
//!   digest.
//! - [`faults`] — a seeded fault-injection harness (panicking, budget-
//!   exhausting or NaN-returning evaluators, cooperative cancellation) used
//!   to *prove* the runtime's fault tolerance in tests.
//! - [`telemetry`] — structured observability: hierarchical spans, metrics
//!   and a resume-safe JSONL event sink, guaranteed neutral with respect to
//!   checkpoint and dataset bytes.
//!
//! # Quickstart
//!
//! ```
//! use fegen_core::ir::IrNode;
//! use fegen_core::grammar::Grammar;
//! use fegen_core::lang::parse_feature;
//!
//! // A tiny exported IR: a loop with two instructions.
//! let ir = IrNode::build("loop", |l| {
//!     l.attr_num("num-iter", 8.0);
//!     l.child("insn", |i| { i.attr_enum("mode", "SI"); });
//!     l.child("insn", |i| { i.attr_enum("mode", "DF"); });
//! });
//!
//! // Features are sentences of a grammar; they evaluate to numbers.
//! let f = parse_feature("count(filter(//*, is-type(insn)))")?;
//! assert_eq!(f.eval_default(&ir)?, 2.0);
//!
//! // Grammars are derived automatically from observed IR.
//! let grammar = Grammar::derive([&ir]);
//! assert!(grammar.kinds().len() >= 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Library code must report through telemetry events or typed errors,
// never by printing; binaries are exempt (their crate roots are in bin/).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod checkpoint;
pub mod error;
pub mod faults;
pub mod gp;
pub mod grammar;
pub mod ir;
pub mod lang;
pub mod lru;
pub mod search;
pub mod serve;
pub mod telemetry;
pub mod training_rows;

pub use checkpoint::{SearchCheckpoint, CHECKPOINT_FILE, CHECKPOINT_VERSION};
pub use error::{CheckpointError, SearchError};
pub use faults::{stable_hash, CancelToken, FaultInjector, FaultKind, FaultPlan, FaultTrigger};
pub use gp::island::{IslandStatus, IslandTopology, IslandsSnapshot, MigrationRecord};
pub use gp::transport::{FrameTransport, TransportError};
pub use gp::worker_proc::{run_stdio_worker, ChannelKind, WorkerError, WorkerLauncher};
pub use grammar::Grammar;
pub use ir::{AttrValue, IrArena, IrNode, Symbol};
pub use lang::{parse_feature, EvalEngine, EvalPool, FeatureExpr, Program, ProgramPath};
pub use search::{FeatureSearch, SearchConfig, SearchDriver, SearchOutcome, TrainingExample};
pub use serve::{ModelArtifact, ModelError, ServeEngine, ServeOptions};
pub use telemetry::{Telemetry, TelemetryConfig};
