//! Genetic-programming search over the feature space.
//!
//! The paper's search (§IV, *Searching the Feature Space*) is "a hybrid
//! between Grammatical Evolution and Genetic Programming": individuals are
//! parse trees of the feature grammar; the operators respect the grammar by
//! only regrowing or exchanging subtrees of the same non-terminal sort.
//!
//! - [`ops`] implements the mutation operator of Figure 9 (replace a random
//!   non-terminal with a fresh random expansion) and the crossover operator
//!   of Figure 10 (swap same-sort subtrees between two parents).
//! - [`engine`] implements the generational loop: tournament selection,
//!   elitism, parsimony-aware comparison (shorter wins ties), memoised
//!   fitness evaluation, and the paper's stopping rule (stop after 15
//!   stagnant generations or 200 generations, whichever comes first).
//! - [`island`] runs every per-feature GP search as rounds over N
//!   supervised island populations (N = 1 is the single-population search)
//!   on isolated RNG streams: deterministic ring migration, restart-with-
//!   backoff and freeze-on-repeated-failure — byte-identical results for a
//!   given (seed, topology) at any worker count, on any executor.
//! - [`transport`] and [`worker_proc`] move island steps across a process
//!   boundary: a length-prefixed, digest-sealed frame protocol and the
//!   framed executor the island loop drives — still byte-identical to the
//!   in-process executor.

pub mod engine;
pub mod island;
pub mod ops;
pub mod transport;
pub mod worker_proc;

pub use engine::{Evaluated, FitnessFn, GenStats, GpConfig, GpEngine, GpRun};
pub use island::{
    InProcess, IslandCoordinator, IslandExecutor, IslandStatus, IslandTopology, IslandsSnapshot,
    IslandsState, MigrationRecord, RoundStatus, Supervision,
};
pub use ops::{crossover, mutate};
pub use transport::{FrameTransport, LoopbackTransport, StreamTransport, TransportError};
pub use worker_proc::{
    run_stdio_worker, ChannelKind, Framed, WorkerError, WorkerLauncher, WorkerSpec,
};
