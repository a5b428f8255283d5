//! The island round loop: every per-feature GP run of the search.
//!
//! The paper's feature searches ran for weeks, which makes worker failure
//! the normal case, not the exception. This module makes the *island* the
//! restartable unit of work: N populations (N = 1 is the classic
//! single-population search) advance on isolated RNG streams (each derived
//! from the root seed), exchange elites through periodic deterministic
//! migration rounds, and are driven by one supervising loop,
//! [`IslandCoordinator`]. *Where* a step computes is an
//! [`IslandExecutor`]: [`InProcess`] calls the GP engine directly, the
//! framed executor of [`super::worker_proc`] ships the island to a worker
//! process. All robustness policy lives here, once, for both.
//!
//! # Determinism rule
//!
//! The signature invariant of this repository — byte-identical results for
//! a given `(seed, topology)` — survives supervision because only
//! *content-deterministic* events may alter the trajectory:
//!
//! - A **round is a barrier**: every active island advances exactly one
//!   generation per round, dispatched across however many worker slots
//!   are available. Each step works from the island's last committed
//!   state; results are committed sequentially in island-id order after
//!   every slot finished, so the worker count and the executor can only
//!   change wall-clock time, never state.
//! - **Crashes are keyed, not timed**: each step attempt consults the
//!   fault injector under the key `island:<id>:g<generation>#a<attempt>`.
//!   Whether an attempt crashes is a function of that key alone, so
//!   injected kills reproduce identically at any worker count. A crashed
//!   attempt is retried from the island's last committed state with
//!   bounded exponential backoff; after [`IslandTopology::restart_limit`]
//!   consecutive failures the island is **frozen** — reported, never
//!   silently dropped, and its last committed state still sends migrants
//!   and joins the final merge.
//! - **Retries are telemetry-only**: a retried attempt replays a pure
//!   function of the committed state, so it leaves no trace in island
//!   state or checkpoints (`island.restarts` is a counter). Freezing is
//!   the one supervision outcome recorded in state.
//! - **Wall-clock events are report-only**: heartbeat deadlines, stalls
//!   and slow check-ins produce telemetry, never state changes.
//! - **Cancellation discards, never commits, partial rounds**: if any
//!   step is interrupted mid-round, every step result of that round is
//!   thrown away and the run checkpoints at the previous round boundary —
//!   cancellation only chooses *which* boundary the run stops at.
//!
//! # Migration
//!
//! Every [`IslandTopology::migration_every`] rounds, island `i` clones its
//! best-so-far individual into the last population slot of island
//! `(i + 1) % n` (a deterministic ring). Frozen and converged islands
//! still *send* — their discoveries are not lost — but no longer receive.
//! Every migration is recorded in a digest-guarded ledger that travels
//! with the checkpoint.

use crate::faults::{CancelToken, FaultInjector, FaultKind};
use crate::gp::engine::{Evaluated, GpEngine, GpRun, GpSnapshot, GpState, GpStatus};
use crate::gp::transport::SendFault;
use crate::gp::FitnessFn;
use crate::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Island topology of a feature search. Part of
/// [`crate::search::SearchConfig`] — and therefore of the checkpoint
/// identity fingerprint — because it defines the search *trajectory*. The
/// worker thread count deliberately lives elsewhere
/// ([`crate::search::SearchDriver::workers`]): it is an execution knob
/// that must not change results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IslandTopology {
    /// Number of island populations (1 = the classic single-population
    /// search: the same round loop over one island).
    pub islands: usize,
    /// Rounds between migration exchanges (each round advances every
    /// active island by one generation).
    pub migration_every: usize,
    /// Consecutive failed step attempts after which an island is frozen
    /// (0 = freeze on the first crash; the default allows 3 restarts).
    pub restart_limit: usize,
}

impl IslandTopology {
    /// The classic single-population search.
    pub fn single() -> Self {
        IslandTopology {
            islands: 1,
            migration_every: 5,
            restart_limit: 3,
        }
    }

    /// A ring of `islands` islands with default migration cadence and
    /// restart budget.
    pub fn ring(islands: usize) -> Self {
        IslandTopology {
            islands: islands.max(1),
            ..IslandTopology::single()
        }
    }
}

impl Default for IslandTopology {
    fn default() -> Self {
        IslandTopology::single()
    }
}

/// Supervision status of one island.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IslandStatus {
    /// Advancing one generation per round.
    Active,
    /// Reached its generation cap or stagnation limit.
    Converged,
    /// Exhausted its restart budget; its last committed state still sends
    /// migrants and joins the final merge.
    Frozen,
}

impl IslandStatus {
    /// Stable lower-case name, for telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            IslandStatus::Active => "active",
            IslandStatus::Converged => "converged",
            IslandStatus::Frozen => "frozen",
        }
    }
}

/// One island: an independent GP population under supervision.
#[derive(Debug, Clone)]
pub struct Island {
    /// Position in the ring (0-based, contiguous).
    pub id: usize,
    /// The island's GP state — its "last atomic checkpoint": steps execute
    /// on a clone and only successful results are committed back here.
    pub gp: GpState,
    /// Supervision status.
    pub status: IslandStatus,
}

impl Island {
    /// Captures the island in serializable form (checkpoint and wire).
    pub fn snapshot(&self) -> IslandSnapshot {
        IslandSnapshot {
            id: self.id,
            status: self.status,
            gp: self.gp.snapshot(),
        }
    }
}

/// One recorded elite exchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Round (1-based) after which the exchange happened.
    pub round: usize,
    /// Sending island.
    pub from: usize,
    /// Receiving island.
    pub to: usize,
    /// The migrated individual, printed.
    pub feature: String,
    /// Its quality at migration time.
    pub quality: f64,
}

/// Full state of an island run between rounds: the unit the outer search
/// checkpoints and the coordinator merges.
#[derive(Debug, Clone)]
pub struct IslandsState {
    /// The islands, indexed by id.
    pub islands: Vec<Island>,
    /// Completed rounds.
    pub round: usize,
    /// Every migration performed so far.
    pub ledger: Vec<MigrationRecord>,
}

/// Serializable form of one [`Island`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandSnapshot {
    /// Position in the ring.
    pub id: usize,
    /// Supervision status.
    pub status: IslandStatus,
    /// The island's GP state.
    pub gp: GpSnapshot,
}

/// Serializable form of an [`IslandsState`] — the in-flight GP state
/// embedded in [`crate::checkpoint::SearchCheckpoint`]. The
/// migration ledger is guarded by a content digest so a truncated or
/// hand-edited ledger is rejected at load, never partially adopted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandsSnapshot {
    /// Completed rounds.
    pub round: usize,
    /// Per-island snapshots, in id order.
    pub islands: Vec<IslandSnapshot>,
    /// Every migration performed so far.
    pub ledger: Vec<MigrationRecord>,
    /// [`ledger_digest`] over `ledger`, for integrity.
    pub ledger_digest: u64,
}

/// Order-sensitive content digest of a migration ledger (FNV-1a chained
/// per record, like the examples digest).
pub fn ledger_digest(ledger: &[MigrationRecord]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for r in ledger {
        let text = format!(
            "{}|{}|{}|{}|{:016x}",
            r.round,
            r.from,
            r.to,
            r.feature,
            r.quality.to_bits()
        );
        h ^= crate::faults::stable_hash(text.as_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl IslandsSnapshot {
    /// Structural integrity checks: contiguous island ids, in-range and
    /// digest-verified migration ledger. A snapshot that fails here is
    /// rejected wholesale — never partially loaded.
    pub fn validate(&self) -> Result<(), String> {
        if self.islands.is_empty() {
            return Err("island snapshot holds no islands".into());
        }
        let n = self.islands.len();
        for (slot, island) in self.islands.iter().enumerate() {
            if island.id != slot {
                return Err(format!(
                    "island ids must be contiguous: slot {slot} holds id {}",
                    island.id
                ));
            }
        }
        if ledger_digest(&self.ledger) != self.ledger_digest {
            return Err(
                "migration ledger digest mismatch (truncated or tampered ledger)".into(),
            );
        }
        for (i, r) in self.ledger.iter().enumerate() {
            if r.round == 0 || r.round > self.round {
                return Err(format!(
                    "migration record {i} claims round {} outside 1..={}",
                    r.round, self.round
                ));
            }
            if r.from >= n || r.to >= n {
                return Err(format!(
                    "migration record {i} references island {} -> {} outside 0..{n}",
                    r.from, r.to
                ));
            }
        }
        Ok(())
    }
}

impl IslandsState {
    /// Derives the initial island states: per-island RNG streams are
    /// seeded by consecutive draws from the outer RNG, in id order, so the
    /// topology fully determines every stream (one island makes exactly
    /// one draw, as the single-population search always has).
    pub fn init(engine: &GpEngine<'_>, topology: &IslandTopology, rng: &mut StdRng) -> Self {
        let islands = (0..topology.islands.max(1))
            .map(|id| Island {
                id,
                gp: engine.init_state(StdRng::seed_from_u64(rng.gen())),
                status: IslandStatus::Active,
            })
            .collect();
        IslandsState {
            islands,
            round: 0,
            ledger: Vec::new(),
        }
    }

    /// Captures the full state in serializable form.
    pub fn snapshot(&self) -> IslandsSnapshot {
        IslandsSnapshot {
            round: self.round,
            islands: self.islands.iter().map(Island::snapshot).collect(),
            ledger: self.ledger.clone(),
            ledger_digest: ledger_digest(&self.ledger),
        }
    }

    /// Rebuilds the state from a snapshot, validating it first. All-or-
    /// nothing: any failure leaves nothing adopted.
    pub fn from_snapshot(snapshot: &IslandsSnapshot) -> Result<IslandsState, String> {
        snapshot.validate()?;
        let mut islands = Vec::with_capacity(snapshot.islands.len());
        for s in &snapshot.islands {
            islands.push(Island {
                id: s.id,
                gp: GpState::from_snapshot(&s.gp)
                    .map_err(|e| format!("island {}: {e}", s.id))?,
                status: s.status,
            });
        }
        Ok(IslandsState {
            islands,
            round: snapshot.round,
            ledger: snapshot.ledger.clone(),
        })
    }

    /// GP generations executed across all islands.
    pub fn generations(&self) -> usize {
        self.islands.iter().map(|i| i.gp.generations).sum()
    }
}

/// What a coordinator round left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundStatus {
    /// At least one island remains active.
    Running,
    /// Every island is converged or frozen.
    Done,
    /// Cancellation landed mid-round; *nothing* was committed — the state
    /// still sits at the previous round boundary.
    Interrupted,
}

/// Base of the bounded exponential backoff between step attempts: the
/// `n`th retry waits `RESTART_BACKOFF_MS << min(n - 1, 5)` ms.
const RESTART_BACKOFF_MS: u64 = 1;

/// Faults only a framed executor can act on; [`InProcess`] ignores them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFaults {
    /// How the frame carrying the step is sent.
    pub send: SendFault,
    /// Delay before (re)connecting a worker, in milliseconds.
    pub slow_handshake_ms: u64,
}

/// What one step attempt produced.
#[derive(Debug)]
pub enum Attempt {
    /// The island after one generation, and whether it converged.
    Stepped(Box<GpState>, GpStatus),
    /// The attempt crashed or lost its worker; retry from the committed
    /// state.
    Failed,
    /// Cancellation landed mid-step; the round is discarded.
    Interrupted,
}

/// Where island steps execute. The [`IslandCoordinator`] owns every
/// policy decision (retries, freezes, heartbeats, commit order); an
/// executor only computes one generation of one island, on one of the
/// round's worker slots.
pub trait IslandExecutor: Sync {
    /// Advances `island` — its last committed state, left untouched — by
    /// one generation on worker slot `slot`.
    fn step(&self, slot: usize, island: &Island, faults: FrameFaults) -> Attempt;

    /// Drops slot `slot`'s worker after a failed attempt on `island`, so
    /// the next attempt starts from a fresh one; `frozen` marks the
    /// attempt that exhausted the island's restart budget.
    fn reset(&self, slot: usize, island: usize, frozen: bool);
}

/// Steps islands in this process: a direct [`GpEngine::step_cancellable`]
/// call on a clone of the committed state, under `catch_unwind` (a panic
/// that escapes the engine's own per-candidate quarantine is a crashed
/// attempt).
pub struct InProcess<'a, 'g, F> {
    engine: &'a GpEngine<'g>,
    fitness: &'a F,
    cancel: Option<&'a CancelToken>,
}

impl<'a, 'g, F: FitnessFn> InProcess<'a, 'g, F> {
    /// An executor stepping with `engine` and `fitness`, interruptible by
    /// `cancel`.
    pub fn new(engine: &'a GpEngine<'g>, fitness: &'a F, cancel: Option<&'a CancelToken>) -> Self {
        InProcess {
            engine,
            fitness,
            cancel,
        }
    }
}

impl<F: FitnessFn> IslandExecutor for InProcess<'_, '_, F> {
    fn step(&self, _slot: usize, island: &Island, _faults: FrameFaults) -> Attempt {
        let mut trial = island.gp.clone();
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            self.engine
                .step_cancellable(&mut trial, self.fitness, self.cancel)
        }));
        match stepped {
            Ok(Some(status)) => Attempt::Stepped(Box::new(trial), status),
            Ok(None) => Attempt::Interrupted,
            Err(_) => Attempt::Failed,
        }
    }

    fn reset(&self, _slot: usize, _island: usize, _frozen: bool) {}
}

/// Result of one island's attempt ladder in a round: the final attempt
/// (`Failed` once the restart budget is spent, i.e. frozen), the failed
/// attempts before it, and the wall-clock time spent (including retries
/// and backoff), for the slowest-island report.
struct StepOutcome {
    attempt: Attempt,
    restarts: usize,
    step_us: u64,
}

/// Heartbeat deadline of an island step, in milliseconds. The monitor is
/// observational: a missed deadline is reported, never acted on
/// (wall-clock events must not alter the trajectory).
pub const HEARTBEAT_DEADLINE_MS: u64 = 2_000;

/// Heartbeat sentinel: the island has not been picked up this round.
const HB_QUEUED: u64 = u64::MAX;
/// Heartbeat sentinel: the island finished its step this round.
const HB_DONE: u64 = u64::MAX - 1;

fn millis_since(epoch: &Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

/// How an [`IslandCoordinator`] runs its rounds. Execution settings only:
/// none of them changes results.
pub struct Supervision<'a> {
    /// Worker slots stepping islands each round. Slot 0 runs on the
    /// calling thread, every other slot on a scoped thread.
    pub workers: usize,
    /// Cooperative cancellation token, polled before every attempt.
    pub cancel: Option<&'a CancelToken>,
    /// Fault injector consulted once per step attempt (keys
    /// `island:<id>:g<generation>#a<attempt>`).
    pub injector: Option<&'a FaultInjector>,
    /// Telemetry handle for supervision events.
    pub telemetry: Telemetry,
}

/// The supervising round loop: drives one round at a time over an
/// [`IslandExecutor`], owning the per-island attempt ladder, the heartbeat
/// monitor, the id-order commit barrier, migration and the merge.
pub struct IslandCoordinator<'a, E> {
    executor: &'a E,
    topology: IslandTopology,
    parsimony: bool,
    workers: usize,
    cancel: Option<&'a CancelToken>,
    injector: Option<&'a FaultInjector>,
    telemetry: Telemetry,
    /// Cumulative per-island step wall-clock, for the final report.
    step_us: Vec<u64>,
    /// Cumulative per-island failed attempts (telemetry only).
    restarts: Vec<usize>,
}

impl<'a, E: IslandExecutor> IslandCoordinator<'a, E> {
    /// A coordinator stepping `topology`'s islands through `executor`
    /// under `supervision`; `parsimony` is the GP configuration's
    /// tie-break rule, used by the merge.
    pub fn new(
        executor: &'a E,
        topology: IslandTopology,
        parsimony: bool,
        supervision: Supervision<'a>,
    ) -> Self {
        let Supervision {
            workers,
            cancel,
            injector,
            telemetry,
        } = supervision;
        let islands = topology.islands.max(1);
        IslandCoordinator {
            executor,
            topology,
            parsimony,
            workers,
            cancel,
            injector,
            telemetry,
            step_us: vec![0; islands],
            restarts: vec![0; islands],
        }
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Advances every active island by one generation, then (on migration
    /// rounds) exchanges elites. All-or-nothing: an interrupted round
    /// commits nothing.
    pub fn round(&mut self, state: &mut IslandsState) -> RoundStatus {
        let active: Vec<usize> = state
            .islands
            .iter()
            .filter(|i| i.status == IslandStatus::Active)
            .map(|i| i.id)
            .collect();
        if active.is_empty() {
            return RoundStatus::Done;
        }
        if self.is_cancelled() {
            return RoundStatus::Interrupted;
        }

        let epoch = Instant::now();
        let heartbeats: Vec<AtomicU64> =
            active.iter().map(|_| AtomicU64::new(HB_QUEUED)).collect();
        let mut outcomes: Vec<Option<StepOutcome>> = active.iter().map(|_| None).collect();
        let chunk = active.len().div_ceil(self.workers.clamp(1, active.len()));
        let islands: Vec<&Island> = active.iter().map(|&id| &state.islands[id]).collect();
        // Every slot holds a sender; the monitor's channel disconnects the
        // moment the last slot finishes (or unwinds).
        let (finished, slots_done) = mpsc::channel::<()>();
        let this = &*self;
        std::thread::scope(|s| {
            if this.telemetry.is_enabled() {
                let (active, heartbeats, epoch) = (&active, &heartbeats, &epoch);
                s.spawn(move || this.monitor(active, heartbeats, slots_done, epoch));
            }
            let mut slots = islands
                .chunks(chunk)
                .zip(outcomes.chunks_mut(chunk))
                .zip(heartbeats.chunks(chunk))
                .enumerate();
            // The calling thread steps slot 0 itself: a single-population
            // search never leaves the thread whose caches it warmed.
            let first = slots.next();
            for (slot, ((islands, outs), hbs)) in slots {
                let (finished, epoch) = (finished.clone(), &epoch);
                s.spawn(move || {
                    this.run_slot(slot, islands, outs, hbs, epoch);
                    drop(finished);
                });
            }
            if let Some((slot, ((islands, outs), hbs))) = first {
                this.run_slot(slot, islands, outs, hbs, &epoch);
            }
            drop(finished);
        });

        // An interrupted step poisons the whole round: committing a
        // partial round would make the boundary worker-count-dependent.
        if outcomes.iter().any(|o| {
            o.as_ref()
                .is_none_or(|o| matches!(o.attempt, Attempt::Interrupted))
        }) || self.is_cancelled()
        {
            return RoundStatus::Interrupted;
        }

        // Deterministic commit, in island-id order (`active` ascends).
        for (pos, &id) in active.iter().enumerate() {
            let outcome = outcomes[pos].take().expect("uninterrupted outcome present");
            self.step_us[id] += outcome.step_us;
            let island = &mut state.islands[id];
            if outcome.restarts > 0 {
                self.restarts[id] += outcome.restarts;
                self.telemetry
                    .event("island_restart")
                    .u64("island", id as u64)
                    .u64("generation", (island.gp.generations + 1) as u64)
                    .u64("restarts", outcome.restarts as u64)
                    .emit();
                self.telemetry
                    .counter_add("island.restarts", outcome.restarts as u64);
            }
            match outcome.attempt {
                Attempt::Stepped(gp, status) => {
                    let advanced = gp.generations > island.gp.generations;
                    island.gp = *gp;
                    if advanced {
                        emit_generation(&self.telemetry, island);
                    }
                    if status == GpStatus::Converged {
                        island.status = IslandStatus::Converged;
                        self.telemetry
                            .event("island_converged")
                            .u64("island", id as u64)
                            .u64("generations", island.gp.generations as u64)
                            .emit();
                    }
                }
                Attempt::Failed | Attempt::Interrupted => {
                    // Graceful degradation: frozen and reported, never
                    // silently dropped — the last committed state still
                    // migrates and merges.
                    island.status = IslandStatus::Frozen;
                    self.telemetry
                        .event("island_frozen")
                        .u64("island", id as u64)
                        .u64("generations", island.gp.generations as u64)
                        .u64("restarts", self.restarts[id] as u64)
                        .emit();
                    self.telemetry.counter_add("island.frozen", 1);
                    self.telemetry.progress(&format!(
                        "island {id} frozen after {} failed attempt(s); \
                         its last state still joins the merge",
                        self.restarts[id]
                    ));
                }
            }
        }
        state.round += 1;
        if state.round.is_multiple_of(self.topology.migration_every.max(1)) {
            self.migrate(state);
        }
        if state
            .islands
            .iter()
            .any(|i| i.status == IslandStatus::Active)
        {
            RoundStatus::Running
        } else {
            RoundStatus::Done
        }
    }

    /// Steps one slot's islands in order, stopping at an interruption.
    fn run_slot(
        &self,
        slot: usize,
        islands: &[&Island],
        outs: &mut [Option<StepOutcome>],
        heartbeats: &[AtomicU64],
        epoch: &Instant,
    ) {
        for ((island, out), hb) in islands.iter().zip(outs).zip(heartbeats) {
            hb.store(millis_since(epoch), Ordering::SeqCst);
            let started = Instant::now();
            let (attempt, restarts) = self.step_island(slot, island, hb, epoch);
            hb.store(HB_DONE, Ordering::SeqCst);
            let stop = matches!(attempt, Attempt::Interrupted);
            *out = Some(StepOutcome {
                attempt,
                restarts,
                step_us: started.elapsed().as_micros() as u64,
            });
            if stop {
                break;
            }
        }
    }

    /// The attempt ladder of one island: consult the injector, step through
    /// the executor, retry failed attempts from the committed state with
    /// bounded backoff, give up (`Failed`: freeze) after `restart_limit + 1`
    /// failures. Returns the final attempt and the failures before it.
    fn step_island(
        &self,
        slot: usize,
        island: &Island,
        hb: &AtomicU64,
        epoch: &Instant,
    ) -> (Attempt, usize) {
        let generation = island.gp.generations + 1;
        let mut failures = 0usize;
        loop {
            if self.is_cancelled() {
                return (Attempt::Interrupted, failures);
            }
            let attempt = failures + 1;
            let faults = self.injector.map_or_else(Vec::new, |inj| {
                inj.fire_all(&format!("island:{}:g{generation}#a{attempt}", island.id))
            });
            // A slow heartbeat delays the check-in itself; a stall hangs
            // the attempt *after* it checked in. Both are wall-clock only.
            for fault in &faults {
                if let FaultKind::SlowHeartbeat(ms) = fault {
                    std::thread::sleep(Duration::from_millis(*ms));
                }
            }
            hb.store(millis_since(epoch), Ordering::SeqCst);
            let mut frame = FrameFaults::default();
            let mut crashed = false;
            for fault in faults {
                match fault {
                    FaultKind::IslandKill | FaultKind::Panic => crashed = true,
                    FaultKind::IslandStall(ms) | FaultKind::Delay(ms) => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    FaultKind::Cancel => {
                        if let Some(cancel) = self.cancel {
                            cancel.cancel();
                        }
                    }
                    FaultKind::TornFrame => frame.send = SendFault::Torn,
                    FaultKind::DuplicateFrame => frame.send = SendFault::Duplicate,
                    FaultKind::SlowHandshake(ms) => frame.slow_handshake_ms = ms,
                    _ => {}
                }
            }
            if self.is_cancelled() {
                return (Attempt::Interrupted, failures);
            }
            if !crashed {
                match self.executor.step(slot, island, frame) {
                    Attempt::Failed => {}
                    done => return (done, failures),
                }
            }
            failures += 1;
            let frozen = failures > self.topology.restart_limit;
            self.executor.reset(slot, island.id, frozen);
            if frozen {
                return (Attempt::Failed, failures);
            }
            std::thread::sleep(Duration::from_millis(
                RESTART_BACKOFF_MS << (failures - 1).min(5),
            ));
        }
    }

    /// Observational heartbeat/deadline monitor, run on a scoped thread
    /// while the slots step. Wakes every quarter deadline and returns as
    /// soon as `slots_done` disconnects (every slot finished); reports at
    /// most one miss per island per round; never touches search state.
    fn monitor(
        &self,
        active: &[usize],
        heartbeats: &[AtomicU64],
        slots_done: Receiver<()>,
        epoch: &Instant,
    ) {
        let poll = Duration::from_millis((HEARTBEAT_DEADLINE_MS / 4).min(250));
        let mut reported = vec![false; active.len()];
        while let Err(RecvTimeoutError::Timeout) = slots_done.recv_timeout(poll) {
            let now = millis_since(epoch);
            for (pos, hb) in heartbeats.iter().enumerate() {
                let beat = hb.load(Ordering::SeqCst);
                if beat == HB_QUEUED || beat == HB_DONE || reported[pos] {
                    continue;
                }
                let overdue = now.saturating_sub(beat);
                if overdue > HEARTBEAT_DEADLINE_MS {
                    reported[pos] = true;
                    self.telemetry
                        .event("island_heartbeat_missed")
                        .u64("island", active[pos] as u64)
                        .u64("overdue_ms", overdue)
                        .u64("deadline_ms", HEARTBEAT_DEADLINE_MS)
                        .emit();
                    self.telemetry.counter_add("island.heartbeat_missed", 1);
                }
            }
        }
    }

    /// Deterministic ring migration: island `i` clones its best into the
    /// last population slot of island `(i + 1) % n`, every exchange
    /// recorded in the digest-sealed ledger. Frozen and converged islands
    /// send but do not receive.
    fn migrate(&self, state: &mut IslandsState) {
        let n = state.islands.len();
        if n < 2 {
            return;
        }
        let donors: Vec<Option<Evaluated>> =
            state.islands.iter().map(|i| i.gp.best.clone()).collect();
        for (from, donor) in donors.iter().enumerate() {
            let Some(best) = donor else { continue };
            let to = (from + 1) % n;
            if state.islands[to].status != IslandStatus::Active {
                continue;
            }
            let population = &mut state.islands[to].gp.population;
            let Some(slot) = population.len().checked_sub(1) else {
                continue;
            };
            population[slot] = best.expr.clone();
            state.ledger.push(MigrationRecord {
                round: state.round,
                from,
                to,
                feature: best.expr.to_string(),
                quality: best.quality,
            });
            self.telemetry
                .event("island_migration")
                .u64("round", state.round as u64)
                .u64("from", from as u64)
                .u64("to", to as u64)
                .f64("quality", best.quality)
                .emit();
            self.telemetry.counter_add("island.migrations", 1);
        }
    }

    /// Merges the islands into one [`GpRun`]: best individual across all
    /// islands (parsimony-aware, ties to the lowest island id — frozen
    /// islands included), summed counters. Emits one `island_done` event
    /// per island so the report can name the slowest.
    pub fn merge(&self, state: &IslandsState) -> GpRun {
        let mut best: Option<Evaluated> = None;
        for island in &state.islands {
            self.telemetry
                .event("island_done")
                .u64("island", island.id as u64)
                .str("status", island.status.as_str())
                .u64("generations", island.gp.generations as u64)
                .u64("restarts", self.restarts[island.id] as u64)
                .u64("step_us", self.step_us[island.id])
                .emit();
            if let Some(candidate) = &island.gp.best {
                if best
                    .as_ref()
                    .is_none_or(|b| candidate.better_than_with(b, self.parsimony))
                {
                    best = Some(candidate.clone());
                }
            }
        }
        GpRun {
            best,
            generations: state.generations(),
            evaluations: state.islands.iter().map(|i| i.gp.evaluations).sum(),
            panics: state.islands.iter().map(|i| i.gp.panics).sum(),
        }
    }
}

/// One `gp_generation` event for the generation `island` just committed.
fn emit_generation(telemetry: &Telemetry, island: &Island) {
    let Some(g) = island.gp.last_gen.filter(|_| telemetry.is_enabled()) else {
        return;
    };
    telemetry
        .event("gp_generation")
        .u64("island", island.id as u64)
        .u64("generation", g.generation as u64)
        .f64("best", g.best)
        .f64("gen_best", g.gen_best)
        .f64("mean", g.mean)
        .u64("valid", g.valid as u64)
        .u64("invalid", g.invalid as u64)
        .u64("stagnant", g.stagnant as u64)
        .u64("evaluations", g.evaluations as u64)
        .u64("panics", g.panics as u64)
        .emit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultTrigger};
    use crate::grammar::Grammar;
    use crate::gp::GpConfig;
    use crate::ir::IrNode;
    use crate::lang::FeatureExpr;

    fn grammar_and_ir() -> (Grammar, IrNode) {
        let ir = IrNode::build("loop", |l| {
            l.attr_num("num-iter", 12.0);
            for _ in 0..3 {
                l.child("insn", |i| {
                    i.attr_enum("mode", "SI");
                });
            }
            l.child("jump_insn", |_| {});
        });
        (Grammar::derive([&ir]), ir)
    }

    fn quick_cfg() -> GpConfig {
        GpConfig {
            population: 10,
            max_generations: 6,
            stagnation_limit: 6,
            ..GpConfig::quick()
        }
    }

    /// Runs `topology` to completion in process, returning the final
    /// state, the merged run and the telemetry counters' handle.
    fn run_to_done(
        engine: &GpEngine<'_>,
        topology: IslandTopology,
        workers: usize,
        seed: u64,
        fitness: &impl FitnessFn,
        injector: Option<&FaultInjector>,
    ) -> (IslandsState, GpRun, Telemetry) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = IslandsState::init(engine, &topology, &mut rng);
        let telemetry = Telemetry::memory();
        let executor = InProcess::new(engine, fitness, None);
        let mut coordinator = IslandCoordinator::new(
            &executor,
            topology,
            engine.config().parsimony,
            Supervision {
                workers,
                cancel: None,
                injector,
                telemetry: telemetry.clone(),
            },
        );
        loop {
            match coordinator.round(&mut state) {
                RoundStatus::Running => {}
                RoundStatus::Done => break,
                RoundStatus::Interrupted => panic!("no cancellation in this test"),
            }
        }
        let run = coordinator.merge(&state);
        (state, run, telemetry)
    }

    #[test]
    fn worker_count_is_invisible_to_results() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let (s1, r1, _) = run_to_done(&engine, IslandTopology::ring(4), 1, 7, &fitness, None);
        let (s4, r4, _) = run_to_done(&engine, IslandTopology::ring(4), 4, 7, &fitness, None);
        assert_eq!(r1.best, r4.best);
        assert_eq!(r1.generations, r4.generations);
        assert_eq!(s1.snapshot(), s4.snapshot(), "state must be byte-identical");
    }

    #[test]
    fn one_island_is_the_single_population_run() {
        // The round loop over one island replays `GpEngine::run` exactly:
        // same seed draw, same generations, same best.
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let (state, run, telemetry) =
            run_to_done(&engine, IslandTopology::single(), 1, 3, &fitness, None);
        let mut rng = StdRng::seed_from_u64(3);
        let mut direct = engine.init_state(StdRng::seed_from_u64(rng.gen()));
        while let GpStatus::Running = engine.step(&mut direct, &fitness) {}
        assert_eq!(state.islands[0].gp.snapshot(), direct.snapshot());
        assert_eq!(run, direct.into_run());
        let generations = telemetry
            .drain_memory()
            .iter()
            .filter(|l| l.contains("\"kind\":\"gp_generation\""))
            .count();
        assert_eq!(
            generations, run.generations,
            "one event per committed generation"
        );
    }

    #[test]
    fn migration_is_recorded_and_digested() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let topology = IslandTopology {
            islands: 3,
            migration_every: 2,
            restart_limit: 3,
        };
        let (state, _, _) = run_to_done(&engine, topology, 2, 9, &fitness, None);
        assert!(
            !state.ledger.is_empty(),
            "three islands over six generations must migrate at least once"
        );
        let snapshot = state.snapshot();
        assert_eq!(snapshot.ledger_digest, ledger_digest(&state.ledger));
        assert!(snapshot.validate().is_ok());
        let restored = IslandsState::from_snapshot(&snapshot).expect("roundtrip");
        assert_eq!(restored.snapshot(), snapshot);
    }

    #[test]
    fn transient_kill_is_retried_and_neutral() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let clean = run_to_done(&engine, IslandTopology::ring(3), 2, 5, &fitness, None);
        let injector = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:1:g2#a1".into()),
            kind: FaultKind::IslandKill,
        }]);
        let faulted = run_to_done(
            &engine,
            IslandTopology::ring(3),
            2,
            5,
            &fitness,
            Some(&injector),
        );
        assert!(injector.injected() >= 1, "the kill must have fired");
        assert_eq!(
            clean.1, faulted.1,
            "a retried crash must not change results"
        );
        // Retries are telemetry-only: the state is byte-identical.
        assert_eq!(faulted.0.snapshot(), clean.0.snapshot());
        assert_eq!(faulted.2.counter_value("island.restarts"), 1);
    }

    #[test]
    fn persistent_kill_freezes_island_which_still_merges() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let injector = FaultInjector::new(vec![FaultPlan {
            // Kill only generation >= 2 attempts, so the island has a
            // committed generation-1 state to contribute to the merge.
            trigger: FaultTrigger::OnKeyPrefix("island:0:g2".into()),
            kind: FaultKind::IslandKill,
        }]);
        let topology = IslandTopology {
            islands: 2,
            migration_every: 2,
            restart_limit: 2,
        };
        let (state, run, telemetry) =
            run_to_done(&engine, topology, 1, 13, &fitness, Some(&injector));
        assert_eq!(state.islands[0].status, IslandStatus::Frozen);
        assert_eq!(state.islands[0].gp.generations, 1);
        assert_eq!(
            telemetry.counter_value("island.restarts"),
            3,
            "limit + 1 attempts crashed"
        );
        assert_eq!(telemetry.counter_value("island.frozen"), 1);
        assert_eq!(state.islands[1].status, IslandStatus::Converged);
        // The frozen island's generations still count in the merge.
        assert_eq!(run.generations, state.generations());
        assert!(run.best.is_some(), "the healthy island still delivers");
    }

    #[test]
    fn a_cheap_round_does_not_wait_for_the_monitor_poll() {
        // At the 2 s heartbeat deadline the monitor polls every 250 ms; a
        // round whose steps are cheap must still return as soon as they
        // finish, not at the monitor's next poll.
        let (g, _) = grammar_and_ir();
        let engine = GpEngine::new(&g, quick_cfg());
        let fitness = |_: &FeatureExpr| Some(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let topology = IslandTopology::ring(2);
        let mut state = IslandsState::init(&engine, &topology, &mut rng);
        let telemetry = Telemetry::memory();
        let executor = InProcess::new(&engine, &fitness, None);
        let mut coordinator = IslandCoordinator::new(
            &executor,
            topology,
            engine.config().parsimony,
            Supervision {
                workers: 2,
                cancel: None,
                injector: None,
                telemetry,
            },
        );
        let started = Instant::now();
        assert_eq!(coordinator.round(&mut state), RoundStatus::Running);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "a cheap round took {elapsed:?}"
        );
    }

    #[test]
    fn snapshot_validation_rejects_corruption() {
        let (g, ir) = grammar_and_ir();
        let fitness = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, quick_cfg());
        let topology = IslandTopology {
            islands: 3,
            migration_every: 2,
            restart_limit: 3,
        };
        let (state, _, _) = run_to_done(&engine, topology, 1, 9, &fitness, None);
        let good = state.snapshot();
        assert!(good.validate().is_ok());

        let mut truncated = good.clone();
        truncated.ledger.pop();
        assert!(truncated.validate().is_err(), "truncated ledger must fail");

        let mut shuffled = good.clone();
        shuffled.islands.swap(0, 2);
        assert!(shuffled.validate().is_err(), "non-contiguous ids must fail");

        let mut empty = good.clone();
        empty.islands.clear();
        assert!(empty.validate().is_err(), "empty snapshot must fail");

        let mut bad_round = good;
        if let Some(r) = bad_round.ledger.first().cloned() {
            let mut r2 = r;
            r2.round = bad_round.round + 10;
            bad_round.ledger[0] = r2;
            bad_round.ledger_digest = ledger_digest(&bad_round.ledger);
            assert!(bad_round.validate().is_err(), "out-of-range round must fail");
        }
    }
}
