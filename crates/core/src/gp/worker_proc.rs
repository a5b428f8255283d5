//! Process-level island workers: the framed island executor.
//!
//! Islands can be stepped by separate OS processes (or in-process loopback
//! workers that speak the identical byte protocol) connected by the frame
//! transport of [`super::transport`]. The payloads are JSON-encoded
//! [`WireMsg`]s carrying [`IslandSnapshot`]s — the same serialization the
//! checkpoint file uses, so everything that round-trips through a
//! checkpoint round-trips over the wire, exactly (the vendored JSON layer
//! prints `f64` in shortest-roundtrip form).
//!
//! # Division of labour
//!
//! The **worker** is deliberately dumb: it rebuilds the deterministic
//! fitness pipeline once from the search's [`WorkerSpec`] (examples,
//! config, engine), adopts each GP run's settings and base feature columns
//! from a `Begin`, then answers `Step` requests by advancing the received
//! island state exactly one generation. It holds no retry logic, no
//! timers, no policy — if anything is wrong it exits with a typed
//! [`WorkerError`].
//!
//! The **[`Framed`] executor** owns the connections for the whole search:
//! it spawns and handshakes workers, begins every GP run on each of them,
//! validates every frame off the wire (never trust a byte) and drops a
//! connection whose attempt failed. Everything else — retries, freezes,
//! heartbeats, the round barrier — is the
//! [`super::island::IslandCoordinator`]'s, shared with the in-process
//! executor, so the two modes cannot drift.
//!
//! A step is a deterministic function of `(spec, run, island snapshot)`,
//! so a respawned worker — handshaken and begun afresh — re-stepping the
//! same committed state produces the same bytes: transient kills, torn
//! frames and duplicate frames are invisible in results, and respawns are
//! telemetry-only.

use crate::error::SearchError;
use crate::faults::stable_hash;
use crate::gp::engine::{GenStats, GpConfig, GpEngine, GpState, GpStatus};
use crate::gp::island::{Attempt, FrameFaults, Island, IslandExecutor, IslandSnapshot};
use crate::gp::transport::{
    duplex, FrameTransport, SendFault, StreamTransport, TransportError, TransportStats,
};
use crate::grammar::Grammar;
use crate::lang::EvalEngine;
use crate::search::{FeatureSearch, FitnessHarness, SearchConfig, TrainingExample};
use crate::telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

/// Version of the supervisor↔worker conversation — the [`WireMsg`]
/// vocabulary and its order — checked in the `Hello` handshake. The frame
/// header's [`crate::gp::transport::PROTOCOL_VERSION`] is separate: the
/// serve protocol shares the frame layout, not this conversation.
pub const WORKER_PROTOCOL_VERSION: u32 = 3;

/// The invariants of one search that a worker needs to rebuild the
/// deterministic fitness pipeline: the search configuration, the
/// evaluation engine, the grammar digest and the training examples. Sent
/// once per connection in the [`WireMsg::Hello`] handshake; what changes
/// from one GP run to the next travels in [`WireMsg::Begin`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// [`WORKER_PROTOCOL_VERSION`] of the supervisor; checked in the
    /// handshake on top of the per-frame check, so a skewed *message*
    /// vocabulary is caught even when the frame layout still matches.
    pub protocol: u32,
    /// Full search configuration. Each run's effective GP settings travel
    /// in its `Begin`.
    pub config: SearchConfig,
    /// Feature-evaluation engine (execution strategy; identical values
    /// either way, shipped so worker telemetry matches supervisor intent).
    pub engine: EvalEngine,
    /// Digest of the supervisor's grammar (`Debug` form). The worker
    /// re-derives its grammar from the examples and refuses the spec if the
    /// two disagree — a split-brain grammar would silently change the
    /// search space.
    pub grammar_digest: u64,
    /// The training examples (cycle tables round-trip bit-exactly).
    pub examples: Vec<TrainingExample>,
}

/// Content digest of a grammar — the compact stand-in for shipping the
/// (non-serializable) grammar itself. Rendered from resolved names, not
/// `Debug` (which leaks process-local symbol-interner state and would make
/// a freshly spawned worker reject a supervisor with identical grammar).
pub fn grammar_digest(grammar: &Grammar) -> u64 {
    let mut canon = String::new();
    canon.push_str("kinds:");
    for k in grammar.kinds() {
        canon.push_str(k.as_str());
        canon.push(';');
    }
    canon.push_str("|num:");
    for a in grammar.num_attrs() {
        canon.push_str(&format!("{}[{:?},{:?}];", a.name.as_str(), a.min, a.max));
    }
    canon.push_str("|bool:");
    for a in grammar.bool_attrs() {
        canon.push_str(a.as_str());
        canon.push(';');
    }
    canon.push_str("|enum:");
    for a in grammar.enum_attrs() {
        canon.push_str(a.name.as_str());
        canon.push('{');
        for v in &a.values {
            canon.push_str(v.as_str());
            canon.push(',');
        }
        canon.push_str("};");
    }
    canon.push_str(&format!("|max_children:{}", grammar.max_children()));
    stable_hash(canon.as_bytes())
}

impl WorkerSpec {
    /// Builds the spec a supervisor hands its workers.
    pub fn new(
        config: SearchConfig,
        engine: EvalEngine,
        grammar: &Grammar,
        examples: &[TrainingExample],
    ) -> Self {
        WorkerSpec {
            protocol: WORKER_PROTOCOL_VERSION,
            config,
            engine,
            grammar_digest: grammar_digest(grammar),
            examples: examples.to_vec(),
        }
    }
}

/// The supervisor↔worker message vocabulary. Every message travels as one
/// frame; the payload is this enum, JSON-encoded.
///
/// A connection is `Hello` → `HelloAck`, then for each GP run `Begin` →
/// `BeginAck` followed by any number of `Step` → `StepDone`, then
/// `Shutdown` (or EOF). Each acknowledgement echoes the `stable_hash` of
/// the worker's re-encoding of what it decoded, which equals the hash of
/// the bytes the supervisor sent only if they survived the codec exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireMsg {
    /// Supervisor → worker: handshake carrying the search's invariants.
    Hello {
        /// The worker's build instructions.
        spec: WorkerSpec,
    },
    /// Worker → supervisor: handshake acknowledgement.
    HelloAck {
        /// Digest of the `Hello` the worker adopted.
        spec_digest: u64,
    },
    /// Supervisor → worker: start a GP run.
    Begin {
        /// The run's effective GP configuration (`max_generations` already
        /// clamped to the remaining outer budget).
        gp: GpConfig,
        /// Accepted base features, in order, as parseable text. Must extend
        /// the list the worker already adopted.
        base_features: Vec<String>,
    },
    /// Worker → supervisor: the run's settings are adopted.
    BeginAck {
        /// Digest of the `Begin` the worker adopted.
        digest: u64,
    },
    /// Supervisor → worker: advance this island one generation.
    Step {
        /// The island's last committed state.
        island: IslandSnapshot,
    },
    /// Worker → supervisor: the stepped island.
    StepDone {
        /// The island after one generation.
        island: IslandSnapshot,
        /// The step hit the engine's convergence rule.
        converged: bool,
        /// The generation's summary ([`GpState::last_gen`]), which the
        /// snapshot does not carry, so `gp_generation` telemetry reads the
        /// same in both execution modes.
        stats: Option<GenStats>,
    },
    /// Worker → supervisor: the worker cannot proceed (typed detail); the
    /// connection is dead after this.
    WorkerError {
        /// Human-readable failure description.
        detail: String,
    },
    /// Supervisor → worker: exit cleanly.
    Shutdown,
}

/// Encodes a [`WireMsg`] as a frame payload.
pub fn encode_msg(msg: &WireMsg) -> Result<Vec<u8>, TransportError> {
    serde_json::to_string(msg)
        .map(String::into_bytes)
        .map_err(|e| TransportError::Malformed(format!("encode: {e}")))
}

/// Decodes a frame payload as a [`WireMsg`]. Typed rejection, never a
/// panic: the payload already passed the frame digest, but digest-valid
/// bytes can still be version-skewed or hostile JSON.
pub fn decode_msg(payload: &[u8]) -> Result<WireMsg, TransportError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| TransportError::Malformed(format!("non-UTF-8 payload: {e}")))?;
    serde_json::from_str(text).map_err(|e| TransportError::Malformed(format!("decode: {e}")))
}

/// Encodes a message the supervisor sends, with its digest (what the
/// worker's acknowledgement must echo).
fn encode_sealed(msg: &WireMsg) -> Result<(Vec<u8>, u64), SearchError> {
    let payload = encode_msg(msg).map_err(|e| SearchError::WireEncode {
        detail: format!("{}: {e}", msg_name(msg)),
    })?;
    let digest = stable_hash(&payload);
    Ok((payload, digest))
}

/// Typed worker-side failures. A worker exits with one of these — it never
/// hangs on bad input and never panics on wire bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerError {
    /// The transport failed or delivered invalid frames.
    Transport(TransportError),
    /// The handshake violated the protocol (wrong first message, protocol
    /// skew, unexpected message mid-session).
    Handshake {
        /// What was violated.
        detail: String,
    },
    /// The spec was well-formed on the wire but unusable (grammar digest
    /// mismatch, unparseable base feature, invalid configuration).
    Spec {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Transport(e) => write!(f, "worker transport failure: {e}"),
            WorkerError::Handshake { detail } => write!(f, "worker handshake failure: {detail}"),
            WorkerError::Spec { detail } => write!(f, "worker spec rejected: {detail}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<TransportError> for WorkerError {
    fn from(e: TransportError) -> Self {
        WorkerError::Transport(e)
    }
}

/// The worker main loop: handshake, rebuild the fitness pipeline, then
/// adopt each GP run's `Begin` and answer its `Step` requests until
/// `Shutdown` or EOF.
///
/// The fitness harness lives for the whole connection: a `Begin` only
/// pushes the base columns it does not hold yet, exactly as the
/// supervisor's own harness grows between runs.
///
/// The loop is crash-only: any protocol violation or transport failure is
/// a typed error and the worker exits; the supervisor treats the dead
/// connection as a respawn trigger. A clean EOF after the handshake is a
/// normal shutdown (the supervisor dropped the connection).
pub fn run_worker<T: FrameTransport>(transport: &mut T) -> Result<(), WorkerError> {
    let hello = decode_msg(&transport.recv()?)?;
    let WireMsg::Hello { spec } = &hello else {
        return Err(WorkerError::Handshake {
            detail: format!("expected Hello, got {}", msg_name(&hello)),
        });
    };
    if spec.protocol != WORKER_PROTOCOL_VERSION {
        return Err(refuse(
            transport,
            WorkerError::Handshake {
                detail: format!(
                    "protocol skew: supervisor speaks v{}, this worker v{WORKER_PROTOCOL_VERSION}",
                    spec.protocol
                ),
            },
        ));
    }
    let spec_digest = adopted_digest(&hello)?;

    // Rebuild the exact deterministic fitness pipeline the supervisor's
    // in-process path would use: same grammar derivation, same harness,
    // same base columns — byte-identical `f64` trajectories.
    let search = FeatureSearch::from_examples(&spec.examples, spec.config.clone())
        .with_engine(spec.engine);
    if grammar_digest(search.grammar()) != spec.grammar_digest {
        let detail = format!(
            "grammar digest mismatch: derived {:016x}, supervisor expects {:016x}",
            grammar_digest(search.grammar()),
            spec.grammar_digest
        );
        return Err(refuse(transport, WorkerError::Spec { detail }));
    }
    let mut harness = search.harness(&spec.examples).map_err(|e| WorkerError::Spec {
        detail: format!("harness: {e}"),
    })?;
    transport.send(&encode_msg(&WireMsg::HelloAck { spec_digest })?)?;

    // The current run's engine and the base features adopted so far.
    let mut engine: Option<GpEngine<'_>> = None;
    let mut adopted: Vec<String> = Vec::new();
    loop {
        let payload = match transport.recv() {
            Ok(payload) => payload,
            // The supervisor dropped the connection: normal shutdown.
            Err(TransportError::Closed) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let msg = decode_msg(&payload)?;
        match &msg {
            WireMsg::Begin { gp, base_features } => {
                let digest = adopted_digest(&msg)?;
                let Some(new) = base_features.strip_prefix(adopted.as_slice()) else {
                    let detail = format!(
                        "Begin's {} base feature(s) do not extend the {} already adopted",
                        base_features.len(),
                        adopted.len()
                    );
                    return Err(refuse(transport, WorkerError::Spec { detail }));
                };
                for text in new {
                    adopt_base(&mut harness, text)?;
                    adopted.push(text.clone());
                }
                engine = Some(GpEngine::new(search.grammar(), gp.clone()));
                transport.send(&encode_msg(&WireMsg::BeginAck { digest })?)?;
            }
            WireMsg::Step { island } => {
                let Some(engine) = &engine else {
                    let detail = "Step before Begin: no GP run was begun".to_owned();
                    return Err(refuse(transport, WorkerError::Handshake { detail }));
                };
                let mut gp =
                    GpState::from_snapshot(&island.gp).map_err(|e| WorkerError::Spec {
                        detail: format!("island {} state: {e}", island.id),
                    })?;
                // No cancel token on purpose: cancellation is supervisor
                // policy; a worker always finishes its step (or dies).
                let fitness = |e: &crate::lang::FeatureExpr| harness.fitness(e);
                let status = engine.step_cancellable(&mut gp, &fitness, None);
                let reply = WireMsg::StepDone {
                    island: IslandSnapshot {
                        id: island.id,
                        status: island.status,
                        gp: gp.snapshot(),
                    },
                    converged: status == Some(GpStatus::Converged),
                    stats: gp.last_gen,
                };
                transport.send(&encode_msg(&reply)?)?;
            }
            WireMsg::Shutdown => return Ok(()),
            other => {
                return Err(WorkerError::Handshake {
                    detail: format!("unexpected message {} mid-session", msg_name(other)),
                })
            }
        }
    }
}

/// The digest a worker echoes to prove it adopted `msg`: the hash of its
/// re-encoding. An encode failure is typed, never the digest of nothing.
fn adopted_digest(msg: &WireMsg) -> Result<u64, WorkerError> {
    encode_msg(msg)
        .map(|payload| stable_hash(&payload))
        .map_err(|e| WorkerError::Spec {
            detail: format!("re-encoding {} for its digest: {e}", msg_name(msg)),
        })
}

/// Evaluates one accepted base feature and appends its column.
fn adopt_base(harness: &mut FitnessHarness<'_>, text: &str) -> Result<(), WorkerError> {
    let expr = crate::lang::parse_feature(text).map_err(|e| WorkerError::Spec {
        detail: format!("unparseable base feature `{text}`: {e}"),
    })?;
    let column = harness.column(&expr).ok_or_else(|| WorkerError::Spec {
        detail: format!("base feature `{text}` does not evaluate on the examples"),
    })?;
    harness.push_base_column(column);
    Ok(())
}

/// Tells the supervisor why before dying, and returns `err` — best-effort:
/// the typed exit matters more than the courtesy message.
fn refuse<T: FrameTransport>(transport: &mut T, err: WorkerError) -> WorkerError {
    let _ = encode_msg(&WireMsg::WorkerError {
        detail: err.to_string(),
    })
    .and_then(|m| transport.send(&m));
    err
}

/// Worker entrypoint over stdin/stdout — the body of the CLI's hidden
/// `island-worker` subcommand. Stdout *is* the transport channel, which is
/// why workers must never print.
pub fn run_stdio_worker() -> Result<(), WorkerError> {
    let mut transport = StreamTransport::new(std::io::stdin(), std::io::stdout());
    run_worker(&mut transport)
}

fn msg_name(msg: &WireMsg) -> &'static str {
    match msg {
        WireMsg::Hello { .. } => "Hello",
        WireMsg::HelloAck { .. } => "HelloAck",
        WireMsg::Begin { .. } => "Begin",
        WireMsg::BeginAck { .. } => "BeginAck",
        WireMsg::Step { .. } => "Step",
        WireMsg::StepDone { .. } => "StepDone",
        WireMsg::WorkerError { .. } => "WorkerError",
        WireMsg::Shutdown => "Shutdown",
    }
}

/// How the worker's stdio is wired to the supervisor. Anonymous pipes are
/// the one carrier; the enum stays as the `WorkerLauncher::Command` field's
/// type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Anonymous stdin/stdout pipes.
    Stdio,
}

/// How the supervisor obtains a connected worker.
#[derive(Debug, Clone)]
pub enum WorkerLauncher {
    /// An in-process thread running [`run_worker`] over the OS pipes of
    /// [`duplex`]. Same byte protocol, same codec path; only the carrier
    /// differs — which is exactly what the byte-identity tests exploit.
    Loopback,
    /// A child process (`argv[0]` + arguments, e.g. the `fegen` binary with
    /// the hidden `island-worker` subcommand), speaking frames over its
    /// stdin/stdout.
    Command {
        /// Program and arguments.
        argv: Vec<String>,
        /// How stdin/stdout are carried.
        channel: ChannelKind,
    },
}

impl WorkerLauncher {
    /// Stable name of the carrier, for telemetry (`loopback`, `stdio`).
    pub fn kind(&self) -> &'static str {
        match self {
            WorkerLauncher::Loopback => "loopback",
            WorkerLauncher::Command { .. } => "stdio",
        }
    }

    /// Spawns one unconnected (pre-handshake) worker.
    fn spawn(&self) -> Result<WorkerHandle, TransportError> {
        match self {
            WorkerLauncher::Loopback => {
                let (sup, mut wrk) = duplex();
                let thread = std::thread::spawn(move || {
                    // A worker failure surfaces to the supervisor as a dead
                    // connection; the typed error itself is the process-mode
                    // exit code's job.
                    let _ = run_worker(&mut wrk);
                });
                Ok(WorkerHandle {
                    transport: Some(Box::new(sup)),
                    child: None,
                    thread: Some(thread),
                    begun: None,
                })
            }
            WorkerLauncher::Command { argv, .. } => {
                let (program, args) = argv
                    .split_first()
                    .ok_or_else(|| TransportError::Io("empty worker argv".into()))?;
                spawn_stdio(program, args)
            }
        }
    }
}

fn spawn_stdio(program: &str, args: &[String]) -> Result<WorkerHandle, TransportError> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| TransportError::Io(format!("spawn {program}: {e}")))?;
    let stdin = child
        .stdin
        .take()
        .ok_or_else(|| TransportError::Io("child stdin not captured".into()))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| TransportError::Io("child stdout not captured".into()))?;
    Ok(WorkerHandle {
        transport: Some(Box::new(StreamTransport::new(stdout, stdin))),
        child: Some(child),
        thread: None,
        begun: None,
    })
}

/// One live worker connection. Dropping it severs the transport (a child
/// sees EOF and exits; a stuck child is killed) and reaps the process.
struct WorkerHandle {
    transport: Option<Box<dyn FrameTransport>>,
    child: Option<Child>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// The GP run ([`Run::id`]) this worker last acknowledged a `Begin`
    /// for.
    begun: Option<u64>,
}

impl WorkerHandle {
    fn transport(&mut self) -> &mut dyn FrameTransport {
        self.transport
            .as_mut()
            .expect("transport present until shutdown")
            .as_mut()
    }

    /// The connection's frame counters.
    fn stats(&self) -> TransportStats {
        self.transport
            .as_ref()
            .map_or_else(TransportStats::default, |t| t.stats())
    }

    /// Graceful shutdown: ask politely, sever the transport, wait.
    fn shutdown(mut self) {
        if let Some(t) = self.transport.as_mut() {
            let _ = encode_msg(&WireMsg::Shutdown).and_then(|m| t.send(&m));
        }
        // EOF unblocks a worker waiting in recv even if the Shutdown
        // message never made it through a poisoned stream.
        self.transport = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.wait();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // Failure path: sever, kill, reap. The kill covers a worker wedged
        // mid-step (e.g. by an injected stall) that EOF alone cannot reach.
        self.transport = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Why a handshake (`Hello` or `Begin`) failed.
enum ConnectError {
    /// The worker acknowledged with the wrong digest.
    DigestRejected,
    /// Spawn, transport or protocol failure.
    Failed,
}

/// Sends `request` and checks that the acknowledgement `ack` extracts from
/// the reply echoes `digest`.
fn exchange(
    t: &mut dyn FrameTransport,
    request: &[u8],
    digest: u64,
    ack: fn(WireMsg) -> Option<u64>,
) -> Result<(), ConnectError> {
    t.send(request).map_err(|_| ConnectError::Failed)?;
    let reply = t.recv().map_err(|_| ConnectError::Failed)?;
    match decode_msg(&reply).ok().and_then(ack) {
        Some(echoed) if echoed == digest => Ok(()),
        Some(_) => Err(ConnectError::DigestRejected),
        None => Err(ConnectError::Failed),
    }
}

fn hello_ack(reply: WireMsg) -> Option<u64> {
    match reply {
        WireMsg::HelloAck { spec_digest } => Some(spec_digest),
        _ => None,
    }
}

fn begin_ack(reply: WireMsg) -> Option<u64> {
    match reply {
        WireMsg::BeginAck { digest } => Some(digest),
        _ => None,
    }
}

/// One GP run's `Begin`, encoded once and sent to every connection that
/// has not acknowledged it yet.
struct Run {
    /// Position of the run in the search, from 0.
    id: u64,
    begin: Vec<u8>,
    digest: u64,
}

/// The framed [`IslandExecutor`]: each worker slot owns one connection to a
/// worker (a child process or a loopback thread), kept for the whole
/// search and re-established after a failed attempt. A connection gets the
/// search's `Hello` once and each GP run's `Begin` before its first step
/// of that run. Every step ships the island's committed state in a `Step`
/// frame and validates the `StepDone` reply before trusting it. Retry,
/// freeze and heartbeat policy belong to the
/// [`super::island::IslandCoordinator`] driving it.
pub struct Framed {
    /// The encoded `Hello`, built once per search.
    hello: Vec<u8>,
    /// Digest of `hello`, which every `HelloAck` must echo.
    spec_digest: u64,
    /// The current GP run; `None` until [`Framed::begin`].
    run: Option<Run>,
    launcher: WorkerLauncher,
    /// One connection per worker slot; a slot is only touched by the thread
    /// stepping it, so the locks are uncontended.
    slots: Vec<Mutex<Option<WorkerHandle>>>,
    telemetry: Telemetry,
}

impl Framed {
    /// An executor with `workers` slots, each connecting workers built
    /// from `spec` via `launcher` on first use. The `Hello` is encoded
    /// here, once; an encode failure is a typed [`SearchError::WireEncode`].
    pub fn new(
        spec: WorkerSpec,
        launcher: WorkerLauncher,
        workers: usize,
        telemetry: &Telemetry,
    ) -> Result<Self, SearchError> {
        let (hello, spec_digest) = encode_sealed(&WireMsg::Hello { spec })?;
        Ok(Framed {
            hello,
            spec_digest,
            run: None,
            launcher,
            slots: (0..workers.max(1)).map(|_| Mutex::new(None)).collect(),
            telemetry: telemetry.clone(),
        })
    }

    /// Starts a GP run with the effective `gp` settings over
    /// `base_features` (which must extend the previous run's): every
    /// connection is sent this `Begin` before its next step.
    pub fn begin(&mut self, gp: GpConfig, base_features: Vec<String>) -> Result<(), SearchError> {
        let (begin, digest) = encode_sealed(&WireMsg::Begin { gp, base_features })?;
        let id = self.run.as_ref().map_or(0, |run| run.id + 1);
        self.run = Some(Run { id, begin, digest });
        Ok(())
    }

    fn slot(&self, slot: usize) -> std::sync::MutexGuard<'_, Option<WorkerHandle>> {
        self.slots[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Spawns and handshakes one worker, verifying it adopted the exact
    /// spec bytes (a worker with a different view of the search must never
    /// be allowed to step islands).
    fn connect(&self) -> Result<WorkerHandle, ConnectError> {
        let mut handle = self.launcher.spawn().map_err(|_| ConnectError::Failed)?;
        exchange(handle.transport(), &self.hello, self.spec_digest, hello_ack)?;
        self.telemetry.counter_add("worker.handshakes", 1);
        Ok(handle)
    }

    /// Connects slot `slot` if it has no worker and begins `run` on it if
    /// it has not yet.
    fn ready(
        &self,
        handle: &mut Option<WorkerHandle>,
        run: &Run,
        slow_handshake_ms: u64,
    ) -> Result<(), ConnectError> {
        if handle.is_none() {
            if slow_handshake_ms > 0 {
                std::thread::sleep(Duration::from_millis(slow_handshake_ms));
            }
            *handle = Some(self.connect()?);
        }
        let handle = handle.as_mut().expect("connected above");
        if handle.begun != Some(run.id) {
            exchange(handle.transport(), &run.begin, run.digest, begin_ack)?;
            handle.begun = Some(run.id);
        }
        Ok(())
    }

    /// Adds the frames a connection moved to the counters, once, as it is
    /// dropped.
    fn count_frames(&self, handle: &WorkerHandle) {
        let frames = handle.stats();
        self.telemetry.counter_add("worker.frames_tx", frames.frames_tx);
        self.telemetry.counter_add("worker.frames_rx", frames.frames_rx);
        self.telemetry
            .counter_add("worker.duplicates_dropped", frames.duplicates_dropped);
    }

    /// Shuts every worker down gracefully: `Shutdown` message, EOF, reap —
    /// tallying each connection's frame counters first.
    pub fn shutdown(self) {
        for slot in 0..self.slots.len() {
            let handle = self.slot(slot).take();
            if let Some(handle) = handle {
                self.count_frames(&handle);
                handle.shutdown();
            }
        }
    }
}

impl IslandExecutor for Framed {
    fn step(&self, slot: usize, island: &Island, faults: FrameFaults) -> Attempt {
        let run = self
            .run
            .as_ref()
            .expect("Framed::begin precedes every step");
        let mut guard = self.slot(slot);
        match self.ready(&mut guard, run, faults.slow_handshake_ms) {
            Ok(()) => {}
            Err(ConnectError::DigestRejected) => {
                self.telemetry.counter_add("worker.digest_rejections", 1);
                return Attempt::Failed;
            }
            Err(ConnectError::Failed) => return Attempt::Failed,
        }
        match step_one(guard.as_mut().expect("ready above"), island, faults.send) {
            Ok((gp, status)) => Attempt::Stepped(Box::new(gp), status),
            // Typed frame errors are fatal to the connection (no resync);
            // the coordinator resets the slot and retries.
            Err(_) => Attempt::Failed,
        }
    }

    fn reset(&self, slot: usize, island: usize, frozen: bool) {
        if let Some(handle) = self.slot(slot).take() {
            self.count_frames(&handle);
        }
        self.telemetry
            .event("worker_respawn")
            .u64("worker", slot as u64)
            .u64("island", island as u64)
            .emit();
        self.telemetry.counter_add("worker.respawns", 1);
        if frozen {
            self.telemetry
                .event("worker_frozen")
                .u64("worker", slot as u64)
                .u64("island", island as u64)
                .emit();
        }
    }
}

/// Sends one island through the connection and validates the reply before
/// trusting it. The send carries the injected send fault (if any); a torn
/// frame therefore fails the attempt, which retries from the committed
/// state.
fn step_one(
    handle: &mut WorkerHandle,
    island: &Island,
    send: SendFault,
) -> Result<(GpState, GpStatus), TransportError> {
    let msg = encode_msg(&WireMsg::Step {
        island: island.snapshot(),
    })?;
    let t = handle.transport();
    t.send_with(&msg, send)?;
    match decode_msg(&t.recv()?)? {
        WireMsg::StepDone {
            island: stepped,
            converged,
            stats,
        } if stepped.id == island.id => {
            let mut gp = GpState::from_snapshot(&stepped.gp).map_err(TransportError::Malformed)?;
            gp.last_gen = stats;
            let status = if converged {
                GpStatus::Converged
            } else {
                GpStatus::Running
            };
            Ok((gp, status))
        }
        WireMsg::StepDone { island: stepped, .. } => Err(TransportError::Malformed(format!(
            "worker stepped island {}, supervisor asked for {}",
            stepped.id, island.id
        ))),
        WireMsg::WorkerError { detail } => Err(TransportError::Malformed(format!(
            "worker refused: {detail}"
        ))),
        other => Err(TransportError::Malformed(format!(
            "unexpected reply {} to Step",
            msg_name(&other)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::island::{IslandStatus, IslandTopology, IslandsState};
    use crate::ir::IrNode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_spec() -> WorkerSpec {
        let examples: Vec<TrainingExample> = (0..6)
            .map(|i| {
                let ir = IrNode::build("loop", |l| {
                    l.attr_num("n", i as f64);
                    for _ in 0..(1 + i % 3) {
                        l.child("insn", |x| {
                            x.attr_enum("mode", "SI");
                        });
                    }
                });
                TrainingExample {
                    ir,
                    cycles: vec![100.0, 90.0 + i as f64, 120.0],
                }
            })
            .collect();
        let config = SearchConfig::quick();
        let search = FeatureSearch::from_examples(&examples, config.clone());
        WorkerSpec::new(config, EvalEngine::default(), search.grammar(), &examples)
    }

    fn begin_msg(base_features: &[&str]) -> WireMsg {
        WireMsg::Begin {
            gp: tiny_spec().config.gp,
            base_features: base_features.iter().map(|&f| f.to_owned()).collect(),
        }
    }

    /// One island of a fresh run over `spec`'s grammar.
    fn first_island(spec: &WorkerSpec) -> Island {
        let search = FeatureSearch::from_examples(&spec.examples, spec.config.clone());
        let engine = GpEngine::new(search.grammar(), spec.config.gp.clone());
        let mut rng = StdRng::seed_from_u64(5);
        IslandsState::init(&engine, &IslandTopology::single(), &mut rng)
            .islands
            .remove(0)
    }

    /// Sends `msg` and returns the decoded reply.
    fn ask(sup: &mut crate::gp::LoopbackTransport, msg: &WireMsg) -> WireMsg {
        sup.send(&encode_msg(msg).unwrap()).unwrap();
        decode_msg(&sup.recv().unwrap()).unwrap()
    }

    /// Spawns a loopback worker and completes its `Hello` handshake.
    fn handshaken_worker() -> (
        crate::gp::LoopbackTransport,
        std::thread::JoinHandle<Result<(), WorkerError>>,
    ) {
        let (mut sup, mut wrk) = duplex();
        let worker = std::thread::spawn(move || run_worker(&mut wrk));
        let reply = ask(&mut sup, &WireMsg::Hello { spec: tiny_spec() });
        assert!(matches!(reply, WireMsg::HelloAck { .. }), "got {reply:?}");
        (sup, worker)
    }

    #[test]
    fn wire_messages_roundtrip() {
        let spec = tiny_spec();
        let msgs = vec![
            WireMsg::Hello { spec },
            WireMsg::HelloAck { spec_digest: 7 },
            begin_msg(&["count(//*)"]),
            WireMsg::BeginAck { digest: 9 },
            WireMsg::WorkerError {
                detail: "no".into(),
            },
            WireMsg::Shutdown,
        ];
        for msg in msgs {
            let bytes = encode_msg(&msg).unwrap();
            assert_eq!(decode_msg(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn spec_digest_is_content_sensitive() {
        let a = tiny_spec();
        let mut b = a.clone();
        let digest = |spec: &WorkerSpec| {
            let (payload, digest) = encode_sealed(&WireMsg::Hello { spec: spec.clone() }).unwrap();
            assert_eq!(digest, stable_hash(&payload), "the hash of the sent bytes");
            digest
        };
        assert_eq!(digest(&a), digest(&b));
        b.examples[0].cycles[1] += 1.0;
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn worker_rejects_protocol_skew_with_typed_error() {
        let (mut sup, mut wrk) = duplex();
        let mut spec = tiny_spec();
        spec.protocol = WORKER_PROTOCOL_VERSION + 1;
        let worker = std::thread::spawn(move || run_worker(&mut wrk));
        // The worker sends a courtesy WorkerError before dying typed.
        let reply = ask(&mut sup, &WireMsg::Hello { spec });
        assert!(matches!(reply, WireMsg::WorkerError { .. }));
        let err = worker.join().unwrap().unwrap_err();
        assert!(matches!(err, WorkerError::Handshake { .. }), "got {err}");
    }

    #[test]
    fn worker_rejects_non_hello_first_message() {
        let (mut sup, mut wrk) = duplex();
        let worker = std::thread::spawn(move || run_worker(&mut wrk));
        sup.send(&encode_msg(&WireMsg::Shutdown).unwrap()).unwrap();
        let err = worker.join().unwrap().unwrap_err();
        assert!(matches!(err, WorkerError::Handshake { .. }), "got {err}");
    }

    #[test]
    fn worker_rejects_garbage_payload_typed() {
        let (mut sup, mut wrk) = duplex();
        let worker = std::thread::spawn(move || run_worker(&mut wrk));
        sup.send(b"definitely not json").unwrap();
        let err = worker.join().unwrap().unwrap_err();
        assert!(
            matches!(err, WorkerError::Transport(TransportError::Malformed(_))),
            "got {err}"
        );
    }

    #[test]
    fn worker_handshakes_and_exits_on_clean_eof() {
        let (mut sup, mut wrk) = duplex();
        let (hello, digest) = encode_sealed(&WireMsg::Hello { spec: tiny_spec() }).unwrap();
        let worker = std::thread::spawn(move || run_worker(&mut wrk));
        sup.send(&hello).unwrap();
        match decode_msg(&sup.recv().unwrap()).unwrap() {
            WireMsg::HelloAck { spec_digest } => assert_eq!(
                spec_digest, digest,
                "the worker echoes the hash of the Hello bytes it was sent"
            ),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        drop(sup);
        assert_eq!(worker.join().unwrap(), Ok(()));
    }

    #[test]
    fn worker_begins_runs_and_grows_its_base_features() {
        let (mut sup, worker) = handshaken_worker();
        let island = first_island(&tiny_spec());
        // The last run re-begins with the same list: nothing new to adopt.
        let runs: [&[&str]; 4] = [
            &[],
            &["count(//*)"],
            &["count(//*)", "count(/*)"],
            &["count(//*)", "count(/*)"],
        ];
        for base in runs {
            let begin = begin_msg(base);
            let (_, digest) = encode_sealed(&begin).unwrap();
            assert_eq!(ask(&mut sup, &begin), WireMsg::BeginAck { digest });
            let reply = ask(
                &mut sup,
                &WireMsg::Step {
                    island: island.snapshot(),
                },
            );
            assert!(
                matches!(&reply, WireMsg::StepDone { island: stepped, .. } if stepped.gp.generations == 1),
                "got {reply:?}"
            );
        }
        drop(sup);
        assert_eq!(worker.join().unwrap(), Ok(()));
    }

    #[test]
    fn worker_refuses_a_step_before_begin() {
        let (mut sup, worker) = handshaken_worker();
        let island = first_island(&tiny_spec());
        let reply = ask(
            &mut sup,
            &WireMsg::Step {
                island: island.snapshot(),
            },
        );
        assert!(matches!(reply, WireMsg::WorkerError { .. }), "got {reply:?}");
        let err = worker.join().unwrap().unwrap_err();
        assert!(
            matches!(&err, WorkerError::Handshake { detail } if detail.contains("before Begin")),
            "got {err}"
        );
    }

    #[test]
    fn worker_refuses_base_features_that_do_not_extend_its_own() {
        let (mut sup, worker) = handshaken_worker();
        assert!(matches!(
            ask(&mut sup, &begin_msg(&["count(//*)"])),
            WireMsg::BeginAck { .. }
        ));
        let reply = ask(&mut sup, &begin_msg(&["count(/*)"]));
        assert!(matches!(reply, WireMsg::WorkerError { .. }), "got {reply:?}");
        let err = worker.join().unwrap().unwrap_err();
        assert!(
            matches!(&err, WorkerError::Spec { detail } if detail.contains("do not extend")),
            "got {err}"
        );
    }

    /// A worker that acknowledges `Hello` correctly but `Begin` with a
    /// wrong digest is rejected: the attempt fails and the rejection is
    /// counted.
    #[test]
    fn a_begin_ack_with_the_wrong_digest_fails_the_attempt() {
        let spec = tiny_spec();
        let island = first_island(&spec);
        let telemetry = Telemetry::memory();
        let mut framed = Framed::new(spec.clone(), WorkerLauncher::Loopback, 1, &telemetry).unwrap();
        framed.begin(spec.config.gp.clone(), Vec::new()).unwrap();
        let (sup, mut wrk) = duplex();
        let liar = std::thread::spawn(move || {
            let _ = wrk.recv();
            let _ = wrk.send(&encode_msg(&WireMsg::BeginAck { digest: 0 }).unwrap());
            let _ = wrk.recv();
        });
        *framed.slot(0) = Some(WorkerHandle {
            transport: Some(Box::new(sup)),
            child: None,
            thread: Some(liar),
            begun: None,
        });
        let attempt = framed.step(0, &island, FrameFaults::default());
        assert!(matches!(attempt, Attempt::Failed), "got {attempt:?}");
        assert_eq!(telemetry.counter_value("worker.digest_rejections"), 1);

        // The coordinator's reset drops the liar; the next attempt connects
        // a real worker, which adopts Hello and Begin and steps.
        framed.reset(0, island.id, false);
        let attempt = framed.step(0, &island, FrameFaults::default());
        assert!(matches!(attempt, Attempt::Stepped(..)), "got {attempt:?}");
        assert_eq!(telemetry.counter_value("worker.handshakes"), 1);
        assert_eq!(island.status, IslandStatus::Active);
        framed.shutdown();
        assert!(telemetry.counter_value("worker.frames_tx") > 0);
    }
}
