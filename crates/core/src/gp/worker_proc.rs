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
//! fitness pipeline from its [`WorkerSpec`] (examples, config, base feature
//! columns), then answers `Step` requests by advancing the received island
//! state exactly one generation. It holds no retry logic, no timers, no
//! policy — if anything is wrong it exits with a typed [`WorkerError`].
//!
//! The **[`Framed`] executor** owns the connections: it spawns and
//! handshakes workers, validates every frame off the wire (never trust a
//! byte) and drops a connection whose attempt failed. Everything else —
//! retries, freezes, heartbeats, the round barrier — is the
//! [`super::island::IslandCoordinator`]'s, shared with the in-process
//! executor, so the two modes cannot drift.
//!
//! A step is a deterministic function of `(spec, island snapshot)`, so a
//! respawned worker re-stepping the same committed state produces the same
//! bytes: transient kills, torn frames and duplicate frames are invisible
//! in results, and respawns are telemetry-only.

use crate::faults::stable_hash;
use crate::gp::engine::{GenStats, GpEngine, GpState, GpStatus};
use crate::gp::island::{Attempt, FrameFaults, Island, IslandExecutor, IslandSnapshot};
use crate::gp::transport::{
    duplex, FrameTransport, SendFault, StreamTransport, TransportError, TransportStats,
    PROTOCOL_VERSION,
};
use crate::grammar::Grammar;
use crate::lang::EvalEngine;
use crate::search::{FeatureSearch, SearchConfig, TrainingExample};
use crate::telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

/// Everything a worker needs to rebuild the deterministic fitness pipeline:
/// the search configuration (with the *effective*, outer-budget-clamped GP
/// settings), the evaluation engine, the training examples and the base
/// feature texts accepted so far. Sent once per connection in the
/// [`WireMsg::Hello`] handshake.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// Protocol version the supervisor speaks; checked in the handshake on
    /// top of the per-frame check, so a skewed *message* vocabulary is
    /// caught even when the frame layout still matches.
    pub protocol: u32,
    /// Full search configuration, `gp` already clamped to the remaining
    /// outer generation budget.
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
    /// Accepted base features, in order, as parseable text.
    pub base_features: Vec<String>,
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
        base_features: Vec<String>,
    ) -> Self {
        WorkerSpec {
            protocol: PROTOCOL_VERSION,
            config,
            engine,
            grammar_digest: grammar_digest(grammar),
            examples: examples.to_vec(),
            base_features,
        }
    }

    /// Content digest of the spec, echoed back in [`WireMsg::HelloAck`] so
    /// the supervisor can verify the worker adopted the exact bytes it sent.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).unwrap_or_default();
        stable_hash(json.as_bytes())
    }
}

/// The supervisor↔worker message vocabulary. Every message travels as one
/// frame; the payload is this enum, JSON-encoded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireMsg {
    /// Supervisor → worker: handshake carrying the full spec.
    Hello {
        /// The worker's build instructions.
        spec: WorkerSpec,
    },
    /// Worker → supervisor: handshake acknowledgement.
    HelloAck {
        /// [`WorkerSpec::digest`] of the spec the worker adopted.
        spec_digest: u64,
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

/// The worker main loop: handshake, rebuild the fitness pipeline, answer
/// `Step` requests until `Shutdown` or EOF.
///
/// The loop is crash-only: any protocol violation or transport failure is
/// a typed error and the worker exits; the supervisor treats the dead
/// connection as a respawn trigger. A clean EOF after the handshake is a
/// normal shutdown (the supervisor dropped the connection).
pub fn run_worker<T: FrameTransport>(transport: &mut T) -> Result<(), WorkerError> {
    let spec = match decode_msg(&transport.recv()?)? {
        WireMsg::Hello { spec } => spec,
        other => {
            return Err(WorkerError::Handshake {
                detail: format!("expected Hello, got {}", msg_name(&other)),
            })
        }
    };
    if spec.protocol != PROTOCOL_VERSION {
        // Tell the supervisor why before dying — best-effort, the typed
        // exit matters more than the courtesy message.
        let detail = format!(
            "protocol skew: supervisor speaks v{}, this worker v{PROTOCOL_VERSION}",
            spec.protocol
        );
        let _ = encode_msg(&WireMsg::WorkerError {
            detail: detail.clone(),
        })
        .and_then(|m| transport.send(&m));
        return Err(WorkerError::Handshake { detail });
    }
    let spec_digest = spec.digest();

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
        let _ = encode_msg(&WireMsg::WorkerError {
            detail: detail.clone(),
        })
        .and_then(|m| transport.send(&m));
        return Err(WorkerError::Spec { detail });
    }
    let mut harness = search.harness(&spec.examples).map_err(|e| WorkerError::Spec {
        detail: format!("harness: {e}"),
    })?;
    for text in &spec.base_features {
        let expr = crate::lang::parse_feature(text).map_err(|e| WorkerError::Spec {
            detail: format!("unparseable base feature `{text}`: {e}"),
        })?;
        let column = harness.column(&expr).ok_or_else(|| WorkerError::Spec {
            detail: format!("base feature `{text}` does not evaluate on the examples"),
        })?;
        harness.push_base_column(column);
    }
    let engine = GpEngine::new(search.grammar(), spec.config.gp.clone());
    let fitness = |e: &crate::lang::FeatureExpr| harness.fitness(e);

    transport.send(&encode_msg(&WireMsg::HelloAck { spec_digest })?)?;

    loop {
        let payload = match transport.recv() {
            Ok(payload) => payload,
            // The supervisor dropped the connection: normal shutdown.
            Err(TransportError::Closed) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        match decode_msg(&payload)? {
            WireMsg::Step { island } => {
                let mut gp =
                    GpState::from_snapshot(&island.gp).map_err(|e| WorkerError::Spec {
                        detail: format!("island {} state: {e}", island.id),
                    })?;
                // No cancel token on purpose: cancellation is supervisor
                // policy; a worker always finishes its step (or dies).
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
                    detail: format!("unexpected message {} mid-session", msg_name(&other)),
                })
            }
        }
    }
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
        WireMsg::Step { .. } => "Step",
        WireMsg::StepDone { .. } => "StepDone",
        WireMsg::WorkerError { .. } => "WorkerError",
        WireMsg::Shutdown => "Shutdown",
    }
}

/// How the worker's stdio is wired to the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Anonymous stdin/stdout pipes.
    Stdio,
    /// A Unix-domain socket pair installed as the child's stdin and stdout
    /// (one bidirectional descriptor instead of two pipes). Falls back to
    /// [`ChannelKind::Stdio`] on non-Unix targets.
    UnixSocket,
}

/// How the supervisor obtains a connected worker.
#[derive(Debug, Clone)]
pub enum WorkerLauncher {
    /// An in-process thread running [`run_worker`] over the in-memory
    /// duplex pipe. Same byte protocol, same codec path; only the carrier
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
    /// Stable name of the carrier, for telemetry (`loopback`, `stdio`,
    /// `unix-socket`).
    pub fn kind(&self) -> &'static str {
        match self {
            WorkerLauncher::Loopback => "loopback",
            WorkerLauncher::Command {
                channel: ChannelKind::Stdio,
                ..
            } => "stdio",
            WorkerLauncher::Command {
                channel: ChannelKind::UnixSocket,
                ..
            } => "unix-socket",
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
                })
            }
            WorkerLauncher::Command { argv, channel } => {
                let (program, args) = argv
                    .split_first()
                    .ok_or_else(|| TransportError::Io("empty worker argv".into()))?;
                match channel {
                    ChannelKind::Stdio => spawn_stdio(program, args),
                    ChannelKind::UnixSocket => spawn_unix_socket(program, args),
                }
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
    })
}

#[cfg(unix)]
fn spawn_unix_socket(program: &str, args: &[String]) -> Result<WorkerHandle, TransportError> {
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;
    let (parent_end, child_end) = UnixStream::pair()
        .map_err(|e| TransportError::Io(format!("socketpair: {e}")))?;
    let child_in: OwnedFd = child_end
        .try_clone()
        .map_err(|e| TransportError::Io(format!("clone socket: {e}")))?
        .into();
    let child_out: OwnedFd = child_end.into();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::from(child_in))
        .stdout(Stdio::from(child_out))
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| TransportError::Io(format!("spawn {program}: {e}")))?;
    let reader = parent_end
        .try_clone()
        .map_err(|e| TransportError::Io(format!("clone socket: {e}")))?;
    Ok(WorkerHandle {
        transport: Some(Box::new(StreamTransport::new(reader, parent_end))),
        child: Some(child),
        thread: None,
    })
}

#[cfg(not(unix))]
fn spawn_unix_socket(program: &str, args: &[String]) -> Result<WorkerHandle, TransportError> {
    spawn_stdio(program, args)
}

/// One live worker connection. Dropping it severs the transport (a child
/// sees EOF and exits; a stuck child is killed) and reaps the process.
struct WorkerHandle {
    transport: Option<Box<dyn FrameTransport>>,
    child: Option<Child>,
    thread: Option<std::thread::JoinHandle<()>>,
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

/// Why a connect attempt failed.
enum ConnectError {
    /// The worker answered the handshake with the wrong spec digest.
    DigestRejected,
    /// Spawn, transport or protocol failure.
    Failed,
}

/// The framed [`IslandExecutor`]: each worker slot owns one connection to a
/// worker (a child process or a loopback thread), kept across rounds of a
/// GP run and re-established after a failed attempt. Every step ships the
/// island's committed state in a `Step` frame and validates the `StepDone`
/// reply before trusting it. Retry, freeze and heartbeat policy belong to
/// the [`super::island::IslandCoordinator`] driving it.
pub struct Framed {
    spec: WorkerSpec,
    spec_digest: u64,
    launcher: WorkerLauncher,
    /// One connection per worker slot; a slot is only touched by the thread
    /// stepping it, so the locks are uncontended.
    slots: Vec<Mutex<Option<WorkerHandle>>>,
    telemetry: Telemetry,
}

impl Framed {
    /// An executor with `workers` slots, each connecting workers built
    /// from `spec` via `launcher` on first use.
    pub fn new(spec: WorkerSpec, launcher: WorkerLauncher, workers: usize, telemetry: &Telemetry) -> Self {
        Framed {
            spec_digest: spec.digest(),
            spec,
            launcher,
            slots: (0..workers.max(1)).map(|_| Mutex::new(None)).collect(),
            telemetry: telemetry.clone(),
        }
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
        let hello = encode_msg(&WireMsg::Hello {
            spec: self.spec.clone(),
        })
        .map_err(|_| ConnectError::Failed)?;
        let t = handle.transport();
        t.send(&hello).map_err(|_| ConnectError::Failed)?;
        let reply = t.recv().map_err(|_| ConnectError::Failed)?;
        match decode_msg(&reply) {
            Ok(WireMsg::HelloAck { spec_digest }) if spec_digest == self.spec_digest => Ok(handle),
            Ok(WireMsg::HelloAck { .. }) => Err(ConnectError::DigestRejected),
            _ => Err(ConnectError::Failed),
        }
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

    /// Shuts every worker down gracefully: `Shutdown` message, EOF, reap.
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
        let mut guard = self.slot(slot);
        if guard.is_none() {
            if faults.slow_handshake_ms > 0 {
                std::thread::sleep(Duration::from_millis(faults.slow_handshake_ms));
            }
            match self.connect() {
                Ok(handle) => *guard = Some(handle),
                Err(ConnectError::DigestRejected) => {
                    self.telemetry.counter_add("worker.digest_rejections", 1);
                    return Attempt::Failed;
                }
                Err(ConnectError::Failed) => return Attempt::Failed,
            }
        }
        match step_one(guard.as_mut().expect("connected above"), island, faults.send) {
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
    use crate::ir::IrNode;

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
        WorkerSpec::new(
            config,
            EvalEngine::default(),
            search.grammar(),
            &examples,
            Vec::new(),
        )
    }

    #[test]
    fn wire_messages_roundtrip() {
        let spec = tiny_spec();
        let msgs = vec![
            WireMsg::Hello { spec: spec.clone() },
            WireMsg::HelloAck {
                spec_digest: spec.digest(),
            },
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
        assert_eq!(a.digest(), b.digest());
        b.base_features.push("count(//*)".into());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn worker_rejects_protocol_skew_with_typed_error() {
        let (mut sup, mut wrk) = duplex();
        let mut spec = tiny_spec();
        spec.protocol = PROTOCOL_VERSION + 1;
        let worker = std::thread::spawn(move || run_worker(&mut wrk));
        sup.send(&encode_msg(&WireMsg::Hello { spec }).unwrap())
            .unwrap();
        // The worker sends a courtesy WorkerError before dying typed.
        let reply = decode_msg(&sup.recv().unwrap()).unwrap();
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
        let spec = tiny_spec();
        let digest = spec.digest();
        let worker = std::thread::spawn(move || run_worker(&mut wrk));
        sup.send(&encode_msg(&WireMsg::Hello { spec }).unwrap())
            .unwrap();
        match decode_msg(&sup.recv().unwrap()).unwrap() {
            WireMsg::HelloAck { spec_digest } => assert_eq!(spec_digest, digest),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        drop(sup);
        assert_eq!(worker.join().unwrap(), Ok(()));
    }
}
