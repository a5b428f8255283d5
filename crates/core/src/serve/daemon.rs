//! The connection loop: frames in, decisions out.
//!
//! Reuses the digest-sealed frame codec from [`crate::gp::transport`] —
//! serve clients and GP workers speak the same wire envelope, so a
//! truncated frame, a bad magic, an over-length prefix or a payload
//! digest mismatch are all caught by one codec and one error type.
//!
//! Error containment has two tiers, mirroring `worker_proc`:
//!
//! - a **frame-level** fault (torn frame, digest mismatch, garbage bytes)
//!   poisons that connection — crash-only, the connection dies, the
//!   daemon and every other connection live on;
//! - an **application-level** fault (undecodable JSON, an inadmissible
//!   batch, a failed explicit reload) is answered with a typed
//!   [`ServeResponse::Error`] on the same connection, which keeps serving.
//!
//! After the handshake every payload goes through [`ServeEngine::decode`],
//! which reads a `Predict` straight into admitted arena rows, and an
//! admitted batch through [`ServeEngine::predict`]: one path.

use super::engine::ServeEngine;
use super::wire::{
    decode_request, encode_response, Inbound, ServeRequest, ServeResponse, ERROR_ID_UNDECODABLE,
    SERVE_PROTOCOL,
};
use crate::gp::transport::{FrameTransport, StreamTransport, TransportError};
use std::sync::Arc;

/// Why a serve connection (or the daemon itself) stopped.
#[derive(Debug)]
pub enum ServeError {
    /// The frame layer failed; the connection is poisoned.
    Transport(TransportError),
    /// Socket / listener setup failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Transport(e) => write!(f, "serve transport error: {e}"),
            ServeError::Io(e) => write!(f, "serve io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TransportError> for ServeError {
    fn from(e: TransportError) -> Self {
        ServeError::Transport(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

fn send_response<T: FrameTransport>(
    transport: &mut T,
    response: &ServeResponse,
) -> Result<(), ServeError> {
    // Responses are built from our own types; encoding them cannot fail
    // short of a serializer bug, which we surface as a closed connection.
    let payload = encode_response(response).map_err(|detail| {
        ServeError::Io(std::io::Error::other(format!("encode response: {detail}")))
    })?;
    transport.send(&payload)?;
    Ok(())
}

/// Serves one connection until the peer hangs up ([`TransportError::Closed`]
/// → `Ok`), sends `Shutdown`, or the frame layer fails.
///
/// The first message must be a `Hello` with a matching protocol number;
/// anything else is answered with a typed error and the connection closes.
///
/// # Errors
///
/// [`ServeError::Transport`] when the frame layer fails mid-connection
/// (the daemon treats this as that connection dying, nothing more).
pub fn serve_connection<T: FrameTransport>(
    transport: &mut T,
    engine: &ServeEngine,
) -> Result<(), ServeError> {
    let telemetry = engine.telemetry().clone();
    // Handshake: exactly one Hello, protocol numbers must match. Decoded
    // without admitting anything, so a `Predict` sent first interns nothing.
    let first = match transport.recv() {
        Ok(payload) => payload,
        Err(TransportError::Closed) => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    match decode_request(&first) {
        Ok(ServeRequest::Hello { protocol }) if protocol == SERVE_PROTOCOL => {
            let model = engine.model();
            send_response(
                transport,
                &ServeResponse::HelloAck {
                    protocol: SERVE_PROTOCOL,
                    model_version: model.artifact.version,
                    model_digest: model.digest,
                    n_features: model.features.len(),
                    n_classes: model.artifact.n_classes,
                },
            )?;
        }
        Ok(ServeRequest::Hello { protocol }) => {
            engine.note_error();
            send_response(
                transport,
                &ServeResponse::Error {
                    id: ERROR_ID_UNDECODABLE,
                    detail: format!(
                        "protocol mismatch: client speaks {protocol}, server speaks {SERVE_PROTOCOL}"
                    ),
                },
            )?;
            return Ok(());
        }
        other => {
            engine.note_error();
            let detail = match other {
                Ok(_) => "expected Hello as first message".to_string(),
                Err(e) => format!("undecodable hello: {e}"),
            };
            send_response(
                transport,
                &ServeResponse::Error {
                    id: ERROR_ID_UNDECODABLE,
                    detail,
                },
            )?;
            return Ok(());
        }
    }
    loop {
        let payload = match transport.recv() {
            Ok(payload) => payload,
            Err(TransportError::Closed) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let request = match engine.decode(&payload) {
            Ok(request) => request,
            Err(detail) => {
                engine.note_error();
                send_response(
                    transport,
                    &ServeResponse::Error {
                        id: ERROR_ID_UNDECODABLE,
                        detail,
                    },
                )?;
                continue;
            }
        };
        match request {
            Inbound::Hello { .. } => {
                engine.note_error();
                send_response(
                    transport,
                    &ServeResponse::Error {
                        id: ERROR_ID_UNDECODABLE,
                        detail: "duplicate Hello".to_string(),
                    },
                )?;
            }
            Inbound::Predict { id, loops } => {
                // The span emits a timing event when dropped at match end.
                let _span = telemetry.span("serve_predict");
                match loops.map(|loops| engine.predict(loops)) {
                    Ok(decisions) => {
                        telemetry
                            .event("serve_request")
                            .u64("id", id)
                            .u64("loops", decisions.len() as u64)
                            .bool("rejected", false)
                            .emit();
                        send_response(transport, &ServeResponse::Decisions { id, decisions })?;
                    }
                    Err(e) => {
                        telemetry
                            .event("serve_request")
                            .u64("id", id)
                            .bool("rejected", true)
                            .str("detail", &e.to_string())
                            .emit();
                        engine.note_error();
                        send_response(
                            transport,
                            &ServeResponse::Error {
                                id,
                                detail: e.to_string(),
                            },
                        )?;
                    }
                }
            }
            Inbound::Stats { id } => {
                send_response(
                    transport,
                    &ServeResponse::StatsReport {
                        id,
                        stats: engine.stats(),
                        pool: engine.pool_stats().into(),
                    },
                )?;
            }
            Inbound::Reload { id } => match engine.reload() {
                Ok(reloaded) => {
                    send_response(
                        transport,
                        &ServeResponse::ReloadDone {
                            id,
                            reloaded,
                            model_digest: engine.model().digest,
                        },
                    )?;
                }
                Err(e) => {
                    engine.note_error();
                    send_response(
                        transport,
                        &ServeResponse::Error {
                            id,
                            detail: format!("reload failed (old model stays active): {e}"),
                        },
                    )?;
                }
            },
            Inbound::Shutdown => {
                engine.request_shutdown();
                send_response(transport, &ServeResponse::Bye)?;
                return Ok(());
            }
        }
        engine.record_telemetry();
    }
}

/// Serves a single connection over this process's stdin/stdout (the
/// `fegen serve --stdio` mode; one process per client, like
/// `run_stdio_worker`).
///
/// # Errors
///
/// See [`serve_connection`].
pub fn run_stdio_serve(engine: &ServeEngine) -> Result<(), ServeError> {
    let mut transport = StreamTransport::new(std::io::stdin(), std::io::stdout());
    let result = serve_connection(&mut transport, engine);
    engine.flush_telemetry();
    result
}

/// Binds `socket_path` and serves connections until a client sends
/// `Shutdown`. Each connection gets its own thread over the shared
/// engine; a connection's transport error never takes the daemon down.
/// After `Shutdown` no new connection is accepted, but the daemon waits
/// for the connections still open to close before it removes the socket
/// file and exits.
///
/// # Errors
///
/// [`ServeError::Io`] when binding or accepting fails fatally.
#[cfg(unix)]
pub fn run_unix_serve(
    engine: Arc<ServeEngine>,
    socket_path: &std::path::Path,
) -> Result<(), ServeError> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run blocks bind; remove it.
    if socket_path.exists() {
        std::fs::remove_file(socket_path)?;
    }
    let listener = UnixListener::bind(socket_path)?;
    listener.set_nonblocking(true)?;
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !engine.is_shutdown() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let peer = stream.try_clone()?;
                let engine = Arc::clone(&engine);
                workers.push(std::thread::spawn(move || {
                    let mut transport = StreamTransport::new(stream, peer);
                    // A poisoned connection is that client's problem only.
                    let _ = serve_connection(&mut transport, &engine);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => return Err(e.into()),
        }
        workers.retain(|h| !h.is_finished());
    }
    for handle in workers {
        let _ = handle.join();
    }
    engine.flush_telemetry();
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::transport::duplex;
    use crate::serve::artifact::ModelArtifact;
    use crate::serve::engine::{ServeEngine, ServeOptions};
    use crate::serve::wire::{encode_request, Decision};
    use crate::telemetry::Telemetry;

    fn frame(req: &ServeRequest) -> Vec<u8> {
        encode_request(req).expect("encode request")
    }

    fn test_engine(dir: &std::path::Path) -> ServeEngine {
        let path = dir.join("model.fgm");
        ModelArtifact::tiny_for_tests()
            .save(&path)
            .expect("save test model");
        ServeEngine::new(path, ServeOptions::default(), Telemetry::disabled())
            .expect("engine loads test model")
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fegen-serve-daemon-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn handshake_then_predict_round_trip() {
        let dir = tmp_dir("hs");
        let engine = test_engine(&dir);
        let (mut client, mut server) = duplex();
        let handle = std::thread::spawn(move || {
            let result = serve_connection(&mut server, &engine);
            (result, engine.stats())
        });
        client
            .send(&frame(&ServeRequest::Hello {
                protocol: SERVE_PROTOCOL,
            }))
            .expect("send hello");
        let ack = client.recv().expect("recv ack");
        match super::super::wire::decode_response(&ack).expect("decode ack") {
            ServeResponse::HelloAck { protocol, .. } => assert_eq!(protocol, SERVE_PROTOCOL),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        let ir = crate::ir::IrNode::build("loop", |l| {
            l.attr_num("num-iter", 16.0);
            l.child("insn", |n| {
                n.attr_enum("mode", "SI");
            });
        });
        let loops = vec![super::super::wire::WireNode::from_ir(&ir)];
        client
            .send(&frame(&ServeRequest::Predict { id: 7, loops }))
            .expect("send predict");
        let reply = client.recv().expect("recv decisions");
        match super::super::wire::decode_response(&reply).expect("decode decisions") {
            ServeResponse::Decisions { id, decisions } => {
                assert_eq!(id, 7);
                assert_eq!(decisions.len(), 1);
                let Decision { unroll, .. } = decisions[0];
                assert!(unroll <= 16, "unroll factor out of range: {unroll}");
            }
            other => panic!("expected Decisions, got {other:?}"),
        }
        drop(client);
        let (result, stats) = handle.join().expect("server thread");
        result.expect("clean close");
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_hello_first_message_is_rejected() {
        let dir = tmp_dir("nonhello");
        let engine = test_engine(&dir);
        let (mut client, mut server) = duplex();
        let handle = std::thread::spawn(move || serve_connection(&mut server, &engine));
        client
            .send(&frame(&ServeRequest::Stats { id: 1 }))
            .expect("send stats first");
        let reply = client.recv().expect("recv error");
        match super::super::wire::decode_response(&reply).expect("decode") {
            ServeResponse::Error { id, detail } => {
                assert_eq!(id, ERROR_ID_UNDECODABLE);
                assert!(detail.contains("Hello"), "unexpected detail: {detail}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        drop(client);
        handle.join().expect("server thread").expect("clean close");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_payload_gets_typed_error_and_connection_survives() {
        let dir = tmp_dir("garbage");
        let engine = test_engine(&dir);
        let (mut client, mut server) = duplex();
        let handle = std::thread::spawn(move || serve_connection(&mut server, &engine));
        client
            .send(&frame(&ServeRequest::Hello {
                protocol: SERVE_PROTOCOL,
            }))
            .expect("send hello");
        client.recv().expect("recv ack");
        client.send(b"{not json at all").expect("send garbage");
        let reply = client.recv().expect("recv error");
        match super::super::wire::decode_response(&reply).expect("decode") {
            ServeResponse::Error { id, .. } => assert_eq!(id, ERROR_ID_UNDECODABLE),
            other => panic!("expected Error, got {other:?}"),
        }
        // Connection still serves after the bad message.
        client
            .send(&frame(&ServeRequest::Stats { id: 2 }))
            .expect("send stats");
        let reply = client.recv().expect("recv stats");
        match super::super::wire::decode_response(&reply).expect("decode") {
            ServeResponse::StatsReport { id, stats, .. } => {
                assert_eq!(id, 2);
                assert_eq!(stats.errors, 1);
            }
            other => panic!("expected StatsReport, got {other:?}"),
        }
        drop(client);
        handle.join().expect("server thread").expect("clean close");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_message_flags_engine_and_says_bye() {
        let dir = tmp_dir("bye");
        let engine = Arc::new(test_engine(&dir));
        let server_engine = Arc::clone(&engine);
        let (mut client, mut server) = duplex();
        let handle =
            std::thread::spawn(move || serve_connection(&mut server, &server_engine));
        client
            .send(&frame(&ServeRequest::Hello {
                protocol: SERVE_PROTOCOL,
            }))
            .expect("send hello");
        client.recv().expect("recv ack");
        client
            .send(&frame(&ServeRequest::Shutdown))
            .expect("send shutdown");
        let reply = client.recv().expect("recv bye");
        assert!(matches!(
            super::super::wire::decode_response(&reply).expect("decode"),
            ServeResponse::Bye
        ));
        handle.join().expect("server thread").expect("clean close");
        assert!(engine.is_shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
