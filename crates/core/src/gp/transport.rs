//! Length-prefixed, digest-sealed frame transport for process-level
//! island workers.
//!
//! The supervisor and its workers exchange **frames**: a fixed 28-byte
//! header followed by an opaque payload (in practice a JSON-encoded
//! [`super::worker_proc::WireMsg`] carrying checkpoint-format
//! [`super::island::IslandSnapshot`] fragments). Nothing off the wire is
//! trusted: every frame is validated for magic, protocol version, length
//! bounds and payload digest before a single payload byte is interpreted,
//! and every violation surfaces as a typed [`TransportError`] — never a
//! panic, never a partial read silently adopted.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"FGN1"
//!      4     4  version      PROTOCOL_VERSION
//!      8     8  seq          per-connection sequence number
//!     16     4  payload_len  bounds-checked against MAX_FRAME_LEN
//!     20     8  digest       stable_hash (FNV-1a) of the payload
//!     28     …  payload
//! ```
//!
//! The sequence number gives the receiver a one-frame dedup window: a
//! frame repeating the previous sequence number is dropped without being
//! delivered, which is what makes an injected
//! [`crate::faults::FaultKind::DuplicateFrame`] *provably* neutral.
//!
//! A frame-level error is fatal to its connection. There is no resync
//! protocol: the reader cannot know where the next header starts after a
//! torn or corrupted frame, so both sides treat the stream as dead — the
//! worker exits with a typed error, the supervisor discards the attempt
//! and respawns from the last committed round. Crash-only, like the rest
//! of the runtime.
//!
//! Two transports implement the same trait: [`StreamTransport`] over any
//! `Read`/`Write` pair (child-process stdio pipes, Unix-domain sockets)
//! and the same type over the OS pipes of [`duplex`] for loopback
//! workers — loopback still encodes and decodes every frame, so the two
//! modes execute the identical codec path.

use crate::faults::stable_hash;
use std::fmt;
use std::io::{PipeReader, PipeWriter, Read, Write};

/// First four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"FGN1";
/// Wire protocol version; bumped on any incompatible frame or message
/// change. Checked on every frame *and* in the handshake.
pub const PROTOCOL_VERSION: u32 = 1;
/// Hard upper bound on a payload; anything larger is rejected before
/// allocation (a hostile or corrupt length field cannot OOM the reader).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;
/// Size of the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 28;

/// Typed frame/connection failures. Every decoding error names what was
/// violated; none of them can panic the peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The underlying channel failed (OS error text preserved).
    Io(String),
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The stream ended inside a header or payload (torn frame).
    TornFrame {
        /// Bytes the reader needed.
        expected: usize,
        /// Bytes it got before the stream ended.
        got: usize,
    },
    /// The header does not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The frame was produced by an incompatible protocol version.
    VersionSkew {
        /// Version in the frame.
        found: u32,
        /// Version this build speaks.
        expected: u32,
    },
    /// The length field exceeds [`MAX_FRAME_LEN`].
    OverLength {
        /// Claimed payload length.
        len: u32,
        /// The bound it violates.
        max: u32,
    },
    /// The payload does not hash to the digest in the header (bit flip,
    /// truncated write, tampering).
    DigestMismatch {
        /// Digest the header promised.
        expected: u64,
        /// Digest of the bytes actually received.
        found: u64,
    },
    /// The payload decoded as bytes but not as a valid protocol message.
    Malformed(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(detail) => write!(f, "transport i/o error: {detail}"),
            TransportError::Closed => write!(f, "transport closed by peer"),
            TransportError::TornFrame { expected, got } => {
                write!(f, "torn frame: needed {expected} byte(s), got {got}")
            }
            TransportError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?}")
            }
            TransportError::VersionSkew { found, expected } => write!(
                f,
                "protocol version skew: peer speaks v{found}, this build v{expected}"
            ),
            TransportError::OverLength { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte bound")
            }
            TransportError::DigestMismatch { expected, found } => write!(
                f,
                "frame digest mismatch: header promised {expected:016x}, payload hashes to {found:016x}"
            ),
            TransportError::Malformed(detail) => {
                write!(f, "malformed protocol message: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Encodes one frame. Fails (typed, no panic) only when the payload
/// exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(seq: u64, payload: &[u8]) -> Result<Vec<u8>, TransportError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(TransportError::OverLength {
            len: payload.len().min(u32::MAX as usize) as u32,
            max: MAX_FRAME_LEN,
        });
    }
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&stable_hash(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Decodes one frame from an in-memory buffer, applying every validation
/// a streaming reader applies (magic, version, bounds, digest, torn
/// tail). Returns `(seq, payload)`.
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, Vec<u8>), TransportError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(TransportError::TornFrame {
            expected: FRAME_HEADER_LEN,
            got: bytes.len(),
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if magic != FRAME_MAGIC {
        return Err(TransportError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version != PROTOCOL_VERSION {
        return Err(TransportError::VersionSkew {
            found: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let len = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte slice"));
    if len > MAX_FRAME_LEN {
        return Err(TransportError::OverLength {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let expected = u64::from_le_bytes(bytes[20..28].try_into().expect("8-byte slice"));
    let want = FRAME_HEADER_LEN + len as usize;
    if bytes.len() < want {
        return Err(TransportError::TornFrame {
            expected: want,
            got: bytes.len(),
        });
    }
    let payload = &bytes[FRAME_HEADER_LEN..want];
    let found = stable_hash(payload);
    if found != expected {
        return Err(TransportError::DigestMismatch { expected, found });
    }
    Ok((seq, payload.to_vec()))
}

/// How an injected fault wants the next send to misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SendFault {
    /// Send the frame normally.
    #[default]
    Clean,
    /// Send the frame twice with the same sequence number; the receiver's
    /// dedup window drops the replay.
    Duplicate,
    /// Send only the first half of the frame's bytes, then poison the
    /// connection — the deterministic stand-in for a torn write / dropped
    /// connection mid-frame.
    Torn,
}

/// Per-connection frame counters, for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames fully sent.
    pub frames_tx: u64,
    /// Frames fully received and delivered.
    pub frames_rx: u64,
    /// Duplicate frames dropped by the dedup window.
    pub duplicates_dropped: u64,
}

/// A bidirectional frame channel. One instance serves exactly one
/// supervisor↔worker connection; any error poisons it.
pub trait FrameTransport: Send {
    /// Sends one payload as a frame, optionally misbehaving as `fault`
    /// dictates. [`SendFault::Torn`] reports success (the torn bytes *were*
    /// written) but poisons the connection.
    fn send_with(&mut self, payload: &[u8], fault: SendFault) -> Result<(), TransportError>;

    /// Receives the next frame's payload, transparently dropping
    /// duplicated sequence numbers.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Frame counters so far.
    fn stats(&self) -> TransportStats;

    /// Sends one payload as a well-formed frame.
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_with(payload, SendFault::Clean)
    }
}

/// [`FrameTransport`] over any blocking byte stream pair: child-process
/// stdio pipes, a Unix-domain socket, or the OS pipes of [`duplex`].
pub struct StreamTransport<R: Read, W: Write> {
    reader: R,
    writer: W,
    next_seq: u64,
    last_recv_seq: Option<u64>,
    poisoned: bool,
    stats: TransportStats,
}

impl<R: Read, W: Write> StreamTransport<R, W> {
    /// A transport over the given stream halves.
    pub fn new(reader: R, writer: W) -> Self {
        StreamTransport {
            reader,
            writer,
            next_seq: 0,
            last_recv_seq: None,
            poisoned: false,
            stats: TransportStats::default(),
        }
    }

    fn read_exact_or_torn(&mut self, buf: &mut [u8], clean_eof: bool) -> Result<(), TransportError> {
        let mut got = 0usize;
        while got < buf.len() {
            match self.reader.read(&mut buf[got..]) {
                Ok(0) => {
                    return if got == 0 && clean_eof {
                        Err(TransportError::Closed)
                    } else {
                        Err(TransportError::TornFrame {
                            expected: buf.len(),
                            got,
                        })
                    };
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
        Ok(())
    }

    /// Reads one raw frame off the stream (no dedup).
    fn read_frame(&mut self) -> Result<(u64, Vec<u8>), TransportError> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.read_exact_or_torn(&mut header, true)?;
        let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
        if magic != FRAME_MAGIC {
            return Err(TransportError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
        if version != PROTOCOL_VERSION {
            return Err(TransportError::VersionSkew {
                found: version,
                expected: PROTOCOL_VERSION,
            });
        }
        let seq = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
        let len = u32::from_le_bytes(header[16..20].try_into().expect("4-byte slice"));
        if len > MAX_FRAME_LEN {
            return Err(TransportError::OverLength {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let expected = u64::from_le_bytes(header[20..28].try_into().expect("8-byte slice"));
        let mut payload = vec![0u8; len as usize];
        self.read_exact_or_torn(&mut payload, false)?;
        let found = stable_hash(&payload);
        if found != expected {
            return Err(TransportError::DigestMismatch { expected, found });
        }
        Ok((seq, payload))
    }
}

impl<R: Read + Send, W: Write + Send> FrameTransport for StreamTransport<R, W> {
    fn send_with(&mut self, payload: &[u8], fault: SendFault) -> Result<(), TransportError> {
        if self.poisoned {
            return Err(TransportError::Closed);
        }
        let bytes = encode_frame(self.next_seq, payload)?;
        self.next_seq += 1;
        let write = |w: &mut W, bytes: &[u8]| -> Result<(), TransportError> {
            w.write_all(bytes)
                .and_then(|()| w.flush())
                .map_err(|e| TransportError::Io(e.to_string()))
        };
        match fault {
            SendFault::Clean => {
                write(&mut self.writer, &bytes)?;
                self.stats.frames_tx += 1;
            }
            SendFault::Duplicate => {
                write(&mut self.writer, &bytes)?;
                write(&mut self.writer, &bytes)?;
                self.stats.frames_tx += 2;
            }
            SendFault::Torn => {
                // Half the frame, then never the rest: the peer's reader
                // fails typed (TornFrame or DigestMismatch), and this side
                // refuses further traffic on the dead stream.
                let half = bytes.len() / 2;
                write(&mut self.writer, &bytes[..half])?;
                self.poisoned = true;
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        if self.poisoned {
            return Err(TransportError::Closed);
        }
        loop {
            let (seq, payload) = match self.read_frame() {
                Ok(frame) => frame,
                Err(e) => {
                    self.poisoned = !matches!(e, TransportError::Closed);
                    return Err(e);
                }
            };
            if self.last_recv_seq == Some(seq) {
                self.stats.duplicates_dropped += 1;
                continue;
            }
            self.last_recv_seq = Some(seq);
            self.stats.frames_rx += 1;
            return Ok(payload);
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// The loopback transport pair: two OS pipes crossed, so each side gets a
/// `(reader, writer)` that speaks to the other. Loopback workers run the
/// byte-level codec end to end — the only difference from a process worker
/// is that both ends live in one process. A pipe holds a bounded number of
/// bytes (64 KiB on Linux), so a large send blocks until the peer reads:
/// each end must be driven by its own thread.
pub type LoopbackTransport = StreamTransport<PipeReader, PipeWriter>;

/// Creates a connected `(supervisor_side, worker_side)` loopback pair.
///
/// # Panics
///
/// Panics when the operating system cannot create a pipe (the process is
/// out of file descriptors).
pub fn duplex() -> (LoopbackTransport, LoopbackTransport) {
    let (sup_r, wrk_w) = std::io::pipe().expect("creating a loopback pipe");
    let (wrk_r, sup_w) = std::io::pipe().expect("creating a loopback pipe");
    (
        StreamTransport::new(sup_r, sup_w),
        StreamTransport::new(wrk_r, wrk_w),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_loopback() {
        let (mut sup, mut wrk) = duplex();
        sup.send(b"hello").unwrap();
        sup.send(b"").unwrap();
        assert_eq!(wrk.recv().unwrap(), b"hello");
        assert_eq!(wrk.recv().unwrap(), b"");
        wrk.send(b"ack").unwrap();
        assert_eq!(sup.recv().unwrap(), b"ack");
        assert_eq!(sup.stats().frames_tx, 2);
        assert_eq!(wrk.stats().frames_rx, 2);
    }

    #[test]
    fn duplicate_frames_are_dropped() {
        let (mut sup, mut wrk) = duplex();
        sup.send_with(b"once", SendFault::Duplicate).unwrap();
        sup.send(b"next").unwrap();
        assert_eq!(wrk.recv().unwrap(), b"once");
        assert_eq!(wrk.recv().unwrap(), b"next");
        assert_eq!(wrk.stats().duplicates_dropped, 1);
    }

    #[test]
    fn torn_send_poisons_both_ends() {
        let (mut sup, mut wrk) = duplex();
        sup.send_with(b"will tear", SendFault::Torn).unwrap();
        drop(sup);
        let err = wrk.recv().unwrap_err();
        assert!(
            matches!(err, TransportError::TornFrame { .. }),
            "torn frame must surface typed, got {err}"
        );
        // The poisoned reader refuses further traffic.
        assert_eq!(wrk.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn clean_close_reports_closed() {
        let (sup, mut wrk) = duplex();
        drop(sup);
        assert_eq!(wrk.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn decode_rejects_corruption_typed() {
        let good = encode_frame(7, b"payload").unwrap();
        assert_eq!(decode_frame(&good).unwrap(), (7, b"payload".to_vec()));

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(TransportError::BadMagic { .. })
        ));

        let mut skewed = good.clone();
        skewed[4] = 99;
        assert!(matches!(
            decode_frame(&skewed),
            Err(TransportError::VersionSkew { found: 99, .. })
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&flipped),
            Err(TransportError::DigestMismatch { .. })
        ));

        assert!(matches!(
            decode_frame(&good[..10]),
            Err(TransportError::TornFrame { .. })
        ));

        let mut oversized = good;
        oversized[16..20].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&oversized),
            Err(TransportError::OverLength { .. })
        ));
    }
}
