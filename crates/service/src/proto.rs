//! The length-prefixed wire protocol.
//!
//! Every message is one **frame**: a `u32` little-endian payload length
//! followed by that many payload bytes. Payloads reuse the
//! [`prophet-store`](prophet_store) codec — the same total decoder that
//! protects the on-disk artifacts protects the socket: malformed input
//! decodes to a typed error, never a panic, and a length prefix is
//! validated against [`ServeLimits`](crate::server::ServeConfig)-style
//! caps before any allocation.
//!
//! A request payload is `version (u16) ‖ opcode (u8) ‖ body`; a response
//! payload is `version (u16) ‖ tag (u8) ‖ body`. Workload identity rides
//! the full [`StoreKey`] (workload spec string, config digest, warm-up,
//! measure) so the daemon addresses exactly the artifacts the offline
//! `prophet_cli profile → optimize` pipeline would.

use prophet::ProfileCounters;
use prophet_store::{decode_counters, encode_counters, DecodeError, Decoder, Encoder, StoreKey};
use std::fmt;
use std::io::{self, Read, Write};

/// Version byte of the wire format; requests from any other version are
/// answered with [`ErrorCode::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u16 = 1;

/// Default cap on a single frame's payload. Profile counter sets are a
/// few KiB (the paper's few-bytes-not-gigabytes point), so 16 MiB is
/// generous headroom while still refusing absurd lengths before
/// allocating.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

const OP_SUBMIT: u8 = 1;
const OP_FETCH: u8 = 2;
const OP_METRICS: u8 = 4;
const OP_PING: u8 = 5;

const RESP_SUBMITTED: u8 = 1;
const RESP_HINTS: u8 = 2;
const RESP_METRICS: u8 = 4;
const RESP_PONG: u8 = 5;
const RESP_ERROR: u8 = 255;

/// A client-to-daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one profiling run's counters for `key`'s workload.
    Submit {
        key: StoreKey,
        counters: ProfileCounters,
    },
    /// Fetch the analyzed hint-set artifact for `key`.
    Fetch { key: StoreKey },
    /// Fetch the plaintext metrics snapshot.
    Metrics,
    /// Liveness probe.
    Ping,
}

/// Acknowledgement of a [`Request::Submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitAck {
    /// The key's profile generation after this submission (= number of
    /// distinct submissions merged so far).
    pub generation: u64,
    /// Total distinct submissions held for the key.
    pub submissions: u64,
    /// Whether this submission was new content (`false` = byte-identical
    /// duplicate of an earlier submission; deduplicated, generation
    /// unchanged).
    pub fresh: bool,
}

/// A daemon-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Submission accepted (or deduplicated).
    Submitted(SubmitAck),
    /// The hint-set artifact, verbatim `encode_hints` bytes — the same
    /// bytes `prophet_cli optimize` would write to a file.
    Hints { bytes: Vec<u8> },
    /// Plaintext metrics snapshot.
    MetricsText(String),
    /// Liveness answer.
    Pong,
    /// Typed failure; the connection stays usable unless the error was a
    /// framing-level one ([`ErrorCode::Oversized`]).
    Error {
        code: ErrorCode,
        /// Human-readable context (never parsed by clients).
        detail: String,
    },
}

/// Why the daemon rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload did not decode as a request.
    MalformedRequest = 1,
    /// The frame's length prefix exceeded the daemon's cap; the daemon
    /// cannot resynchronize, so it closes the connection after answering.
    Oversized = 2,
    /// No profile is known (in memory or in the store) for the key.
    UnknownWorkload = 3,
    /// The artifact store is not reachable (e.g. its directory vanished).
    StoreUnavailable = 4,
    /// The request used a wire-protocol version this daemon does not speak.
    UnsupportedVersion = 5,
    /// Unexpected daemon-side failure (e.g. a corrupt artifact).
    Internal = 6,
}

impl ErrorCode {
    /// Stable snake_case label (used in metrics lines).
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownWorkload => "unknown_workload",
            ErrorCode::StoreUnavailable => "store_unavailable",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::Internal => "internal",
        }
    }

    /// Every code, in tag order (metrics render one line per code).
    pub const ALL: [ErrorCode; 6] = [
        ErrorCode::MalformedRequest,
        ErrorCode::Oversized,
        ErrorCode::UnknownWorkload,
        ErrorCode::StoreUnavailable,
        ErrorCode::UnsupportedVersion,
        ErrorCode::Internal,
    ];

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Ok(match v {
            1 => ErrorCode::MalformedRequest,
            2 => ErrorCode::Oversized,
            3 => ErrorCode::UnknownWorkload,
            4 => ErrorCode::StoreUnavailable,
            5 => ErrorCode::UnsupportedVersion,
            6 => ErrorCode::Internal,
            _ => return Err(DecodeError::Corrupt("unknown error code")),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why an incoming request payload was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request named a wire-protocol version this build cannot speak.
    UnsupportedVersion { found: u16 },
    /// The payload did not decode.
    Malformed(DecodeError),
}

impl RequestError {
    /// The protocol error code this rejection maps to.
    pub fn code(&self) -> ErrorCode {
        match self {
            RequestError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
            RequestError::Malformed(_) => ErrorCode::MalformedRequest,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::UnsupportedVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            RequestError::Malformed(e) => write!(f, "malformed request: {e}"),
        }
    }
}

/// Anything that can go wrong reading a frame off a socket.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (including a frame torn mid-payload).
    Io(io::Error),
    /// The length prefix exceeded the reader's cap; refused before
    /// allocation, and the stream cannot be resynchronized.
    Oversized { len: usize, max: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} byte(s) exceeds cap of {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Framing

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. `Ok(None)` on a clean end-of-stream at a
/// frame boundary; an end-of-stream inside a frame is an
/// [`FrameError::Io`] with `UnexpectedEof`. A length prefix beyond
/// `max_frame` is refused *before* any allocation.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload codec

fn enc_key(e: &mut Encoder, key: &StoreKey) {
    e.str(&key.workload);
    e.u64(key.config);
    e.u64(key.warmup);
    e.u64(key.measure);
}

fn dec_key(d: &mut Decoder<'_>) -> Result<StoreKey, DecodeError> {
    Ok(StoreKey {
        workload: d.str()?,
        config: d.u64()?,
        warmup: d.u64()?,
        measure: d.u64()?,
    })
}

/// Encodes a request payload (framing not included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u16(PROTOCOL_VERSION);
    match req {
        Request::Submit { key, counters } => {
            e.u8(OP_SUBMIT);
            enc_key(&mut e, key);
            let bytes = encode_counters(counters);
            e.len_prefix(bytes.len());
            e.bytes(&bytes);
        }
        Request::Fetch { key } => {
            e.u8(OP_FETCH);
            enc_key(&mut e, key);
        }
        Request::Metrics => e.u8(OP_METRICS),
        Request::Ping => e.u8(OP_PING),
    }
    e.finish()
}

/// Decodes a request payload; total — every malformed payload is a typed
/// [`RequestError`].
pub fn decode_request(payload: &[u8]) -> Result<Request, RequestError> {
    let mut d = Decoder::new(payload);
    let inner = |d: &mut Decoder<'_>| -> Result<Request, DecodeError> {
        let req = match d.u8()? {
            OP_SUBMIT => {
                let key = dec_key(d)?;
                let n = d.len_prefix(1)?;
                let counters = decode_counters(d.bytes(n)?)?;
                Request::Submit { key, counters }
            }
            OP_FETCH => Request::Fetch { key: dec_key(d)? },
            OP_METRICS => Request::Metrics,
            OP_PING => Request::Ping,
            _ => return Err(DecodeError::Corrupt("unknown request opcode")),
        };
        d.expect_end()?;
        Ok(req)
    };
    let version = d.u16().map_err(RequestError::Malformed)?;
    if version != PROTOCOL_VERSION {
        return Err(RequestError::UnsupportedVersion { found: version });
    }
    inner(&mut d).map_err(RequestError::Malformed)
}

/// Encodes a response payload (framing not included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u16(PROTOCOL_VERSION);
    match resp {
        Response::Submitted(ack) => {
            e.u8(RESP_SUBMITTED);
            e.u64(ack.generation);
            e.u64(ack.submissions);
            e.bool(ack.fresh);
        }
        Response::Hints { bytes } => {
            e.u8(RESP_HINTS);
            e.len_prefix(bytes.len());
            e.bytes(bytes);
        }
        Response::MetricsText(text) => {
            e.u8(RESP_METRICS);
            e.str(text);
        }
        Response::Pong => e.u8(RESP_PONG),
        Response::Error { code, detail } => {
            e.u8(RESP_ERROR);
            e.u8(*code as u8);
            e.str(detail);
        }
    }
    e.finish()
}

/// Decodes a response payload; total.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut d = Decoder::new(payload);
    let version = d.u16()?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    let resp = match d.u8()? {
        RESP_SUBMITTED => Response::Submitted(SubmitAck {
            generation: d.u64()?,
            submissions: d.u64()?,
            fresh: d.bool()?,
        }),
        RESP_HINTS => {
            let n = d.len_prefix(1)?;
            Response::Hints {
                bytes: d.bytes(n)?.to_vec(),
            }
        }
        RESP_METRICS => Response::MetricsText(d.str()?),
        RESP_PONG => Response::Pong,
        RESP_ERROR => Response::Error {
            code: ErrorCode::from_u8(d.u8()?)?,
            detail: d.str()?,
        },
        _ => return Err(DecodeError::Corrupt("unknown response tag")),
    };
    d.expect_end()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet::PcProfile;

    fn key() -> StoreKey {
        StoreKey {
            workload: "mcf@4000+l1=stride".into(),
            config: 0xDEAD_BEEF,
            warmup: 2_000,
            measure: 2_000,
        }
    }

    fn counters() -> ProfileCounters {
        let mut c = ProfileCounters::default();
        c.per_pc.insert(
            0x400100,
            PcProfile {
                accuracy: 0.75,
                issued: 120.0,
                l2_misses: 40.0,
            },
        );
        c.insertions = 64.0;
        c.replacements = 8.0;
        c
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                key: key(),
                counters: counters(),
            },
            Request::Fetch { key: key() },
            Request::Metrics,
            Request::Ping,
        ];
        for req in reqs {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Submitted(SubmitAck {
                generation: 3,
                submissions: 3,
                fresh: true,
            }),
            Response::Hints {
                bytes: vec![1, 2, 3, 4],
            },
            Response::MetricsText("prophet_service_in_flight 1\n".into()),
            Response::Pong,
            Response::Error {
                code: ErrorCode::UnknownWorkload,
                detail: "no profile for key".into(),
            },
        ];
        for resp in resps {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn request_truncations_are_typed_errors() {
        let bytes = encode_request(&Request::Submit {
            key: key(),
            counters: counters(),
        });
        for cut in 0..bytes.len() {
            match decode_request(&bytes[..cut]) {
                Err(RequestError::Malformed(_)) => {}
                // Cutting inside the version prefix can only truncate.
                Err(RequestError::UnsupportedVersion { .. }) if cut < 2 => {
                    panic!("version read from a truncated prefix")
                }
                other => panic!("cut at {cut} produced {other:?}"),
            }
        }
        // Opcode 3 is unassigned: it is unknown with or without a key body
        // after it.
        let mut unassigned = encode_request(&Request::Fetch { key: key() });
        unassigned[2] = 3;
        for bytes in [&unassigned[..], &unassigned[..3]] {
            assert_eq!(
                decode_request(bytes),
                Err(RequestError::Malformed(DecodeError::Corrupt(
                    "unknown request opcode"
                )))
            );
        }
    }

    #[test]
    fn foreign_version_is_rejected_with_its_number() {
        let mut bytes = encode_request(&Request::Ping);
        bytes[0] = 0x2A;
        bytes[1] = 0x00;
        assert_eq!(
            decode_request(&bytes),
            Err(RequestError::UnsupportedVersion { found: 0x2A })
        );
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(matches!(
            decode_request(&bytes),
            Err(RequestError::Malformed(DecodeError::TrailingBytes { .. }))
        ));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = encode_request(&Request::Fetch { key: key() });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Some(payload.clone())
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Some(payload)
        );
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), None);
    }

    #[test]
    fn oversized_length_is_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = wire.as_slice();
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Oversized { max: 1024, .. })
        ));
    }

    #[test]
    fn torn_frame_is_unexpected_eof_not_a_hang_or_panic() {
        let payload = encode_request(&Request::Ping);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            match read_frame(&mut r, DEFAULT_MAX_FRAME) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
                }
                other => panic!("cut at {cut} produced {other:?}"),
            }
        }
    }
}
