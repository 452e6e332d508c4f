//! The client side: one connection, blocking request-response calls.
//!
//! [`ServiceClient`] is what `prophet_cli submit/fetch/metrics` and the
//! load generator are built on. It keeps a single `TcpStream` and speaks
//! one frame out, one frame back; a daemon-side typed error surfaces as
//! [`ClientError::Server`] with the wire [`ErrorCode`] intact.

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, FrameError, Request,
    Response, SubmitAck, DEFAULT_MAX_FRAME,
};
use prophet::ProfileCounters;
use prophet_store::{DecodeError, StoreKey};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (including the daemon closing mid-frame).
    Io(io::Error),
    /// The daemon answered with a frame larger than the client's cap.
    Oversized { len: usize, max: usize },
    /// The daemon's response did not decode.
    Decode(DecodeError),
    /// The daemon answered with a typed protocol error.
    Server { code: ErrorCode, detail: String },
    /// The daemon answered with the wrong response kind for the request.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "service I/O error: {e}"),
            ClientError::Oversized { len, max } => {
                write!(f, "oversized response: {len} byte(s) exceeds cap of {max}")
            }
            ClientError::Decode(e) => write!(f, "undecodable response: {e}"),
            ClientError::Server { code, detail } => write!(f, "service error ({code}): {detail}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Oversized { len, max } => ClientError::Oversized { len, max },
        }
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// A blocking client over one daemon connection.
#[derive(Debug)]
pub struct ServiceClient {
    stream: TcpStream,
    max_frame: usize,
}

impl ServiceClient {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(ServiceClient {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// One round trip: request out, response back.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(request))?;
        let payload = read_frame(&mut self.stream, self.max_frame)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before answering",
            ))
        })?;
        match decode_response(&payload)? {
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            resp => Ok(resp),
        }
    }

    /// Submits one profiling run's counters for `key`'s workload.
    pub fn submit(
        &mut self,
        key: &StoreKey,
        counters: &ProfileCounters,
    ) -> Result<SubmitAck, ClientError> {
        match self.call(&Request::Submit {
            key: key.clone(),
            counters: counters.clone(),
        })? {
            Response::Submitted(ack) => Ok(ack),
            _ => Err(ClientError::Unexpected("expected a submission ack")),
        }
    }

    /// Fetches the hint-set artifact bytes for `key` — the same bytes
    /// `prophet_cli optimize` writes, suitable for `prophet_cli run
    /// --hints` verbatim.
    pub fn fetch_hints_bytes(&mut self, key: &StoreKey) -> Result<Vec<u8>, ClientError> {
        match self.call(&Request::Fetch { key: key.clone() })? {
            Response::Hints { bytes } => Ok(bytes),
            _ => Err(ClientError::Unexpected("expected a hints payload")),
        }
    }

    /// Fetches the plaintext metrics snapshot.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsText(text) => Ok(text),
            _ => Err(ClientError::Unexpected("expected metrics text")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("expected a pong")),
        }
    }
}
