//! The daemon: a `TcpListener` fed into a fixed worker-thread pool.
//!
//! Std-only by construction (the build environment is offline): accepted
//! connections go down an `mpsc` channel to `threads` workers, each of
//! which owns one connection at a time and answers frames in
//! request-response lockstep. The pool size therefore bounds concurrent
//! *connections*, not requests — size it at least as large as the client
//! fleet when connections are long-lived (the load generator does).
//!
//! Error containment: a malformed payload is answered with a typed error
//! and the connection keeps going; an oversized frame is answered and the
//! connection dropped (the stream cannot be resynchronized); transport
//! errors just end the connection. Nothing a client sends can panic the
//! daemon — the concurrency and error-path suites pin this.

use crate::metrics::Op;
use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, ErrorCode, FrameError, Request,
    Response, DEFAULT_MAX_FRAME,
};
use crate::state::ServiceState;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Instant;

/// How a daemon listens.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7071` (`:0` = ephemeral port).
    pub addr: String,
    /// Worker-pool size = max concurrently served connections.
    pub threads: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 8,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// A bound (but not yet running) daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    cfg: ServeConfig,
    stop: Arc<AtomicBool>,
}

/// A shutdown handle, detachable from the [`Server`] before
/// [`Server::run`] consumes it.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to exit. Idempotent; the nudge connection
    /// unblocks a pending `accept`. Connections still being served are
    /// force-closed at the socket level, so [`Server::run`] returns even
    /// while idle clients hold their connections open.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds `cfg.addr` over `state`.
    pub fn bind(cfg: ServeConfig, state: ServiceState) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            state: Arc::new(state),
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (e.g. to scrape metrics in-process).
    pub fn state(&self) -> Arc<ServiceState> {
        self.state.clone()
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            stop: self.stop.clone(),
            addr: self.local_addr()?,
        })
    }

    /// Serves until [`ServerHandle::shutdown`]. Consumes the server;
    /// returns once the accept loop has exited and all workers drained.
    /// Shutdown force-closes connections still being served — a worker
    /// blocked in a read on an idle client must not wedge the drain.
    pub fn run(self) -> io::Result<()> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let active: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let next_token = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.threads.max(1) {
                let rx = rx.clone();
                let state = self.state.clone();
                let active = active.clone();
                let next_token = next_token.clone();
                let stop = self.stop.clone();
                let max_frame = self.cfg.max_frame;
                scope.spawn(move || loop {
                    // Fairness: exactly one worker blocks on the channel
                    // at a time; the rest queue on the mutex.
                    let Ok(stream) = rx.lock().unwrap_or_else(PoisonError::into_inner).recv()
                    else {
                        return; // all senders gone: shutting down
                    };
                    // Register a clone so shutdown can force-close a
                    // connection this worker is blocked reading.
                    let token = next_token.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        active
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(token, clone);
                    }
                    if stop.load(Ordering::SeqCst) {
                        // Shutdown raced the hand-off: this stream was
                        // queued before the stop but registered after the
                        // force-close sweep may have run. Close it here;
                        // the sweep and this check cover both orders.
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    handle_connection(&state, stream, max_frame);
                    active
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&token);
                });
            }
            for stream in self.listener.incoming() {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(s) => {
                        self.state.metrics().connection_opened();
                        if tx.send(s).is_err() {
                            break;
                        }
                    }
                    // A failed accept (e.g. the peer reset before we got
                    // to it) is the peer's problem, not the daemon's.
                    Err(_) => continue,
                }
            }
            drop(tx);
            // Force-close in-flight connections: without this, a worker
            // blocked in `read_frame` on an idle client would keep the
            // scope (and `run`) from returning until that client hung up.
            for stream in active
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
            {
                let _ = stream.shutdown(Shutdown::Both);
            }
        });
        Ok(())
    }
}

/// Serves one connection to completion. Never panics on peer input.
fn handle_connection(state: &ServiceState, mut stream: TcpStream, max_frame: usize) {
    let _ = stream.set_nodelay(true);
    loop {
        match read_frame(&mut stream, max_frame) {
            Ok(None) => break, // clean close at a frame boundary
            Ok(Some(payload)) => {
                let response = match decode_request(&payload) {
                    Ok(request) => dispatch(state, request),
                    Err(e) => {
                        let code = e.code();
                        state.metrics().record_error(code);
                        Response::Error {
                            code,
                            detail: e.to_string(),
                        }
                    }
                };
                if write_frame(&mut stream, &encode_response(&response)).is_err() {
                    break;
                }
            }
            Err(FrameError::Oversized { len, max }) => {
                // The oversized payload was never read, so the stream
                // position is undefined: answer, then drop the connection.
                state.metrics().record_error(ErrorCode::Oversized);
                let response = Response::Error {
                    code: ErrorCode::Oversized,
                    detail: format!("frame of {len} byte(s) exceeds cap of {max}"),
                };
                let _ = write_frame(&mut stream, &encode_response(&response));
                break;
            }
            Err(FrameError::Io(_)) => break, // torn frame or dead peer
        }
    }
    state.metrics().connection_closed();
}

/// Executes one request against the state, mapping failures to typed
/// error responses and recording per-operation latency.
fn dispatch(state: &ServiceState, request: Request) -> Response {
    let op = Op::of(&request);
    let started = Instant::now();
    let response = match request {
        Request::Submit { key, counters } => match state.submit(&key, counters) {
            Ok(ack) => Response::Submitted(ack),
            Err(e) => error_response(state, e),
        },
        Request::Fetch { key } => match state.fetch(&key) {
            Ok(bytes) => Response::Hints { bytes },
            Err(e) => error_response(state, e),
        },
        Request::Metrics => Response::MetricsText(state.render_metrics()),
        Request::Ping => Response::Pong,
    };
    state.metrics().record_request(op, started.elapsed());
    response
}

fn error_response(state: &ServiceState, e: crate::state::ServiceError) -> Response {
    let code = e.code();
    state.metrics().record_error(code);
    Response::Error {
        code,
        detail: e.to_string(),
    }
}
