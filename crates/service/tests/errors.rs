//! Error-path suite: nothing a client sends — malformed frames, oversized
//! payloads, unknown keys, or a store directory yanked out from under a
//! request — may panic the daemon. Every failure is a typed protocol
//! error, and the daemon keeps serving afterwards.

use prophet::{PcProfile, ProfileCounters};
use prophet_service::{
    decode_response, encode_request, read_frame, write_frame, ClientError, ErrorCode, Request,
    Response, ServeConfig, Server, ServerHandle, ServiceClient, ServiceState,
};
use prophet_store::StoreKey;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prophet-service-err-{tag}-{}", std::process::id()))
}

fn key(workload: &str) -> StoreKey {
    StoreKey {
        workload: workload.into(),
        config: 0xBAD,
        warmup: 1_000,
        measure: 1_000,
    }
}

fn profile(seed: u64) -> ProfileCounters {
    let mut c = ProfileCounters::default();
    c.per_pc.insert(
        0x100 + seed,
        PcProfile {
            accuracy: 0.5,
            issued: 10.0,
            l2_misses: 5.0,
        },
    );
    c.insertions = seed as f64;
    c
}

/// Daemon with a deliberately small frame cap for the oversize test.
fn start_daemon(dir: &PathBuf, max_frame: usize) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let state = ServiceState::open(dir).unwrap();
    let server = Server::bind(
        ServeConfig {
            threads: 4,
            max_frame,
            ..ServeConfig::default()
        },
        state,
    )
    .unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (handle, join)
}

fn stop_daemon(handle: ServerHandle, join: std::thread::JoinHandle<()>) {
    handle.shutdown();
    join.join().unwrap();
}

/// Sends raw payload bytes as one frame and decodes the response.
fn raw_roundtrip(stream: &mut TcpStream, payload: &[u8]) -> Option<Response> {
    write_frame(stream, payload).unwrap();
    let resp = read_frame(stream, 1 << 20).ok()??;
    Some(decode_response(&resp).unwrap())
}

fn assert_alive(addr: SocketAddr) {
    ServiceClient::connect(addr).unwrap().ping().unwrap();
}

#[test]
fn malformed_payload_is_typed_and_the_connection_survives() {
    let dir = temp_dir("malformed");
    let (handle, join) = start_daemon(&dir, 1 << 20);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // A valid version prefix followed by garbage: an unknown opcode and
    // bytes that decode as nothing.
    match raw_roundtrip(&mut stream, &[0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF]) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::MalformedRequest),
        other => panic!("expected a typed error, got {other:?}"),
    }
    // A zero-length payload is malformed too, not a crash.
    match raw_roundtrip(&mut stream, &[]) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::MalformedRequest),
        other => panic!("expected a typed error, got {other:?}"),
    }
    // The same connection still answers well-formed requests.
    match raw_roundtrip(&mut stream, &encode_request(&Request::Ping)) {
        Some(Response::Pong) => {}
        other => panic!("expected a pong after the malformed frames, got {other:?}"),
    }
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn foreign_protocol_version_is_rejected_by_number() {
    let dir = temp_dir("version");
    let (handle, join) = start_daemon(&dir, 1 << 20);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut payload = encode_request(&Request::Ping);
    payload[0] = 0x63; // version 99
    payload[1] = 0x00;
    match raw_roundtrip(&mut stream, &payload) {
        Some(Response::Error { code, detail }) => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
            assert!(detail.contains("99"), "detail names the version: {detail}");
        }
        other => panic!("expected a version error, got {other:?}"),
    }
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn oversized_frame_is_answered_then_the_connection_closed() {
    let dir = temp_dir("oversized");
    let (handle, join) = start_daemon(&dir, 1024);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    match raw_roundtrip(&mut stream, &vec![0u8; 4096]) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected an oversize error, got {other:?}"),
    }
    // The daemon cannot resynchronize, so the stream must now be closed —
    // either a clean EOF or a reset (the daemon drops the socket with the
    // unread payload still buffered, which TCP reports as a reset).
    assert!(
        !matches!(read_frame(&mut stream, 1 << 20), Ok(Some(_))),
        "connection stays open after an unresynchronizable frame"
    );
    // ...but the daemon itself is fine.
    assert_alive(handle.addr());
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn torn_frame_mid_header_does_not_kill_the_daemon() {
    let dir = temp_dir("torn");
    let (handle, join) = start_daemon(&dir, 1 << 20);
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(&[0x10, 0x00]).unwrap(); // half a length prefix
    } // dropped: peer disappears mid-frame
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(&mut stream, &[0x08, 0, 0, 0]).unwrap();
        // Length prefix promised more than was sent; drop mid-payload.
    }
    assert_alive(handle.addr());
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn unknown_workload_is_a_typed_error() {
    let dir = temp_dir("unknown");
    let (handle, join) = start_daemon(&dir, 1 << 20);
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    match client.fetch_hints_bytes(&key("never-profiled")) {
        Err(ClientError::Server { code, detail }) => {
            assert_eq!(code, ErrorCode::UnknownWorkload);
            assert!(detail.contains("never-profiled"), "{detail}");
        }
        other => panic!("expected an unknown-workload error, got {other:?}"),
    }
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn store_dir_vanishing_mid_request_is_store_unavailable() {
    let dir = temp_dir("vanish");
    let (handle, join) = start_daemon(&dir, 1 << 20);
    let k = key("vanish");
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.submit(&k, &profile(1)).unwrap();
    // Yank the store out from under the daemon.
    std::fs::remove_dir_all(&dir).unwrap();
    match client.submit(&k, &profile(2)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::StoreUnavailable),
        other => panic!("expected store-unavailable, got {other:?}"),
    }
    // The daemon survives, and in-memory state still serves fetches.
    client.ping().unwrap();
    client.fetch_hints_bytes(&k).unwrap();
    // Metrics recorded the error.
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("prophet_service_errors_total{code=\"store_unavailable\"} 1"),
        "{metrics}"
    );
    stop_daemon(handle, join);
    std::fs::remove_dir_all(dir).ok();
}
