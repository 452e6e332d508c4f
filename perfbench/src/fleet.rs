//! The hint-service layer, replayed over a grid's own Prophet profiles: an
//! in-process daemon over a temp store, driven in a closed loop by one
//! connection per worker. Every client submits every profile of every key,
//! so duplicates race fresh submissions, and a hint fetch follows each
//! submit. Then the same submissions in-process, without TCP.

use crate::stats::{median, percentile, sort_samples};
use prophet::{analyze, AnalysisConfig, HintSet, ProfileCounters};
use prophet_service::{
    merge_profiles, ServeConfig, Server, ServerHandle, ServiceClient, ServiceState,
};
use prophet_store::{encode_hints, StoreKey};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// The profile sets a fleet submits, one per key, with the serial
/// canonical reference merge of each (what the daemon must serve).
pub struct Fleet {
    pub sets: Vec<Vec<ProfileCounters>>,
    pub reference: Vec<HintSet>,
    /// Time the serial reference merges plus analysis took.
    pub merge_s: f64,
}

impl Fleet {
    pub fn new(sets: Vec<Vec<ProfileCounters>>) -> Fleet {
        let start = Instant::now();
        let reference = sets
            .iter()
            .map(|set| {
                let merged = merge_profiles(set).expect("a key submits at least one profile");
                analyze(&merged.counters, &AnalysisConfig::default())
            })
            .collect();
        Fleet {
            sets,
            reference,
            merge_s: start.elapsed().as_secs_f64(),
        }
    }

    pub fn key(&self, wi: usize) -> StoreKey {
        StoreKey {
            workload: format!("fleet-w{wi}"),
            config: 0xF1EE7,
            warmup: 200_000,
            measure: 650_000,
        }
    }

    fn submissions(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// A running daemon.
pub struct Daemon {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Daemon {
    pub fn start(dir: &Path, threads: usize) -> Daemon {
        let state = ServiceState::open(dir).expect("benchmark work directory is writable");
        let server = Server::bind(
            ServeConfig {
                threads,
                ..ServeConfig::default()
            },
            state,
        )
        .expect("bind an ephemeral localhost port");
        let handle = server.handle().expect("bound server has an address");
        let join = std::thread::spawn(move || server.run());
        Daemon {
            handle,
            join,
            dir: dir.to_path_buf(),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stops the daemon, waits for it, and removes its store.
    pub fn stop(self) {
        self.handle.shutdown();
        self.join
            .join()
            .expect("daemon thread panicked")
            .expect("daemon exited cleanly");
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// What one round measured. Latencies in seconds.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub submits: u64,
    pub fetches: u64,
    pub submit_lat: Vec<f64>,
    pub fetch_lat: Vec<f64>,
    pub fresh: u64,
    pub errors: Vec<String>,
}

/// One closed-loop round: each client submits every profile of every key
/// (starting at a client-specific offset) and, after each submit, fetches
/// a key it has already submitted to.
pub fn round(fleet: &Fleet, clients: &mut [ServiceClient]) -> Round {
    let n_clients = clients.len();
    let start = Instant::now();
    let per_client: Vec<Round> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(ci, client)| {
                scope.spawn(move || {
                    let mut out = Round::default();
                    for (wi, set) in fleet.sets.iter().enumerate() {
                        let key = fleet.key(wi);
                        for si in 0..set.len() {
                            let p = &set[(si + ci * set.len() / n_clients) % set.len()];
                            let t = Instant::now();
                            match client.submit(&key, p) {
                                Ok(ack) => out.fresh += ack.fresh as u64,
                                Err(e) => out.errors.push(format!("submit {}: {e}", key.workload)),
                            }
                            out.submit_lat.push(t.elapsed().as_secs_f64());
                            let fetch_key = fleet.key((si + ci) % (wi + 1));
                            let t = Instant::now();
                            if let Err(e) = client.fetch_hints_bytes(&fetch_key) {
                                out.errors
                                    .push(format!("fetch {}: {e}", fetch_key.workload));
                            }
                            out.fetch_lat.push(t.elapsed().as_secs_f64());
                        }
                    }
                    out.submits = out.submit_lat.len() as u64;
                    out.fetches = out.fetch_lat.len() as u64;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Round {
        wall_s: start.elapsed().as_secs_f64(),
        ..Round::default()
    };
    for c in per_client {
        total.submits += c.submits;
        total.fetches += c.fetches;
        total.fresh += c.fresh;
        total.submit_lat.extend(c.submit_lat);
        total.fetch_lat.extend(c.fetch_lat);
        total.errors.extend(c.errors);
    }
    total
}

/// Checks a finished round: every distinct profile was fresh exactly once
/// and every key serves the bytes of the serial canonical reference merge.
pub fn verify_round(fleet: &Fleet, client: &mut ServiceClient, rnd: &Round) -> Vec<String> {
    let mut failures = Vec::new();
    if rnd.fresh != fleet.submissions() as u64 {
        failures.push(format!(
            "{} fresh submissions, expected {}",
            rnd.fresh,
            fleet.submissions()
        ));
    }
    for (wi, reference) in fleet.reference.iter().enumerate() {
        let key = fleet.key(wi);
        match client.fetch_hints_bytes(&key) {
            Ok(bytes) if bytes == encode_hints(&key, reference) => {}
            Ok(_) => failures.push(format!(
                "{}: served hints differ from the reference merge",
                key.workload
            )),
            Err(e) => failures.push(format!("{}: verify fetch failed: {e}", key.workload)),
        }
    }
    failures
}

/// The `service.*` layer: client-view rates and latency percentiles, the
/// in-process and protocol replays, and the reference merge time.
#[derive(Debug, Default)]
pub struct ServiceLayer {
    pub submit_per_s: f64,
    pub fetch_per_s: f64,
    pub submit_p50_us: f64,
    pub submit_p99_us: f64,
    pub fetch_p50_us: f64,
    pub fetch_p99_us: f64,
    pub submit_samples: usize,
    pub fetch_samples: usize,
    pub submit_inproc_us: f64,
    pub fetch_inproc_us: f64,
    pub proto_roundtrip_us: f64,
    pub merge_s: f64,
}

/// Rates and percentiles of one round. A p99 over fewer than
/// `100 * MIN_SAMPLES_BEYOND` samples is refused.
pub fn client_view(rnd: &Round, failures: &mut Vec<String>) -> ServiceLayer {
    let (mut submit, mut fetch) = (rnd.submit_lat.clone(), rnd.fetch_lat.clone());
    sort_samples(&mut submit);
    sort_samples(&mut fetch);
    let mut pct = |xs: &[f64], p: f64, what: &str| {
        percentile(xs, p).map(|v| v * 1e6).unwrap_or_else(|| {
            failures.push(format!(
                "{what}: {} samples cannot support p{}",
                xs.len(),
                p * 100.0
            ));
            0.0
        })
    };
    ServiceLayer {
        submit_per_s: rnd.submits as f64 / rnd.wall_s,
        fetch_per_s: rnd.fetches as f64 / rnd.wall_s,
        submit_p50_us: pct(&submit, 0.5, "submit latency"),
        submit_p99_us: pct(&submit, 0.99, "submit latency"),
        fetch_p50_us: pct(&fetch, 0.5, "fetch latency"),
        fetch_p99_us: pct(&fetch, 0.99, "fetch latency"),
        submit_samples: submit.len(),
        fetch_samples: fetch.len(),
        ..ServiceLayer::default()
    }
}

/// The service layer alone: [`ServiceState`] submit/fetch in-process (no
/// TCP), and a minimal request over TCP. Fills the replay fields of `layer`.
pub fn replay_inproc(
    fleet: &Fleet,
    dir: &Path,
    client: &mut ServiceClient,
    layer: &mut ServiceLayer,
    failures: &mut Vec<String>,
) {
    let state = ServiceState::open(dir).expect("benchmark work directory is writable");
    let (mut submit, mut fetch) = (Vec::new(), Vec::new());
    for (wi, set) in fleet.sets.iter().enumerate() {
        let key = fleet.key(wi);
        for p in set {
            let t = Instant::now();
            let ack = state.submit(&key, p.clone());
            submit.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let served = state.fetch(&key);
            fetch.push(t.elapsed().as_secs_f64());
            if let Err(e) = ack.map(drop).and(served.map(drop)) {
                failures.push(format!("in-process {}: {e}", key.workload));
            }
        }
        match state.fetch(&key) {
            Ok(bytes) if bytes == encode_hints(&key, &fleet.reference[wi]) => {}
            _ => failures.push(format!(
                "in-process {}: served hints differ from the reference merge",
                key.workload
            )),
        }
    }
    drop(state);
    std::fs::remove_dir_all(dir).ok();
    let mut ping = Vec::new();
    for _ in 0..1000 {
        let t = Instant::now();
        if let Err(e) = client.ping() {
            failures.push(format!("ping: {e}"));
            break;
        }
        ping.push(t.elapsed().as_secs_f64());
    }
    layer.submit_inproc_us = median(&submit) * 1e6;
    layer.fetch_inproc_us = median(&fetch) * 1e6;
    layer.proto_roundtrip_us = if ping.is_empty() {
        0.0
    } else {
        median(&ping) * 1e6
    };
    layer.merge_s = fleet.merge_s;
}
