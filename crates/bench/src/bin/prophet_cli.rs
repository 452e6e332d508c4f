//! The Prophet CLI: ad-hoc experiments plus the paper's two-phase
//! offline/online workflow over the persistent artifact store.
//!
//! ```text
//! prophet_cli <workload> [scheme ...] [--insts N] [--warmup N] [--jobs N] [--store DIR]
//!   workload: any paper workload name (mcf, gcc_expr, bfs_100000_16, ...)
//!   schemes:  baseline | triage4 | triangel | rpg2 | prophet (default: all)
//!   --store   share one warm-up checkpoint across the all-schemes matrix
//!             (no scheme named; with named schemes it exits 2)
//!
//! prophet_cli profile <workload> --store DIR [--insts N] [--warmup N] [--hints-out FILE]
//!   Step 1/3 (offline): run the simplified profiling prefetcher, merge the
//!   counters into the store's profile artifact (Eq. 4/5 across repeated
//!   invocations), and optionally export the analyzed hints.
//!
//! prophet_cli optimize <workload> --store DIR [--insts N] [--warmup N] [--hints-out FILE]
//!   Step 2 (offline): analysis only — read the stored profile, emit the
//!   hint-set artifact (the "optimized binary" payload). No simulation.
//!
//! prophet_cli run <workload> --hints FILE [--insts N] [--warmup N]
//!   Online phase: simulate the workload under full Prophet driven by a
//!   previously exported hint file, against the no-temporal baseline.
//!
//! prophet_cli serve --store DIR [--addr HOST:PORT] [--service-threads N]
//!   Fleet mode: run the hint-serving daemon over the store. Concurrent
//!   profile submissions merge under the canonical content order, so the
//!   served hints are byte-identical to the offline profile→optimize
//!   pipeline for the same submissions, in any arrival order.
//!
//! prophet_cli submit <workload> --addr HOST:PORT [--insts N] [--warmup N]
//!   Profile the workload locally and submit the counters to a daemon.
//!
//! prophet_cli fetch <workload> --addr HOST:PORT [--hints-out FILE]
//!   Fetch the daemon's analyzed hint set (raw bytes are the hint-file
//!   format `run --hints` reads).
//!
//! prophet_cli metrics --addr HOST:PORT
//!   Dump the daemon's plaintext metrics.
//!
//! prophet_cli explain <workload> [--insts N] [--warmup N]
//!   Explain Prophet's decisions on one workload: the baseline, profiling,
//!   optimized and Triangel reports, then per PC the profiled accuracy
//!   against EL_ACC (Eq. 1), the hint (Eq. 1/2) and what the PC did in the
//!   optimized run, plus the Eq. 3 inputs behind the CSR hint.
//! ```
//!
//! Windows default to 650 000 measured / 200 000 warm-up instructions;
//! workloads are sized to cover `warmup + insts` via streaming generation.

use prophet::analysis::{MIN_ISSUED, THRASH_REPLACEMENT_FRAC};
use prophet::hints::HINT_BUFFER_ENTRIES;
use prophet::{analyze, AnalysisConfig, LearnedProfile, ProfileCounters, ProphetConfig};
use prophet_bench::{take_flag, Harness, Outcome, RunArgs, Scheme, Start};
use prophet_rpg2::Rpg2Result;
use prophet_service::{ServeConfig, Server, ServiceClient, ServiceState};
use prophet_sim_core::SimReport;
use prophet_store::{
    read_hints_file, write_hints_file, ArtifactStore, ProfileArtifact, StoreError,
};
use prophet_workloads::workload_sized;

const USAGE: &str = "usage: prophet_cli <workload> [baseline|triage4|triangel|rpg2|prophet ...] \
     [--insts N] [--warmup N] [--jobs N] [--store DIR]
       prophet_cli profile  <workload> --store DIR [--insts N] [--warmup N] [--hints-out FILE]
       prophet_cli optimize <workload> --store DIR [--insts N] [--warmup N] [--hints-out FILE]
       prophet_cli run      <workload> --hints FILE [--insts N] [--warmup N]
       prophet_cli serve    --store DIR [--addr HOST:PORT] [--service-threads N]
       prophet_cli submit   <workload> --addr HOST:PORT [--insts N] [--warmup N]
       prophet_cli fetch    <workload> --addr HOST:PORT [--hints-out FILE]
       prophet_cli metrics  --addr HOST:PORT
       prophet_cli explain  <workload> [--insts N] [--warmup N]";

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn print_rpg2(r: &Rpg2Result, base: &SimReport) {
    println!(
        "qualified {:?} distance {:?} speedup {:.3}\n{}",
        r.qualified_pcs,
        r.distance,
        r.report.speedup_over(base),
        r.report
    );
}

fn require_store(args: &RunArgs) -> ArtifactStore {
    args.open_store()
        .unwrap_or_else(|| die("this subcommand needs --store DIR"))
}

/// Step 1/3: profile `name` and merge into the store's artifact.
fn cmd_profile(args: &RunArgs, name: &str, hints_out: Option<String>) {
    let store = require_store(args);
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());

    let mut learned = match store.load_profile(&key) {
        Ok(Some(ProfileArtifact { counters, loops })) => {
            eprintln!("store: resuming profile artifact at loop {loops}");
            LearnedProfile::resume(counters, loops)
        }
        Ok(None) => LearnedProfile::new(),
        // A decode failure means the file is junk (corrupt, foreign,
        // old format) — restarting the merge is the only option. An I/O
        // failure may be transient (permissions, network filesystem);
        // overwriting would clobber irreplaceable merged loop history,
        // so abort instead.
        Err(e @ StoreError::Decode(_)) => {
            eprintln!("store: restarting over undecodable profile artifact: {e}");
            LearnedProfile::new()
        }
        Err(e) => die(&format!(
            "cannot read existing profile artifact (not overwriting \
             merged loop history): {e}"
        )),
    };
    let report = h.profile(w.as_ref());
    learned.learn(ProfileCounters::from_report(&report));
    let artifact = ProfileArtifact {
        counters: learned.counters().expect("just learned").clone(),
        loops: learned.loops(),
    };
    let path = store
        .save_profile(&key, &artifact)
        .unwrap_or_else(|e| die(&format!("cannot save profile artifact: {e}")));

    let hints = learned.build_hints(&AnalysisConfig::default());
    println!("{report}");
    println!(
        "profiled {name}: {} PCs, {:.0} allocated entries, loop {} -> {}",
        artifact.counters.per_pc.len(),
        artifact.counters.allocated_entries(),
        artifact.loops,
        path.display()
    );
    println!(
        "analysis: {} hinted PCs, csr enabled={} meta_ways={}",
        hints.pc_hints.len(),
        hints.csr.enabled,
        hints.csr.meta_ways
    );
    if let Some(out) = hints_out {
        write_hints_file(&out, &key, &hints)
            .unwrap_or_else(|e| die(&format!("cannot write hints file {out}: {e}")));
        println!("hints written to {out}");
    }
}

/// Step 2: analysis only — stored profile in, hint artifact out.
fn cmd_optimize(args: &RunArgs, name: &str, hints_out: Option<String>) {
    let store = require_store(args);
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let artifact = match store.load_profile(&key) {
        Ok(Some(a)) => a,
        Ok(None) => {
            eprintln!(
                "no profile artifact for {name} at this window; run \
                 `prophet_cli profile {name} --store {}` first",
                store.dir().display()
            );
            std::process::exit(1);
        }
        Err(e) => die(&format!("unreadable profile artifact: {e}")),
    };
    let hints = analyze(&artifact.counters, &AnalysisConfig::default());
    let path = match hints_out {
        Some(out) => {
            write_hints_file(&out, &key, &hints)
                .unwrap_or_else(|e| die(&format!("cannot write hints file {out}: {e}")));
            std::path::PathBuf::from(out)
        }
        None => store
            .save_hints(&key, &hints)
            .unwrap_or_else(|e| die(&format!("cannot save hints: {e}"))),
    };
    println!(
        "optimized {name}: {} hinted PCs ({} hint instructions), csr enabled={} meta_ways={}",
        hints.pc_hints.len(),
        hints.instruction_overhead(),
        hints.csr.enabled,
        hints.csr.meta_ways
    );
    println!("hints written to {}", path.display());
}

/// Fleet mode: run the hint-serving daemon over the store directory.
fn cmd_serve(args: &RunArgs, addr: Option<String>, threads: Option<String>) {
    let Some(dir) = &args.store else {
        die("serve needs --store DIR");
    };
    let state = ServiceState::open(dir)
        .unwrap_or_else(|e| die(&format!("cannot open service store at {dir}: {e}")));
    let cfg = ServeConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7071".into()),
        threads: threads
            .map(|t| {
                t.parse()
                    .unwrap_or_else(|_| die(&format!("--service-threads: not a number: {t}")))
            })
            .unwrap_or(8),
        ..ServeConfig::default()
    };
    let server =
        Server::bind(cfg, state).unwrap_or_else(|e| die(&format!("cannot bind daemon: {e}")));
    let local = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("cannot resolve bound address: {e}")));
    println!("prophet_service listening on {local} over {dir}");
    if let Err(e) = server.run() {
        die(&format!("daemon failed: {e}"));
    }
}

fn connect_daemon(addr: &str) -> ServiceClient {
    ServiceClient::connect(addr)
        .unwrap_or_else(|e| die(&format!("cannot connect to daemon at {addr}: {e}")))
}

/// Profile `name` locally and submit the counters to a daemon.
fn cmd_submit(args: &RunArgs, name: &str, addr: &str) {
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let report = h.profile(w.as_ref());
    let counters = ProfileCounters::from_report(&report);
    let mut client = connect_daemon(addr);
    let ack = client
        .submit(&key, &counters)
        .unwrap_or_else(|e| die(&format!("submit failed: {e}")));
    println!("{report}");
    println!(
        "submitted {name}: generation {} ({} submission(s), {})",
        ack.generation,
        ack.submissions,
        if ack.fresh {
            "fresh content"
        } else {
            "duplicate content, deduplicated"
        }
    );
}

/// Fetch the daemon's analyzed hints for `name` at this window.
fn cmd_fetch(args: &RunArgs, name: &str, addr: &str, hints_out: Option<String>) {
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let mut client = connect_daemon(addr);
    let bytes = client
        .fetch_hints_bytes(&key)
        .unwrap_or_else(|e| die(&format!("fetch failed: {e}")));
    let (_, hints) = prophet_store::decode_hints(&bytes)
        .unwrap_or_else(|e| die(&format!("daemon returned undecodable hints: {e}")));
    println!(
        "fetched {name}: {} hinted PCs ({} hint instructions), csr enabled={} meta_ways={}",
        hints.pc_hints.len(),
        hints.instruction_overhead(),
        hints.csr.enabled,
        hints.csr.meta_ways
    );
    if let Some(out) = hints_out {
        // The wire bytes are the hint-file format `run --hints` reads.
        std::fs::write(&out, &bytes)
            .unwrap_or_else(|e| die(&format!("cannot write hints file {out}: {e}")));
        println!("hints written to {out}");
    }
}

/// Online phase: run full Prophet from an exported hint file.
fn cmd_run(args: &RunArgs, name: &str, hints_path: &str) {
    let (key, hints) = read_hints_file(hints_path)
        .unwrap_or_else(|e| die(&format!("cannot read hints file {hints_path}: {e}")));
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let expected = h.profile_key(w.as_ref());
    if key != expected {
        eprintln!(
            "warning: hints were produced at a different coordinate; applying anyway\n\
             \thints:    workload `{}` config {:016x} warmup {} measure {}\n\
             \tthis run: workload `{}` config {:016x} warmup {} measure {}",
            key.workload,
            key.config,
            key.warmup,
            key.measure,
            expected.workload,
            expected.config,
            expected.warmup,
            expected.measure,
        );
    }
    let base = h
        .run(Scheme::Baseline, w.as_ref(), Start::Cold)
        .into_report();
    println!("{base}");
    let r = h.optimized(w.as_ref(), &hints, &ProphetConfig::default());
    println!("speedup {:.3}\n{r}", r.speedup_over(&base));
}

/// Explains Prophet's decisions on `name` from the four reports' contents:
/// the Eq. 1/2 inputs and hint per PC beside what the PC did in the
/// optimized run, and the Eq. 3 inputs behind the CSR hint.
fn cmd_explain(args: &RunArgs, name: &str) {
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let w = w.as_ref();
    let cfg = AnalysisConfig::default();
    let show = |title: &str, r: &SimReport| {
        print!("--- {title} ---\n{r}");
        println!("  meta: {:?}", r.meta);
    };

    let base = h.run(Scheme::Baseline, w, Start::Cold).into_report();
    show("baseline", &base);
    let profile = h.profile(w);
    show("profiling (simplified TP)", &profile);
    let counters = ProfileCounters::from_report(&profile);
    let hints = analyze(&counters, &cfg);
    let opt = h.optimized(w, &hints, &ProphetConfig::default());
    show("optimized (Prophet)", &opt);
    let tri = h.run(Scheme::Triangel, w, Start::Cold).into_report();
    show("triangel", &tri);

    println!(
        "--- Eq. 3 ---\nallocated entries {:.0} ({:.0} insertions - {:.0} replacements); \
         replacement fraction {:.3} (thrash at {}); estimate {:.0} -> csr enabled={} meta_ways={}",
        counters.allocated_entries(),
        counters.insertions,
        counters.replacements,
        if counters.insertions > 0.0 {
            counters.replacements / counters.insertions
        } else {
            0.0
        },
        THRASH_REPLACEMENT_FRAC,
        cfg.footprint_estimate(&counters),
        hints.csr.enabled,
        hints.csr.meta_ways
    );

    println!(
        "--- per PC, by profiled L2 misses (Eq. 1: insert iff acc >= EL_ACC {}, \
         PCs under {} issued keep the default hint; Eq. 2: {} priority levels; \
         - = beyond the {}-entry hint buffer) ---",
        cfg.el_acc,
        MIN_ISSUED,
        1u32 << cfg.priority_bits,
        HINT_BUFFER_ENTRIES
    );
    println!(
        "{:<10} {:>9} {:>9} {:>6} {:>9} {:>6} {:>4} {:>9} {:>9}",
        "pc", "issued", "useful", "acc", "l2miss", "insert", "prio", "opt.iss", "opt.use"
    );
    let mut pcs: Vec<_> = profile.per_pc.iter().collect();
    pcs.sort_by(|a, b| b.1.l2_misses.cmp(&a.1.l2_misses).then(a.0.cmp(b.0)));
    for (pc, p) in pcs {
        let (insert, prio) = match hints.pc_hints.iter().find(|(hpc, _)| hpc == pc) {
            Some((_, hint)) => (hint.insert.to_string(), hint.priority.to_string()),
            None => ("-".into(), "-".into()),
        };
        let o = opt.per_pc.get(pc).copied().unwrap_or_default();
        println!(
            "{pc:#08x}   {:>9} {:>9} {:>6.3} {:>9} {insert:>6} {prio:>4} {:>9} {:>9}",
            p.issued_prefetches,
            p.useful_prefetches,
            p.accuracy().unwrap_or(0.0),
            p.l2_misses,
            o.issued_prefetches,
            o.useful_prefetches
        );
    }
    println!(
        "optimized: {} of {} useful prefetches were late",
        opt.late_useful_prefetches, opt.useful_prefetches
    );
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let flags: Vec<String> = raw
        .iter()
        .filter(|a| a.starts_with("--"))
        .cloned()
        .collect();
    let hints_out = take_flag(&mut raw, "--hints-out", USAGE);
    let hints_in = take_flag(&mut raw, "--hints", USAGE);
    let addr = take_flag(&mut raw, "--addr", USAGE);
    let service_threads = take_flag(&mut raw, "--service-threads", USAGE);
    let args = RunArgs::parse_or_exit(raw.into_iter(), USAGE, true);
    let Some((first, rest)) = args.rest.split_first() else {
        die("missing workload");
    };

    match first.as_str() {
        "serve" => {
            if !rest.is_empty() {
                die("serve takes no workload");
            }
            cmd_serve(&args, addr, service_threads);
            return;
        }
        "metrics" => {
            if !rest.is_empty() {
                die("metrics takes no workload");
            }
            let Some(addr) = addr else {
                die("metrics needs --addr HOST:PORT");
            };
            let text = connect_daemon(&addr)
                .metrics()
                .unwrap_or_else(|e| die(&format!("metrics failed: {e}")));
            print!("{text}");
            return;
        }
        "submit" | "fetch" => {
            let [name] = rest else {
                die(&format!("{first} needs exactly one workload"));
            };
            let Some(addr) = addr else {
                die(&format!("{first} needs --addr HOST:PORT"));
            };
            match first.as_str() {
                "submit" => cmd_submit(&args, name, &addr),
                "fetch" => cmd_fetch(&args, name, &addr, hints_out),
                _ => unreachable!(),
            }
            return;
        }
        "explain" => {
            let [name] = rest else {
                die("explain needs exactly one workload");
            };
            if let Some(f) = flags
                .iter()
                .find(|f| !matches!(f.as_str(), "--insts" | "--warmup"))
            {
                die(&format!("explain takes only --insts and --warmup, not {f}"));
            }
            cmd_explain(&args, name);
            return;
        }
        "profile" | "optimize" | "run" => {
            let [name] = rest else {
                die(&format!("{first} needs exactly one workload"));
            };
            match first.as_str() {
                "profile" => cmd_profile(&args, name, hints_out),
                "optimize" => cmd_optimize(&args, name, hints_out),
                "run" => {
                    let Some(hints) = hints_in else {
                        die("run needs --hints FILE");
                    };
                    cmd_run(&args, name, &hints);
                }
                _ => unreachable!(),
            }
            return;
        }
        _ => {}
    }

    // Legacy scheme mode.
    let (name, schemes) = (first, rest);
    let mut wanted = Vec::new();
    for s in schemes {
        match Scheme::parse(s) {
            Some(scheme) => wanted.push(scheme),
            None => die(&format!(
                "unknown scheme: {s} (expected one of {})",
                Scheme::ALL.map(Scheme::name).join("|")
            )),
        }
    }

    if !wanted.is_empty() && args.store.is_some() {
        // Named schemes run cold one by one; only the all-schemes matrix
        // shares a warm-up through the store.
        die("--store works only without named schemes (it shares the all-schemes warm-up)");
    }

    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);

    if wanted.is_empty() {
        // The four comparison schemes as one matrix row, fanned across the
        // parallel harness (sharing one warm-up when a store is given);
        // triage4 runs separately (it is not a matrix column).
        let row = &args.run_grid(&h, std::slice::from_ref(&w))[0];
        println!("{}", row.base);
        let r = h
            .run(Scheme::Triage4, w.as_ref(), Start::Cold)
            .into_report();
        println!("speedup {:.3}\n{r}", r.speedup_over(&row.base));
        println!(
            "speedup {:.3}\n{}",
            row.triangel.speedup_over(&row.base),
            row.triangel
        );
        print_rpg2(&row.rpg2, &row.base);
        println!(
            "speedup {:.3}\n{}",
            row.prophet.speedup_over(&row.base),
            row.prophet
        );
        return;
    }

    let base = h
        .run(Scheme::Baseline, w.as_ref(), Start::Cold)
        .into_report();
    for scheme in Scheme::ALL.into_iter().filter(|s| wanted.contains(s)) {
        if scheme == Scheme::Baseline {
            println!("{base}");
            continue;
        }
        match h.run(scheme, w.as_ref(), Start::Cold) {
            Outcome::Rpg2(r) => print_rpg2(&r, &base),
            Outcome::Sim(r) => println!("speedup {:.3}\n{r}", r.speedup_over(&base)),
        }
    }
}
