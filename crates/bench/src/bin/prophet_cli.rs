//! The Prophet CLI: ad-hoc experiments plus the paper's two-phase
//! offline/online workflow over the persistent artifact store.
//!
//! ```text
//! prophet_cli <workload> [scheme ...] [--insts N] [--warmup N] [--jobs N]
//!   workload: any paper workload name (mcf, gcc_expr, bfs_100000_16, ...)
//!   schemes:  baseline | triage4 | triangel | rpg2 | prophet (default: all)
//!   --jobs    workers the baseline and scheme runs fan across (default:
//!             all cores); reports print in the order above either way
//!
//! prophet_cli profile <workload> --store DIR [--insts N] [--warmup N] [--hints-out FILE]
//!   Step 1/3 (offline): run the simplified profiling prefetcher and submit
//!   the counters, in-process, to the service state over the store, as a
//!   daemon over DIR would take them; the profile is the canonical Eq. 4/5
//!   fold of the key's submissions (a repeat of one key deduplicates).
//!   Optionally export the analyzed hints.
//!
//! prophet_cli optimize <workload> --store DIR [--insts N] [--warmup N] [--hints-out FILE]
//!   Step 2 (offline): analysis only — fetch the hints a daemon over DIR
//!   would serve and print their summary; with --hints-out, write them to
//!   FILE (the "optimized binary" payload). No simulation.
//!
//! prophet_cli run <workload> --hints FILE [--insts N] [--warmup N]
//!   Online phase: simulate the workload under full Prophet driven by a
//!   previously exported hint file, against the no-temporal baseline.
//!
//! prophet_cli serve --store DIR [--addr HOST:PORT] [--service-threads N]
//!   Fleet mode: run the hint-serving daemon over the store. Concurrent
//!   profile submissions merge under the canonical content order, so the
//!   served hints are byte-identical to the offline profile→optimize
//!   pipeline, which runs the same service state, in any arrival order.
//!
//! prophet_cli submit <workload> --addr HOST:PORT [--insts N] [--warmup N]
//!   Profile the workload locally and submit the counters to a daemon.
//!
//! prophet_cli fetch <workload> --addr HOST:PORT [--insts N] [--warmup N] [--hints-out FILE]
//!   Fetch the daemon's analyzed hint set for the workload at this window
//!   (raw bytes are the hint-file format `run --hints` reads).
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
//! Every mode exits 2 on a flag it does not read (the `MODES` table).

use prophet::analysis::{MIN_ISSUED, THRASH_REPLACEMENT_FRAC};
use prophet::hints::HINT_BUFFER_ENTRIES;
use prophet::{analyze, AnalysisConfig, ProfileCounters, ProphetConfig};
use prophet_bench::Flag::{
    self, Addr, Hints, HintsOut, Insts, Jobs, ServiceThreads, Store, Warmup,
};
use prophet_bench::{parallel_tasks, Harness, Outcome, RunArgs, Scheme};
use prophet_service::{ServeConfig, Server, ServiceClient, ServiceError, ServiceState, SubmitAck};
use prophet_sim_core::SimReport;
use prophet_store::{decode_hints, read_hints_file, write_hints_file};
use prophet_workloads::workload_sized;
use std::path::Path;

/// One `prophet_cli` mode: its keyword, whether it takes a workload, the
/// flags it reads, those of them it needs, and what runs it with the
/// workload (`""` when it takes none).
struct Mode {
    name: &'static str,
    workload: bool,
    reads: &'static [Flag],
    needs: &'static [Flag],
    run: fn(&RunArgs, &str),
}

/// Every mode. The first, scheme mode, has no keyword: it runs when the
/// first argument names no other mode, and scheme names may follow its
/// workload.
#[rustfmt::skip]
static MODES: [Mode; 9] = [
    Mode { name: "scheme mode", workload: true, run: cmd_schemes,
           reads: &[Insts, Warmup, Jobs], needs: &[] },
    Mode { name: "profile", workload: true, run: cmd_profile,
           reads: &[Store, Insts, Warmup, HintsOut], needs: &[Store] },
    Mode { name: "optimize", workload: true, run: cmd_optimize,
           reads: &[Store, Insts, Warmup, HintsOut], needs: &[Store] },
    Mode { name: "run", workload: true, run: cmd_run,
           reads: &[Hints, Insts, Warmup], needs: &[Hints] },
    Mode { name: "serve", workload: false, run: cmd_serve,
           reads: &[Store, Addr, ServiceThreads], needs: &[Store] },
    Mode { name: "submit", workload: true, run: cmd_submit,
           reads: &[Addr, Insts, Warmup], needs: &[Addr] },
    Mode { name: "fetch", workload: true, run: cmd_fetch,
           reads: &[Addr, Insts, Warmup, HintsOut], needs: &[Addr] },
    Mode { name: "metrics", workload: false, run: cmd_metrics,
           reads: &[Addr], needs: &[Addr] },
    Mode { name: "explain", workload: true, run: cmd_explain,
           reads: &[Insts, Warmup], needs: &[] },
];

/// The usage text, one line per mode, built from [`MODES`].
fn usage() -> String {
    let schemes = Scheme::ALL.map(Scheme::name).join("|");
    let mut text = String::from("usage:");
    for (i, m) in MODES.iter().enumerate() {
        text += &match (i, m.workload) {
            (0, _) => format!(" prophet_cli <workload> [{schemes} ...]"),
            (_, true) => format!("\n       prophet_cli {:<8} <workload>", m.name),
            (_, false) => format!("\n       prophet_cli {:<8}", m.name),
        };
        for f in m.reads {
            let (open, close) = if m.needs.contains(f) {
                ("", "")
            } else {
                ("[", "]")
            };
            text += &format!(" {open}{}{close}", f.usage());
        }
    }
    text
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{}", usage());
    std::process::exit(2);
}

/// The value of a flag the mode table marks as needed (`main` checks it).
fn needed(value: &Option<String>) -> &str {
    value.as_deref().expect("a needed flag")
}

/// Prints one line on the encoded hint set `bytes`, `{verb} {name}: ...`,
/// and writes them to `out`, when given, through the store's atomic write.
fn emit_hints(verb: &str, name: &str, bytes: &[u8], out: Option<&Path>) {
    let (_, hints) =
        decode_hints(bytes).unwrap_or_else(|e| die(&format!("undecodable hints: {e}")));
    println!(
        "{verb} {name}: {} hinted PCs ({} hint instructions), csr enabled={} meta_ways={}",
        hints.pc_hints.len(),
        hints.instruction_overhead(),
        hints.csr.enabled,
        hints.csr.meta_ways
    );
    if let Some(out) = out {
        write_hints_file(out, bytes)
            .unwrap_or_else(|e| die(&format!("cannot write hints file {}: {e}", out.display())));
        println!("hints written to {}", out.display());
    }
}

/// The acknowledgement as `generation G (N submission(s), fresh content)`,
/// or `duplicate content, deduplicated` for a resubmission.
fn describe(ack: &SubmitAck) -> String {
    format!(
        "generation {} ({} submission(s), {})",
        ack.generation,
        ack.submissions,
        if ack.fresh {
            "fresh content"
        } else {
            "duplicate content, deduplicated"
        }
    )
}

/// Opens the service state over the `--store` directory a mode requires.
fn open_state(args: &RunArgs) -> ServiceState {
    let dir = needed(&args.store);
    ServiceState::open(dir)
        .unwrap_or_else(|e| die(&format!("cannot open service store at {dir}: {e}")))
}

/// Step 1/3: profile `name` and submit the counters to the service state
/// over the store, then fetch the hints it now serves.
fn cmd_profile(args: &RunArgs, name: &str) {
    let state = open_state(args);
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let report = h.profile(w.as_ref());
    let counters = ProfileCounters::from_report(&report);
    let (pcs, entries) = (counters.per_pc.len(), counters.allocated_entries());
    let ack = state
        .submit(&key, counters)
        .unwrap_or_else(|e| die(&format!("cannot submit the profile: {e}")));
    let bytes = state
        .fetch(&key)
        .unwrap_or_else(|e| die(&format!("cannot fetch the hints: {e}")));
    println!("{report}");
    println!(
        "profiled {name}: {pcs} PCs, {entries:.0} allocated entries; {}",
        describe(&ack)
    );
    emit_hints(
        "analyzed",
        name,
        &bytes,
        args.hints_out.as_deref().map(Path::new),
    );
}

/// Step 2: analysis only — the hints a daemon over the store would serve,
/// written only where `--hints-out` says.
fn cmd_optimize(args: &RunArgs, name: &str) {
    let state = open_state(args);
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let bytes = match state.fetch(&key) {
        Ok(bytes) => bytes,
        Err(ServiceError::UnknownWorkload(_)) => {
            eprintln!(
                "no profile for {name} at this window; run \
                 `prophet_cli profile {name} --store {}` first",
                state.store().dir().display()
            );
            std::process::exit(1);
        }
        Err(e) => die(&format!("unreadable profile: {e}")),
    };
    emit_hints(
        "optimized",
        name,
        &bytes,
        args.hints_out.as_deref().map(Path::new),
    );
}

/// Fleet mode: run the hint-serving daemon over the store directory.
fn cmd_serve(args: &RunArgs, _: &str) {
    let dir = needed(&args.store);
    let state = open_state(args);
    let cfg = ServeConfig {
        addr: args.addr.clone().unwrap_or_else(|| "127.0.0.1:7071".into()),
        threads: args.service_threads.unwrap_or(8),
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

/// Connects to the `--addr` daemon of a mode that requires it.
fn connect_daemon(args: &RunArgs) -> ServiceClient {
    let addr = needed(&args.addr);
    ServiceClient::connect(addr)
        .unwrap_or_else(|e| die(&format!("cannot connect to daemon at {addr}: {e}")))
}

/// Profile `name` locally and submit the counters to a daemon.
fn cmd_submit(args: &RunArgs, name: &str) {
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let report = h.profile(w.as_ref());
    let counters = ProfileCounters::from_report(&report);
    let mut client = connect_daemon(args);
    let ack = client
        .submit(&key, &counters)
        .unwrap_or_else(|e| die(&format!("submit failed: {e}")));
    println!("{report}");
    println!("submitted {name}: {}", describe(&ack));
}

/// Fetch the daemon's analyzed hints for `name` at this window.
fn cmd_fetch(args: &RunArgs, name: &str) {
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    let key = h.profile_key(w.as_ref());
    let mut client = connect_daemon(args);
    let bytes = client
        .fetch_hints_bytes(&key)
        .unwrap_or_else(|e| die(&format!("fetch failed: {e}")));
    // The wire bytes are the hint-file format `run --hints` reads.
    emit_hints(
        "fetched",
        name,
        &bytes,
        args.hints_out.as_deref().map(Path::new),
    );
}

/// Dump the daemon's plaintext metrics.
fn cmd_metrics(args: &RunArgs, _: &str) {
    let text = connect_daemon(args)
        .metrics()
        .unwrap_or_else(|e| die(&format!("metrics failed: {e}")));
    print!("{text}");
}

/// Online phase: run full Prophet from an exported hint file.
fn cmd_run(args: &RunArgs, name: &str) {
    let hints_path = needed(&args.hints);
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
    let base = h.run(Scheme::Baseline, w.as_ref()).into_report();
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

    let base = h.run(Scheme::Baseline, w).into_report();
    show("baseline", &base);
    let profile = h.profile(w);
    show("profiling (simplified TP)", &profile);
    let counters = ProfileCounters::from_report(&profile);
    let hints = analyze(&counters, &cfg);
    let opt = h.optimized(w, &hints, &ProphetConfig::default());
    show("optimized (Prophet)", &opt);
    let tri = h.run(Scheme::Triangel, w).into_report();
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

/// Scheme mode: the baseline and every wanted scheme (the named ones, or
/// all) fan across `--jobs` workers as [`Harness::cells`], so a wanted RPG2
/// rides the baseline's cell, then print in [`Scheme::ALL`] order.
fn cmd_schemes(args: &RunArgs, name: &str) {
    let named: Vec<Scheme> = args.rest[1..]
        .iter()
        .map(|s| {
            Scheme::parse(s).unwrap_or_else(|| {
                let all = Scheme::ALL.map(Scheme::name).join("|");
                die(&format!("unknown scheme: {s} (expected one of {all})"))
            })
        })
        .collect();
    let wanted = |s: Scheme| named.is_empty() || named.contains(&s);
    let h = args.harness(Harness::default());
    let w = workload_sized(name, h.warmup + h.measure);
    // The baseline always runs: it is every speedup's denominator.
    let runs: Vec<Scheme> = Scheme::ALL
        .into_iter()
        .filter(|&s| s == Scheme::Baseline || wanted(s))
        .collect();
    let cells = h.cells(&runs);
    let outcomes = parallel_tasks(cells.len(), args.jobs, |i| {
        h.run_cell(&cells[i], w.as_ref())
    });
    let mut outcomes: Vec<(Scheme, Outcome)> = cells
        .into_iter()
        .flatten()
        .zip(outcomes.into_iter().flatten())
        .collect();
    outcomes.sort_by_key(|&(scheme, _)| scheme as usize);
    let base = outcomes[0].1.clone().into_report();
    for (scheme, outcome) in outcomes {
        match outcome {
            _ if !wanted(scheme) => {}
            Outcome::Rpg2(r) => println!(
                "qualified {:?} distance {:?} speedup {:.3}\n{}",
                r.qualified_pcs,
                r.distance,
                r.report.speedup_over(&base),
                r.report
            ),
            Outcome::Sim(r) if scheme == Scheme::Baseline => println!("{r}"),
            Outcome::Sim(r) => println!("speedup {:.3}\n{r}", r.speedup_over(&base)),
        }
    }
}

fn main() {
    let args = RunArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    let Some(first) = args.rest.first() else {
        die("missing workload");
    };
    let (mode, operands) = match MODES[1..].iter().find(|m| m.name == first) {
        Some(mode) => (mode, &args.rest[1..]),
        // Scheme mode reads its scheme names itself.
        None => (&MODES[0], &args.rest[..1]),
    };
    if let Err(e) = args.check(mode.name, mode.reads, mode.needs) {
        die(&e);
    }
    match (mode.workload, operands) {
        (true, [name]) => (mode.run)(&args, name),
        (false, []) => (mode.run)(&args, ""),
        (true, _) => die(&format!("{} needs exactly one workload", mode.name)),
        (false, _) => die(&format!("{} takes no workload", mode.name)),
    }
}
