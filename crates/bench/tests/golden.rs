//! Golden-output regression tests for the figure binaries.
//!
//! Each test runs the real binary (Cargo exposes the path via
//! `CARGO_BIN_EXE_*`) and diffs its stdout against a checked-in snapshot
//! under `tests/golden/`. The windowed binaries run at a short, fixed
//! window, as does `prophet_cli` scheme mode with every scheme on `mcf`
//! and on `pagerank_100000_100`;
//! `tab01_config`, `fig01_metadata_pattern`,
//! `fig06_accuracy_levels`, `fig08_markov_targets`, `overheads` and
//! `tab_storage` take no arguments. The two fixed-window study binaries,
//! `spec_studies` and `fig13_14_learning`, take too long for this suite;
//! CI diffs them against their snapshots in release instead, and
//! `fig10_12_spec` at its default window against
//! `fig10_12_spec_default.txt`. The Figure 10, 11 and 12 tests share
//! one run of `fig10_12_spec` and each diffs its own table of
//! `fig10_12_spec.txt`. The simulator, generators, and harness are
//! deterministic end to end, so any diff means a refactor shifted results
//! — exactly what these tests exist to catch (streaming rewrites, harness
//! parallelism, scheme changes).
//!
//! To re-anchor after an *intentional* change, regenerate the snapshot
//! with the command in each test and commit the diff alongside the
//! change that caused it.

use std::process::Command;
use std::sync::OnceLock;

fn run_stdout(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure tables are UTF-8")
}

fn assert_snapshot(exe: &str, args: &[&str], snapshot: &str, got: &str, want: &str) {
    assert_eq!(
        got,
        want,
        "\n{exe} {} diverged from {snapshot};\n\
         if the change is intentional, regenerate the snapshot with:\n\
         cargo run --release --bin {} -- {} > {snapshot}\n",
        args.join(" "),
        exe.rsplit('/').next().unwrap(),
        args.join(" "),
    );
}

fn run_golden(exe: &str, args: &[&str], snapshot: &str) {
    let got = run_stdout(exe, args);
    let want = std::fs::read_to_string(snapshot)
        .unwrap_or_else(|e| panic!("missing snapshot {snapshot}: {e}"));
    assert_snapshot(exe, args, snapshot, &got, &want);
}

const SPEC_EXE: &str = env!("CARGO_BIN_EXE_fig10_12_spec");
const SPEC_ARGS: &[&str] = &["--insts", "120000", "--warmup", "60000", "--jobs", "2"];
const SPEC_SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fig10_12_spec.txt"
);

/// `fig10_12_spec` prints Figures 10, 11 and 12 from one simulated grid;
/// the three tests below share a single run of it.
fn spec_grid_stdout() -> &'static str {
    static OUT: OnceLock<String> = OnceLock::new();
    OUT.get_or_init(|| run_stdout(SPEC_EXE, SPEC_ARGS))
}

/// Splits `fig10_12_spec` output into its Figure 10, 11 and 12 tables at
/// the title lines of Figures 11 and 12. The three parts concatenate back
/// to `text`, so the three tests together pin every byte of the snapshot.
fn spec_tables(text: &str) -> [&str; 3] {
    let start = |title: &str| {
        text.find(&format!("\n{title}"))
            .map(|i| i + 1)
            .unwrap_or_else(|| panic!("no `{title}` table in:\n{text}"))
    };
    let (fig11, fig12) = (start("Figure 11:"), start("Figure 12:"));
    assert!(
        fig11 < fig12,
        "Figure 11 must precede Figure 12 in:\n{text}"
    );
    [&text[..fig11], &text[fig11..fig12], &text[fig12..]]
}

/// Diffs table `index` (0 = Figure 10, 1 = Figure 11, 2 = Figure 12) of
/// the shared `fig10_12_spec` run against the same table of its snapshot.
fn spec_table_matches_snapshot(index: usize) {
    let want = std::fs::read_to_string(SPEC_SNAPSHOT)
        .unwrap_or_else(|e| panic!("missing snapshot {SPEC_SNAPSHOT}: {e}"));
    let got = spec_tables(spec_grid_stdout())[index];
    let want = spec_tables(&want)[index];
    assert_snapshot(SPEC_EXE, SPEC_ARGS, SPEC_SNAPSHOT, got, want);
}

#[test]
fn fig10_speedup_short_window_matches_snapshot() {
    spec_table_matches_snapshot(0);
}

#[test]
fn fig11_traffic_short_window_matches_snapshot() {
    spec_table_matches_snapshot(1);
}

#[test]
fn fig12_coverage_accuracy_short_window_matches_snapshot() {
    spec_table_matches_snapshot(2);
}

#[test]
fn fig15_crono_short_window_matches_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_fig15_crono"),
        &["--insts", "120000", "--warmup", "150000", "--jobs", "2"],
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig15_crono.txt"),
    );
}

#[test]
fn fig17_l1_prefetcher_short_window_matches_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_fig17_l1_prefetcher"),
        &["--insts", "120000", "--warmup", "60000", "--jobs", "2"],
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fig17_l1_prefetcher.txt"
        ),
    );
}

#[test]
fn fig18_bandwidth_short_window_matches_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_fig18_bandwidth"),
        &["--insts", "120000", "--warmup", "60000", "--jobs", "2"],
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fig18_bandwidth.txt"
        ),
    );
}

#[test]
fn fig01_metadata_pattern_matches_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_fig01_metadata_pattern"),
        &[],
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fig01_metadata_pattern.txt"
        ),
    );
}

#[test]
fn fig06_accuracy_levels_matches_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_fig06_accuracy_levels"),
        &[],
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fig06_accuracy_levels.txt"
        ),
    );
}

#[test]
fn tab_storage_matches_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_tab_storage"),
        &[],
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tab_storage.txt"),
    );
}

#[test]
fn tab01_config_matches_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_tab01_config"),
        &[],
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tab01_config.txt"),
    );
}

#[test]
fn fig08_markov_targets_matches_snapshot() {
    run_golden(
        env!("CARGO_BIN_EXE_fig08_markov_targets"),
        &[],
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fig08_markov_targets.txt"
        ),
    );
}

#[test]
fn overheads_matches_snapshot() {
    // The wall-time `analysis[<mix>]` lines go to stderr, so stdout is
    // byte-stable.
    run_golden(
        env!("CARGO_BIN_EXE_overheads"),
        &[],
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/overheads.txt"),
    );
}

#[test]
fn prophet_cli_mcf_matches_snapshot() {
    // Scheme mode with no scheme named: the baseline and all four schemes.
    run_golden(
        env!("CARGO_BIN_EXE_prophet_cli"),
        &["mcf", "--insts", "60000", "--warmup", "30000"],
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/prophet_cli_mcf.txt"
        ),
    );
}

#[test]
fn prophet_cli_pagerank_matches_snapshot() {
    // Scheme mode where RPG2 qualifies a PC and sweeps its distance, and
    // the schemes' speedups differ (mcf's window pins every speedup at 1).
    run_golden(
        env!("CARGO_BIN_EXE_prophet_cli"),
        &[
            "pagerank_100000_100",
            "--insts",
            "120000",
            "--warmup",
            "150000",
            "--jobs",
            "2",
        ],
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/prophet_cli_pagerank.txt"
        ),
    );
}
