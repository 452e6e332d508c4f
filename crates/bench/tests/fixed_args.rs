//! Binaries reject arguments they do not use: a fixed-window binary exits
//! 2 on any argument, and a windowed binary or a `prophet_cli` mode exits
//! 2 on a flag only another one reads, instead of silently ignoring it —
//! before it opens a store or writes a file. Every windowed binary
//! rejects an empty `--insts 0` window.

use std::process::Command;

fn tab01_config(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tab01_config"))
        .args(args)
        .output()
        .expect("failed to launch tab01_config")
}

#[test]
fn fixed_window_binary_rejects_arguments() {
    let out = tab01_config(&["--insts", "5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a rejected run must print no table");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected argument: --insts") && stderr.contains("usage: tab01_config"),
        "missing usage line:\n{stderr}"
    );
}

#[test]
fn fixed_window_binary_runs_without_arguments() {
    let out = tab01_config(&[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Table 1: System Configuration"));
}

#[test]
fn windowed_binary_rejects_another_binarys_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig10_12_spec"))
        .args(["--vertices", "5"])
        .output()
        .expect("failed to launch fig10_12_spec");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a rejected run must print no table");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag: --vertices") && stderr.contains("usage: fig10_12_spec"),
        "missing usage line:\n{stderr}"
    );
}

#[test]
fn zero_insts_is_rejected() {
    // A zero-instruction window used to print all-zero speedups and exit 0.
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_fig10_12_spec"),
            &["--insts", "0", "--warmup", "1000"][..],
        ),
        (
            env!("CARGO_BIN_EXE_prophet_cli"),
            &["mcf", "--insts", "0"][..],
        ),
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
        assert!(out.stdout.is_empty(), "a rejected run must print no table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--insts must be at least 1"),
            "stderr must name the flag:\n{stderr}"
        );
    }
}

/// Runs `exe args --store <fresh dir>`, asserts the run is rejected (exit
/// 2, no stdout) without creating the store, and returns its stderr.
fn rejected_with_store(exe: &str, args: &[&str]) -> String {
    let name = exe.rsplit('/').next().unwrap();
    let dir = std::env::temp_dir().join(format!("{name}-store-{}", std::process::id()));
    let out = Command::new(exe)
        .args(args)
        .arg("--store")
        .arg(&dir)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    let created = dir.exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
    assert!(out.stdout.is_empty(), "a rejected run must print no table");
    assert!(!created, "a rejected run must not open the store");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn prophet_cli_rejects_a_store_with_named_schemes() {
    // Only the all-schemes matrix shares a warm-up through the store; a
    // named-scheme run used to ignore `--store` and run cold.
    let stderr = rejected_with_store(
        env!("CARGO_BIN_EXE_prophet_cli"),
        &["mcf", "baseline", "--insts", "1000", "--warmup", "1000"],
    );
    assert!(
        stderr.contains("--store") && stderr.contains("usage: prophet_cli"),
        "missing usage line:\n{stderr}"
    );
}

#[test]
fn explain_rejects_flags_it_does_not_use() {
    for flag in [["--store", "D"], ["--jobs", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_prophet_cli"))
            .args(["explain", "mcf"])
            .args(flag)
            .output()
            .expect("failed to launch prophet_cli");
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        assert!(out.stdout.is_empty(), "a rejected run must print no report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "explain takes only --insts and --warmup, not {}",
                flag[0]
            )) && stderr.contains("usage: prophet_cli"),
            "missing usage line:\n{stderr}"
        );
    }
}

/// Runs `exe args`, where `D` stands for a fresh store directory and `X`
/// for a fresh output file, and asserts the run is rejected for reading
/// no `flag`: exit 2, no stdout, neither `D` nor `X` created, and a usage
/// line on stderr that names `flag`.
fn rejects_unread_flag(exe: &str, args: &[&str], flag: &str) {
    let name = exe.rsplit('/').next().unwrap();
    let tmp = std::env::temp_dir().join(format!("unread{flag}-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let (store, file) = (tmp.join("store"), tmp.join("out.hints"));
    let out = Command::new(exe)
        .args(args.iter().map(|a| match *a {
            "D" => store.as_os_str(),
            "X" => file.as_os_str(),
            a => a.as_ref(),
        }))
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    let created = store.exists() || file.exists();
    std::fs::remove_dir_all(&tmp).ok();
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
    assert!(out.stdout.is_empty(), "{args:?} must print nothing");
    assert!(!created, "{args:?} must not create its store or file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("not {flag}")) && stderr.contains("usage: "),
        "{args:?}: stderr must name {flag}:\n{stderr}"
    );
}

#[test]
fn every_prophet_cli_mode_rejects_a_flag_it_does_not_read() {
    // One case per mode, scheme mode with and without named schemes. A
    // short window bounds the runs that simulate wherever the flag is
    // ignored, and no case can reach a daemon: 127.0.0.1:1 refuses
    // connections and 127.0.0.1:99999 cannot be bound.
    #[rustfmt::skip]
    let cases: [(&[&str], &str); 10] = [
        (&["mcf", "--insts", "1000", "--warmup", "1000", "--store", "D"], "--store"),
        (&["mcf", "baseline", "--insts", "1000", "--warmup", "1000", "--hints-out", "X"], "--hints-out"),
        (&["profile", "mcf", "--insts", "1000", "--warmup", "1000", "--store", "D", "--jobs", "2"], "--jobs"),
        (&["optimize", "mcf", "--store", "D", "--addr", "127.0.0.1:1"], "--addr"),
        (&["run", "mcf", "--hints", "missing.hints", "--hints-out", "X"], "--hints-out"),
        (&["serve", "--store", "D", "--addr", "127.0.0.1:99999", "--jobs", "2"], "--jobs"),
        (&["submit", "mcf", "--insts", "1000", "--warmup", "1000", "--addr", "127.0.0.1:1", "--store", "D"], "--store"),
        (&["fetch", "mcf", "--addr", "127.0.0.1:1", "--store", "D", "--hints-out", "X"], "--store"),
        (&["metrics", "--addr", "127.0.0.1:1", "--hints-out", "X"], "--hints-out"),
        (&["explain", "mcf", "--hints-out", "X"], "--hints-out"),
    ];
    for (args, flag) in cases {
        rejects_unread_flag(env!("CARGO_BIN_EXE_prophet_cli"), args, flag);
    }
}

#[test]
fn windowed_binary_rejects_a_prophet_cli_flag() {
    rejects_unread_flag(
        env!("CARGO_BIN_EXE_fig10_12_spec"),
        &["--insts", "1000", "--warmup", "1000", "--hints", "x"],
        "--hints",
    );
    // Every grid runs cold; only `prophet_cli` reads a store.
    for exe in [
        env!("CARGO_BIN_EXE_fig10_12_spec"),
        env!("CARGO_BIN_EXE_fig15_crono"),
        env!("CARGO_BIN_EXE_fig17_l1_prefetcher"),
        env!("CARGO_BIN_EXE_fig18_bandwidth"),
    ] {
        rejects_unread_flag(
            exe,
            &["--insts", "1000", "--warmup", "1000", "--store", "D"],
            "--store",
        );
    }
}
