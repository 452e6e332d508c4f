//! Binaries reject arguments they do not use: a fixed-window binary exits
//! 2 on any argument, and a windowed one exits 2 on a flag only another
//! binary understands, instead of silently ignoring it. `fig15_crono`
//! also rejects a pair of its own flags that cannot work together, and
//! every windowed binary rejects an empty `--insts 0` window.

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

#[test]
fn fig15_rejects_vertices_with_a_store() {
    // Store keys name the workload, which `--vertices` leaves unchanged, so
    // a shared store would serve another graph size's artifacts.
    let dir = std::env::temp_dir().join(format!("fig15-vertices-store-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fig15_crono"))
        .args(["--vertices", "5", "--insts", "1000", "--warmup", "1000"])
        .arg("--store")
        .arg(&dir)
        .output()
        .expect("failed to launch fig15_crono");
    let created = dir.exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a rejected run must print no table");
    assert!(!created, "a rejected run must not open the store");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--vertices") && stderr.contains("--store"),
        "stderr must name both flags:\n{stderr}"
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
