//! Binaries with a fixed window take no arguments: any argument exits 2
//! with a usage line instead of being silently ignored.

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
