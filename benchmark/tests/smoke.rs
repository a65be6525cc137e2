//! Runs the benchmark's smoke mode: a tiny pass of every workload, traced
//! and untraced, each in its own process, with every output check.

use std::process::Command;

#[test]
fn smoke_mode_passes_every_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_dls-benchmark"))
        .arg("--smoke")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke failed:\n{stdout}");
    assert!(stdout.contains("smoke: OK"), "{stdout}");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_dls-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
