//! Golden-file tests for the figure binaries.
//!
//! The reproduction is deterministic, so each binary's full `--json`
//! output — table, notes and JSON block — is pinned byte for byte: a
//! change to the simulator, the cost model or a UC program that moves one
//! cycle of Figures 6–8 or of the §4 ablations fails here, and PAPER.md's
//! claims table quotes these files. To refresh after an intentional
//! change:
//!
//! ```text
//! ./target/release/<bin> --json > crates/bench/tests/golden/<bin>.txt
//! ```

use std::path::Path;
use std::process::{Command, Stdio};

fn assert_matches_golden(exe: &str, name: &str) {
    let out = Command::new(exe).arg("--json").output().unwrap();
    assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden, "{name} --json");
}

#[test]
fn fig6_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig6"), "fig6");
}

#[test]
fn fig7_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig7"), "fig7");
}

#[test]
fn fig8_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig8"), "fig8");
}

#[test]
fn map_ablation_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_map_ablation"), "map_ablation");
}

#[test]
fn procopt_ablation_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_procopt_ablation"), "procopt_ablation");
}

/// A reader that stops early (`map_ablation | head -1`) ends the binary
/// with success, not a panic.
#[test]
fn closed_stdout_is_a_clean_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_map_ablation"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
