//! The `experiments` binary's argument handling: an unknown experiment
//! id or flag is rejected with exit code 2 before any experiment runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("run experiments")
}

#[test]
fn unknown_id_is_rejected_before_any_experiment_runs() {
    let out = experiments(&["--quick", "l5", "bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment bogus"), "{stderr}");
    assert!(!stderr.contains("running l5"), "{stderr}");
    assert!(out.stdout.is_empty(), "l5 printed a table");
}

#[test]
fn retired_flags_are_unknown_flags() {
    for flag in [concat!("--", "spill"), concat!("--", "per-node-budgets"), concat!("--", "truth")]
    {
        let out = experiments(&["--quick", flag, "l5"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag}: l5 printed a table");
    }
}
