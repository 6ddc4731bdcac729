//! `route-cli` end to end: a generated graph routes and evaluates, and
//! every input the scheme cannot be built on — malformed edges, a
//! disconnected graph, a single node, k = 0 — exits 1 with an `error:`
//! line instead of panicking (exit 101).

use std::path::PathBuf;
use std::process::{Command, Output};

/// A graph file in the system temp dir, removed on drop.
struct GraphFile(PathBuf);

impl GraphFile {
    fn new(name: &str, text: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("route-cli-test-{}-{name}.gr", std::process::id()));
        std::fs::write(&path, text).expect("write graph file");
        GraphFile(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for GraphFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_route-cli")).args(args).output().expect("run route-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generated_grid_routes_and_evaluates() {
    let gen = cli(&["gen", "grid", "16", "1"]);
    assert_eq!(gen.status.code(), Some(0));
    let file = GraphFile::new("grid", &stdout(&gen));

    let route = cli(&["route", file.path(), "2", "0", "15"]);
    assert_eq!(route.status.code(), Some(0), "route: {route:?}");
    assert!(stdout(&route).starts_with("delivered in "), "route: {}", stdout(&route));

    let eval = cli(&["eval", file.path(), "2"]);
    assert_eq!(eval.status.code(), Some(0), "eval: {eval:?}");
    let report = stdout(&eval);
    let line = report.lines().find(|l| l.starts_with("delivered")).expect("delivery line");
    let (got, of) = line["delivered".len()..].trim().split_once('/').expect("n/m");
    assert_eq!(got, of, "eval: {report}");
}

#[test]
fn unbuildable_inputs_exit_1_with_an_error() {
    let cases = [
        ("zero-weight", "p 2 1\ne 0 1 0\n", "2"),
        ("self-loop", "p 2 1\ne 1 1 4\n", "2"),
        ("disconnected", "p 4 2\ne 0 1 1\ne 2 3 1\n", "2"),
        ("one-node", "p 1 0\n", "2"),
        ("k0", "p 3 2\ne 0 1 1\ne 1 2 1\n", "0"),
    ];
    for (name, text, k) in cases {
        let file = GraphFile::new(name, text);
        for args in [vec!["route", file.path(), k, "0", "0"], vec!["eval", file.path(), k]] {
            let out = cli(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {}: {stderr}", args[0]);
            assert!(stderr.starts_with("error: "), "{name} {}: {stderr}", args[0]);
        }
    }
}
