//! Drives the built binary end to end on the smoke sizes (1/20 of the
//! packets and step budgets, two rounds): all six workloads, both trace
//! modes, the results document, `compare`, and the failure paths.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_castan-benchmark");

const WORKLOADS: [&str; 6] = [
    "synth-chain",
    "synth-nf",
    "replay-uniform",
    "replay-castan",
    "fleet-defended",
    "pipeline",
];

/// A fresh directory for one test to run the binary in: trace files land
/// under its `results/bench/`.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `"name": "..."` values of one section of the manifest.
fn manifest_names(section: &str) -> Vec<String> {
    let doc = stdout(&bench(Path::new("."), &["manifest"]));
    let start = doc.find(&format!("\"{section}\"")).expect("section");
    let body = &doc[start..];
    let end = body.find("\n  ]").expect("section end");
    body[..end]
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"name\": \""))
        .map(|l| l.trim_end_matches(['"', ',']).to_string())
        .collect()
}

#[test]
fn smoke_run_of_all_workloads_fills_the_document_and_compares_clean() {
    let dir = scratch("all");
    let out = bench(&dir, &["run", "--smoke", "--seed", "1", "--out", "a.json"]);
    assert!(out.status.success(), "smoke run failed:\n{}", stdout(&out));
    let doc = std::fs::read_to_string(dir.join("a.json")).expect("results document");

    let end_to_end = manifest_names("end_to_end");
    let per_layer = manifest_names("per_layer");
    assert_eq!(end_to_end.len(), 4);
    assert!(per_layer.len() >= 50, "about fifty per-layer metrics");
    for workload in WORKLOADS {
        let start = doc
            .find(&format!("\"{workload}\""))
            .expect("workload in document");
        let body = &doc[start..];
        let body = &body[..body.find("\"failed\"").expect("run end")];
        for name in end_to_end.iter().chain(&per_layer) {
            assert!(
                body.contains(&format!("\"{name}\": {{")),
                "{workload} misses {name}"
            );
        }
        let trace = dir.join(format!("results/bench/trace-{workload}.json"));
        let trace = std::fs::read_to_string(trace).expect("trace file");
        assert!(trace.contains("\"traceEvents\"") && trace.contains("\"ph\": \"X\""));
        assert!(
            trace.contains("\"name\": \"setup\""),
            "{workload} has no setup span"
        );
    }
    assert_eq!(doc.matches("\"failed\": 0").count(), WORKLOADS.len());

    // A/A: a document compared with itself has nothing to report.
    let same = bench(&dir, &["compare", "a.json", "a.json"]);
    assert!(same.status.success(), "{}", stdout(&same));
    let report = stdout(&same);
    assert!(!report.contains("regressed") && !report.contains("unresolved"));
    assert_eq!(
        report.matches("identical at every seed in common").count(),
        WORKLOADS.len()
    );
}

#[test]
fn one_workload_ends_with_the_result_object() {
    let dir = scratch("one");
    let args = [
        "run",
        "--workload",
        "replay-castan",
        "--seed",
        "7",
        "--smoke",
    ];
    let out = bench(&dir, &[&args[..], &["--trace", "0"]].concat());
    assert!(out.status.success());
    let text = stdout(&out);
    let last = text.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(last.contains("\"failed\": 0, \"metrics\": {\"op_wall_s\": {\"value\": "));
    for name in manifest_names("end_to_end") {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(
            text.contains(&format!("metric {name}")),
            "{name} printed by name"
        );
    }
    assert!(
        !last.contains("packet.parse_ns"),
        "layers belong to the traced run"
    );

    // Same seed, same inputs: the simulated statistics repeat exactly.
    let print = |text: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix("sim_fingerprint "))
            .map(str::to_string)
    };
    let again = stdout(&bench(&dir, &[&args[..], &["--trace", "1"]].concat()));
    assert!(print(&text).is_some());
    assert_eq!(print(&text), print(&again));
    let last = again.lines().last().expect("output");
    assert!(last.contains("\"packet.parse_ns\": {\"value\": "));
    assert!(
        !last.contains("\"op_wall_s\""),
        "end-to-end belongs to the untraced run"
    );
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    let dir = scratch("bad");
    for args in [
        &[
            "run",
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--smoke",
        ][..],
        &["run", "--seed", "x"],
        &["compare", "missing-a.json", "missing-b.json"],
        &["frobnicate"],
        &[],
    ] {
        let out = bench(&dir, args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(
            !stdout(&out).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}

#[test]
fn compare_exits_non_zero_on_a_regression() {
    let dir = scratch("regress");
    let doc = |wall: f64| {
        format!(
            "{{\"workloads\": {{\"pipeline\": {{\"runs\": [{{\"seed\": 1, \"failed\": 0, \
             \"sim_fingerprint\": 5, \"metrics\": {{\"op_wall_s\": {{\"value\": {wall}, \
             \"unit\": \"s\"}}}}}}]}}}}}}"
        )
    };
    std::fs::write(dir.join("a.json"), doc(2.0)).unwrap();
    std::fs::write(dir.join("b.json"), doc(2.5)).unwrap();
    let worse = bench(&dir, &["compare", "a.json", "b.json"]);
    assert_eq!(worse.status.code(), Some(1));
    assert!(stdout(&worse).contains("regressed"));
    let better = bench(&dir, &["compare", "b.json", "a.json"]);
    assert!(better.status.success());
}

#[test]
fn the_committed_manifest_is_the_one_the_binary_prints() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(committed).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, stdout(&bench(Path::new("."), &["manifest"])));
}
