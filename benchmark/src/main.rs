//! `castan-benchmark`: the repository's host-time benchmark.
//!
//! ```text
//! castan-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--smoke]
//! castan-benchmark run --seed <u64> [--repeat <n>] [--trace <0|1>] [--smoke] [--out <file>]
//! castan-benchmark compare <a.json> <b.json>
//! castan-benchmark manifest
//! ```
//!
//! With `--workload`, `run` measures that workload in this process and
//! prints its metrics by name and unit, then one JSON object as the last
//! line of standard output. Without it, `run` starts one child process per
//! workload, seed and trace mode — so peak memory is per workload — and
//! `--out` collects their results into the document `compare` reads.
//! See the README beside this package.

#![forbid(unsafe_code)]

mod compare;
mod metrics;
mod run;
mod spans;
mod stats;
mod surface;
mod workloads;

use std::process::{Command, ExitCode};

use metrics::{PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::{Outcome, RunArgs};
use surface::{numeric_fields, Json};

const USAGE: &str = "usage:
  castan-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--smoke]
  castan-benchmark run --seed <u64> [--repeat <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]
  castan-benchmark compare <a.json> <b.json>
  castan-benchmark manifest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_command(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", metrics::manifest().render());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare flags of the `run` subcommand.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: u64,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--repeat" => {
                o.repeat = value.parse().map_err(|_| bad())?;
                if !(1..=1000).contains(&o.repeat) {
                    return Err(bad());
                }
            }
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let o = parse_options(args)?;
    // The smoke run is bounded by its round count alone.
    let seconds = o
        .seconds
        .unwrap_or(if o.smoke { 0.0 } else { RUN_SECONDS as f64 });
    match &o.workload {
        Some(workload) => {
            if o.repeat != 1 || o.out.is_some() {
                return Err(format!(
                    "--repeat and --out belong to a run of all workloads\n{USAGE}"
                ));
            }
            let outcome = run::run(&RunArgs {
                workload: workload.clone(),
                seed: o.seed,
                seconds,
                trace: o.trace.unwrap_or(false),
                smoke: o.smoke,
            })?;
            print_outcome(workload, &outcome);
            Ok(outcome.correct())
        }
        None => run_all(&o, seconds),
    }
}

/// Human-readable account of a run, then the one-line result object.
fn print_outcome(workload: &str, o: &Outcome) {
    println!("workload {workload}");
    for (arm, s) in &o.arms {
        println!(
            "op {arm:<28} median {:>10.4} s  min {:>10.4}  max {:>10.4}  n {}",
            s.median, s.min, s.max, s.n
        );
    }
    for (name, unit, value) in &o.metrics {
        println!("metric {name:<36} {value:>16.4} {unit}");
    }
    for (name, ns) in &o.self_times {
        println!("self_time {name:<28} {:>12.3} ms", *ns as f64 / 1e6);
    }
    if let Some(file) = &o.trace_file {
        println!("trace {file}");
    }
    for failure in &o.failures {
        println!("FAILED {failure}");
    }
    println!("sim_fingerprint {}", o.sim_fingerprint);
    println!("{}", result_line(o));
}

/// The object the run ends its standard output with, on one line.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failures.len(),
        metrics.join(", ")
    )
}

/// What the parent keeps of one child run.
struct ChildRun {
    failed: u64,
    attempted: u64,
    sim_fingerprint: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process of this binary and reads its
/// result back from its standard output.
fn run_child(
    o: &Options,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED ")) {
        println!("  {line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let fields = numeric_fields(last).map_err(|e| {
        format!(
            "the {workload} run (seed {seed}, trace {}) printed no result: {e}\n{}",
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let field = |name: &str| {
        fields
            .iter()
            .find(|(path, _)| path == name)
            .map_or(0, |(_, v)| *v as u64)
    };
    let sim_fingerprint = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_fingerprint "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Ok(ChildRun {
        // A run that exits non-zero without counting a failed operation
        // still failed.
        failed: field("failed").max(u64::from(!output.status.success())),
        attempted: field("attempted"),
        sim_fingerprint,
        metrics: fields
            .iter()
            .filter_map(|(path, v)| {
                let name = path.strip_prefix("metrics.")?.strip_suffix(".value")?;
                Some((name.to_string(), *v))
            })
            .collect(),
    })
}

fn metrics_json(metrics: &[(String, f64)]) -> Json {
    let mut obj = Json::obj();
    for (name, value) in metrics {
        let unit = metrics::end_to_end(name)
            .map(|(m, _)| m.unit)
            .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
            .unwrap_or("");
        obj.set(
            name.clone(),
            Json::obj()
                .with("value", Json::F64(*value))
                .with("unit", Json::str(unit)),
        );
    }
    obj
}

/// All six workloads, each run in a fresh child process per seed and trace
/// mode; `--out` gets the document `compare` reads.
fn run_all(o: &Options, seconds: f64) -> Result<bool, String> {
    let modes: &[bool] = match o.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut clean = true;
    let mut workloads = Json::obj();
    for (workload, _) in WORKLOADS {
        let mut runs = Vec::new();
        for seed in o.seed..o.seed + o.repeat {
            let mut run = Json::obj().with("seed", Json::U64(seed));
            let (mut failed, mut attempted) = (0, 0);
            let mut prints = Vec::new();
            for &trace in modes {
                let child = run_child(o, workload, seed, seconds, trace)?;
                failed += child.failed;
                attempted += child.attempted;
                let headline: Vec<String> = child
                    .metrics
                    .iter()
                    .take(4)
                    .map(|(n, v)| format!("{n} {v:.4}"))
                    .collect();
                println!(
                    "{workload:<15} seed {seed} trace {} failed {}/{}  {}",
                    u8::from(trace),
                    child.failed,
                    child.attempted,
                    if trace {
                        String::new()
                    } else {
                        headline.join("  ")
                    }
                );
                prints.push(child.sim_fingerprint);
                run.set(
                    if trace { "layers" } else { "metrics" },
                    metrics_json(&child.metrics),
                );
            }
            // Spans and the `_traced` entry points must not change what is
            // simulated.
            if prints.iter().any(|p| *p != prints[0]) {
                println!("  FAILED {workload}: the traced run simulated something else");
                failed += 1;
            }
            run.set("sim_fingerprint", Json::U64(prints[0]));
            clean &= failed == 0;
            run.set("attempted", Json::U64(attempted));
            run.set("failed", Json::U64(failed));
            runs.push(run);
        }
        workloads.set(workload, Json::obj().with("runs", Json::Arr(runs)));
    }
    if let Some(out) = &o.out {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        let doc = Json::obj()
            .with("schema", Json::str("castan-benchmark-v1"))
            .with("first_seed", Json::U64(o.seed))
            .with("seconds", Json::F64(seconds))
            .with("smoke", Json::Bool(o.smoke))
            .with("host_threads", Json::U64(nproc))
            .with("workloads", workloads);
        std::fs::write(out, doc.render()).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(clean)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|doc| compare::parse_runs(&doc).map_err(|e| format!("{path}: {e}")))
    };
    let mut report = String::new();
    let clean = compare::compare(&read(a)?, &read(b)?, &mut report);
    print!("{report}");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_arguments_parse() {
        let o = parse_options(&strings(&[
            "--workload",
            "pipeline",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("pipeline"));
        assert_eq!((o.seed, o.seconds, o.trace), (42, Some(10.0), Some(true)));
        assert!(!o.smoke);
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            &["--seed"][..],
            &["--seed", "minus-one"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--repeat", "0"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_options(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let outcome = Outcome {
            attempted: 12,
            failures: vec![],
            metrics: vec![("op_wall_s", "s", 1.2034), ("setup_s", "s", 0.8127)],
            arms: vec![],
            sim_fingerprint: 7,
            self_times: vec![],
            trace_file: None,
        };
        let line = result_line(&outcome);
        assert!(!line.contains('\n'));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert_eq!(
            numeric_fields(&line).unwrap(),
            vec![
                ("attempted".to_string(), 12.0),
                ("failed".to_string(), 0.0),
                ("metrics.op_wall_s.value".to_string(), 1.2034),
                ("metrics.setup_s.value".to_string(), 0.8127),
            ]
        );
        let failing = Outcome {
            failures: vec!["round: boom".into()],
            ..outcome
        };
        assert!(result_line(&failing)
            .starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1,"));
    }
}
