//! `castan-benchmark compare <a.json> <b.json>`: per workload and
//! end-to-end metric, is B no worse than A by more than the metric's bound?
//!
//! This is the A/A tool (two sets of runs of one commit must agree) and the
//! before/after tool of every later change.

use std::collections::BTreeMap;

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use crate::surface::numeric_fields;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// runs overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of A's median by which B's median is worse (negative: better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = min(a) <= max(b) && min(b) <= max(a);
    if spread(a).max(spread(b)) > bound && overlap {
        Verdict::Unresolved
    } else if worsening(a, b, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The runs of one results document: per workload, per field, one value
/// per run. Fields are the end-to-end metric names plus `seed`, `failed`
/// and `sim_fingerprint`.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a document written by `run --out`.
pub fn parse_runs(doc: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (path, value) in numeric_fields(doc)? {
        // workloads.<workload>.runs[<i>].<field> or
        // workloads.<workload>.runs[<i>].metrics.<metric>.value
        let Some(rest) = path.strip_prefix("workloads.") else {
            continue;
        };
        let Some((workload, rest)) = rest.split_once(".runs[") else {
            continue;
        };
        let Some((_, field)) = rest.split_once("].") else {
            continue;
        };
        let field = match field.strip_prefix("metrics.") {
            Some(metric) => match metric.strip_suffix(".value") {
                Some(name) => name,
                None => continue,
            },
            None if ["seed", "failed", "sim_fingerprint"].contains(&field) => field,
            None => continue,
        };
        runs.entry(workload.to_string())
            .or_default()
            .entry(field.to_string())
            .or_default()
            .push(value);
    }
    if runs.is_empty() {
        return Err("no runs in the document".into());
    }
    Ok(runs)
}

/// Prints one row per workload and metric; true when nothing regressed.
pub fn compare(a: &Runs, b: &Runs, out: &mut impl std::fmt::Write) -> bool {
    let mut clean = true;
    let none = Vec::new();
    for (workload, _) in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        let field = |runs: &'_ BTreeMap<String, Vec<f64>>, name: &str| {
            runs.get(name).unwrap_or(&none).clone()
        };
        for (metric, bound) in END_TO_END {
            let (va, vb) = (field(ra, metric.name), field(rb, metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, metric.better, bound);
            clean &= verdict != Verdict::Regressed;
            let _ = writeln!(
                out,
                "{workload:<15} {:<13} {:<10} a {:>12.4} (n={}, spread {:>5.2}%)  b {:>12.4} (n={}, spread {:>5.2}%)  worse by {:>+6.2}% of a, bound {:.0}% [{}]",
                metric.name,
                verdict.name(),
                median(&va),
                va.len(),
                spread(&va) * 100.0,
                median(&vb),
                vb.len(),
                spread(&vb) * 100.0,
                worsening(&va, &vb, metric.better) * 100.0,
                bound * 100.0,
                metric.unit,
            );
        }
        // More failed operations than before is a regression whatever the
        // timings say; a different fingerprint only says the model changed.
        let failed = |runs| field(runs, "failed").iter().sum::<f64>();
        let (fa, fb) = (failed(ra), failed(rb));
        let verdict = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        clean &= verdict == Verdict::Ok;
        let _ = writeln!(
            out,
            "{workload:<15} {:<13} {:<10} a {fa} b {fb}",
            "failed_ops",
            verdict.name()
        );
        let _ = writeln!(
            out,
            "{workload:<15} {:<13} {}",
            "simulation",
            simulation_row(ra, rb)
        );
    }
    clean
}

/// Whether the two sets simulated the same thing, seed by seed: the
/// fingerprint depends on the seed's inputs, so only runs of one seed can
/// be held against each other.
fn simulation_row(a: &BTreeMap<String, Vec<f64>>, b: &BTreeMap<String, Vec<f64>>) -> String {
    let by_seed = |runs: &BTreeMap<String, Vec<f64>>| -> Vec<(u64, u64)> {
        let column = |name| runs.get(name).cloned().unwrap_or_default();
        let pairs = column("seed").into_iter().zip(column("sim_fingerprint"));
        pairs.map(|(s, p)| (s as u64, p as u64)).collect()
    };
    let (a, b) = (by_seed(a), by_seed(b));
    let mut shared = 0;
    let mut differing = Vec::new();
    for (seed, print) in &a {
        for (_, other) in b.iter().filter(|(s, _)| s == seed) {
            shared += 1;
            if other != print && !differing.contains(seed) {
                differing.push(*seed);
            }
        }
    }
    match (shared, differing.as_slice()) {
        (0, _) => "no seed in common".to_string(),
        (_, []) => "identical at every seed in common".to_string(),
        (_, seeds) => format!("differs at seeds {seeds:?} (the model changed)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_beyond_is_regressed() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&a, &[10.2, 10.3, 10.1, 10.2], Better::Lower, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[11.0, 11.1, 10.9, 11.0], Better::Lower, 0.05),
            Verdict::Regressed
        );
        // Direction matters: a throughput that rises is no regression.
        assert_eq!(
            judge(&a, &[11.0, 11.1, 10.9, 11.0], Better::Higher, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[9.0, 9.1, 8.9, 9.0], Better::Higher, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let b = [8.5, 10.5, 12.5, 9.5, 11.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Unresolved);
        // Wide but disjoint: every run of b is worse than every run of a.
        let b = [18.0, 20.0, 22.0, 19.0, 21.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Regressed);
        // Wide, disjoint and better: resolved, and fine.
        let b = [4.0, 5.0, 6.0, 4.5, 5.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Ok);
    }

    #[test]
    fn single_runs_compare_on_the_bound_alone() {
        assert_eq!(judge(&[1.0], &[1.04], Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            judge(&[1.0], &[1.06], Better::Lower, 0.05),
            Verdict::Regressed
        );
    }

    fn doc(op_wall: [f64; 2], failed: u64, print: u64) -> String {
        let run = |seed: u64, wall: f64| {
            format!(
                r#"{{"seed": {seed}, "failed": {failed}, "sim_fingerprint": {print},
                    "metrics": {{"op_wall_s": {{"value": {wall}, "unit": "s"}},
                                 "setup_s": {{"value": 0.01, "unit": "s"}}}},
                    "layers": {{"core.solve_ms": {{"value": 3.0, "unit": "ms"}}}}}}"#
            )
        };
        format!(
            r#"{{"schema": "castan-benchmark-v1", "workloads": {{"pipeline": {{"runs": [{}, {}]}}}}}}"#,
            run(1, op_wall[0]),
            run(2, op_wall[1])
        )
    }

    #[test]
    fn documents_parse_into_per_workload_series() {
        let runs = parse_runs(&doc([2.5, 2.75], 0, 77)).unwrap();
        let pipeline = &runs["pipeline"];
        assert_eq!(pipeline["op_wall_s"], vec![2.5, 2.75]);
        assert_eq!(pipeline["setup_s"], vec![0.01, 0.01]);
        assert_eq!(pipeline["failed"], vec![0.0, 0.0]);
        assert_eq!(pipeline["sim_fingerprint"], vec![77.0, 77.0]);
        assert_eq!(pipeline["seed"], vec![1.0, 2.0]);
        assert!(
            !pipeline.contains_key("core.solve_ms"),
            "layers are not compared"
        );
        assert!(parse_runs("{}").is_err());
        assert!(parse_runs("not json").is_err());
    }

    #[test]
    fn compare_reports_each_row_and_fails_on_regressions_only() {
        let a = parse_runs(&doc([2.5, 2.5], 0, 77)).unwrap();
        let mut out = String::new();
        assert!(compare(&a, &a, &mut out));
        assert!(out.contains("op_wall_s") && out.contains(" ok "));
        assert!(out.contains("identical at every seed in common"));

        let slow = parse_runs(&doc([3.0, 3.0], 0, 77)).unwrap();
        let mut out = String::new();
        assert!(!compare(&a, &slow, &mut out));
        assert!(out.contains("regressed"));

        let failing = parse_runs(&doc([2.5, 2.5], 1, 78)).unwrap();
        let mut out = String::new();
        assert!(!compare(&a, &failing, &mut out));
        assert!(out.contains("failed_ops") && out.contains("differs at seeds [1, 2]"));
    }
}
