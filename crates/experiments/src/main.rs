//! Command-line front end: regenerate any table or figure of the evaluation.
//!
//! ```text
//! cargo run -p castan-experiments --release -- [--quick] [--threads=N] <experiment>...
//! cargo run -p castan-experiments --release -- all
//! ```
//!
//! `--threads=N` sets the analysis engine's worker-thread count (the
//! synthesized workloads are identical for any value; only wall-clock
//! changes — CI runs a smoke at 4 threads to exercise the parallel path).
//!
//! Experiments: `fig4` … `fig15`, `table1` … `table5`, `ablation-m`,
//! `ablation-cache`, `chain-table`, `rss-scaling`, `rss-mitigation`,
//! `xcore-contention`, `cluster-skew`, `detect`, `bench-baselines`,
//! `analysis`, `search-profile`, or `all`. Unknown experiment names exit
//! with status 2 and list the valid names.
//!
//! Every experiment prints its tables/figures and writes a
//! machine-readable `castan-experiment-result-v1` summary to
//! `results/<id>.json` at the repo root. `bench-baselines` additionally
//! writes `BENCH_hotpath.json` and `BENCH_cluster.json` (the committed
//! perf baselines), `detect` writes `TELEMETRY_detect.json`, and
//! `analysis` writes `ANALYSIS_envelopes.json` (the committed static
//! cost-envelope table), and `search-profile` writes `TRACE_search.json`
//! (the committed deterministic search-counter baseline) plus a
//! chrome-trace span file under `results/`.
//!
//! The drift gates (not part of `all`) regenerate a committed baseline in
//! memory and exit non-zero with a per-field diff if it drifted:
//! `bench-drift` the perf baselines (1 %, `*_wall_ms` skipped; run it with
//! `--quick`, the committed config), `analysis-drift` the static envelope
//! table (exact; config-independent, so either `--quick` or full works),
//! `trace-drift` `TRACE_search.json` (exact; the profile pins its own
//! analysis config, so any flag combination regenerates the same counters)
//! and `detect-drift` `TELEMETRY_detect.json` (exact; `--quick`).

use castan_experiments::{
    ablation_cache_model, ablation_loop_bound, analysis_envelopes, bench_baselines, chain_table,
    cluster_skew, detect, drift_gate, figure, figure_catalog, rss_mitigation, rss_scaling,
    search_profile, table4, table5, throughput_and_counters_table, xcore_contention,
    ExperimentConfig, Table, DRIFT_GATES,
};

/// Repo-root directory the per-experiment result summaries are written to
/// (regenerable output, not committed).
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Every runnable experiment id, in `all` execution order.
fn valid_experiments() -> Vec<String> {
    let mut out: Vec<String> = figure_catalog()
        .iter()
        .map(|(id, _, _)| id.to_string())
        .collect();
    out.extend(["table1", "table2", "table3", "table4", "table5"].map(String::from));
    out.push("ablation-m".to_string());
    out.push("ablation-cache".to_string());
    out.push("chain-table".to_string());
    out.push("rss-scaling".to_string());
    out.push("rss-mitigation".to_string());
    out.push("xcore-contention".to_string());
    out.push("cluster-skew".to_string());
    out.push("detect".to_string());
    out.push("bench-baselines".to_string());
    out.push("analysis".to_string());
    out.push("search-profile".to_string());
    out
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: castan-experiments [--quick] [--threads=N] <experiment>...\nexperiments: {} | all | {}",
        valid_experiments().join(" | "),
        DRIFT_GATES.join(" | ")
    );
    std::process::exit(2);
}

/// An experiment whose printed output is exactly its one table.
fn table_result(t: Table) -> (String, Vec<Table>) {
    (t.render(), vec![t])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads: Option<usize> = args
        .iter()
        .find_map(|a| a.strip_prefix("--threads="))
        .map(|v| v.parse().expect("--threads expects a positive integer"));
    let requested: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    let mut cfg = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    if let Some(t) = threads {
        cfg.analysis.threads = t;
    }
    let label = if quick { "quick" } else { "full" };

    if requested.is_empty() {
        usage_and_exit();
    }

    let valid = valid_experiments();
    let mut targets: Vec<String> = Vec::new();
    for r in requested {
        if r == "all" {
            targets.extend(valid.iter().cloned());
        } else if valid.contains(&r) || DRIFT_GATES.contains(&r.as_str()) {
            targets.push(r);
        } else {
            eprintln!("unknown experiment: {r}");
            usage_and_exit();
        }
    }

    for target in targets {
        eprintln!("== running {target} ({label}) ==");
        let (output, tables): (String, Vec<Table>) = match target.as_str() {
            "table1" => table_result(throughput_and_counters_table(1, &cfg)),
            "table2" => table_result(throughput_and_counters_table(2, &cfg)),
            "table3" => table_result(throughput_and_counters_table(3, &cfg)),
            "table4" => table_result(table4(&cfg)),
            "table5" => table_result(table5(&cfg)),
            "ablation-m" => table_result(ablation_loop_bound(&cfg)),
            "ablation-cache" => table_result(ablation_cache_model(&cfg)),
            "chain-table" => table_result(chain_table(&cfg)),
            "rss-scaling" => table_result(rss_scaling(&cfg)),
            "rss-mitigation" => table_result(rss_mitigation(&cfg)),
            "xcore-contention" => table_result(xcore_contention(&cfg)),
            "cluster-skew" => table_result(cluster_skew(&cfg)),
            "detect" => detect(&cfg, label),
            "bench-baselines" => bench_baselines(&cfg, label),
            "analysis" => analysis_envelopes(label),
            "search-profile" => search_profile(&cfg, label),
            gate if DRIFT_GATES.contains(&gate) => match drift_gate(gate, &cfg) {
                Ok(summary) => (summary, Vec::new()),
                Err(diff) => {
                    eprintln!("{diff}");
                    std::process::exit(1);
                }
            },
            fig => {
                let f = figure(fig, &cfg).expect("validated above");
                let summary = f.summary_table();
                (f.render(), vec![summary])
            }
        };
        println!("{output}");
        for t in &tables {
            std::fs::create_dir_all(RESULTS_DIR).expect("create results dir");
            let path = format!("{RESULTS_DIR}/{}.json", t.id);
            std::fs::write(&path, t.result_json(label)).expect("write result summary");
            eprintln!("wrote {path}");
        }
    }
}
