//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root is
//! `castan-benchmark manifest` printed from these tables, and `compare`
//! judges with the same bounds.

use crate::surface::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures, in seconds, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 10;

/// (name, why). One operation of each is described in the README.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "synth-chain",
        "analyze_chain of nat-lpm and nat-lb-lpm: engine, solver, chain merge and synthesis do all the work, the testbed none",
    ),
    (
        "synth-nf",
        "Castan::analyze of four NFs at equal step budget: fork-bound LPMs, havoc-bound NAT hash, solver-bound NAT rbtree",
    ),
    (
        "replay-uniform",
        "ShardedDut::run of 100k-flow uniform traffic on 1 and 4 cores: the L3-miss path, interpreter and dispatch dominate; the engine is idle",
    ),
    (
        "replay-castan",
        "ShardedDut::run of the 10-packet CASTAN trace and of Zipfian traffic: few flows, the cache-hit path and long collision chains",
    ),
    (
        "fleet-defended",
        "ClusterDut::run, 4 nodes x 4 cores under a composed skew with rebalancing, migration, a node failure and telemetry: control-plane paths",
    ),
    (
        "pipeline",
        "catalogs, analyze_chain, five workloads, replay and throughput search in one round: what a chain-table user waits for",
    ),
];

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Every workload reports every one of them. The timing bounds
/// leave room for what one commit does to itself: run-to-run spreads of up
/// to 1.9 % over ten seeds, and two sets of ten runs whose medians drifted
/// 3.1 % apart (`replay-uniform`, the memory-heaviest workload).
pub const END_TO_END: [(Metric, f64); 4] = [
    (lower("op_wall_s", "s"), 0.08),
    (higher("work_k_per_s", "k/s"), 0.08),
    (lower("peak_rss_mib", "MiB"), 0.10),
    (lower("setup_s", "s"), 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, `<crate>.<metric>`. A traced run reports all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 58] = [
    lower("packet.parse_ns", "ns"),
    lower("packet.build_ns", "ns"),
    lower("workload.gen_ns_per_pkt", "ns"),
    lower("runtime.dispatch_ns", "ns"),
    lower("runtime.toeplitz_batch_ns", "ns"),
    lower("runtime.rebalance_us", "us"),
    lower("runtime.skew_steer_ns", "ns"),
    lower("ir.interp_ns_per_step", "ns"),
    lower("ir.interp_steps_per_pkt", "count"),
    lower("ir.interp_ns_per_pkt", "ns"),
    lower("mem.access_ns", "ns"),
    lower("mem.accesses_per_pkt", "count"),
    lower("mem.l3_miss_share", "ratio"),
    lower("mem.catalog_ms", "ms"),
    lower("chain.handoff_ns", "ns"),
    lower("testbed.boot_ms", "ms"),
    lower("testbed.run_ns_per_pkt.1c", "ns"),
    lower("testbed.run_ns_per_pkt.4c", "ns"),
    lower("testbed.residual_ns_per_pkt", "ns"),
    lower("testbed.tput_search_ms", "ms"),
    lower("testbed.telemetry_overhead_pct", "%"),
    higher("testbed.sim_mpps", "Mpps"),
    lower("cluster.node_lookup_ns", "ns"),
    lower("cluster.run_ns_per_pkt", "ns"),
    lower("cluster.boot_ms", "ms"),
    lower("cluster.skew_synth_ms", "ms"),
    lower("cluster.migrated_flows", "count"),
    lower("cluster.dropped_pkts", "count"),
    lower("telemetry.snapshot_ms", "ms"),
    lower("core.analyze_ms.nat-lpm", "ms"),
    lower("core.analyze_ms.nat-lb-lpm", "ms"),
    lower("core.analyze_ms.lpm-dl1", "ms"),
    lower("core.analyze_ms.lpm-trie", "ms"),
    lower("core.analyze_ms.nat-hash", "ms"),
    lower("core.analyze_ms.nat-rbtree", "ms"),
    lower("core.explore_ms", "ms"),
    lower("core.solve_ms", "ms"),
    lower("core.merge_ms", "ms"),
    lower("core.synth_ms", "ms"),
    lower("core.ns_per_step", "ns"),
    lower("core.us_per_solver_query", "us"),
    lower("core.solver_queries", "count"),
    lower("core.solver_unknown_share", "ratio"),
    higher("core.witness_hit_share", "ratio"),
    higher("core.intern_hit_share", "ratio"),
    lower("core.states_explored", "count"),
    lower("core.forks", "count"),
    higher("core.prunes", "count"),
    lower("core.frontier_peak", "count"),
    higher("core.par2_speedup", "x"),
    lower("core.tracing_overhead_pct", "%"),
    lower("core.solver_micro_us", "us"),
    lower("core.rainbow_build_ms", "ms"),
    higher("analysis.prune_states_saved_share", "ratio"),
    lower("xcore.discover_ms", "ms"),
    higher("pipeline.adv_slowdown_x", "x"),
    lower("host.calib_ms", "ms"),
    lower("bench.trace_overhead_pct", "%"),
];

pub fn end_to_end(name: &str) -> Option<(Metric, f64)> {
    END_TO_END.iter().copied().find(|(m, _)| m.name == name)
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj()
        .with(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        )
        .with("paths", strings(&["benchmark"]))
        .with("run_seconds", Json::U64(RUN_SECONDS))
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj()
                            .with("name", Json::str(*name))
                            .with("why", Json::str(*why))
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| metric_json(m).with("bound", Json::F64(*bound)))
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        )
}

fn metric_json(m: &Metric) -> Json {
    Json::obj()
        .with("name", Json::str(m.name))
        .with("unit", Json::str(m.unit))
        .with("better", Json::str(m.better.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "bad metric name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "metric {} listed twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "bad workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        assert!(!name_ok("has space") && !name_ok(".dot-first") && !name_ok(""));
        assert!(!unit_ok("10^3 steps/s"));
    }

    #[test]
    fn bounds_respect_the_contract() {
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let (setup, bound) = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|(_, b)| *b <= bound));
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let Json::Obj(fields) = manifest() else {
            panic!("manifest is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(manifest().render().len() < 64 * 1024);
    }
}
