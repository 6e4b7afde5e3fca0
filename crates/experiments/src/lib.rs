//! # castan-experiments
//!
//! Regenerates every table and figure of the paper's evaluation (§5) on the
//! simulated testbed. Each experiment produces the same rows/series the
//! paper reports: latency CDFs (Figs. 4, 6, 7, 9, 11–15), reference-cycle
//! CDFs (Figs. 5, 8, 10), maximum throughput (Table 1), median instructions
//! retired (Table 2), median L3 misses (Table 3), CASTAN workload sizes and
//! analysis times (Table 4), and median latency deviation from NOP
//! (Table 5).
//!
//! Run `cargo run -p castan-experiments --release -- all` (or a single
//! experiment id such as `fig4` or `table1`). `--quick` scales the workloads
//! and budgets down for a fast smoke run; absolute numbers then drift
//! further from the paper but the orderings remain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use castan_analysis::{
    analyze_nf as envelope_of, chain_envelope, CostEnvelope, EnvelopeParams, NfEnvelope,
};
use castan_chain::{all_chains, core_stage_base, NfChain};
use castan_cluster::{
    cluster_skew_workload, ecmp_skew_workload, measure_cluster, ClusterConfig, ControllerConfig,
};
use castan_core::{
    analyze_chain, analyze_chain_cross_core, analyze_chain_traced, AnalysisConfig, AnalysisReport,
    CacheModelKind, Castan, ChainAnalysisReport, SearchStrategyKind, SearchTrace,
};
use castan_mem::{ContentionCatalog, HierarchyConfig, MemoryHierarchy, MultiCoreHierarchy};
use castan_nf::{all_nfs, nf_by_id, NfId, NfSpec};
use castan_runtime::{rotate_key, skew_packets, RebalancePolicy, RssDispatcher};
use castan_telemetry::{
    detector::{AttackSignature, Baseline, Detector, DetectorConfig},
    Json, Registry,
};
use castan_testbed::{
    max_throughput_mpps, measure, measure_chain, measure_sharded, victim_table, Cdf,
    DetectionConfig, Measurement, MeasurementConfig, MitigationConfig, NeighborReplay, ShardConfig,
    ShardedDut, ShardedMeasurement, TelemetryConfig, ThroughputConfig,
};
use castan_workload::{
    adaptive_skew_trace, castan_workload, chain_unirand_castan, generic_chain_workload,
    generic_workload, manual_workload, neighbor_evict_workload, skewed_chain_workload,
    unirand_castan, Workload, WorkloadConfig, WorkloadKind,
};
use castan_xcore::{
    build_eviction_plan, random_neighbor_lines, EvictionPlan, HotLineMap, XCoreConfig,
};

/// How hard to run the experiments.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Scale of the generic workloads (1.0 = the paper's packet counts).
    pub workload_scale: f64,
    /// Testbed measurement parameters.
    pub measurement: MeasurementConfig,
    /// Throughput-search parameters.
    pub throughput: ThroughputConfig,
    /// CASTAN analysis parameters.
    pub analysis: AnalysisConfig,
    /// Contention-set catalogue size (candidate lines sampled per NF region).
    pub catalog_lines: u64,
}

impl ExperimentConfig {
    /// Quick smoke configuration (seconds per experiment).
    pub fn quick() -> Self {
        ExperimentConfig {
            workload_scale: 0.01,
            measurement: MeasurementConfig {
                total_packets: 4_000,
                warmup_packets: 400,
                ..Default::default()
            },
            throughput: ThroughputConfig {
                packets_per_trial: 10_000,
                iterations: 14,
                ..Default::default()
            },
            analysis: AnalysisConfig {
                packets: 10,
                step_budget: 30_000,
                ..AnalysisConfig::quick()
            },
            catalog_lines: 2_048,
        }
    }

    /// Full configuration (minutes per experiment; paper-scale workloads).
    pub fn full() -> Self {
        ExperimentConfig {
            workload_scale: 0.25,
            measurement: MeasurementConfig {
                total_packets: 120_000,
                warmup_packets: 10_000,
                ..Default::default()
            },
            throughput: ThroughputConfig::default(),
            analysis: AnalysisConfig {
                packets: 40,
                step_budget: 250_000,
                ..Default::default()
            },
            catalog_lines: 8_192,
        }
    }
}

/// A named CDF series of one figure.
#[derive(Clone, Debug)]
pub struct FigureSeries {
    /// Workload name (legend entry).
    pub name: String,
    /// The CDF.
    pub cdf: Cdf,
}

/// One reproduced figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure id, e.g. "fig4".
    pub id: String,
    /// Title as in the paper.
    pub title: String,
    /// X-axis label ("Latency (ns)" or "Reference Clock Cycles").
    pub x_label: String,
    /// The per-workload series.
    pub series: Vec<FigureSeries>,
}

impl Figure {
    /// Renders the figure as a gnuplot-style text table (one row per CDF
    /// sample point, one column pair per series).
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n# x: {}\n", self.id, self.title, self.x_label);
        for s in &self.series {
            out.push_str(&format!(
                "# {:<16} median={:.0} p99={:.0}\n",
                s.name,
                s.cdf.median(),
                s.cdf.quantile(0.99)
            ));
        }
        out.push_str("# series: value cumulative_probability\n");
        for s in &self.series {
            out.push_str(&format!("\"{}\"\n", s.name));
            for (v, p) in s.cdf.points(21) {
                out.push_str(&format!("{v:.1} {p:.2}\n"));
            }
            out.push('\n');
        }
        out
    }

    /// The figure reduced to its per-series summary statistics — the
    /// tabular form the machine-readable result summaries use (figures and
    /// tables share one schema that way).
    pub fn summary_table(&self) -> Table {
        Table {
            id: self.id.clone(),
            title: self.title.clone(),
            columns: vec![
                "Series".into(),
                "Median".into(),
                "p99".into(),
                "Samples".into(),
            ],
            rows: self
                .series
                .iter()
                .map(|s| {
                    vec![
                        s.name.clone(),
                        format!("{:.1}", s.cdf.median()),
                        format!("{:.1}", s.cdf.quantile(0.99)),
                        s.cdf.len().to_string(),
                    ]
                })
                .collect(),
        }
    }
}

/// One reproduced table (markdown-ish rendering).
#[derive(Clone, Debug)]
pub struct Table {
    /// Table id, e.g. "table1".
    pub id: String,
    /// Title as in the paper.
    pub title: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table as GitHub-flavoured markdown.
    pub fn render(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// The machine-readable result summary every experiment emits
    /// alongside its printed table: the same id/title/columns/rows as the
    /// markdown rendering, as a `castan-experiment-result-v1` document.
    pub fn result_json(&self, config_label: &str) -> String {
        let columns = self.columns.iter().map(|c| Json::str(c.clone())).collect();
        let rows = self
            .rows
            .iter()
            .map(|r| Json::Arr(r.iter().map(|c| Json::str(c.clone())).collect()))
            .collect();
        Json::obj()
            .with("schema", Json::str("castan-experiment-result-v1"))
            .with("id", Json::str(self.id.clone()))
            .with("config", Json::str(config_label))
            .with("title", Json::str(self.title.clone()))
            .with("columns", Json::Arr(columns))
            .with("rows", Json::Arr(rows))
            .render()
    }
}

/// Builds the contention-set catalogue the analysis uses for an NF: the
/// ground-truth grouping over a sample of the NF's data regions (see
/// DESIGN.md; the probing-based §3.2 pipeline is exercised separately in
/// `castan-mem` and the `cache_contention` example).
pub fn catalog_for(nf: &NfSpec, cfg: &ExperimentConfig) -> ContentionCatalog {
    let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), 1);
    let mut lines = Vec::new();
    for region in &nf.data_regions {
        let stride = (region.len / cfg.catalog_lines.max(1)).max(64);
        let mut a = region.base;
        while a < region.end() && lines.len() < (2 * cfg.catalog_lines) as usize {
            lines.push(a);
            a += stride;
        }
    }
    ContentionCatalog::from_ground_truth(&mut hier, lines)
}

/// Runs the CASTAN analysis for an NF.
pub fn analyze_nf(nf: &NfSpec, cfg: &ExperimentConfig) -> AnalysisReport {
    let catalog = catalog_for(nf, cfg);
    Castan::new(cfg.analysis.clone()).analyze(nf, &catalog)
}

/// The full workload suite for an NF: the generic workloads plus CASTAN,
/// UniRand-CASTAN (same flow count), and Manual where it exists.
pub fn workload_suite(nf: &NfSpec, cfg: &ExperimentConfig) -> (Vec<Workload>, AnalysisReport) {
    let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
    let report = analyze_nf(nf, cfg);
    let castan_wl = castan_workload(report.packets.clone());
    let mut suite = vec![
        generic_workload(nf, WorkloadKind::OnePacket, &wl_cfg),
        generic_workload(nf, WorkloadKind::Zipfian, &wl_cfg),
        generic_workload(nf, WorkloadKind::UniRand, &wl_cfg),
        unirand_castan(nf, castan_wl.distinct_flows().max(1) as u64, &wl_cfg),
    ];
    if let Some(manual) = manual_workload(nf) {
        suite.push(manual);
    }
    if !castan_wl.is_empty() {
        suite.push(castan_wl);
    }
    (suite, report)
}

fn measure_suite(
    nf: &NfSpec,
    cfg: &ExperimentConfig,
) -> (BTreeMap<WorkloadKind, Measurement>, AnalysisReport) {
    let (suite, report) = workload_suite(nf, cfg);
    let mut out = BTreeMap::new();
    for wl in suite {
        if wl.is_empty() {
            continue;
        }
        let kind = wl.kind;
        out.insert(kind, measure(nf, &wl, &cfg.measurement));
    }
    (out, report)
}

fn nop_measurement(cfg: &ExperimentConfig) -> Measurement {
    let nop = nf_by_id(NfId::Nop);
    let wl = generic_workload(&nop, WorkloadKind::OnePacket, &WorkloadConfig::scaled(0.01));
    measure(&nop, &wl, &cfg.measurement)
}

/// Which figure shows which NF and metric.
pub fn figure_catalog() -> Vec<(&'static str, NfId, &'static str)> {
    vec![
        ("fig4", NfId::LpmDirect1, "latency"),
        ("fig5", NfId::LpmDirect1, "cycles"),
        ("fig6", NfId::LpmDirect2, "latency"),
        ("fig7", NfId::LpmTrie, "latency"),
        ("fig8", NfId::LpmTrie, "cycles"),
        ("fig9", NfId::NatUnbalancedTree, "latency"),
        ("fig10", NfId::NatUnbalancedTree, "cycles"),
        ("fig11", NfId::NatRedBlackTree, "latency"),
        ("fig12", NfId::LbHashTable, "latency"),
        ("fig13", NfId::LbHashRing, "latency"),
        ("fig14", NfId::NatHashTable, "latency"),
        ("fig15", NfId::NatHashRing, "latency"),
    ]
}

/// Reproduces one of the evaluation figures.
pub fn figure(id: &str, cfg: &ExperimentConfig) -> Option<Figure> {
    let (fig_id, nf_id, metric) = figure_catalog().into_iter().find(|(f, _, _)| *f == id)?;
    let nf = nf_by_id(nf_id);
    let (measurements, _) = measure_suite(&nf, cfg);
    let nop = nop_measurement(cfg);

    let mut series = Vec::new();
    let mut push = |name: &str, m: &Measurement| {
        let cdf = if metric == "latency" {
            m.latency_cdf()
        } else {
            m.cycles_cdf()
        };
        series.push(FigureSeries {
            name: name.to_string(),
            cdf,
        });
    };
    push("NOP", &nop);
    for kind in [
        WorkloadKind::OnePacket,
        WorkloadKind::Zipfian,
        WorkloadKind::UniRand,
        WorkloadKind::UniRandCastan,
        WorkloadKind::Castan,
        WorkloadKind::Manual,
    ] {
        if let Some(m) = measurements.get(&kind) {
            push(kind.name(), m);
        }
    }
    Some(Figure {
        id: fig_id.to_string(),
        title: format!(
            "{} CDF for {}",
            if metric == "latency" {
                "End-to-end latency"
            } else {
                "CPU reference cycles"
            },
            nf.name()
        ),
        x_label: if metric == "latency" {
            "Latency (ns)".to_string()
        } else {
            "Reference Clock Cycles".to_string()
        },
        series,
    })
}

/// The NFs in the papers' table column order.
fn table_nfs() -> Vec<NfId> {
    vec![
        NfId::LpmDirect1,
        NfId::LpmDirect2,
        NfId::LpmTrie,
        NfId::LbUnbalancedTree,
        NfId::NatUnbalancedTree,
        NfId::LbRedBlackTree,
        NfId::NatRedBlackTree,
        NfId::NatHashTable,
        NfId::LbHashTable,
        NfId::NatHashRing,
        NfId::LbHashRing,
    ]
}

fn row_workloads() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::OnePacket,
        WorkloadKind::Zipfian,
        WorkloadKind::UniRand,
        WorkloadKind::UniRandCastan,
        WorkloadKind::Castan,
        WorkloadKind::Manual,
    ]
}

/// Reproduces Tables 1 (throughput), 2 (instructions) and 3 (L3 misses) in
/// one sweep; `which` selects the rendered metric.
pub fn throughput_and_counters_table(which: u32, cfg: &ExperimentConfig) -> Table {
    let nfs = table_nfs();
    let mut columns = vec!["Workload".to_string()];
    columns.extend(nfs.iter().map(|id| id.name().to_string()));

    // NOP row first, as in the paper.
    let nop = nop_measurement(cfg);
    let nop_value = |which: u32| -> String {
        match which {
            1 => format!("{:.2}", max_throughput_mpps(&nop, &cfg.throughput)),
            2 => format!("{:.0}", nop.median_instructions()),
            _ => format!("{:.0}", nop.median_l3_misses()),
        }
    };
    let mut rows = vec![{
        let mut r = vec!["NOP".to_string()];
        r.extend(std::iter::repeat_n(nop_value(which), nfs.len()));
        r
    }];

    let mut per_nf: Vec<BTreeMap<WorkloadKind, Measurement>> = Vec::new();
    for id in &nfs {
        let nf = nf_by_id(*id);
        per_nf.push(measure_suite(&nf, cfg).0);
    }

    for kind in row_workloads() {
        let mut row = vec![kind.name().to_string()];
        for m in &per_nf {
            let cell = match m.get(&kind) {
                None => "-".to_string(),
                Some(meas) => match which {
                    1 => format!("{:.2}", max_throughput_mpps(meas, &cfg.throughput)),
                    2 => format!("{:.0}", meas.median_instructions()),
                    _ => format!("{:.0}", meas.median_l3_misses()),
                },
            };
            row.push(cell);
        }
        rows.push(row);
    }

    let (id, title) = match which {
        1 => (
            "table1",
            "Maximum throughput for each NF under each workload (Mpps)",
        ),
        2 => ("table2", "Median instructions retired per packet"),
        _ => ("table3", "Median L3 misses per packet"),
    };
    Table {
        id: id.to_string(),
        title: title.to_string(),
        columns,
        rows,
    }
}

/// Reproduces Table 4: number of packets CASTAN generated per NF and the
/// analysis run time.
pub fn table4(cfg: &ExperimentConfig) -> Table {
    let mut rows = Vec::new();
    for id in table_nfs() {
        let nf = nf_by_id(id);
        let report = analyze_nf(&nf, cfg);
        rows.push(vec![
            nf.name().to_string(),
            report.packets.len().to_string(),
            format!("{:.1}", report.analysis_time.as_secs_f64()),
            report.states_explored.to_string(),
            format!("{}/{}", report.havocs_reconciled, report.havocs_total),
        ]);
    }
    Table {
        id: "table4".to_string(),
        title: "CASTAN workload sizes and analysis run time".to_string(),
        columns: vec![
            "NF".into(),
            "# Packets".into(),
            "Time (seconds)".into(),
            "States explored".into(),
            "Havocs reconciled".into(),
        ],
        rows,
    }
}

/// Reproduces Table 5: median latency deviation from NOP under Zipfian,
/// Manual and CASTAN workloads.
pub fn table5(cfg: &ExperimentConfig) -> Table {
    let nop_median = nop_measurement(cfg).median_latency_ns();
    let mut rows = Vec::new();
    for id in table_nfs() {
        let nf = nf_by_id(id);
        let (measurements, _) = measure_suite(&nf, cfg);
        let dev = |kind: WorkloadKind| -> String {
            measurements
                .get(&kind)
                .map(|m| format!("{:.0}", m.median_latency_ns() - nop_median))
                .unwrap_or_else(|| "-".to_string())
        };
        rows.push(vec![
            nf.name().to_string(),
            dev(WorkloadKind::Zipfian),
            dev(WorkloadKind::Manual),
            dev(WorkloadKind::Castan),
        ]);
    }
    Table {
        id: "table5".to_string(),
        title: "Median latency deviation from NOP (ns)".to_string(),
        columns: vec![
            "NF".into(),
            "Zipfian".into(),
            "Manual".into(),
            "CASTAN".into(),
        ],
        rows,
    }
}

/// Builds one contention-set catalogue per chain stage.
pub fn catalogs_for_chain(chain: &NfChain, cfg: &ExperimentConfig) -> Vec<ContentionCatalog> {
    chain
        .stages
        .iter()
        .map(|s| catalog_for(&s.nf, cfg))
        .collect()
}

/// Runs the chained CASTAN analysis for a chain.
pub fn analyze_chain_for(chain: &NfChain, cfg: &ExperimentConfig) -> ChainAnalysisReport {
    let catalogs = catalogs_for_chain(chain, cfg);
    analyze_chain(&Castan::new(cfg.analysis.clone()), chain, &catalogs)
}

/// The workload suite for a chain: the generic workloads plus the
/// chain-CASTAN workload and its flow-matched UniRand control.
pub fn chain_workload_suite(
    chain: &NfChain,
    cfg: &ExperimentConfig,
) -> (Vec<Workload>, ChainAnalysisReport) {
    let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
    let report = analyze_chain_for(chain, cfg);
    let castan_wl = castan_workload(report.packets.clone());
    let mut suite = vec![
        generic_chain_workload(chain, WorkloadKind::OnePacket, &wl_cfg),
        generic_chain_workload(chain, WorkloadKind::Zipfian, &wl_cfg),
        generic_chain_workload(chain, WorkloadKind::UniRand, &wl_cfg),
        chain_unirand_castan(chain, report.distinct_flows().max(1) as u64, &wl_cfg),
    ];
    if !castan_wl.is_empty() {
        suite.push(castan_wl);
    }
    (suite, report)
}

/// The `chain-table` experiment: maximum throughput (and median end-to-end
/// cycles per packet) for each canonical chain under each workload. The
/// chain analogue of Table 1, plus the per-packet cycle count that explains
/// the ordering.
pub fn chain_table(cfg: &ExperimentConfig) -> Table {
    let chains = all_chains();
    let mut columns = vec!["Workload".to_string()];
    columns.extend(chains.iter().map(|c| c.name().to_string()));

    let mut per_chain: Vec<BTreeMap<WorkloadKind, (f64, f64)>> = Vec::new();
    for chain in &chains {
        let (suite, _) = chain_workload_suite(chain, cfg);
        let mut cells = BTreeMap::new();
        for wl in suite {
            if wl.is_empty() {
                continue;
            }
            let m = measure_chain(chain, &wl, &cfg.measurement).as_measurement();
            let mpps = max_throughput_mpps(&m, &cfg.throughput);
            cells.insert(wl.kind, (mpps, m.median_cycles()));
        }
        per_chain.push(cells);
    }

    let mut rows = Vec::new();
    for kind in [
        WorkloadKind::OnePacket,
        WorkloadKind::Zipfian,
        WorkloadKind::UniRand,
        WorkloadKind::UniRandCastan,
        WorkloadKind::Castan,
    ] {
        let mut row = vec![kind.name().to_string()];
        for cells in &per_chain {
            let cell = match cells.get(&kind) {
                None => "-".to_string(),
                Some((mpps, cycles)) => format!("{mpps:.2} ({cycles:.0}c)"),
            };
            row.push(cell);
        }
        rows.push(row);
    }

    Table {
        id: "chain-table".to_string(),
        title: "Maximum throughput per chain and workload (Mpps, median cycles/packet)".to_string(),
        columns,
        rows,
    }
}

/// Core counts the `rss-scaling` experiment sweeps.
pub const RSS_CORE_COUNTS: [usize; 3] = [1, 2, 4];

/// One cell of the `rss-scaling` sweep: one chain, one workload, one core
/// count.
#[derive(Clone, Debug)]
pub struct RssScalingCell {
    /// Chain name.
    pub chain: String,
    /// Workload kind.
    pub workload: WorkloadKind,
    /// Number of simulated cores.
    pub cores: usize,
    /// Aggregate forwarding rate (bounded by the bottleneck core).
    pub mpps: f64,
    /// Fraction of measured packets on the busiest core (1/cores under
    /// perfect balance, → 1.0 under full queue skew).
    pub bottleneck_share: f64,
}

/// The workloads the `rss-scaling` experiment runs per chain: Zipfian and
/// UniRand baselines, the chain-CASTAN adversarial workload, and the
/// RSS-Skew workload (uniform traffic steered so every 5-tuple hashes to
/// queue 0).
///
/// The skew is synthesized against the *largest* swept core count; with a
/// round-robin indirection table, an index that maps to queue 0 at
/// `max(RSS_CORE_COUNTS)` queues also maps to queue 0 at every divisor, so
/// one steered trace exhibits full skew across the whole sweep.
pub fn rss_scaling_workloads(chain: &NfChain, cfg: &ExperimentConfig) -> Vec<Workload> {
    let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
    let dispatcher = RssDispatcher::for_queues(*RSS_CORE_COUNTS.last().unwrap());
    let report = analyze_chain_for(chain, cfg);
    let castan_wl = castan_workload(report.packets.clone());
    let mut suite = vec![
        generic_chain_workload(chain, WorkloadKind::Zipfian, &wl_cfg),
        generic_chain_workload(chain, WorkloadKind::UniRand, &wl_cfg),
    ];
    if !castan_wl.is_empty() {
        suite.push(castan_wl);
    }
    suite.push(skewed_chain_workload(
        chain,
        WorkloadKind::UniRand,
        &wl_cfg,
        &dispatcher,
        0,
    ));
    suite
}

/// Runs the `rss-scaling` sweep for the given chains: aggregate throughput
/// of the sharded runtime for every (chain, workload, core count).
pub fn rss_scaling_data_for(chains: &[NfChain], cfg: &ExperimentConfig) -> Vec<RssScalingCell> {
    let mut cells = Vec::new();
    for chain in chains {
        let suite = rss_scaling_workloads(chain, cfg);
        for wl in &suite {
            if wl.is_empty() {
                continue;
            }
            for &cores in &RSS_CORE_COUNTS {
                let m = measure_sharded(chain, ShardConfig::new(cores), wl, &cfg.measurement);
                cells.push(RssScalingCell {
                    chain: chain.name().to_string(),
                    workload: wl.kind,
                    cores,
                    mpps: m.aggregate_mpps(),
                    bottleneck_share: m.bottleneck_share(),
                });
            }
        }
    }
    cells
}

/// The `rss-scaling` experiment: aggregate throughput vs core count for
/// every chain in the catalog under Zipfian, UniRand, chain-CASTAN and
/// RSS-Skew traffic. Uniform traffic scales near-linearly with the core
/// count; the skew workload pins every flow to one queue, so the added
/// cores contribute nothing and the aggregate stays at roughly the
/// single-core rate.
pub fn rss_scaling(cfg: &ExperimentConfig) -> Table {
    rss_scaling_for(&all_chains(), cfg)
}

/// [`rss_scaling`] restricted to the given chains (tests use a subset to
/// keep the debug tier-1 run tractable).
pub fn rss_scaling_for(chains: &[NfChain], cfg: &ExperimentConfig) -> Table {
    let cells = rss_scaling_data_for(chains, cfg);

    let mut columns = vec!["Chain / workload".to_string()];
    columns.extend(RSS_CORE_COUNTS.iter().map(|c| {
        format!(
            "{c} core{} (Mpps, max-core share)",
            if *c == 1 { "" } else { "s" }
        )
    }));

    let mut rows = Vec::new();
    for chain in chains {
        for kind in [
            WorkloadKind::Zipfian,
            WorkloadKind::UniRand,
            WorkloadKind::Castan,
            WorkloadKind::RssSkew,
        ] {
            let per_cores: Vec<&RssScalingCell> = cells
                .iter()
                .filter(|c| c.chain == chain.name() && c.workload == kind)
                .collect();
            if per_cores.is_empty() {
                continue;
            }
            let mut row = vec![format!("{}/{}", chain.name(), kind.name())];
            for &cores in &RSS_CORE_COUNTS {
                let cell = per_cores.iter().find(|c| c.cores == cores);
                row.push(match cell {
                    None => "-".to_string(),
                    Some(c) => format!("{:.2} ({:.0}%)", c.mpps, c.bottleneck_share * 100.0),
                });
            }
            rows.push(row);
        }
    }

    Table {
        id: "rss-scaling".to_string(),
        title: "Aggregate throughput of the sharded RSS runtime vs core count".to_string(),
        columns,
        rows,
    }
}

/// Cores the `rss-mitigation` experiment runs on (the acceptance bars are
/// defined at this width).
pub const RSS_MITIGATION_CORES: usize = 4;

/// The mitigation configurations the `rss-mitigation` experiment sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MitigationKind {
    /// Plain sharded runtime — today's `ShardedDut` behaviour.
    NoMitigation,
    /// Least-loaded epoch rebalancing with free state moves (the
    /// upper bound a rebalancer could reach).
    Rebalance,
    /// Least-loaded epoch rebalancing with every moved flow's state pull
    /// charged through the shared L3.
    RebalanceMigration,
    /// Rebalancing + migration cost + the work-stealing sink.
    RebalanceMigrationStealing,
    /// Rebalancing + per-epoch Toeplitz key rotation: the defender re-keys
    /// at every epoch boundary, so an attacker who fingerprinted the boot
    /// key must re-fingerprint mid-attack.
    RebalanceKeyRotation,
}

impl MitigationKind {
    /// All swept configurations, in table order.
    pub const ALL: [MitigationKind; 5] = [
        MitigationKind::NoMitigation,
        MitigationKind::Rebalance,
        MitigationKind::RebalanceMigration,
        MitigationKind::RebalanceMigrationStealing,
        MitigationKind::RebalanceKeyRotation,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MitigationKind::NoMitigation => "none",
            MitigationKind::Rebalance => "rebalance",
            MitigationKind::RebalanceMigration => "rebalance+migration",
            MitigationKind::RebalanceMigrationStealing => "rebalance+migration+stealing",
            MitigationKind::RebalanceKeyRotation => "rebalance+key-rotation",
        }
    }

    /// The testbed configuration for this mitigation (least-loaded policy
    /// throughout; the policy comparison lives in `castan-runtime`'s
    /// rebalance benchmarks and tests).
    pub fn config(self, epoch_packets: usize) -> Option<MitigationConfig> {
        let rebalance = MitigationConfig::rebalance(epoch_packets, RebalancePolicy::LeastLoaded);
        match self {
            MitigationKind::NoMitigation => None,
            MitigationKind::Rebalance => Some(rebalance),
            MitigationKind::RebalanceMigration => Some(rebalance.with_migration_cost()),
            MitigationKind::RebalanceMigrationStealing => {
                Some(rebalance.with_migration_cost().with_work_stealing())
            }
            MitigationKind::RebalanceKeyRotation => Some(rebalance.with_key_rotation()),
        }
    }
}

/// The rebalance epoch the experiment uses: eight epochs per run (bounded
/// below so tiny test configurations still get multi-packet epochs).
pub fn rss_mitigation_epoch(cfg: &ExperimentConfig) -> usize {
    (cfg.measurement.total_packets / 8).max(32)
}

/// One cell of the `rss-mitigation` sweep.
#[derive(Clone, Debug)]
pub struct RssMitigationCell {
    /// Chain name.
    pub chain: String,
    /// Traffic: UniRand (uniform), RSS-Skew (static skew) or Adaptive-Skew.
    pub workload: WorkloadKind,
    /// The defender configuration.
    pub mitigation: MitigationKind,
    /// Aggregate forwarding rate (bounded by the bottleneck core, including
    /// its migration/steal overhead).
    pub mpps: f64,
    /// Fraction of measured packets on the busiest core.
    pub bottleneck_share: f64,
    /// Median end-to-end latency per core (NaN for idle cores).
    pub core_median_latency_ns: Vec<f64>,
    /// p99 end-to-end latency per core (NaN for idle cores).
    pub core_p99_latency_ns: Vec<f64>,
    /// Flows whose state was migrated by rebalances.
    pub migrated_flows: usize,
    /// Batches executed away from their home queue by work stealing.
    pub stolen_batches: usize,
}

/// Runs the attack–defense rounds that build the adaptive-skew workload
/// for a chain: probe the least-loaded rebalancing defender, learn its
/// per-epoch table schedule, re-steer each epoch against it, repeat. The
/// defender's table schedule is a deterministic function of the dispatched
/// loads alone, so epoch `e`'s table stabilises after `e` rounds — running
/// one round per epoch reaches the fixed point, where every epoch of the
/// final trace lands entirely on the victim queue *despite* the rebalancer
/// (the migration cost model and work stealing never change dispatch, so
/// the same trace defeats those variants' rebalancing too).
pub fn adaptive_skew_chain_workload(
    chain: &NfChain,
    cfg: &ExperimentConfig,
    target_queue: usize,
) -> Workload {
    let epoch = rss_mitigation_epoch(cfg);
    let total = cfg.measurement.total_packets;
    let shard = ShardConfig::new(RSS_MITIGATION_CORES).with_mitigation(
        MitigationConfig::rebalance(epoch, RebalancePolicy::LeastLoaded),
    );
    let base = generic_chain_workload(
        chain,
        WorkloadKind::UniRand,
        &WorkloadConfig::scaled(cfg.workload_scale),
    );
    let rounds = total.div_ceil(epoch).min(16);
    let mut tables = vec![RssDispatcher::new(shard.rss).table().to_vec()];
    let mut wl = adaptive_skew_trace(&base, &tables, epoch, shard.rss, target_queue, total);
    for _ in 0..rounds {
        let probe = measure_sharded(chain, shard, &wl, &cfg.measurement);
        if probe.table_history == tables {
            // Fixed point: the defender reproduced the schedule the trace
            // was already steered against, so another round would re-derive
            // the identical workload. Usually hit well before the bound.
            break;
        }
        tables = probe.table_history;
        wl = adaptive_skew_trace(&base, &tables, epoch, shard.rss, target_queue, total);
    }
    wl
}

/// One run of the *online resynthesis* attacker: the composed workload
/// plus the cost of mounting it.
#[derive(Clone, Debug)]
pub struct ResynthesisRun {
    /// The per-epoch re-synthesized, re-steered workload.
    pub workload: Workload,
    /// Wall-clock of each epoch's full chain synthesis (host-dependent,
    /// informative only — the point is that it fits inside an epoch).
    pub per_epoch_synthesis_wall_ms: Vec<u64>,
}

/// Builds the [`WorkloadKind::ResynthSkew`] workload: the attacker the
/// parallel search engine unlocks. For every rebalance epoch the full
/// CASTAN chain synthesis is re-run from scratch (an online attacker holds
/// no precomputed state — the defender's key schedule obsoletes it) and
/// the fresh packets are steered onto `target_queue` under the Toeplitz
/// key the key-rotating defender uses in that epoch
/// ([`rotate_key`]`(boot, epoch)`, the schedule `castan-testbed` applies).
///
/// Against [`MitigationKind::RebalanceKeyRotation`] this restores exactly
/// the static-skew-vs-rebalance picture: key rotation alone no longer
/// sheds the attack, only the table rebalancing does. Deterministic —
/// every epoch's synthesis and steering depend only on the configuration
/// and the epoch index.
pub fn resynth_skew_chain_workload(
    chain: &NfChain,
    cfg: &ExperimentConfig,
    target_queue: usize,
) -> ResynthesisRun {
    let epoch = rss_mitigation_epoch(cfg);
    let total = cfg.measurement.total_packets;
    let boot = ShardConfig::new(RSS_MITIGATION_CORES).rss;
    let mut packets = Vec::with_capacity(total);
    let mut walls = Vec::new();
    let mut e = 0u64;
    while packets.len() < total {
        let t = std::time::Instant::now();
        let report = analyze_chain_for(chain, cfg);
        walls.push(t.elapsed().as_millis() as u64);
        let mut dispatcher = RssDispatcher::new(boot);
        dispatcher.set_key(rotate_key(&boot.key, e));
        let skew = skew_packets(&report.packets, &dispatcher, target_queue);
        let n = epoch.min(total - packets.len());
        packets.extend((0..n).map(|i| skew.packets[i % skew.packets.len()]));
        e += 1;
    }
    ResynthesisRun {
        workload: Workload {
            kind: WorkloadKind::ResynthSkew,
            packets,
        },
        per_epoch_synthesis_wall_ms: walls,
    }
}

/// Runs the `rss-mitigation` sweep for the given chains:
/// {uniform, static skew, adaptive skew} × {no-mitigation, rebalance,
/// rebalance+migration, rebalance+migration+stealing} at
/// [`RSS_MITIGATION_CORES`] cores, reporting aggregate Mpps and per-core
/// latency CDFs. The widest chain (nat-lb-lpm) additionally gets the
/// per-epoch resynthesis arm ([`resynth_skew_chain_workload`]) — the
/// online attacker whose every epoch re-runs the full synthesis.
pub fn rss_mitigation_data_for(
    chains: &[NfChain],
    cfg: &ExperimentConfig,
) -> Vec<RssMitigationCell> {
    let epoch = rss_mitigation_epoch(cfg);
    let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
    let mut cells = Vec::new();
    for chain in chains {
        let plain = ShardConfig::new(RSS_MITIGATION_CORES);
        let dispatcher = RssDispatcher::new(plain.rss);
        let mut suite = vec![
            generic_chain_workload(chain, WorkloadKind::UniRand, &wl_cfg),
            skewed_chain_workload(chain, WorkloadKind::UniRand, &wl_cfg, &dispatcher, 0),
            adaptive_skew_chain_workload(chain, cfg, 0),
        ];
        if chain.name() == castan_chain::ChainId::NatLbLpm.name() {
            suite.push(resynth_skew_chain_workload(chain, cfg, 0).workload);
        }
        for wl in &suite {
            for mitigation in MitigationKind::ALL {
                let shard = match mitigation.config(epoch) {
                    None => plain,
                    Some(m) => plain.with_mitigation(m),
                };
                let m = measure_sharded(chain, shard, wl, &cfg.measurement);
                let cdfs = m.per_core_latency_cdfs();
                cells.push(RssMitigationCell {
                    chain: chain.name().to_string(),
                    workload: wl.kind,
                    mitigation,
                    mpps: m.aggregate_mpps(),
                    bottleneck_share: m.bottleneck_share(),
                    core_median_latency_ns: cdfs.iter().map(Cdf::median).collect(),
                    core_p99_latency_ns: cdfs.iter().map(|c| c.quantile(0.99)).collect(),
                    migrated_flows: m.migrated_flows(),
                    stolen_batches: m.stolen_batches(),
                });
            }
        }
    }
    cells
}

/// The `rss-mitigation` experiment over the whole chain catalog: closes
/// the attack–defense loop the `rss-scaling` experiment opened. Least-
/// loaded rebalancing restores most of the multi-core speedup against a
/// *static* queue-skew attack (epoch 0 is lost, every later epoch is
/// spread); the adaptive attacker re-steers each epoch against the
/// defender's own table schedule and drags throughput back to the
/// single-core rate; only the work-stealing sink — which gives up
/// flow→core affinity — holds throughput under adaptive skew.
pub fn rss_mitigation(cfg: &ExperimentConfig) -> Table {
    rss_mitigation_for(&all_chains(), cfg)
}

/// [`rss_mitigation`] restricted to the given chains (tests use a subset
/// to keep the debug tier-1 run tractable).
pub fn rss_mitigation_for(chains: &[NfChain], cfg: &ExperimentConfig) -> Table {
    let cells = rss_mitigation_data_for(chains, cfg);
    let fmt_range = |values: &[f64]| -> String {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return "-".to_string();
        }
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{min:.0}–{max:.0} ({}/{} busy)", finite.len(), values.len())
    };
    let rows = cells
        .iter()
        .map(|c| {
            vec![
                format!("{}/{}/{}", c.chain, c.workload.name(), c.mitigation.name()),
                format!("{:.2}", c.mpps),
                format!("{:.0}%", c.bottleneck_share * 100.0),
                fmt_range(&c.core_median_latency_ns),
                fmt_range(&c.core_p99_latency_ns),
                c.migrated_flows.to_string(),
                c.stolen_batches.to_string(),
            ]
        })
        .collect();
    Table {
        id: "rss-mitigation".to_string(),
        title: format!(
            "Queue-skew mitigations at {RSS_MITIGATION_CORES} cores: \
             aggregate throughput and per-core latency under static and \
             adaptive skew"
        ),
        columns: vec![
            "Chain / traffic / mitigation".into(),
            "Mpps".into(),
            "Max-core share".into(),
            "Per-core p50 (ns)".into(),
            "Per-core p99 (ns)".into(),
            "Migrated flows".into(),
            "Stolen batches".into(),
        ],
        rows,
    }
}

/// Core counts the `xcore-contention` experiment sweeps (one attacker core
/// plus 1 or 3 victim cores).
pub const XCORE_CORE_COUNTS: [usize; 2] = [2, 4];

/// Victim hot lines kept per profile (hottest first) when building the
/// eviction plan.
pub const XCORE_HOT_LINES: usize = 64;

/// The neighbour arms of the `xcore-contention` experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NeighborKind {
    /// The attacker core idles — the baseline (no replay installed).
    NoAttacker,
    /// The attacker replays uniformly random lines of its own address
    /// window at the same rate as the planned replay — the equal-rate
    /// control that separates *targeted* eviction from generic cache
    /// pressure.
    RandomNeighbor,
    /// The attacker replays the `castan-xcore` eviction plan: >α colliding
    /// lines through each of the victim's hottest (slice, set) buckets
    /// between every pair of batches.
    PlannedEviction,
}

impl NeighborKind {
    /// All arms, in table order.
    pub const ALL: [NeighborKind; 3] = [
        NeighborKind::NoAttacker,
        NeighborKind::RandomNeighbor,
        NeighborKind::PlannedEviction,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NeighborKind::NoAttacker => "no-attacker",
            NeighborKind::RandomNeighbor => "random-neighbour",
            NeighborKind::PlannedEviction => "planned-eviction",
        }
    }
}

/// One cell of the `xcore-contention` sweep.
#[derive(Clone, Debug)]
pub struct XCoreCell {
    /// Chain name.
    pub chain: String,
    /// Number of cores (the last one is the attacker).
    pub cores: usize,
    /// The neighbour arm.
    pub neighbor: NeighborKind,
    /// The victims' aggregate forwarding rate (the attacker core serves no
    /// packets and its replay cycles are never charged to victims).
    pub victim_mpps: f64,
    /// Victims' L3 misses per measured packet.
    pub victim_misses_per_packet: f64,
    /// Lines the attacker replay touched during the run.
    pub attacker_touches: u64,
    /// Buckets the eviction plan targeted.
    pub plan_buckets: usize,
    /// Attacker lines in one replay pass.
    pub plan_lines: usize,
}

/// True iff `line` lies inside one of `core`'s stage data regions.
fn in_core_regions(chain: &NfChain, core: usize, line: u64) -> bool {
    chain.stages.iter().enumerate().any(|(s, stage)| {
        let base = core_stage_base(core, s);
        stage
            .nf
            .data_regions
            .iter()
            .any(|r| line >= base + r.base && line < base + r.end())
    })
}

/// Boots the noisy-neighbour deployment: premapped pages (so the plan's
/// oracle predicts this DUT's buckets) and victim traffic on every core but
/// `attacker`; no replay installed.
fn noisy_neighbor_dut(
    chain: &NfChain,
    cores: usize,
    attacker: usize,
    cfg: &ExperimentConfig,
) -> ShardedDut {
    let shard = ShardConfig::new(cores).with_premapped_pages();
    let mut dut = ShardedDut::new(chain.clone(), shard, &cfg.measurement);
    dut.set_boot_table(Some(victim_table(&shard.rss, attacker)));
    dut
}

/// L3 misses per measured packet, both taken over every core's measured
/// packets: with 5-tuple traffic the attacker core serves none, so this is
/// the victims' ratio; a non-flow packet bypasses the indirection table
/// onto queue 0 whoever owns it, and then counts on both sides.
fn l3_misses_per_packet(m: &ShardedMeasurement) -> f64 {
    match m.measured_packets() {
        0 => 0.0,
        packets => m.aggregate_counters().l3_misses as f64 / packets as f64,
    }
}

/// Profiles every victim core under the noisy-neighbour deployment (one
/// run — the striped windows keep per-core heat unambiguous) and builds
/// the ranked eviction plan against the premapped ground-truth oracle
/// (discovery-based cataloguing of the same buckets is validated in
/// `castan-xcore`; the oracle is the experiments' fast path, exactly like
/// `catalog_for`). Plan size scales with the victim count, so every
/// victim core's hottest buckets get targeted — the bottleneck core is
/// whichever victim happens to be busiest, and degrading only one of them
/// would leave the others to bound throughput.
pub fn xcore_eviction_plan(
    chain: &NfChain,
    victim_wl: &Workload,
    cores: usize,
    cfg: &ExperimentConfig,
) -> EvictionPlan {
    let attacker = cores - 1;
    let victims = cores - 1;
    let mut profiler = noisy_neighbor_dut(chain, cores, attacker, cfg);
    let heat: Vec<(u64, u64)> = profiler
        .profile_heat_all(victim_wl, &cfg.measurement)
        .into_iter()
        // Only lines of the victims' own stage state are plannable: the
        // oracle premaps exactly the deployment's data regions, and
        // forwarding-path scratch outside them is not worth evicting.
        .filter(|&(line, _)| {
            (0..cores)
                .filter(|&c| c != attacker)
                .any(|c| in_core_regions(chain, c, line))
        })
        .collect();
    let hot = HotLineMap::from_heat(&heat, XCORE_HOT_LINES * victims);
    let mut oracle = MultiCoreHierarchy::new(
        HierarchyConfig::xeon_e5_2667v2(),
        cfg.measurement.boot_seed,
        cores,
    );
    let xcfg = XCoreConfig {
        attacker_core: attacker,
        max_target_sets: XCoreConfig::default().max_target_sets * victims,
        ..XCoreConfig::default()
    };
    build_eviction_plan(chain, &hot, &mut oracle, cores, &xcfg)
}

/// Runs the `xcore-contention` sweep for the given chains: victim Zipfian
/// traffic on all-but-one cores, the last core idle / replaying random
/// lines / replaying the eviction plan between batches, at every
/// [`XCORE_CORE_COUNTS`] width.
pub fn xcore_contention_data_for(chains: &[NfChain], cfg: &ExperimentConfig) -> Vec<XCoreCell> {
    let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
    let mut cells = Vec::new();
    for chain in chains {
        if chain.stages.iter().all(|s| s.nf.data_regions.is_empty()) {
            // Nothing to evict and no attacker window to replay from
            // (nop-only chains keep no state).
            continue;
        }
        let victim_wl = generic_chain_workload(chain, WorkloadKind::Zipfian, &wl_cfg);
        for &cores in &XCORE_CORE_COUNTS {
            let attacker = cores - 1;
            let plan = xcore_eviction_plan(chain, &victim_wl, cores, cfg);
            let replay = plan.replay_lines();
            // Equal rate by construction: the random control replays
            // exactly as many lines as the plan, per batch and in total —
            // including zero when no bucket was attackable (an empty
            // replay is a no-op, so all three arms then coincide instead
            // of the control silently out-touching the plan).
            let rate = replay.len();
            for kind in NeighborKind::ALL {
                let lines = match kind {
                    NeighborKind::NoAttacker => None,
                    NeighborKind::RandomNeighbor => Some(random_neighbor_lines(
                        chain,
                        attacker,
                        replay.len(),
                        cfg.measurement.seed ^ 0x5EED,
                    )),
                    NeighborKind::PlannedEviction => Some(replay.clone()),
                };
                let mut dut = noisy_neighbor_dut(chain, cores, attacker, cfg);
                dut.set_neighbor(lines.map(|lines| NeighborReplay {
                    attacker_core: attacker,
                    lines,
                    lines_per_batch: rate,
                }));
                let m = dut.run(&victim_wl, &cfg.measurement);
                cells.push(XCoreCell {
                    chain: chain.name().to_string(),
                    cores,
                    neighbor: kind,
                    victim_mpps: m.aggregate_mpps(),
                    victim_misses_per_packet: l3_misses_per_packet(&m),
                    attacker_touches: dut.neighbor_cost().0,
                    plan_buckets: plan.len(),
                    plan_lines: replay.len(),
                });
            }
        }
    }
    cells
}

/// The `xcore-contention` experiment over the whole chain catalog: the
/// cross-core contention attack of `castan-xcore`, measured. A planned
/// eviction replay degrades the victims' throughput measurably more than
/// an equal-rate random neighbour — generic cache pressure spreads over
/// all (slice, set) buckets and mostly stays resident, while the plan
/// pushes >α colliding lines through exactly the buckets carrying the
/// victims' hottest lines.
pub fn xcore_contention(cfg: &ExperimentConfig) -> Table {
    xcore_contention_for(&all_chains(), cfg)
}

/// [`xcore_contention`] restricted to the given chains (tests use a subset
/// to keep the debug tier-1 run tractable).
pub fn xcore_contention_for(chains: &[NfChain], cfg: &ExperimentConfig) -> Table {
    let cells = xcore_contention_data_for(chains, cfg);
    let rows = cells
        .iter()
        .map(|c| {
            vec![
                format!("{}/{} cores/{}", c.chain, c.cores, c.neighbor.name()),
                format!("{:.2}", c.victim_mpps),
                format!("{:.2}", c.victim_misses_per_packet),
                c.attacker_touches.to_string(),
                format!("{} × {}", c.plan_buckets, c.plan_lines),
            ]
        })
        .collect();
    Table {
        id: "xcore-contention".to_string(),
        title: "Cross-core contention: victim throughput under an idle, random \
                and plan-driven neighbour core"
            .to_string(),
        columns: vec![
            "Chain / cores / neighbour".into(),
            "Victim Mpps".into(),
            "Victim L3 misses/pkt".into(),
            "Attacker touches".into(),
            "Plan (buckets × lines)".into(),
        ],
        rows,
    }
}

/// Node counts the `cluster-skew` experiment sweeps (each node is a full
/// sharded server with [`CLUSTER_CORES`] cores behind the ECMP front
/// tier).
pub const CLUSTER_NODE_COUNTS: [usize; 2] = [2, 4];

/// Cores per node in the `cluster-skew` experiment — the
/// [`RSS_MITIGATION_CORES`] width, one level down.
pub const CLUSTER_CORES: usize = 4;

/// The node the cluster-level attacks pin, and the node the drain arm
/// crashes mid-run (killing the attacker's chosen target is the
/// interesting failure: its state is exactly what must be rebuilt).
pub const CLUSTER_TARGET_NODE: u32 = 0;

/// The defender arms of the `cluster-skew` experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClusterArm {
    /// The boot bucket table for the whole run; a failed node would
    /// blackhole its traffic at the front tier.
    NoMitigation,
    /// The cluster controller: least-loaded bucket rebalancing each epoch,
    /// with every moved flow's state transfer charged to the destination
    /// node (`castan-cluster`'s cross-node migration cost model).
    NodeRebalance,
    /// The controller plus drain-on-fail recovery, exercised by crashing
    /// [`CLUSTER_TARGET_NODE`] halfway through the run: the dead node's
    /// buckets reassign immediately and the flows seen on them are rebuilt
    /// at [`castan_cluster::NODE_REBUILD_FACTOR`]× the transfer cost.
    RebalanceDrain,
}

impl ClusterArm {
    /// All arms, in table order.
    pub const ALL: [ClusterArm; 3] = [
        ClusterArm::NoMitigation,
        ClusterArm::NodeRebalance,
        ClusterArm::RebalanceDrain,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ClusterArm::NoMitigation => "none",
            ClusterArm::NodeRebalance => "node-rebalance",
            ClusterArm::RebalanceDrain => "rebalance+drain-on-fail",
        }
    }

    /// The cluster configuration for this arm (least-loaded policy
    /// throughout, as in the node-level mitigation sweep).
    pub fn config(self, base: ClusterConfig, epoch: usize, total_packets: usize) -> ClusterConfig {
        let controller =
            ControllerConfig::rebalance(epoch, RebalancePolicy::LeastLoaded).with_migration_cost();
        match self {
            ClusterArm::NoMitigation => base,
            ClusterArm::NodeRebalance => base.with_controller(controller),
            ClusterArm::RebalanceDrain => base
                .with_controller(controller)
                .with_drain_on_fail()
                .with_failure(CLUSTER_TARGET_NODE, total_packets / 2),
        }
    }
}

/// The workloads the `cluster-skew` experiment runs per (chain, node
/// count): uniform and Zipfian baselines, the chain-CASTAN workload, the
/// node-pinning ECMP skew and the core-pinning ECMP×RSS composed skew.
///
/// Unlike the RSS sweep — where one trace steered at the largest
/// round-robin table covers every divisor width — rendezvous node weights
/// don't nest across fleet sizes, so each node count gets its own steered
/// traces against its own boot map.
pub fn cluster_skew_workloads(
    chain: &NfChain,
    n_nodes: usize,
    castan_wl: &Workload,
    cfg: &ExperimentConfig,
) -> Vec<Workload> {
    let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
    let shard = ShardConfig::new(CLUSTER_CORES);
    let map = ClusterConfig::new(n_nodes, shard).boot_map();
    let dispatcher = RssDispatcher::new(shard.rss);
    let uni = generic_chain_workload(chain, WorkloadKind::UniRand, &wl_cfg);
    let mut suite = vec![
        uni.clone(),
        generic_chain_workload(chain, WorkloadKind::Zipfian, &wl_cfg),
    ];
    if !castan_wl.is_empty() {
        suite.push(castan_wl.clone());
    }
    suite.push(ecmp_skew_workload(&uni, &map, CLUSTER_TARGET_NODE));
    suite.push(cluster_skew_workload(
        &uni,
        &map,
        &dispatcher,
        CLUSTER_TARGET_NODE,
        0,
    ));
    suite
}

/// One cell of the `cluster-skew` sweep.
#[derive(Clone, Debug)]
pub struct ClusterSkewCell {
    /// Chain name.
    pub chain: String,
    /// Traffic kind.
    pub workload: WorkloadKind,
    /// Fleet width (each node at [`CLUSTER_CORES`] cores).
    pub nodes: usize,
    /// The defender arm.
    pub arm: ClusterArm,
    /// Aggregate forwarding rate, bounded by the busiest core anywhere in
    /// the fleet plus its node's migration overhead.
    pub mpps: f64,
    /// Fraction of the fleet's measured packets on that busiest core
    /// (1/(nodes × cores) under perfect balance, → 1.0 under the composed
    /// attack).
    pub bottleneck_core_share: f64,
    /// Packets blackholed at the front tier (non-zero only when a failure
    /// goes unhandled).
    pub front_dropped: usize,
    /// Flows whose state was gracefully migrated between nodes.
    pub migrated_flows: usize,
    /// Flows rebuilt from scratch after the scheduled failure.
    pub rebuilt_flows: usize,
}

/// Runs the `cluster-skew` sweep for the given chains:
/// {uniform, Zipfian, chain-CASTAN, ECMP skew, ECMP×RSS composed skew} ×
/// [`CLUSTER_NODE_COUNTS`] × [`ClusterArm::ALL`].
pub fn cluster_skew_data_for(chains: &[NfChain], cfg: &ExperimentConfig) -> Vec<ClusterSkewCell> {
    let epoch = rss_mitigation_epoch(cfg);
    let mut cells = Vec::new();
    for chain in chains {
        let castan_wl = castan_workload(analyze_chain_for(chain, cfg).packets.clone());
        for &nodes in &CLUSTER_NODE_COUNTS {
            let suite = cluster_skew_workloads(chain, nodes, &castan_wl, cfg);
            for wl in &suite {
                if wl.is_empty() {
                    continue;
                }
                for arm in ClusterArm::ALL {
                    let base = ClusterConfig::new(nodes, ShardConfig::new(CLUSTER_CORES));
                    let cluster = arm.config(base, epoch, cfg.measurement.total_packets);
                    let m = measure_cluster(chain, cluster, wl, &cfg.measurement);
                    cells.push(ClusterSkewCell {
                        chain: chain.name().to_string(),
                        workload: wl.kind,
                        nodes,
                        arm,
                        mpps: m.aggregate_mpps(),
                        bottleneck_core_share: m.bottleneck_core_share(),
                        front_dropped: m.front_dropped,
                        migrated_flows: m.migrated_flows(),
                        rebuilt_flows: m.rebuilt_flows(),
                    });
                }
            }
        }
    }
    cells
}

/// The `cluster-skew` experiment over the whole chain catalog: the fleet
/// analogue of `rss-scaling` + `rss-mitigation`. Uniform traffic scales
/// near-linearly with the node count; ECMP skew pins one node (its RSS
/// still spreads within the node); the composed ECMP×RSS attack threads
/// both hash layers and serialises the entire fleet behind a single core;
/// cluster-level rebalancing spreads the hot buckets across nodes again,
/// and drain-on-fail keeps that recovery through the attacked node's
/// crash.
pub fn cluster_skew(cfg: &ExperimentConfig) -> Table {
    cluster_skew_for(&all_chains(), cfg)
}

/// [`cluster_skew`] restricted to the given chains (tests use a subset to
/// keep the debug tier-1 run tractable).
pub fn cluster_skew_for(chains: &[NfChain], cfg: &ExperimentConfig) -> Table {
    let cells = cluster_skew_data_for(chains, cfg);

    let mut columns = vec!["Chain / traffic / arm".to_string()];
    columns.extend(
        CLUSTER_NODE_COUNTS
            .iter()
            .map(|n| format!("{n} nodes × {CLUSTER_CORES} cores (Mpps, max-core share)")),
    );

    let mut rows = Vec::new();
    for chain in chains {
        for kind in [
            WorkloadKind::UniRand,
            WorkloadKind::Zipfian,
            WorkloadKind::Castan,
            WorkloadKind::EcmpSkew,
            WorkloadKind::ClusterSkew,
        ] {
            for arm in ClusterArm::ALL {
                let per_nodes: Vec<&ClusterSkewCell> = cells
                    .iter()
                    .filter(|c| c.chain == chain.name() && c.workload == kind && c.arm == arm)
                    .collect();
                if per_nodes.is_empty() {
                    continue;
                }
                let mut row = vec![format!("{}/{}/{}", chain.name(), kind.name(), arm.name())];
                for &n in &CLUSTER_NODE_COUNTS {
                    row.push(match per_nodes.iter().find(|c| c.nodes == n) {
                        None => "-".to_string(),
                        Some(c) => {
                            format!("{:.2} ({:.0}%)", c.mpps, c.bottleneck_core_share * 100.0)
                        }
                    });
                }
                rows.push(row);
            }
        }
    }

    Table {
        id: "cluster-skew".to_string(),
        title: format!(
            "ECMP/L4 fleet under cluster-level skew: aggregate throughput \
             across {CLUSTER_CORES}-core nodes, with and without the \
             cluster controller"
        ),
        columns,
        rows,
    }
}

/// Cores the `detect` experiment's queue-skew context runs on (the
/// `rss-mitigation` width — the detector watches the same runtime the
/// mitigation sweep defends).
pub const DETECT_CORES: usize = RSS_MITIGATION_CORES;

/// Cores of the `detect` experiment's cross-core context: the packet-only
/// neighbor-evict deployment, one attacker core beside one victim core.
pub const DETECT_XCORE_CORES: usize = 2;

/// Workload seed of the calibration runs the baselines are learned from.
/// The judged benign arms run on the default seed, so the
/// zero-false-positive bar is never a self-comparison: the detector must
/// generalise across traces, not recognise the one it calibrated on.
pub const DETECT_CALIBRATION_SEED: u64 = 0xCA1B;

/// Repo-root path of the telemetry artifact the `detect` experiment
/// writes (the committed-artifact pattern of `BENCH_*.json`).
pub const TELEMETRY_DETECT_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../TELEMETRY_detect.json");

/// Sensitivity factors the ROC sweep re-judges the recorded runs with
/// (every threshold factor set to the same value, tightest first; the
/// online arms use [`DetectorConfig::with_baseline`]'s per-signal
/// defaults).
pub const DETECT_ROC_FACTORS: [f64; 6] = [1.05, 1.1, 1.15, 1.25, 1.5, 2.0];

/// The traffic arms of the `detect` experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DetectArm {
    /// Benign uniform traffic — the zero-false-positive bar.
    Uniform,
    /// Benign Zipfian traffic — the zero-false-positive bar.
    Zipfian,
    /// CASTAN-synthesized worst-case traffic (cycle/miss inflation).
    Castan,
    /// Static queue-skew steering (load concentration).
    RssSkew,
    /// The adaptive attacker's fixed-point trace (load concentration).
    AdaptiveSkew,
    /// The packet-only cross-core eviction attack (miss inflation).
    NeighborEvict,
}

impl DetectArm {
    /// All arms, in table order.
    pub const ALL: [DetectArm; 6] = [
        DetectArm::Uniform,
        DetectArm::Zipfian,
        DetectArm::Castan,
        DetectArm::RssSkew,
        DetectArm::AdaptiveSkew,
        DetectArm::NeighborEvict,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DetectArm::Uniform => "uniform",
            DetectArm::Zipfian => "zipfian",
            DetectArm::Castan => "castan",
            DetectArm::RssSkew => "rss-skew",
            DetectArm::AdaptiveSkew => "adaptive-skew",
            DetectArm::NeighborEvict => "neighbor-evict",
        }
    }

    /// Whether this arm is adversarial (must alarm) or benign (must not).
    pub fn is_attack(self) -> bool {
        !matches!(self, DetectArm::Uniform | DetectArm::Zipfian)
    }
}

/// One judged arm of the `detect` experiment.
#[derive(Clone, Debug)]
pub struct DetectCell {
    /// The traffic arm.
    pub arm: DetectArm,
    /// Epochs of telemetry until the first alarm (`None` = never flagged —
    /// correct for the benign arms, a miss for the attacks).
    pub epochs_to_detect: Option<u64>,
    /// Signature of the first alarm.
    pub first_signature: Option<AttackSignature>,
    /// Threshold crossings over the whole run.
    pub alarms: usize,
    /// Detector-poll cycles charged across all cores.
    pub overhead_cycles: u64,
    /// Those cycles as a fraction of the run's total busy cycles — the
    /// honestly-charged cost of watching.
    pub overhead_share: f64,
    /// Aggregate forwarding rate with detection overhead charged.
    pub mpps: f64,
    /// Busiest core's share of measured packets.
    pub bottleneck_share: f64,
}

/// One sensitivity point of the offline ROC sweep.
#[derive(Clone, Copy, Debug)]
pub struct RocPoint {
    /// The factor applied to every threshold.
    pub factor: f64,
    /// Attack arms whose recorded run alarms at this sensitivity.
    pub attacks_detected: usize,
    /// Attack arms judged.
    pub attack_arms: usize,
    /// Benign arms that (wrongly) alarm at this sensitivity.
    pub false_positives: usize,
    /// Benign arms judged.
    pub benign_arms: usize,
    /// Slowest time-to-detect among the detected attacks (epochs).
    pub worst_epochs_to_detect: Option<u64>,
}

/// The closed-loop arm: detection *triggers* the mitigation mid-run.
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoopOutcome {
    /// The unmitigated, unwatched attacked run (the comparator).
    pub attacked_mpps: f64,
    /// The watched run: no mitigation until the detector's first alarm
    /// installs least-loaded rebalancing, with every poll charged.
    pub closed_loop_mpps: f64,
    /// `closed_loop_mpps / attacked_mpps`.
    pub recovery: f64,
    /// The sealed epoch whose alarm activated the response.
    pub activated_epoch: Option<u64>,
    /// Epochs of telemetry until that alarm.
    pub epochs_to_detect: Option<u64>,
    /// Detector-poll cycles charged across all cores.
    pub overhead_cycles: u64,
    /// Busiest core's share of measured packets after recovery.
    pub bottleneck_share: f64,
}

/// Everything the `detect` experiment measured.
#[derive(Clone, Debug)]
pub struct DetectReport {
    /// Chain under test.
    pub chain: String,
    /// Telemetry epoch length (= the rebalance epoch).
    pub epoch_packets: usize,
    /// Benign envelope of the queue-skew context ([`DETECT_CORES`]).
    pub baseline: Baseline,
    /// Benign envelope of the cross-core context ([`DETECT_XCORE_CORES`],
    /// premapped pages, victims steered off the attacker core).
    pub xcore_baseline: Baseline,
    /// The online judged arms ([`DetectorConfig::with_baseline`] factors).
    pub cells: Vec<DetectCell>,
    /// The offline sensitivity sweep over the same recorded runs.
    pub roc: Vec<RocPoint>,
    /// The detection-triggered-mitigation arm.
    pub closed_loop: ClosedLoopOutcome,
    /// The recorded registry of every judged arm (the ROC sweep's input
    /// and the JSON artifact's per-arm signal series).
    pub registries: Vec<(DetectArm, Registry)>,
}

/// The benign calibration registries of the `detect` experiment's
/// queue-skew context: uniform and Zipfian reference runs on the
/// [`DETECT_CORES`] deployment, recorded with per-epoch telemetry. Both
/// [`Baseline::learn`] and [`Baseline::learn_quantile`] calibrate from
/// these (the quantile envelope must never be looser — pinned by test).
pub fn detect_benign_registries(chain: &NfChain, cfg: &ExperimentConfig) -> Vec<Registry> {
    let epoch = rss_mitigation_epoch(cfg);
    let tele = TelemetryConfig::new(epoch);
    let calib_cfg = WorkloadConfig {
        seed: DETECT_CALIBRATION_SEED,
        ..WorkloadConfig::scaled(cfg.workload_scale)
    };
    let shard = ShardConfig::new(DETECT_CORES);
    [WorkloadKind::UniRand, WorkloadKind::Zipfian]
        .iter()
        .map(|&kind| {
            let wl = generic_chain_workload(chain, kind, &calib_cfg);
            let mut dut = ShardedDut::new(chain.clone(), shard, &cfg.measurement);
            dut.attach_telemetry(tele);
            dut.run(&wl, &cfg.measurement);
            dut.take_telemetry().expect("telemetry attached")
        })
        .collect()
}

/// Runs the `detect` experiment for one chain: learns benign baselines
/// from differently-seeded calibration runs, judges every arm online with
/// detection overhead charged, re-judges the recorded runs offline across
/// [`DETECT_ROC_FACTORS`], and closes the loop on the static-skew arm
/// (first alarm installs least-loaded rebalancing mid-run).
pub fn detect_data_for(chain: &NfChain, cfg: &ExperimentConfig) -> DetectReport {
    let epoch = rss_mitigation_epoch(cfg);
    let tele = TelemetryConfig::new(epoch);
    let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
    let calib_cfg = WorkloadConfig {
        seed: DETECT_CALIBRATION_SEED,
        ..wl_cfg
    };

    // Queue-skew context: the benign envelope at DETECT_CORES, learned
    // from uniform and Zipfian calibration runs.
    let shard = ShardConfig::new(DETECT_CORES);
    let calib = detect_benign_registries(chain, cfg);
    let baseline = Baseline::learn(&calib.iter().collect::<Vec<_>>(), 32);
    let detector = DetectorConfig::with_baseline(baseline);

    // Cross-core context: the neighbor-evict arm runs on the premapped
    // two-core deployment with the victims steered off the attacker core,
    // so its benign envelope is learned on that same deployment.
    let attacker = DETECT_XCORE_CORES - 1;
    let xshard = ShardConfig::new(DETECT_XCORE_CORES).with_premapped_pages();
    let xboot = victim_table(&xshard.rss, attacker);
    let xcalib = {
        let wl = generic_chain_workload(chain, WorkloadKind::Zipfian, &calib_cfg);
        let mut dut = ShardedDut::new(chain.clone(), xshard, &cfg.measurement);
        dut.set_boot_table(Some(xboot.clone()));
        dut.attach_telemetry(tele);
        dut.run(&wl, &cfg.measurement);
        dut.take_telemetry().expect("telemetry attached")
    };
    let xbaseline = Baseline::learn(&[&xcalib], 32);
    let xdetector = DetectorConfig::with_baseline(xbaseline);

    // The packet-only eviction trace — the same composition the
    // xcore-contention experiment validates arm by arm.
    let victim_wl = generic_chain_workload(chain, WorkloadKind::Zipfian, &wl_cfg);
    let plan = xcore_eviction_plan(chain, &victim_wl, DETECT_XCORE_CORES, cfg);
    let xdispatcher = RssDispatcher::for_queues(DETECT_XCORE_CORES);
    let xreport = analyze_chain_cross_core(
        &Castan::new(cfg.analysis.clone()),
        chain,
        &plan,
        &xdispatcher,
        attacker,
        2,
    );
    let evict_wl =
        neighbor_evict_workload(&victim_wl, xreport.packets(), &xdispatcher, attacker, 4);

    let skew_dispatcher = RssDispatcher::new(shard.rss);
    let run_arm = |arm: DetectArm| -> Option<(DetectCell, Registry)> {
        let (wl, arm_shard, boot, det) = match arm {
            DetectArm::Uniform => (
                generic_chain_workload(chain, WorkloadKind::UniRand, &wl_cfg),
                shard,
                None,
                detector,
            ),
            DetectArm::Zipfian => (
                generic_chain_workload(chain, WorkloadKind::Zipfian, &wl_cfg),
                shard,
                None,
                detector,
            ),
            DetectArm::Castan => {
                let wl = castan_workload(analyze_chain_for(chain, cfg).packets.clone());
                if wl.is_empty() {
                    return None;
                }
                (wl, shard, None, detector)
            }
            DetectArm::RssSkew => (
                skewed_chain_workload(chain, WorkloadKind::UniRand, &wl_cfg, &skew_dispatcher, 0),
                shard,
                None,
                detector,
            ),
            DetectArm::AdaptiveSkew => (
                adaptive_skew_chain_workload(chain, cfg, 0),
                shard,
                None,
                detector,
            ),
            DetectArm::NeighborEvict => (evict_wl.clone(), xshard, Some(xboot.clone()), xdetector),
        };
        let mut dut = ShardedDut::new(chain.clone(), arm_shard, &cfg.measurement);
        dut.set_boot_table(boot);
        dut.attach_telemetry(tele);
        dut.set_detection(Some(DetectionConfig {
            detector: det,
            response: None,
        }));
        let m = dut.run(&wl, &cfg.measurement);
        let rep = dut
            .detection_report()
            .cloned()
            .expect("detection configured");
        let reg = dut.take_telemetry().expect("telemetry attached");
        let busy: u64 = m.per_core.iter().map(|c| c.busy_cycles()).sum();
        let alarms = rep.alarms.len();
        Some((
            DetectCell {
                arm,
                epochs_to_detect: rep.epochs_to_detect(),
                first_signature: rep.alarms.first().map(|a| a.signature),
                alarms,
                overhead_cycles: rep.overhead_cycles,
                overhead_share: rep.overhead_cycles as f64 / busy.max(1) as f64,
                mpps: m.aggregate_mpps(),
                bottleneck_share: m.bottleneck_share(),
            },
            reg,
        ))
    };

    let mut cells = Vec::new();
    let mut registries = Vec::new();
    for arm in DetectArm::ALL {
        if let Some((cell, reg)) = run_arm(arm) {
            cells.push(cell);
            registries.push((arm, reg));
        }
    }

    // Offline ROC sweep: re-judge the recorded runs at every sensitivity
    // (the detector never mutates the registry, so scanning is free).
    let roc = DETECT_ROC_FACTORS
        .iter()
        .map(|&factor| {
            let mut point = RocPoint {
                factor,
                attacks_detected: 0,
                attack_arms: 0,
                false_positives: 0,
                benign_arms: 0,
                worst_epochs_to_detect: None,
            };
            for (arm, reg) in &registries {
                let base = if *arm == DetectArm::NeighborEvict {
                    xdetector
                } else {
                    detector
                };
                let scan_cfg = DetectorConfig {
                    share_factor: factor,
                    misses_factor: factor,
                    cycles_factor: factor,
                    instructions_factor: factor,
                    ..base
                };
                let d = Detector::scan(scan_cfg, reg);
                if arm.is_attack() {
                    point.attack_arms += 1;
                    if let Some(e) = d.epochs_to_detect() {
                        point.attacks_detected += 1;
                        point.worst_epochs_to_detect =
                            Some(point.worst_epochs_to_detect.map_or(e, |w| w.max(e)));
                    }
                } else {
                    point.benign_arms += 1;
                    if !d.alarms().is_empty() {
                        point.false_positives += 1;
                    }
                }
            }
            point
        })
        .collect();

    // Closed loop on the static-skew arm: the comparator is the plain
    // attacked run (no telemetry, no detection — exactly what an
    // unwatched deployment would measure), the watched run starts with no
    // mitigation and installs least-loaded rebalancing at the first alarm,
    // paying every detector poll.
    let skew_wl = skewed_chain_workload(chain, WorkloadKind::UniRand, &wl_cfg, &skew_dispatcher, 0);
    let attacked = measure_sharded(chain, shard, &skew_wl, &cfg.measurement);
    let mut closed = ShardedDut::new(chain.clone(), shard, &cfg.measurement);
    closed.attach_telemetry(tele);
    closed.set_detection(Some(DetectionConfig {
        detector,
        response: Some(MitigationConfig::rebalance(
            epoch,
            RebalancePolicy::LeastLoaded,
        )),
    }));
    let m_closed = closed.run(&skew_wl, &cfg.measurement);
    let rep_closed = closed
        .detection_report()
        .cloned()
        .expect("detection configured");
    let closed_loop = ClosedLoopOutcome {
        attacked_mpps: attacked.aggregate_mpps(),
        closed_loop_mpps: m_closed.aggregate_mpps(),
        recovery: m_closed.aggregate_mpps() / attacked.aggregate_mpps(),
        activated_epoch: rep_closed.activated_epoch,
        epochs_to_detect: rep_closed.epochs_to_detect(),
        overhead_cycles: rep_closed.overhead_cycles,
        bottleneck_share: m_closed.bottleneck_share(),
    };

    DetectReport {
        chain: chain.name().to_string(),
        epoch_packets: epoch,
        baseline,
        xcore_baseline: xbaseline,
        cells,
        roc,
        closed_loop,
        registries,
    }
}

fn fmt_epochs(e: Option<u64>) -> String {
    e.map_or("-".to_string(), |e| e.to_string())
}

/// The per-arm table of a [`DetectReport`] (the closed-loop arm is the
/// last row).
pub fn detect_table(report: &DetectReport) -> Table {
    let mut rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.arm.name().to_string(),
                if c.arm.is_attack() {
                    "attack"
                } else {
                    "benign"
                }
                .to_string(),
                fmt_epochs(c.epochs_to_detect),
                c.first_signature
                    .map_or("-".to_string(), |s| s.name().to_string()),
                c.alarms.to_string(),
                format!("{} ({:.2}%)", c.overhead_cycles, c.overhead_share * 100.0),
                format!("{:.2}", c.mpps),
                format!("{:.0}%", c.bottleneck_share * 100.0),
            ]
        })
        .collect();
    let cl = &report.closed_loop;
    rows.push(vec![
        "rss-skew (closed loop)".to_string(),
        "attack".to_string(),
        fmt_epochs(cl.epochs_to_detect),
        "queue_skew".to_string(),
        cl.activated_epoch.map_or(0, |_| 1).to_string(),
        cl.overhead_cycles.to_string(),
        format!(
            "{:.2} ({:.2}x over {:.2})",
            cl.closed_loop_mpps, cl.recovery, cl.attacked_mpps
        ),
        format!("{:.0}%", cl.bottleneck_share * 100.0),
    ]);
    Table {
        id: "detect".to_string(),
        title: format!(
            "Online attack detection on {} ({DETECT_CORES}-core queue-skew \
             context, {DETECT_XCORE_CORES}-core cross-core context): \
             time-to-detect, charged overhead, closed-loop recovery",
            report.chain
        ),
        columns: vec![
            "Traffic".into(),
            "Kind".into(),
            "Epochs to detect".into(),
            "First signature".into(),
            "Alarms".into(),
            "Overhead (cycles)".into(),
            "Mpps".into(),
            "Max-core share".into(),
        ],
        rows,
    }
}

/// The ROC-sweep table of a [`DetectReport`].
pub fn detect_roc_table(report: &DetectReport) -> Table {
    let rows = report
        .roc
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.factor),
                format!("{}/{}", p.attacks_detected, p.attack_arms),
                format!("{}/{}", p.false_positives, p.benign_arms),
                fmt_epochs(p.worst_epochs_to_detect),
            ]
        })
        .collect();
    Table {
        id: "detect-roc".to_string(),
        title: "Detector sensitivity sweep over the recorded runs: every \
                threshold factor set to the same value"
            .to_string(),
        columns: vec![
            "Factor".into(),
            "Attacks detected".into(),
            "False positives".into(),
            "Worst epochs to detect".into(),
        ],
        rows,
    }
}

fn baseline_json(b: &Baseline) -> Json {
    Json::obj()
        .with("max_core_share", Json::fixed(b.max_core_share, 6))
        .with("misses_per_packet", Json::fixed(b.misses_per_packet, 6))
        .with("cycles_per_packet", Json::fixed(b.cycles_per_packet, 6))
}

/// Serialises a [`DetectReport`] as the `castan-telemetry-detect-v1`
/// document committed at [`TELEMETRY_DETECT_PATH`]: baselines, per-arm
/// outcomes with their epoch-indexed signal series, the ROC sweep and the
/// closed-loop arm.
pub fn detect_json(report: &DetectReport, label: &str) -> String {
    use castan_telemetry::detector::{
        SIG_CYCLES_PER_PACKET, SIG_EPOCH_PACKETS, SIG_INSTRUCTIONS_PER_PACKET, SIG_MAX_CORE_SHARE,
        SIG_MISSES_PER_PACKET,
    };
    let mut arms = Json::obj();
    for cell in &report.cells {
        let mut signals = Json::obj();
        if let Some((_, reg)) = report.registries.iter().find(|(a, _)| *a == cell.arm) {
            for sig in [
                SIG_EPOCH_PACKETS,
                SIG_MAX_CORE_SHARE,
                SIG_MISSES_PER_PACKET,
                SIG_CYCLES_PER_PACKET,
                SIG_INSTRUCTIONS_PER_PACKET,
            ] {
                if let Some(series) = reg.gauge_series(sig) {
                    let points = series
                        .epochs()
                        .iter()
                        .map(|&(e, v)| Json::Arr(vec![Json::U64(e), Json::fixed(v, 6)]))
                        .collect();
                    signals.set(sig, Json::Arr(points));
                }
            }
        }
        arms.set(
            cell.arm.name(),
            Json::obj()
                .with("attack", Json::Bool(cell.arm.is_attack()))
                .with(
                    "epochs_to_detect",
                    cell.epochs_to_detect.map_or(Json::Null, Json::U64),
                )
                .with(
                    "first_signature",
                    cell.first_signature
                        .map_or(Json::Null, |s| Json::str(s.name())),
                )
                .with("alarms", Json::U64(cell.alarms as u64))
                .with("overhead_cycles", Json::U64(cell.overhead_cycles))
                .with("overhead_share", Json::fixed(cell.overhead_share, 6))
                .with("mpps", Json::fixed(cell.mpps, 4))
                .with("bottleneck_share", Json::fixed(cell.bottleneck_share, 4))
                .with("signals", signals),
        );
    }
    let roc = report
        .roc
        .iter()
        .map(|p| {
            Json::obj()
                .with("factor", Json::fixed(p.factor, 2))
                .with("attacks_detected", Json::U64(p.attacks_detected as u64))
                .with("attack_arms", Json::U64(p.attack_arms as u64))
                .with("false_positives", Json::U64(p.false_positives as u64))
                .with("benign_arms", Json::U64(p.benign_arms as u64))
                .with(
                    "worst_epochs_to_detect",
                    p.worst_epochs_to_detect.map_or(Json::Null, Json::U64),
                )
        })
        .collect();
    let cl = &report.closed_loop;
    Json::obj()
        .with("schema", Json::str("castan-telemetry-detect-v1"))
        .with("config", Json::str(label))
        .with("chain", Json::str(report.chain.clone()))
        .with("epoch_packets", Json::U64(report.epoch_packets as u64))
        .with("baseline", baseline_json(&report.baseline))
        .with("xcore_baseline", baseline_json(&report.xcore_baseline))
        .with("arms", arms)
        .with("roc", Json::Arr(roc))
        .with(
            "closed_loop",
            Json::obj()
                .with("attacked_mpps", Json::fixed(cl.attacked_mpps, 4))
                .with("closed_loop_mpps", Json::fixed(cl.closed_loop_mpps, 4))
                .with("recovery", Json::fixed(cl.recovery, 4))
                .with(
                    "activated_epoch",
                    cl.activated_epoch.map_or(Json::Null, Json::U64),
                )
                .with(
                    "epochs_to_detect",
                    cl.epochs_to_detect.map_or(Json::Null, Json::U64),
                )
                .with("overhead_cycles", Json::U64(cl.overhead_cycles))
                .with("bottleneck_share", Json::fixed(cl.bottleneck_share, 4)),
        )
        .render()
}

/// The `detect` experiment: runs [`detect_data_for`] on the nat→lpm chain
/// (the stateful chain every attack family targets), writes the
/// `castan-telemetry-detect-v1` artifact at [`TELEMETRY_DETECT_PATH`] and
/// returns the rendered tables plus the tables themselves (for the
/// per-experiment result summaries).
pub fn detect(cfg: &ExperimentConfig, label: &str) -> (String, Vec<Table>) {
    let (json, arms, roc) = detect_docs(cfg, label);
    std::fs::write(TELEMETRY_DETECT_PATH, &json).expect("write TELEMETRY_detect.json");
    (
        format!(
            "{}\n{}\nwrote {TELEMETRY_DETECT_PATH}",
            arms.render(),
            roc.render()
        ),
        vec![arms, roc],
    )
}

/// Runs the `detect` experiment and builds its document (without writing
/// it) and its two tables.
fn detect_docs(cfg: &ExperimentConfig, label: &str) -> (String, Table, Table) {
    let chain = castan_chain::chain_by_id(castan_chain::ChainId::NatLpm);
    let report = detect_data_for(&chain, cfg);
    (
        detect_json(&report, label),
        detect_table(&report),
        detect_roc_table(&report),
    )
}

/// Repo-root path of the hot-path baseline the `bench-baselines`
/// experiment writes.
pub const BENCH_HOTPATH_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");

/// Worker-thread counts the `engine_scaling` arm of `bench-baselines`
/// sweeps over the nat-lb-lpm chain synthesis.
pub const ENGINE_SCALING_THREADS: [usize; 3] = [1, 2, 4];

/// Repo-root path of the cluster baseline the `bench-baselines`
/// experiment writes.
pub const BENCH_CLUSTER_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");

/// Relative tolerance of the `bench-drift` gate ([`drift_gate`]): simulated figures are
/// deterministic, so any drift beyond float-rendering noise means the
/// model changed.
pub const BENCH_DRIFT_TOLERANCE: f64 = 0.01;

/// Measures the hot-path and cluster baselines and builds the two
/// `castan-bench-*-v1` documents (without writing them), plus the summary
/// table the result-summary pipeline reuses.
fn bench_docs(cfg: &ExperimentConfig, label: &str) -> (String, String, Table) {
    let chain = castan_chain::chain_by_id(castan_chain::ChainId::NatLpm);
    let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
    let uni = generic_chain_workload(&chain, WorkloadKind::UniRand, &wl_cfg);

    // Hot path: synthesis wall-clock plus the sharded runtime at 1 and 4
    // cores on uniform traffic.
    let t0 = std::time::Instant::now();
    let report = analyze_chain_for(&chain, cfg);
    let synthesis_wall_ms = t0.elapsed().as_millis() as u64;
    let sharded_mpps: Vec<(usize, f64)> = [1usize, CLUSTER_CORES]
        .iter()
        .map(|&cores| {
            let m = measure_sharded(&chain, ShardConfig::new(cores), &uni, &cfg.measurement);
            (cores, m.aggregate_mpps())
        })
        .collect();
    let mut sharded = Json::obj();
    for (c, m) in &sharded_mpps {
        sharded.set(format!("{c}_cores"), Json::fixed(*m, 4));
    }

    // Engine scaling: the full nat-lb-lpm chain synthesis re-run at 1, 2
    // and 4 worker threads. The search surface (steps, states explored,
    // predicted cost) is identical at every thread count — the engine's
    // determinism contract, pinned by castan-core's tests — so it is
    // recorded once and gated by bench-drift; the per-thread-count walls
    // are host-dependent and drift-ignored like every `*_wall_ms` field.
    let wide = castan_chain::chain_by_id(castan_chain::ChainId::NatLbLpm);
    let mut engine_scaling = Json::obj();
    for (i, threads) in ENGINE_SCALING_THREADS.into_iter().enumerate() {
        let mut tcfg = cfg.clone();
        tcfg.analysis.threads = threads;
        let t = std::time::Instant::now();
        let wide_report = analyze_chain_for(&wide, &tcfg);
        let wall = t.elapsed().as_millis() as u64;
        if i == 0 {
            engine_scaling.set("synthesis_steps", Json::U64(wide_report.total_steps()));
            engine_scaling.set(
                "states_explored",
                Json::U64(wide_report.total_states_explored()),
            );
            engine_scaling.set(
                "predicted_total_cpp",
                Json::U64(wide_report.predicted_total_cpp),
            );
        }
        engine_scaling.set(format!("{threads}_threads_wall_ms"), Json::U64(wall));
    }

    let hotpath = Json::obj()
        .with("schema", Json::str("castan-bench-hotpath-v1"))
        .with("config", Json::str(label))
        .with("chain", Json::str(chain.name()))
        .with(
            "total_packets",
            Json::U64(cfg.measurement.total_packets as u64),
        )
        .with("synthesis_packets", Json::U64(report.packets.len() as u64))
        .with("synthesis_steps", Json::U64(report.total_steps()))
        .with("states_explored", Json::U64(report.total_states_explored()))
        .with("predicted_total_cpp", Json::U64(report.predicted_total_cpp))
        .with("sharded_uniform_mpps", sharded)
        .with("synthesis_wall_ms", Json::U64(synthesis_wall_ms))
        .with("engine_scaling", engine_scaling)
        .render();

    // Cluster tier: uniform scaling across the node counts, the composed
    // attack unmitigated, and the full defence through the scheduled
    // failure.
    let t1 = std::time::Instant::now();
    let epoch = rss_mitigation_epoch(cfg);
    let shard = ShardConfig::new(CLUSTER_CORES);
    let widest = *CLUSTER_NODE_COUNTS.last().unwrap();
    let map = ClusterConfig::new(widest, shard).boot_map();
    let dispatcher = RssDispatcher::new(shard.rss);
    let composed = cluster_skew_workload(&uni, &map, &dispatcher, CLUSTER_TARGET_NODE, 0);
    let uniform_mpps: Vec<(usize, f64)> = CLUSTER_NODE_COUNTS
        .iter()
        .map(|&n| {
            let m = measure_cluster(&chain, ClusterConfig::new(n, shard), &uni, &cfg.measurement);
            (n, m.aggregate_mpps())
        })
        .collect();
    let attacked = measure_cluster(
        &chain,
        ClusterConfig::new(widest, shard),
        &composed,
        &cfg.measurement,
    );
    let defended = measure_cluster(
        &chain,
        ClusterArm::RebalanceDrain.config(
            ClusterConfig::new(widest, shard),
            epoch,
            cfg.measurement.total_packets,
        ),
        &composed,
        &cfg.measurement,
    );
    let cluster_wall_ms = t1.elapsed().as_millis() as u64;
    let mut uniform = Json::obj();
    for (n, m) in &uniform_mpps {
        uniform.set(format!("{n}_nodes"), Json::fixed(*m, 4));
    }
    let cluster = Json::obj()
        .with("schema", Json::str("castan-bench-cluster-v1"))
        .with("config", Json::str(label))
        .with("chain", Json::str(chain.name()))
        .with("cores_per_node", Json::U64(CLUSTER_CORES as u64))
        .with(
            "total_packets",
            Json::U64(cfg.measurement.total_packets as u64),
        )
        .with("uniform_mpps", uniform)
        .with(
            "composed_skew_mpps",
            Json::obj()
                .with(
                    format!("{widest}_nodes_unmitigated"),
                    Json::fixed(attacked.aggregate_mpps(), 4),
                )
                .with(
                    format!("{widest}_nodes_rebalance_drain"),
                    Json::fixed(defended.aggregate_mpps(), 4),
                ),
        )
        .with(
            "composed_bottleneck_core_share",
            Json::fixed(attacked.bottleneck_core_share(), 4),
        )
        .with("cluster_wall_ms", Json::U64(cluster_wall_ms))
        .render();

    let mut rows: Vec<Vec<String>> = sharded_mpps
        .iter()
        .map(|(c, m)| {
            vec![
                format!("sharded uniform, {c} cores"),
                format!("{m:.4} Mpps"),
            ]
        })
        .collect();
    rows.extend(uniform_mpps.iter().map(|(n, m)| {
        vec![
            format!("cluster uniform, {n} nodes"),
            format!("{m:.4} Mpps"),
        ]
    }));
    rows.push(vec![
        format!("cluster composed skew, {widest} nodes, unmitigated"),
        format!("{:.4} Mpps", attacked.aggregate_mpps()),
    ]);
    rows.push(vec![
        format!("cluster composed skew, {widest} nodes, rebalance+drain"),
        format!("{:.4} Mpps", defended.aggregate_mpps()),
    ]);
    let table = Table {
        id: "bench-baselines".to_string(),
        title: "Simulated perf baselines (committed as BENCH_hotpath.json / \
                BENCH_cluster.json)"
            .to_string(),
        columns: vec!["Scenario".into(), "Result".into()],
        rows,
    };
    (hotpath, cluster, table)
}

/// The `bench-baselines` experiment: measures the simulated hot paths and
/// persists machine-readable baselines at the repo root
/// (`BENCH_hotpath.json`, `BENCH_cluster.json`), returning a summary of
/// what was written plus the summary table.
///
/// The simulated Mpps figures are deterministic — a diff under version
/// control means the *model* changed, which is exactly what the baseline
/// is for. The `*_wall_ms` fields track the host machine and are
/// informative only. Regenerate with
/// `cargo run -p castan-experiments --release -- --quick bench-baselines`.
pub fn bench_baselines(cfg: &ExperimentConfig, label: &str) -> (String, Vec<Table>) {
    let (hotpath, cluster, table) = bench_docs(cfg, label);
    std::fs::write(BENCH_HOTPATH_PATH, &hotpath).expect("write BENCH_hotpath.json");
    std::fs::write(BENCH_CLUSTER_PATH, &cluster).expect("write BENCH_cluster.json");
    (
        format!("wrote {BENCH_HOTPATH_PATH}:\n{hotpath}\nwrote {BENCH_CLUSTER_PATH}:\n{cluster}"),
        vec![table],
    )
}

/// Compares a regenerated baseline document against the committed one at
/// `path` on their numeric surface: one readable line per field that is
/// missing on either side or whose relative deviation exceeds `tolerance`.
/// Fields ending in `skip_suffix` are host-dependent and not compared. A
/// `tolerance` of zero is the exact gate: the values must be equal and the
/// documents must also agree textually, so a schema or key-layout change
/// cannot hide behind equal numbers. `Err` means a document failed to
/// parse.
pub fn drift(
    path: &str,
    committed: &str,
    regenerated: &str,
    tolerance: f64,
    skip_suffix: Option<&str>,
) -> Result<Vec<String>, String> {
    let fields = |doc: &str, which: &str| -> Result<BTreeMap<String, f64>, String> {
        Ok(castan_telemetry::json::numeric_fields(doc)
            .map_err(|e| format!("{path} ({which}): {e}"))?
            .into_iter()
            .filter(|(key, _)| !skip_suffix.is_some_and(|s| key.ends_with(s)))
            .collect())
    };
    let old = fields(committed, "committed")?;
    let new = fields(regenerated, "regenerated")?;
    let mut lines = Vec::new();
    for (key, committed_v) in &old {
        match new.get(key) {
            None => lines.push(format!(
                "{path}: {key}: committed {committed_v}, missing on regenerate"
            )),
            Some(new_v) => {
                let rel = (new_v - committed_v).abs() / committed_v.abs().max(1e-9);
                if rel > tolerance {
                    lines.push(format!(
                        "{path}: {key}: committed {committed_v}, regenerated {new_v} \
                         ({:+.2}% > {:.0}% tolerance)",
                        (new_v / committed_v - 1.0) * 100.0,
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    for key in new.keys().filter(|k| !old.contains_key(*k)) {
        lines.push(format!(
            "{path}: {key}: regenerated but not in the committed baseline"
        ));
    }
    if tolerance == 0.0 && lines.is_empty() && committed != regenerated {
        lines.push(format!(
            "{path}: documents differ textually (schema or key layout changed)"
        ));
    }
    Ok(lines)
}

/// The drift gates, by sub-command name: each regenerates one experiment's
/// committed baseline(s) in memory and compares with [`drift`].
pub const DRIFT_GATES: [&str; 4] = [
    "bench-drift",
    "analysis-drift",
    "trace-drift",
    "detect-drift",
];

/// Runs one of the [`DRIFT_GATES`]. `Ok` is a one-line confirmation; `Err`
/// is a readable per-field diff (the CI job fails on it).
///
/// * `bench-drift` — `BENCH_hotpath.json` / `BENCH_cluster.json` within
///   [`BENCH_DRIFT_TOLERANCE`], `*_wall_ms` skipped. Run with `--quick`:
///   the committed artifacts are quick-config.
/// * `analysis-drift` — `ANALYSIS_envelopes.json`, exact: the envelopes are
///   deterministic integer arithmetic, there is no tolerance to hide
///   behind.
/// * `trace-drift` — `TRACE_search.json`, exact: the counters are
///   deterministic and thread-count-invariant, and wall-clock never enters
///   the baseline in the first place.
/// * `detect-drift` — `TELEMETRY_detect.json`, exact. Run with `--quick`,
///   like `bench-drift`.
pub fn drift_gate(gate: &str, cfg: &ExperimentConfig) -> Result<String, String> {
    // What the baseline holds, the experiment that rewrites it, the
    // comparison, and each committed file with its regenerated document.
    let (what, experiment, tolerance, skip_suffix, docs) = match gate {
        "bench-drift" => {
            let (hotpath, cluster, _) = bench_docs(cfg, "quick");
            (
                "bench baselines",
                "--quick bench-baselines",
                BENCH_DRIFT_TOLERANCE,
                Some("_wall_ms"),
                vec![(BENCH_HOTPATH_PATH, hotpath), (BENCH_CLUSTER_PATH, cluster)],
            )
        }
        "analysis-drift" => (
            "static envelopes",
            "analysis",
            0.0,
            None,
            vec![(ANALYSIS_ENVELOPES_PATH, analysis_docs().0)],
        ),
        "trace-drift" => (
            "search-trace counters",
            "--quick search-profile",
            0.0,
            None,
            vec![(TRACE_SEARCH_PATH, search_profile_docs().0)],
        ),
        "detect-drift" => (
            "detection signals",
            "--quick detect",
            0.0,
            None,
            vec![(TELEMETRY_DETECT_PATH, detect_docs(cfg, "quick").0)],
        ),
        other => return Err(format!("unknown drift gate: {other}")),
    };
    let mut lines = Vec::new();
    let mut checked = 0usize;
    for (path, regenerated) in &docs {
        let committed = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        lines.extend(drift(
            path,
            &committed,
            regenerated,
            tolerance,
            skip_suffix,
        )?);
        checked += castan_telemetry::json::numeric_fields(&committed).map_or(0, |f| f.len());
    }
    if lines.is_empty() {
        Ok(format!(
            "{what} match the committed baseline ({checked} numeric fields, {})",
            if tolerance == 0.0 {
                "exact".to_string()
            } else {
                format!("within {:.0}%", tolerance * 100.0)
            }
        ))
    } else {
        Err(format!(
            "{what} drifted from the committed baseline — if the change is \
             intentional, regenerate with `cargo run -p castan-experiments \
             --release -- {experiment}` and commit the result:\n{}",
            lines.join("\n")
        ))
    }
}

/// Repo-root path of the static-envelope table the `analysis` experiment
/// writes.
pub const ANALYSIS_ENVELOPES_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../ANALYSIS_envelopes.json");

/// Flow budget of the committed envelope table. Envelopes depend only on
/// the NF programs and this budget — not on workload scale, measurement
/// length, or search budgets — so the committed artifact pins one
/// canonical budget instead of tracking the experiment config.
pub const ANALYSIS_ENVELOPE_FLOWS: u64 = 1_024;

/// Renders an `[lower, upper]` interval for the envelope table, spelling
/// out the unbounded sentinel.
fn interval_cell(e: &CostEnvelope) -> String {
    if e.upper >= castan_analysis::UNBOUNDED {
        format!("[{}, unbounded]", e.lower)
    } else {
        format!("[{}, {}]", e.lower, e.upper)
    }
}

/// The JSON surface of one NF envelope (the integer fields the drift check
/// compares exactly).
fn envelope_json(env: &NfEnvelope) -> Json {
    Json::obj()
        .with("cycles_lower", Json::U64(env.cycles.lower))
        .with("cycles_upper", Json::U64(env.cycles.upper))
        .with("instructions_lower", Json::U64(env.instructions.lower))
        .with("instructions_upper", Json::U64(env.instructions.upper))
        .with("mem_accesses_upper", Json::U64(env.mem_accesses.upper))
        .with("l3_miss_upper", Json::U64(env.l3_miss_upper))
        .with("distinct_lines_upper", Json::U64(env.distinct_lines_upper))
}

/// Computes the per-NF and per-chain envelope table and its
/// `castan-analysis-envelopes-v1` document (without writing it). The
/// document is config-independent on purpose: `analysis-drift` must get a
/// byte-stable regeneration whether CI runs `--quick` or full.
fn analysis_docs() -> (String, Table) {
    let params = EnvelopeParams::new(ANALYSIS_ENVELOPE_FLOWS);
    let mut nfs = Json::obj();
    let mut rows = Vec::new();
    for nf in all_nfs() {
        let env = envelope_of(&nf, &params);
        nfs.set(nf.name(), envelope_json(&env));
        rows.push(vec![
            nf.name().to_string(),
            interval_cell(&env.cycles),
            interval_cell(&env.instructions),
            env.mem_accesses.upper.to_string(),
            env.l3_miss_upper.to_string(),
        ]);
    }
    let mut chains = Json::obj();
    for chain in all_chains() {
        let env = chain_envelope(&chain, &params);
        chains.set(
            chain.name(),
            Json::obj()
                .with("cycles_lower", Json::U64(env.cycles.lower))
                .with("cycles_upper", Json::U64(env.cycles.upper))
                .with("instructions_lower", Json::U64(env.instructions.lower))
                .with("instructions_upper", Json::U64(env.instructions.upper))
                .with("mem_accesses_upper", Json::U64(env.mem_accesses.upper))
                .with("l3_miss_upper", Json::U64(env.l3_miss_upper)),
        );
        rows.push(vec![
            format!("chain {}", env.name),
            interval_cell(&env.cycles),
            interval_cell(&env.instructions),
            env.mem_accesses.upper.to_string(),
            env.l3_miss_upper.to_string(),
        ]);
    }
    let doc = Json::obj()
        .with("schema", Json::str("castan-analysis-envelopes-v1"))
        .with("max_flows", Json::U64(ANALYSIS_ENVELOPE_FLOWS))
        .with("nfs", nfs)
        .with("chains", chains)
        .render();
    let table = Table {
        id: "analysis".to_string(),
        title: format!(
            "Static worst-case cost envelopes at {ANALYSIS_ENVELOPE_FLOWS} flows \
             (committed as ANALYSIS_envelopes.json)"
        ),
        columns: vec![
            "NF / chain".into(),
            "Cycles/pkt".into(),
            "Instructions/pkt".into(),
            "Mem accesses ≤".into(),
            "L3 misses ≤".into(),
        ],
        rows,
    };
    (doc, table)
}

/// The `analysis` experiment: recomputes the static cost envelope of every
/// NF and chain and persists the table at the repo root
/// (`ANALYSIS_envelopes.json`). The abstract interpretation is exact
/// integer arithmetic over the IR — any diff under version control means
/// the cost model or an NF program changed.
pub fn analysis_envelopes(label: &str) -> (String, Vec<Table>) {
    let (doc, table) = analysis_docs();
    let _ = label; // the document is deliberately config-independent
    std::fs::write(ANALYSIS_ENVELOPES_PATH, &doc).expect("write ANALYSIS_envelopes.json");
    (
        format!("wrote {ANALYSIS_ENVELOPES_PATH}:\n{doc}"),
        vec![table],
    )
}

/// Repo-root path of the deterministic search-counter baseline the
/// `search-profile` experiment writes (and `trace-drift` gates).
pub const TRACE_SEARCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_search.json");

/// Path of the chrome-trace (`trace_events`) span file the
/// `search-profile` experiment writes — load it in `chrome://tracing` or
/// Perfetto for a flamegraph-style view of the per-run phases.
pub const SEARCH_PROFILE_TRACE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/search-profile-trace.json"
);

/// The fixed analysis configuration of the `search-profile` experiment.
///
/// Deliberately config-independent (like the `analysis` table): the committed
/// `TRACE_search.json` must regenerate identically whether CI runs
/// `--quick` or full and at any `--threads` value, so the canonical
/// profile pins its own packets/budget and one worker thread (the
/// deterministic counters are thread-count-invariant anyway — pinned by
/// castan-core's tests — but the wall-clock advisory fields are not worth
/// a second config axis).
pub fn search_profile_config() -> AnalysisConfig {
    AnalysisConfig {
        packets: 4,
        step_budget: 12_000,
        threads: 1,
        ..AnalysisConfig::quick()
    }
}

/// Runs the whole NF and chain catalog under every search strategy with
/// tracing attached, and builds the `castan-search-trace-baseline-v1`
/// document (deterministic counters only), the combined chrome-trace span
/// document, and the per-strategy summary table.
fn search_profile_docs() -> (String, String, Table) {
    // Catalogues at the quick scale, independent of the caller's config.
    let ecfg = ExperimentConfig::quick();
    let mut runs: Vec<(String, SearchTrace)> = Vec::new();
    for strategy in SearchStrategyKind::ALL {
        let mut acfg = search_profile_config();
        acfg.strategy = strategy;
        let castan = Castan::new(acfg);
        for nf in all_nfs() {
            let (_, trace) = castan.analyze_traced(&nf, &catalog_for(&nf, &ecfg));
            runs.push((format!("nf:{}|{}", nf.name(), strategy.name()), trace));
        }
        for chain in all_chains() {
            let (_, trace) =
                analyze_chain_traced(&castan, &chain, &catalogs_for_chain(&chain, &ecfg));
            runs.push((format!("chain:{}|{}", chain.name(), strategy.name()), trace));
        }
    }

    let mut runs_json = Json::obj();
    for (key, trace) in &runs {
        runs_json.set(key, trace.deterministic_json());
    }
    let doc = Json::obj()
        .with("schema", Json::str("castan-search-trace-baseline-v1"))
        .with("packets", Json::U64(4))
        .with("step_budget", Json::U64(12_000))
        .with("runs", runs_json)
        .render();

    // One chrome-trace document over every run: each run gets its own tid
    // lane, with the run key prefixed onto the span names.
    let mut events = Vec::new();
    for (tid, (key, trace)) in runs.iter().enumerate() {
        for s in &trace.spans {
            events.push(
                Json::obj()
                    .with("name", Json::str(format!("{key}: {}", s.name)))
                    .with("ph", Json::str("X"))
                    .with("ts", Json::U64(s.ts_us))
                    .with("dur", Json::U64(s.dur_us))
                    .with("pid", Json::U64(1))
                    .with("tid", Json::U64(tid as u64)),
            );
        }
    }
    let chrome = Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", Json::str("ms"))
        .render();

    // Per-strategy aggregates, split nf vs chain: merge the run traces and
    // summarise the solver mix, witness cache, and prune reasons.
    use castan_core::synth::ModelSource;
    use castan_core::PruneReason;
    let mut rows = Vec::new();
    for strategy in SearchStrategyKind::ALL {
        for (scope, prefix) in [("nfs", "nf:"), ("chains", "chain:")] {
            let mut merged: Option<SearchTrace> = None;
            let mut n = 0usize;
            for (key, trace) in &runs {
                if key.starts_with(prefix) && key.ends_with(&format!("|{}", strategy.name())) {
                    n += 1;
                    match &mut merged {
                        None => merged = Some(trace.clone()),
                        Some(m) => m.merge(trace),
                    }
                }
            }
            let m = merged.expect("catalog is non-empty");
            let solver = m.solver_totals();
            rows.push(vec![
                format!("{} {scope} ({n} runs)", strategy.name()),
                m.states_explored.to_string(),
                m.steps.to_string(),
                format!("{}/{}/{}", solver.sat, solver.unsat, solver.unknown),
                format!("{:.3}", m.witness_hit_rate()),
                format!(
                    "{}/{}/{}",
                    m.prunes_for(PruneReason::IncumbentVsCompleted),
                    m.prunes_for(PruneReason::IncumbentVsInFlight),
                    m.prunes_for(PruneReason::EnvelopeUpper),
                ),
                m.truncated.to_string(),
                format!(
                    "{}/{}/{} · {}",
                    m.synth_models_from(ModelSource::Full),
                    m.synth_models_from(ModelSource::FieldOnly),
                    m.synth_models_from(ModelSource::Empty),
                    m.havocs_unreconciled,
                ),
                format!(
                    "{}/{}/{}",
                    m.components.solved, m.components.reused, m.components.carried
                ),
            ]);
        }
    }
    let table = Table {
        id: "search-profile".to_string(),
        title: "Search-engine profile by strategy (deterministic counters \
                committed as TRACE_search.json)"
            .to_string(),
        columns: vec![
            "Strategy / scope".into(),
            "States".into(),
            "Steps".into(),
            "Solver sat/unsat/unknown".into(),
            "Witness hit rate".into(),
            "Prunes compl/in-flight/env".into(),
            "Truncated".into(),
            "Models full/field/empty · havocs unreconciled".into(),
            "Components solved/reused/carried".into(),
        ],
        rows,
    };
    (doc, chrome, table)
}

/// The `search-profile` experiment: profiles the symbolic engine over the
/// NF/chain catalog under all four strategies, persists the deterministic
/// counters as `TRACE_search.json` at the repo root (gated exactly by
/// `trace-drift`), and writes the combined chrome-trace span file next to
/// the result summaries. Regenerate with
/// `cargo run -p castan-experiments --release -- --quick search-profile`.
pub fn search_profile(_cfg: &ExperimentConfig, label: &str) -> (String, Vec<Table>) {
    let (doc, chrome, table) = search_profile_docs();
    let _ = label; // the profile is deliberately config-independent
    std::fs::write(TRACE_SEARCH_PATH, &doc).expect("write TRACE_search.json");
    if let Some(dir) = std::path::Path::new(SEARCH_PROFILE_TRACE_PATH).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(SEARCH_PROFILE_TRACE_PATH, &chrome).expect("write chrome trace");
    (
        format!(
            "wrote {TRACE_SEARCH_PATH} ({} runs: {} NFs + {} chains × {} strategies)\n\
             wrote {SEARCH_PROFILE_TRACE_PATH} (chrome trace; open in chrome://tracing)\n\n{}",
            SearchStrategyKind::ALL.len() * (all_nfs().len() + all_chains().len()),
            all_nfs().len(),
            all_chains().len(),
            SearchStrategyKind::ALL.len(),
            table.render(),
        ),
        vec![table],
    )
}

/// Ablation: the potential-cost loop bound M (§3.4) — predicted worst-case
/// cycles per packet of the trie LPM analysis under M = 1, 2, 3.
pub fn ablation_loop_bound(cfg: &ExperimentConfig) -> Table {
    let nf = nf_by_id(NfId::LpmTrie);
    let catalog = catalog_for(&nf, cfg);
    let mut rows = Vec::new();
    for m in [1u32, 2, 3] {
        let mut analysis = cfg.analysis.clone();
        analysis.loop_bound = m;
        let report = Castan::new(analysis).analyze(&nf, &catalog);
        rows.push(vec![
            format!("M = {m}"),
            report.predicted_worst_cpp.to_string(),
            report.states_explored.to_string(),
        ]);
    }
    Table {
        id: "ablation-m".to_string(),
        title: "Loop bound M vs predicted worst-case cycles (LPM trie)".to_string(),
        columns: vec![
            "Setting".into(),
            "Predicted worst CPP".into(),
            "States".into(),
        ],
        rows,
    }
}

/// Ablation: contention-set cache model vs no cache model (§3.3) on the
/// one-stage direct-lookup LPM, measured on the testbed.
pub fn ablation_cache_model(cfg: &ExperimentConfig) -> Table {
    let nf = nf_by_id(NfId::LpmDirect1);
    let catalog = catalog_for(&nf, cfg);
    let mut rows = Vec::new();
    for (name, kind) in [
        ("contention sets", CacheModelKind::ContentionSets),
        ("no cache model", CacheModelKind::None),
    ] {
        let mut analysis = cfg.analysis.clone();
        analysis.cache_model = kind;
        let report = Castan::new(analysis).analyze(&nf, &catalog);
        let wl = castan_workload(report.packets.clone());
        let m = measure(&nf, &wl, &cfg.measurement);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", m.median_l3_misses()),
            format!("{:.0}", m.median_latency_ns()),
        ]);
    }
    Table {
        id: "ablation-cache".to_string(),
        title: "Cache model ablation on LPM 1-stage direct lookup (measured)".to_string(),
        columns: vec![
            "Cache model".into(),
            "Median L3 misses/packet".into(),
            "Median latency (ns)".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick();
        cfg.measurement.total_packets = 1_200;
        cfg.measurement.warmup_packets = 100;
        cfg.analysis.packets = 4;
        cfg.analysis.step_budget = 8_000;
        cfg.workload_scale = 0.005;
        cfg
    }

    #[test]
    fn figure_catalog_covers_all_twelve_figures() {
        assert_eq!(figure_catalog().len(), 12);
        assert!(figure("fig99", &tiny_cfg()).is_none());
    }

    #[test]
    fn fig7_reproduces_the_trie_latency_ordering() {
        let cfg = tiny_cfg();
        let fig = figure("fig7", &cfg).unwrap();
        assert!(fig.series.len() >= 5);
        let median = |name: &str| {
            fig.series
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.cdf.median())
                .unwrap()
        };
        assert!(median("NOP") < median("Zipfian"));
        assert!(median("Manual") > median("1 Packet"));
        let rendered = fig.render();
        assert!(rendered.contains("fig7"));
        assert!(rendered.contains("Manual"));
    }

    #[test]
    fn chain_castan_beats_zipfian_on_nat_lpm() {
        // The acceptance bar for the chain subsystem: the synthesized chain
        // workload costs more cycles per packet (and therefore sustains a
        // lower throughput) than Zipfian traffic on the nat→lpm chain.
        let cfg = tiny_cfg();
        let chain = castan_chain::chain_by_id(castan_chain::ChainId::NatLpm);
        let (suite, report) = chain_workload_suite(&chain, &cfg);
        assert!(report.packets.len() >= 4);
        let measure_kind = |kind: WorkloadKind| {
            let wl = suite.iter().find(|w| w.kind == kind).unwrap();
            measure_chain(&chain, wl, &cfg.measurement).as_measurement()
        };
        let zipf = measure_kind(WorkloadKind::Zipfian);
        let castan = measure_kind(WorkloadKind::Castan);
        assert!(
            castan.median_cycles() > zipf.median_cycles(),
            "CASTAN chain workload ({}c) must out-cost Zipfian ({}c) on nat-lpm",
            castan.median_cycles(),
            zipf.median_cycles()
        );
        let tp_zipf = max_throughput_mpps(&zipf, &cfg.throughput);
        let tp_castan = max_throughput_mpps(&castan, &cfg.throughput);
        assert!(
            tp_castan < tp_zipf,
            "CASTAN {tp_castan:.2} Mpps must be below Zipfian {tp_zipf:.2} Mpps"
        );
    }

    #[test]
    fn chain_table_covers_all_chains_and_core_workloads() {
        let t = chain_table(&tiny_cfg());
        assert_eq!(t.columns.len(), 1 + castan_chain::ChainId::ALL.len());
        assert!(t.rows.len() >= 3, "at least three workload rows");
        let rendered = t.render();
        assert!(rendered.contains("nat-lpm"));
        assert!(rendered.contains("CASTAN"));
    }

    #[test]
    fn rss_scaling_uniform_is_near_linear_and_skew_collapses() {
        // The acceptance bar for the RSS runtime, asserted through the
        // rss-scaling experiment path itself: (a) uniform traffic scales
        // near-linearly from 1 to 4 cores; (b) the synthesized queue-skew
        // workload holds the 4-core aggregate to ≲1.5× the single-core
        // rate (every flow lands on one queue, the other cores idle).
        let cfg = tiny_cfg();
        let chains = [castan_chain::chain_by_id(castan_chain::ChainId::Nop3)];
        let cells = rss_scaling_data_for(&chains, &cfg);
        let mpps = |kind: WorkloadKind, cores: usize| {
            cells
                .iter()
                .find(|c| c.workload == kind && c.cores == cores)
                .map(|c| c.mpps)
                .expect("cell present")
        };
        let uni1 = mpps(WorkloadKind::UniRand, 1);
        let uni4 = mpps(WorkloadKind::UniRand, 4);
        assert!(
            uni4 >= 3.0 * uni1,
            "uniform traffic must scale near-linearly 1→4 cores: {uni1:.2} → {uni4:.2} Mpps"
        );
        let skew4 = mpps(WorkloadKind::RssSkew, 4);
        assert!(
            skew4 <= 1.5 * uni1,
            "queue skew must collapse 4-core throughput to ≲1.5× single-core: \
             {skew4:.2} vs single-core {uni1:.2} Mpps"
        );
        // The skew is visible in the load imbalance too: the bottleneck
        // core serves everything.
        let skew_share = cells
            .iter()
            .find(|c| c.workload == WorkloadKind::RssSkew && c.cores == 4)
            .unwrap()
            .bottleneck_share;
        assert!(skew_share > 0.99, "skew share {skew_share}");
    }

    #[test]
    fn rss_scaling_table_covers_chains_workloads_and_core_counts() {
        // Debug (tier-1) sticks to the cheapest chain; release covers the
        // full catalog (as the CI smoke job does via `rss_scaling`).
        let chains = if cfg!(debug_assertions) {
            vec![castan_chain::chain_by_id(castan_chain::ChainId::Nop3)]
        } else {
            castan_chain::all_chains()
        };
        let t = rss_scaling_for(&chains, &tiny_cfg());
        assert_eq!(t.columns.len(), 1 + RSS_CORE_COUNTS.len());
        // 4 workloads per chain.
        assert_eq!(t.rows.len(), 4 * chains.len());
        let rendered = t.render();
        assert!(rendered.contains("rss-scaling"));
        assert!(rendered.contains("RSS-Skew"));
        assert!(rendered.contains("nop3/UniRand"));
    }

    #[test]
    fn resynth_skew_steers_every_epoch_against_the_rotated_key() {
        // The online resynthesis attacker must keep perfect steering
        // across the key-rotating defender's whole schedule: epoch e's
        // packets land on the victim queue under rotate_key(boot, e).
        let cfg = tiny_cfg();
        let chain = castan_chain::chain_by_id(castan_chain::ChainId::Nop3);
        let run = resynth_skew_chain_workload(&chain, &cfg, 0);
        assert_eq!(run.workload.kind, WorkloadKind::ResynthSkew);
        let total = cfg.measurement.total_packets;
        assert_eq!(run.workload.len(), total, "expanded to the replay length");
        let epoch = rss_mitigation_epoch(&cfg);
        let epochs = total.div_ceil(epoch);
        assert_eq!(
            run.per_epoch_synthesis_wall_ms.len(),
            epochs,
            "one fresh synthesis per epoch"
        );
        let boot = ShardConfig::new(RSS_MITIGATION_CORES).rss;
        for e in 0..epochs {
            let mut d = RssDispatcher::new(boot);
            d.set_key(rotate_key(&boot.key, e as u64));
            for (i, p) in run.workload.packets[e * epoch..total.min((e + 1) * epoch)]
                .iter()
                .enumerate()
            {
                assert_eq!(
                    d.queue_of_packet(p),
                    0,
                    "epoch {e} packet {i} must stay on the victim queue"
                );
            }
        }
    }

    #[test]
    fn rss_mitigation_meets_the_attack_defense_acceptance_bars() {
        // The acceptance bars for the mitigation subsystem, asserted
        // through the rss-mitigation experiment path itself at 4 cores:
        // (a) least-loaded rebalancing restores >= 2x aggregate throughput
        //     over no-mitigation under *static* skew (with and without the
        //     migration cost model);
        // (b) the adaptive attacker drags the rebalanced throughput back
        //     below the rebalanced static-skew number — all the way back
        //     to a fully skewed bottleneck;
        // (c) only the work-stealing sink holds throughput under the
        //     adaptive attack.
        let cfg = tiny_cfg();
        let chains = [castan_chain::chain_by_id(castan_chain::ChainId::Nop3)];
        let cells = rss_mitigation_data_for(&chains, &cfg);
        assert_eq!(cells.len(), 3 * MitigationKind::ALL.len());
        let cell = |wl: WorkloadKind, mit: MitigationKind| {
            cells
                .iter()
                .find(|c| c.workload == wl && c.mitigation == mit)
                .expect("cell present")
        };

        let none_static = cell(WorkloadKind::RssSkew, MitigationKind::NoMitigation);
        assert!(
            none_static.bottleneck_share > 0.99,
            "static skew pins one core"
        );
        let rebal_static = cell(WorkloadKind::RssSkew, MitigationKind::Rebalance);
        let paid_static = cell(WorkloadKind::RssSkew, MitigationKind::RebalanceMigration);
        assert!(
            rebal_static.mpps >= 2.0 * none_static.mpps,
            "least-loaded rebalancing must restore >= 2x under static skew: \
             {:.2} vs {:.2} Mpps",
            rebal_static.mpps,
            none_static.mpps
        );
        assert!(
            paid_static.mpps >= 2.0 * none_static.mpps,
            "the migration cost must not eat the rebalancing win: \
             {:.2} vs {:.2} Mpps",
            paid_static.mpps,
            none_static.mpps
        );
        assert!(paid_static.migrated_flows > 0, "the rebalance moved state");

        let adaptive_rebal = cell(WorkloadKind::AdaptiveSkew, MitigationKind::Rebalance);
        assert!(
            adaptive_rebal.mpps < rebal_static.mpps,
            "the adaptive attacker must drag rebalanced throughput back \
             below the rebalanced static-skew number: {:.2} vs {:.2} Mpps",
            adaptive_rebal.mpps,
            rebal_static.mpps
        );
        assert!(
            adaptive_rebal.bottleneck_share > 0.9,
            "the chase converges: share {}",
            adaptive_rebal.bottleneck_share
        );

        let adaptive_steal = cell(
            WorkloadKind::AdaptiveSkew,
            MitigationKind::RebalanceMigrationStealing,
        );
        assert!(adaptive_steal.stolen_batches > 0);
        assert!(
            adaptive_steal.mpps > 1.5 * adaptive_rebal.mpps,
            "work stealing must hold throughput under adaptive skew: \
             {:.2} vs {:.2} Mpps",
            adaptive_steal.mpps,
            adaptive_rebal.mpps
        );

        // (d) per-epoch key rotation forces the attacker to re-fingerprint
        //     mid-attack: a trace steered against the boot key — static or
        //     adaptively chasing the rebalancer's tables — scatters from
        //     epoch 1 on, so neither attack can hold the bottleneck.
        let static_rot = cell(WorkloadKind::RssSkew, MitigationKind::RebalanceKeyRotation);
        let adaptive_rot = cell(
            WorkloadKind::AdaptiveSkew,
            MitigationKind::RebalanceKeyRotation,
        );
        assert!(
            static_rot.bottleneck_share < 0.9,
            "rotation must scatter the fingerprinted static skew: share {}",
            static_rot.bottleneck_share
        );
        assert!(
            static_rot.mpps > 2.0 * none_static.mpps,
            "rotation must restore throughput under static skew: \
             {:.2} vs {:.2} Mpps",
            static_rot.mpps,
            none_static.mpps
        );
        assert!(
            adaptive_rot.mpps > 1.5 * adaptive_rebal.mpps,
            "rotation must defeat the table-chasing attacker too (its probes \
             fingerprinted tables, not the key schedule): {:.2} vs {:.2} Mpps",
            adaptive_rot.mpps,
            adaptive_rebal.mpps
        );

        // Per-core latency CDFs are populated: under uniform traffic every
        // core has samples; under unmitigated static skew only the victim.
        let uniform = cell(WorkloadKind::UniRand, MitigationKind::NoMitigation);
        assert_eq!(uniform.core_median_latency_ns.len(), RSS_MITIGATION_CORES);
        assert!(uniform.core_median_latency_ns.iter().all(|m| m.is_finite()));
        assert_eq!(
            none_static
                .core_median_latency_ns
                .iter()
                .filter(|m| m.is_finite())
                .count(),
            1,
            "unmitigated skew leaves one busy core"
        );
    }

    #[test]
    fn rss_mitigation_table_covers_the_matrix() {
        let chains = vec![castan_chain::chain_by_id(castan_chain::ChainId::Nop3)];
        let t = rss_mitigation_for(&chains, &tiny_cfg());
        assert_eq!(t.columns.len(), 7);
        assert_eq!(t.rows.len(), 3 * MitigationKind::ALL.len());
        let rendered = t.render();
        assert!(rendered.contains("rss-mitigation"));
        assert!(rendered.contains("Adaptive-Skew"));
        assert!(rendered.contains("rebalance+migration+stealing"));
        assert!(rendered.contains("nop3/UniRand/none"));
    }

    #[test]
    fn xcore_planned_eviction_beats_an_equal_rate_random_neighbor() {
        // The acceptance bars for the cross-core contention subsystem,
        // asserted through the xcore-contention experiment path itself at
        // every swept core count: the planned replay degrades victim
        // throughput strictly more than an equal-rate random neighbour
        // (whose pressure, spread over all buckets, stays resident and
        // evicts essentially nothing).
        let cfg = tiny_cfg();
        let chains = [castan_chain::chain_by_id(castan_chain::ChainId::NatLpm)];
        let cells = xcore_contention_data_for(&chains, &cfg);
        assert_eq!(
            cells.len(),
            XCORE_CORE_COUNTS.len() * NeighborKind::ALL.len()
        );
        for &cores in &XCORE_CORE_COUNTS {
            let arm = |kind: NeighborKind| {
                cells
                    .iter()
                    .find(|c| c.cores == cores && c.neighbor == kind)
                    .expect("cell present")
            };
            let none = arm(NeighborKind::NoAttacker);
            let random = arm(NeighborKind::RandomNeighbor);
            let planned = arm(NeighborKind::PlannedEviction);
            assert!(none.plan_buckets > 0, "the plan found attackable buckets");
            assert_eq!(none.attacker_touches, 0);
            assert_eq!(
                planned.attacker_touches, random.attacker_touches,
                "the random control must run at the same rate"
            );
            assert!(
                planned.victim_mpps < random.victim_mpps,
                "{cores} cores: planned eviction ({:.3} Mpps) must degrade \
                 the victims strictly more than the random neighbour \
                 ({:.3} Mpps)",
                planned.victim_mpps,
                random.victim_mpps
            );
            assert!(
                planned.victim_mpps < none.victim_mpps,
                "{cores} cores: planned eviction must degrade the victims \
                 vs the idle neighbour"
            );
            assert!(
                planned.victim_misses_per_packet > 1.2 * random.victim_misses_per_packet,
                "{cores} cores: the throughput drop must be attributable to \
                 cross-core eviction: {:.2} vs {:.2} misses/packet",
                planned.victim_misses_per_packet,
                random.victim_misses_per_packet
            );
            // The equal-rate random control is indistinguishable from an
            // idle neighbour (< 2% throughput effect) — targeting, not
            // rate, is what makes the attack work.
            assert!(
                (random.victim_mpps - none.victim_mpps).abs() < 0.02 * none.victim_mpps,
                "{cores} cores: random neighbour {:.3} vs idle {:.3} Mpps",
                random.victim_mpps,
                none.victim_mpps
            );
        }
    }

    #[test]
    fn xcore_miss_ratio_counts_the_same_packets_on_both_sides() {
        // A packet without a flow key (ICMP) bypasses the indirection table
        // onto queue 0 — here the attacker's. It is a measured packet, so
        // its misses belong in the numerator too: dividing only the other
        // cores' misses by every core's packets under-reports the ratio.
        use castan_packet::{IpProto, PacketBuilder};
        let cfg = tiny_cfg();
        let chain = castan_chain::chain_by_id(castan_chain::ChainId::NatLpm);
        let mut wl = generic_chain_workload(
            &chain,
            WorkloadKind::Zipfian,
            &WorkloadConfig::scaled(cfg.workload_scale),
        );
        let icmp = PacketBuilder::new().proto(IpProto::Icmp).build();
        assert!(icmp.flow().is_none());
        wl.packets.push(icmp);
        let attacker = 0;
        let m = noisy_neighbor_dut(&chain, 2, attacker, &cfg).run(&wl, &cfg.measurement);
        let on_attacker = &m.per_core[attacker];
        assert!(on_attacker.packets() > 0, "the ICMP packet was measured");
        let misses = |core: &castan_testbed::CoreMeasurement| -> u64 {
            core.end_to_end.iter().map(|c| c.l3_misses).sum()
        };
        assert!(misses(on_attacker) > 0);
        let all: u64 = m.per_core.iter().map(misses).sum();
        assert_eq!(
            l3_misses_per_packet(&m),
            all as f64 / m.measured_packets() as f64
        );
    }

    /// `tiny_cfg` with a longer trace for the fleet sweeps: the 2→4-node
    /// scaling bar divides a multinomial node split, so a thousand measured
    /// packets would leave too much variance; the chain under test is the
    /// cheap nop3, so the larger count stays fast.
    fn tiny_cluster_cfg() -> ExperimentConfig {
        let mut cfg = tiny_cfg();
        cfg.measurement.total_packets = 2_000;
        cfg.measurement.warmup_packets = 200;
        cfg
    }

    #[test]
    fn cluster_skew_meets_the_fleet_acceptance_bars() {
        // The acceptance bars for the cluster subsystem, asserted through
        // the cluster-skew experiment path itself:
        // (a) uniform traffic gains >= 1.8x going from 2 to 4 nodes;
        // (b) the composed ECMP×RSS attack holds the whole unmitigated
        //     fleet to <= 1.2x a single core's rate on the same trace;
        // (c) cluster rebalancing restores >= 2x over the unmitigated
        //     attacked arm, and keeps >= 2x even when the attacked node
        //     crashes mid-run under drain-on-fail.
        let cfg = tiny_cluster_cfg();
        let chain = castan_chain::chain_by_id(castan_chain::ChainId::Nop3);
        let cells = cluster_skew_data_for(std::slice::from_ref(&chain), &cfg);
        let cell = |wl: WorkloadKind, nodes: usize, arm: ClusterArm| {
            cells
                .iter()
                .find(|c| c.workload == wl && c.nodes == nodes && c.arm == arm)
                .expect("cell present")
        };

        let uni2 = cell(WorkloadKind::UniRand, 2, ClusterArm::NoMitigation);
        let uni4 = cell(WorkloadKind::UniRand, 4, ClusterArm::NoMitigation);
        assert!(
            uni4.mpps >= 1.8 * uni2.mpps,
            "uniform traffic must scale 2→4 nodes: {:.2} → {:.2} Mpps",
            uni2.mpps,
            uni4.mpps
        );

        // ECMP skew alone pins a node, not a core: the victim node's RSS
        // still spreads the flows, so the fleet keeps roughly one node's
        // multi-core rate — strictly above the composed attack.
        let ecmp4 = cell(WorkloadKind::EcmpSkew, 4, ClusterArm::NoMitigation);
        let composed4 = cell(WorkloadKind::ClusterSkew, 4, ClusterArm::NoMitigation);
        assert!(
            composed4.bottleneck_core_share > 0.99,
            "the composed attack serialises the fleet behind one core: \
             share {}",
            composed4.bottleneck_core_share
        );
        assert!(
            ecmp4.mpps > 1.5 * composed4.mpps,
            "node-level skew must out-run the core-level composed attack: \
             {:.2} vs {:.2} Mpps",
            ecmp4.mpps,
            composed4.mpps
        );

        // Single-core reference on the very trace the attack uses.
        let shard = ShardConfig::new(CLUSTER_CORES);
        let map = ClusterConfig::new(4, shard).boot_map();
        let dispatcher = RssDispatcher::new(shard.rss);
        let uni = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(cfg.workload_scale),
        );
        let composed_wl = cluster_skew_workload(&uni, &map, &dispatcher, CLUSTER_TARGET_NODE, 0);
        let single = measure_sharded(&chain, ShardConfig::new(1), &composed_wl, &cfg.measurement);
        assert!(
            composed4.mpps <= 1.2 * single.aggregate_mpps(),
            "the composed attack must collapse 4 nodes × {CLUSTER_CORES} \
             cores to <= 1.2x one core: {:.2} vs single-core {:.2} Mpps",
            composed4.mpps,
            single.aggregate_mpps()
        );

        let rebal4 = cell(WorkloadKind::ClusterSkew, 4, ClusterArm::NodeRebalance);
        assert!(
            rebal4.mpps >= 2.0 * composed4.mpps,
            "cluster rebalancing must restore >= 2x over the unmitigated \
             attacked arm: {:.2} vs {:.2} Mpps",
            rebal4.mpps,
            composed4.mpps
        );
        assert!(rebal4.migrated_flows > 0, "the controller moved state");
        assert_eq!(rebal4.rebuilt_flows, 0, "no failure in this arm");

        let drain4 = cell(WorkloadKind::ClusterSkew, 4, ClusterArm::RebalanceDrain);
        assert!(
            drain4.mpps >= 2.0 * composed4.mpps,
            "drain-on-fail must hold the recovery through the attacked \
             node's crash: {:.2} vs {:.2} Mpps",
            drain4.mpps,
            composed4.mpps
        );
        assert!(drain4.rebuilt_flows > 0, "the failure rebuilt state");
        assert_eq!(
            drain4.front_dropped, 0,
            "drain-on-fail leaves no front-tier blackhole"
        );
    }

    #[test]
    fn cluster_skew_table_covers_the_matrix() {
        let chains = vec![castan_chain::chain_by_id(castan_chain::ChainId::Nop3)];
        let t = cluster_skew_for(&chains, &tiny_cfg());
        assert_eq!(t.columns.len(), 1 + CLUSTER_NODE_COUNTS.len());
        // 5 workloads × 3 arms (the nop3 CASTAN workload is non-empty).
        assert_eq!(t.rows.len(), 5 * ClusterArm::ALL.len());
        let rendered = t.render();
        assert!(rendered.contains("cluster-skew"));
        assert!(rendered.contains("ECMP×RSS-Skew"));
        assert!(rendered.contains("rebalance+drain-on-fail"));
        assert!(rendered.contains("nop3/UniRand/none"));
    }

    #[test]
    fn xcore_contention_table_covers_the_matrix() {
        let chains = vec![castan_chain::chain_by_id(castan_chain::ChainId::NatLpm)];
        let t = xcore_contention_for(&chains, &tiny_cfg());
        assert_eq!(t.columns.len(), 5);
        assert_eq!(
            t.rows.len(),
            XCORE_CORE_COUNTS.len() * NeighborKind::ALL.len()
        );
        let rendered = t.render();
        assert!(rendered.contains("xcore-contention"));
        assert!(rendered.contains("planned-eviction"));
        assert!(rendered.contains("random-neighbour"));
        assert!(rendered.contains("nat-lpm/2 cores/no-attacker"));
        // nop-only chains have nothing to evict and are skipped.
        let nop = xcore_contention_for(
            &[castan_chain::chain_by_id(castan_chain::ChainId::Nop3)],
            &tiny_cfg(),
        );
        assert!(nop.rows.is_empty());
    }

    #[test]
    fn packet_only_cross_core_attack_reaches_the_attacker_core() {
        // The castan-core composition end to end: synthesize eviction
        // traffic from the plan, steer it onto the attacker queue, steer
        // the victims off it, and replay the combined trace through a
        // *plain* premapped ShardedDut — no code on the victim, no
        // operator cooperation, only packets.
        use castan_core::analyze_chain_cross_core;
        use castan_workload::neighbor_evict_workload;
        let cfg = tiny_cfg();
        let chain = castan_chain::chain_by_id(castan_chain::ChainId::NatLpm);
        let wl_cfg = WorkloadConfig::scaled(cfg.workload_scale);
        let victim_wl = generic_chain_workload(&chain, WorkloadKind::Zipfian, &wl_cfg);
        let cores = 2;
        let attacker_queue = 1;
        let plan = xcore_eviction_plan(&chain, &victim_wl, cores, &cfg);
        assert!(!plan.is_empty());

        let castan = Castan::new(cfg.analysis.clone());
        let dispatcher = RssDispatcher::for_queues(cores);
        let report =
            analyze_chain_cross_core(&castan, &chain, &plan, &dispatcher, attacker_queue, 2);
        assert!(report.targeted_buckets >= 1);
        assert!(!report.packets().is_empty());
        assert!(report.skew.skew_ratio(&dispatcher) > 0.99);

        let wl =
            neighbor_evict_workload(&victim_wl, report.packets(), &dispatcher, attacker_queue, 4);
        assert_eq!(wl.kind, WorkloadKind::NeighborEvict);
        let shard = ShardConfig::new(cores).with_premapped_pages();
        let m = measure_sharded(&chain, shard, &wl, &cfg.measurement);
        // The attack traffic reached the attacker core — and nothing else
        // did; every victim packet stayed on the victim cores.
        let attacker_share =
            m.per_core[attacker_queue].dispatched as f64 / cfg.measurement.total_packets as f64;
        assert!(
            (attacker_share - 0.25).abs() < 0.05,
            "one slot in four carries attack traffic: share {attacker_share}"
        );
        assert!(m.per_core[0].packets() > 0, "victims keep forwarding");
    }

    #[test]
    fn table5_has_eleven_rows() {
        let cfg = tiny_cfg();
        let t = table5(&cfg);
        assert_eq!(t.rows.len(), 11);
        assert_eq!(t.columns.len(), 4);
        let rendered = t.render();
        assert!(rendered.contains("LPM btrie"));
        // Manual column only filled for the three NFs that have one.
        let manual_filled = t.rows.iter().filter(|r| r[2] != "-").count();
        assert_eq!(manual_filled, 3);
    }

    #[test]
    fn detect_flags_every_attack_and_recovers() {
        // The acceptance bars for the detection subsystem, asserted through
        // the detect experiment path itself:
        // (a) every attack arm (CASTAN replay, RSS skew, adaptive skew,
        //     neighbor eviction) raises an alarm within three telemetry
        //     epochs, with the detection overhead charged to the run;
        // (b) the benign arms (uniform, Zipfian) raise zero alarms at the
        //     default thresholds — no false positives;
        // (c) some ROC operating point separates perfectly;
        // (d) the closed-loop arm — mitigation installed only after the
        //     first alarm, overhead still charged — recovers >= 2x over
        //     the unmitigated attacked arm.
        let cfg = tiny_cfg();
        let chain = castan_chain::chain_by_id(castan_chain::ChainId::NatLpm);
        let report = detect_data_for(&chain, &cfg);
        assert_eq!(report.cells.len(), DetectArm::ALL.len());
        for cell in &report.cells {
            if cell.arm.is_attack() {
                let epochs = cell
                    .epochs_to_detect
                    .unwrap_or_else(|| panic!("{}: attack not detected", cell.arm.name()));
                assert!(
                    epochs <= 3,
                    "{}: detected only after {epochs} epochs",
                    cell.arm.name()
                );
                assert!(cell.first_signature.is_some());
            } else {
                assert_eq!(cell.alarms, 0, "{}: false positive", cell.arm.name());
                assert!(cell.epochs_to_detect.is_none());
            }
            assert!(
                cell.overhead_cycles > 0,
                "{}: detection overhead must be charged",
                cell.arm.name()
            );
        }
        assert!(
            report
                .roc
                .iter()
                .any(|p| p.attacks_detected == p.attack_arms && p.false_positives == 0),
            "no ROC operating point separates attacks from benign traffic: {:?}",
            report.roc
        );
        let cl = &report.closed_loop;
        assert!(cl.activated_epoch.is_some(), "mitigation never triggered");
        assert!(
            cl.recovery >= 2.0,
            "closed-loop recovery {:.2}x < 2x ({:.2} -> {:.2} Mpps)",
            cl.recovery,
            cl.attacked_mpps,
            cl.closed_loop_mpps
        );
        assert!(cl.overhead_cycles > 0);
        // The rendered tables cover the whole matrix.
        assert_eq!(
            detect_table(&report).rows.len(),
            DetectArm::ALL.len() + 1 // + the closed-loop row
        );
        assert_eq!(
            detect_roc_table(&report).rows.len(),
            DETECT_ROC_FACTORS.len()
        );
    }

    #[test]
    fn result_json_mirrors_the_rendered_table() {
        let t = Table {
            id: "demo".into(),
            title: "Demo".into(),
            columns: vec!["Scenario".into(), "Result".into()],
            rows: vec![vec!["base".into(), "1.25".into()]],
        };
        let doc = t.result_json("quick");
        for needle in [
            "castan-experiment-result-v1",
            "\"demo\"",
            "\"quick\"",
            "\"Scenario\"",
            "\"base\"",
            "\"1.25\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
    }

    #[test]
    fn figure_summary_table_has_one_row_per_series() {
        let fig = figure("fig7", &tiny_cfg()).unwrap();
        let t = fig.summary_table();
        assert_eq!(t.id, fig.id);
        assert_eq!(t.columns.len(), 4);
        assert_eq!(t.rows.len(), fig.series.len());
    }

    #[test]
    fn drift_flags_value_changes_and_ignores_wall_clock() {
        let drift_lines = |committed: &str, regenerated: &str| {
            drift(
                "doc.json",
                committed,
                regenerated,
                BENCH_DRIFT_TOLERANCE,
                Some("_wall_ms"),
            )
        };
        let committed = "{\n  \"a\": 1.0,\n  \"nested\": {\n    \"b\": 2.0,\n    \"synthesis_wall_ms\": 100\n  }\n}\n";
        assert_eq!(
            drift_lines(committed, committed).unwrap(),
            Vec::<String>::new()
        );
        // 5% drift on one field is over the 1% tolerance; a wall-clock
        // change is ignored.
        let drifted = "{\n  \"a\": 1.05,\n  \"nested\": {\n    \"b\": 2.0,\n    \"synthesis_wall_ms\": 900\n  }\n}\n";
        let lines = drift_lines(committed, drifted).unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("doc.json: a:"), "{}", lines[0]);
        // A field missing on either side is reported.
        let missing = "{\n  \"a\": 1.0\n}\n";
        assert!(drift_lines(committed, missing)
            .unwrap()
            .iter()
            .any(|l| l.contains("missing on regenerate")));
        assert!(drift_lines(missing, committed)
            .unwrap()
            .iter()
            .any(|l| l.contains("not in the committed baseline")));
        // The exact gate takes neither a small drift, nor a wall-clock
        // field, nor equal numbers under a different layout.
        let exact = |regenerated: &str| drift("doc.json", committed, regenerated, 0.0, None);
        assert_eq!(exact(committed).unwrap(), Vec::<String>::new());
        let nudged = committed.replace("2.0", "2.001");
        assert_eq!(exact(&nudged).unwrap().len(), 1);
        assert_eq!(exact(drifted).unwrap().len(), 2);
        let relaid = committed.replace("\n", "");
        assert!(exact(&relaid).unwrap()[0].contains("differ textually"));
    }

    #[test]
    fn quantile_baseline_is_no_looser_than_max_on_real_calibration_arms() {
        // Satellite check on real data: calibrating with the p90 of the
        // log-scale histograms instead of the per-epoch maxima must never
        // loosen the benign envelope (the quantile is capped at the
        // tracked max by construction), and the tighter envelope must not
        // invent alarms on the very runs it was learned from.
        let cfg = tiny_cfg();
        let chain = castan_chain::chain_by_id(castan_chain::ChainId::NatLpm);
        let calib = detect_benign_registries(&chain, &cfg);
        let refs: Vec<&Registry> = calib.iter().collect();
        let max = Baseline::learn(&refs, 32);
        let q90 = Baseline::learn_quantile(&refs, 32, 0.9);
        for (name, q, m) in [
            ("max_core_share", q90.max_core_share, max.max_core_share),
            (
                "misses_per_packet",
                q90.misses_per_packet,
                max.misses_per_packet,
            ),
            (
                "cycles_per_packet",
                q90.cycles_per_packet,
                max.cycles_per_packet,
            ),
            (
                "instructions_per_packet",
                q90.instructions_per_packet,
                max.instructions_per_packet,
            ),
        ] {
            assert!(q <= m, "{name}: quantile {q} looser than max {m}");
        }
        for reg in &calib {
            let d = Detector::scan(DetectorConfig::with_baseline(q90), reg);
            assert!(
                d.alarms().is_empty(),
                "quantile baseline flags its own calibration run: {:?}",
                d.alarms()
            );
        }
    }

    #[test]
    fn search_profile_regenerates_identical_deterministic_counters() {
        // The trace-drift contract in miniature: the baseline document is
        // a pure function of the pinned profile config — rebuilding it
        // back to back yields byte-identical output (wall-clock only ever
        // lands in the chrome-trace document, which is free to differ).
        let (doc_a, _, table_a) = search_profile_docs();
        let (doc_b, _, table_b) = search_profile_docs();
        assert_eq!(doc_a, doc_b);
        assert!(doc_a.contains("castan-search-trace-baseline-v1"));
        assert!(doc_a.contains("nf:NOP|"), "NF runs keyed by name|strategy");
        assert!(doc_a.contains("chain:nat-lpm|"), "chain runs keyed too");
        assert_eq!(table_a.rows, table_b.rows);
        // One nf row and one chain row per strategy.
        assert_eq!(table_a.rows.len(), SearchStrategyKind::ALL.len() * 2);
    }
}
