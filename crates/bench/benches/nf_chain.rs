//! Per-packet cost of service-function chains on the chained datapath, and
//! the chained analysis itself. Backs the `chain-table` experiment: the
//! relative per-packet chain costs here determine chain throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use castan_chain::{all_chains, chain_by_id, ChainId};
use castan_core::{analyze_chain, AnalysisConfig, Castan};
use castan_mem::{ContentionCatalog, HierarchyConfig, MemoryHierarchy};
use castan_testbed::{measure_chain, MeasurementConfig, ShardConfig, ShardedDut};
use castan_workload::{generic_chain_workload, WorkloadConfig, WorkloadKind};

fn bench_chain_datapath(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_datapath");
    let cfg = MeasurementConfig {
        total_packets: 2_000,
        warmup_packets: 200,
        ..Default::default()
    };
    for chain in all_chains() {
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::Zipfian,
            &WorkloadConfig::scaled(0.002),
        );
        group.bench_function(BenchmarkId::from_parameter(chain.name()), |b| {
            let mut dut = ShardedDut::new(chain.clone(), ShardConfig::unbatched(1), &cfg);
            b.iter(|| black_box(dut.run(&wl, &cfg).as_measurement().median_cycles()))
        });
    }
    group.finish();
}

fn bench_chain_measurement(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_measurement");
    group.sample_size(10);
    let cfg = MeasurementConfig {
        total_packets: 1_500,
        warmup_packets: 150,
        ..Default::default()
    };
    let chain = chain_by_id(ChainId::NatLpm);
    for kind in [WorkloadKind::Zipfian, WorkloadKind::UniRand] {
        let wl = generic_chain_workload(&chain, kind, &WorkloadConfig::scaled(0.002));
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let m = measure_chain(&chain, &wl, &cfg).as_measurement();
                black_box(m.median_latency_ns())
            })
        });
    }
    group.finish();
}

fn bench_chain_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_analysis");
    group.sample_size(10);
    let chain = chain_by_id(ChainId::NatLpm);
    let catalogs: Vec<ContentionCatalog> = chain
        .stages
        .iter()
        .map(|s| {
            let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), 1);
            let lines: Vec<u64> =
                s.nf.data_regions
                    .first()
                    .map(|r| {
                        (0..1024u64)
                            .map(|i| r.base + (i * 8 * 64) % r.len)
                            .collect()
                    })
                    .unwrap_or_default();
            ContentionCatalog::from_ground_truth(&mut hier, lines)
        })
        .collect();
    let mut cfg = AnalysisConfig::quick();
    cfg.packets = 4;
    cfg.step_budget = 10_000;
    let castan = Castan::new(cfg);
    group.bench_function(BenchmarkId::from_parameter(chain.name()), |b| {
        b.iter(|| black_box(analyze_chain(&castan, &chain, &catalogs).predicted_total_cpp))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_chain_datapath,
    bench_chain_measurement,
    bench_chain_analysis
);
criterion_main!(benches);
