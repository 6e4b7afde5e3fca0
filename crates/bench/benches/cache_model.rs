//! Memory-hierarchy simulator and contention-set machinery (§3.2).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use castan_mem::probe::{probing_time, ProbeConfig};
use castan_mem::{
    contention::{discover_contention_set, DiscoveryConfig},
    ContentionCatalog, HierarchyConfig, MemoryHierarchy, LINE_SIZE,
};

fn bench_hierarchy_access(c: &mut Criterion) {
    c.bench_function("hierarchy_streaming_64MiB", |b| {
        let mut hier = MemoryHierarchy::xeon();
        let mut addr = 0x4000_0000u64;
        b.iter(|| {
            addr = addr.wrapping_add(4096) & 0x7fff_ffff;
            black_box(hier.read(addr))
        })
    });
}

fn bench_probing(c: &mut Criterion) {
    c.bench_function("probing_time_64_lines", |b| {
        let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests(), 3);
        let span = hier.config().l3_slice_geometry().sets() * LINE_SIZE;
        let addrs: Vec<u64> = (0..64).map(|i| 0x10_0000 + i * span).collect();
        b.iter(|| {
            black_box(probing_time(
                hier.multicore_mut(),
                0,
                &addrs,
                ProbeConfig::default(),
            ))
        })
    });
}

fn bench_discovery_and_ground_truth(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention_sets");
    group.sample_size(10);
    group.bench_function("discover_one_set_tiny", |b| {
        b.iter(|| {
            let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests(), 5);
            let span = hier.config().l3_slice_geometry().sets() * LINE_SIZE;
            let candidates: Vec<u64> = (0..48).map(|i| 0x10_0000 + i * span).collect();
            black_box(discover_contention_set(
                hier.multicore_mut(),
                0,
                &candidates,
                &DiscoveryConfig::default(),
            ))
        })
    });
    group.bench_function("ground_truth_catalog_8k_lines", |b| {
        b.iter(|| {
            let mut hier = MemoryHierarchy::xeon();
            let lines = (0..8192u64).map(|i| 0x4000_0000 + i * 64 * 97);
            black_box(ContentionCatalog::from_ground_truth(&mut hier, lines))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hierarchy_access,
    bench_probing,
    bench_discovery_and_ground_truth
);
criterion_main!(benches);
