//! The single-NF DUT, the chained DUT and `castan-mem`'s single-core
//! contention discovery were deleted once `ShardedDut` (at one core, batch
//! of one) and the prober-core discovery (at prober 0 of a one-core
//! hierarchy) reproduced them byte for byte. The pins that compared each
//! pair went with the older half; these are the numbers the older half
//! produced at commit 85ee5c5, its last, so the surviving path stays held to
//! them.

use castan_suite::chain::{chain_by_id, ChainId};
use castan_suite::mem::contention::{discover_catalog, DiscoveryConfig};
use castan_suite::mem::{HierarchyConfig, MemoryHierarchy};
use castan_suite::nf::{nf_by_id, NfId};
use castan_suite::testbed::{
    measure, measure_chain, Measurement, MeasurementConfig, PacketCounters,
};
use castan_suite::workload::{
    generic_chain_workload, generic_workload, manual_workload, WorkloadConfig, WorkloadKind,
};

/// FNV-1a over 64-bit words: the vectors are thousands of samples long, so
/// the test commits their digest, not their contents.
fn digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one run measured.
#[derive(Debug, PartialEq)]
struct Run {
    /// Summed per-packet cycles, instructions, loads, stores, L3 misses.
    aggregate: [u64; 5],
    packets: usize,
    /// Digest of every latency sample's bits, in order.
    latency: u64,
    /// Digest of every packet's five counters, in order.
    counters: u64,
    /// Digest of every service time's bits, in order.
    service: u64,
}

fn fields(p: &PacketCounters) -> [u64; 5] {
    [p.cycles, p.instructions, p.loads, p.stores, p.l3_misses]
}

fn summary(m: &Measurement) -> Run {
    let mut aggregate = [0u64; 5];
    for p in &m.counters {
        for (a, v) in
            aggregate
                .iter_mut()
                .zip([p.cycles, p.instructions, p.loads, p.stores, p.l3_misses])
        {
            *a += v;
        }
    }
    Run {
        aggregate,
        packets: m.counters.len(),
        latency: digest(m.latency_ns.iter().map(|l| l.to_bits())),
        counters: digest(m.counters.iter().flat_map(fields)),
        service: digest(m.service_ns.iter().map(|s| s.to_bits())),
    }
}

fn measurement_config() -> MeasurementConfig {
    MeasurementConfig {
        total_packets: 4_000,
        warmup_packets: 400,
        seed: 11,
        boot_seed: 12,
    }
}

fn workload_config() -> WorkloadConfig {
    WorkloadConfig {
        scale: 0.01,
        seed: 20_180_820,
    }
}

/// Measures `id` under a generic workload, or its manual one for `None`.
fn single_nf(id: NfId, kind: Option<WorkloadKind>) -> Run {
    let nf = nf_by_id(id);
    let workload = match kind {
        Some(kind) => generic_workload(&nf, kind, &workload_config()),
        None => manual_workload(&nf).expect("the NF has a manual workload"),
    };
    summary(&measure(&nf, &workload, &measurement_config()))
}

#[test]
fn one_nf_on_one_core_measures_what_the_single_nf_dut_measured() {
    assert_eq!(
        single_nf(NfId::Nop, Some(WorkloadKind::UniRand)),
        Run {
            aggregate: [3_430_800, 975_600, 0, 0, 3_600],
            packets: 3_600,
            latency: 7_006_976_090_044_277_869,
            counters: 14_489_493_247_270_723_861,
            service: 5_003_746_769_728_976_437,
        }
    );
    assert_eq!(
        single_nf(NfId::LpmDirect1, Some(WorkloadKind::UniRand)),
        Run {
            aggregate: [4_059_464, 1_004_400, 3_600, 0, 6_510],
            packets: 3_600,
            latency: 8_836_092_962_091_938_097,
            counters: 12_481_097_960_836_724_031,
            service: 5_470_410_491_520_188_253,
        }
    );
    assert_eq!(
        single_nf(NfId::NatHashTable, Some(WorkloadKind::Zipfian)),
        Run {
            aggregate: [3_859_104, 1_170_232, 28_776, 152, 3_632],
            packets: 3_600,
            latency: 17_983_367_830_848_970_530,
            counters: 10_640_037_582_937_386_539,
            service: 18_244_009_655_805_215_763,
        }
    );
    assert_eq!(
        single_nf(NfId::NatUnbalancedTree, None),
        Run {
            aggregate: [6_816_600, 2_997_000, 282_600, 0, 3_600],
            packets: 3_600,
            latency: 6_672_396_392_825_158_986,
            counters: 2_854_902_053_676_682_853,
            service: 15_670_385_496_999_780_853,
        }
    );
}

#[test]
fn a_chain_on_one_core_measures_what_the_chain_dut_measured() {
    let chain = chain_by_id(ChainId::NatLpm);
    let workload = generic_chain_workload(&chain, WorkloadKind::Zipfian, &workload_config());
    let m = measure_chain(&chain, &workload, &measurement_config());
    assert_eq!(
        summary(&m.as_measurement()),
        Run {
            aggregate: [4_330_634, 1_431_632, 73_136, 152, 3_632],
            packets: 3_600,
            latency: 14_974_978_405_976_652_766,
            counters: 5_154_335_215_022_786_763,
            service: 2_500_392_276_045_111_776,
        }
    );
    assert_eq!(m.dropped(), 0);
    // The chain DUT's per-stage per-packet counters, summed per stage.
    let stages: Vec<[u64; 5]> = m.per_core[0].stage_totals.iter().map(fields).collect();
    assert_eq!(
        stages,
        [
            [439_104, 198_232, 28_776, 152, 32],
            [471_530, 261_400, 44_360, 0, 0]
        ]
    );
}

#[test]
fn prober_zero_of_one_core_discovers_what_the_single_core_discovery_did() {
    let cfg = HierarchyConfig::tiny_for_tests();
    // One candidate per page in two address windows: the set-index bits
    // agree, so the grouping is the boot's hidden slice assignment.
    let page = 1u64 << cfg.page_bits;
    let mut candidates: Vec<u64> = (0..24u64).map(|i| 0x10_0000 + i * page).collect();
    candidates.extend((0..24u64).map(|i| 0x4000_0000 + i * page));
    for (boot, expected) in [
        (5u64, 1_095_081_602_441_338_155u64),
        (9, 6_162_598_157_948_758_861),
        (13, 6_778_128_675_996_606_065),
    ] {
        let mut hier = MemoryHierarchy::new(cfg, boot);
        let catalog = discover_catalog(
            hier.multicore_mut(),
            0,
            &candidates,
            &DiscoveryConfig::default(),
        );
        assert_eq!(catalog.len(), 2, "boot {boot}");
        assert_eq!(catalog.associativity(), 8, "boot {boot}");
        // Every set's size, then its sorted lines, in catalogue order.
        let lines = catalog
            .sets()
            .iter()
            .flat_map(|s| std::iter::once(s.len() as u64).chain(s.lines.iter().copied()));
        assert_eq!(digest(lines), expected, "boot {boot}");
    }
}
