//! Host-speed work on the replay path (word-granular `DataMemory`, the
//! `PageTable` memo, the interpreter's register stack) must be invisible to
//! the simulation. This replays one fixed-seed `nat-lpm` trace on the
//! sharded DUT and compares what it measures against numbers captured at
//! commit 1549522, before any of that work: a change that moves one of them
//! changed a simulated value, not just the host's speed.

use castan_suite::chain::{chain_by_id, ChainId};
use castan_suite::testbed::{MeasurementConfig, ShardConfig, ShardedDut};
use castan_suite::workload::{generic_chain_workload, WorkloadConfig, WorkloadKind};

/// FNV-1a over 64-bit words: the vectors are thousands of samples long, so
/// the test commits their digest, not their contents.
fn digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one core measured.
#[derive(Debug, PartialEq)]
struct Core {
    /// `HierarchyStats`: accesses, L1, L2, L3 hits, L3 misses, cycles.
    mem: [u64; 6],
    packets: usize,
    /// Digest of every latency sample's bits, in order.
    latency: u64,
    /// Digest of every packet's (cycles, instructions, loads, stores,
    /// L3 misses), in order.
    counters: u64,
}

/// What one run measured.
#[derive(Debug, PartialEq)]
struct Run {
    /// `aggregate_counters`: cycles, instructions, loads, stores, L3 misses.
    aggregate: [u64; 5],
    dropped: usize,
    cores: Vec<Core>,
}

fn replay(n_cores: usize) -> Run {
    let chain = chain_by_id(ChainId::NatLpm);
    let wl_cfg = WorkloadConfig {
        scale: 0.01,
        seed: 20_180_820,
    };
    let workload = generic_chain_workload(&chain, WorkloadKind::UniRand, &wl_cfg);
    let cfg = MeasurementConfig {
        total_packets: 6_000,
        warmup_packets: 600,
        seed: 11,
        boot_seed: 12,
    };
    let m = ShardedDut::new(chain, ShardConfig::new(n_cores), &cfg).run(&workload, &cfg);
    let a = m.aggregate_counters();
    Run {
        aggregate: [a.cycles, a.instructions, a.loads, a.stores, a.l3_misses],
        dropped: m.dropped(),
        cores: m
            .per_core
            .iter()
            .map(|c| Core {
                mem: [
                    c.mem.accesses,
                    c.mem.l1_hits,
                    c.mem.l2_hits,
                    c.mem.l3_hits,
                    c.mem.l3_misses,
                    c.mem.cycles,
                ],
                packets: c.packets(),
                latency: digest(c.latency_ns.iter().map(|l| l.to_bits())),
                counters: digest(
                    c.end_to_end
                        .iter()
                        .flat_map(|p| [p.cycles, p.instructions, p.loads, p.stores, p.l3_misses]),
                ),
            })
            .collect(),
    }
}

fn core(mem: [u64; 6], packets: usize, latency: u64, counters: u64) -> Core {
    Core {
        mem,
        packets,
        latency,
        counters,
    }
}

#[test]
fn one_core_replay_measures_what_the_parent_commit_measured() {
    let expected = Run {
        aggregate: [6_191_030, 2_179_960, 81_678, 74_860, 17_708],
        dropped: 0,
        cores: vec![core(
            [176_432, 155_009, 3_198, 3_665, 14_560, 3_731_672],
            5_400,
            15_803_437_730_713_417_475,
            13_347_000_136_224_864_573,
        )],
    };
    assert_eq!(replay(1), expected);
}

#[test]
fn four_core_replay_measures_what_the_parent_commit_measured() {
    let expected = Run {
        aggregate: [6_510_331, 2_174_952, 80_649, 74_860, 20_101],
        dropped: 0,
        cores: vec![
            core(
                [44_287, 39_140, 824, 32, 4_291, 1_026_056],
                1_348,
                17_577_190_932_511_966_215,
                8_091_011_238_646_584_464,
            ),
            core(
                [43_984, 38_778, 848, 23, 4_335, 1_033_300],
                1_350,
                2_154_047_615_706_229_531,
                719_371_930_682_763_536,
            ),
            core(
                [41_911, 36_983, 797, 17, 4_114, 981_044],
                1_317,
                2_322_980_018_924_827_310,
                16_647_924_157_198_445_429,
            ),
            core(
                [45_199, 39_934, 924, 31, 4_310, 1_034_188],
                1_385,
                15_365_429_147_295_193_842,
                15_441_883_476_486_985_038,
            ),
        ],
    };
    assert_eq!(replay(4), expected);
}
