//! Pointer-chase probing-time measurement.
//!
//! §3.2 of the paper measures a candidate address set's *probing time*: the
//! time to sequentially read every address in the set, repeated in a loop
//! (100 times on the real hardware), using pointer chasing to defeat
//! pipelining. In the simulator reads are already serialised, so probing
//! time is simply the summed access latency of a steady-state iteration —
//! but the measurement interface (flush, warm, measure, compare against a
//! contention threshold δ) is kept identical so the discovery algorithm
//! reads exactly like the paper's.
//!
//! The sweep runs from a chosen *prober core* of a
//! [`MultiCoreHierarchy`]: it is charged through that core's private L1/L2
//! in front of the shared L3, so back-invalidation-driven latency jumps — a
//! neighbour's lines falling out of the shared L3 — show up in the
//! prober's own timing. The paper's single-core measurement is prober 0 of
//! a one-core hierarchy ([`crate::MemoryHierarchy::multicore_mut`]).

use crate::config::HierarchyConfig;
use crate::multicore::MultiCoreHierarchy;

/// Configuration of a probing-time measurement.
#[derive(Clone, Copy, Debug)]
pub struct ProbeConfig {
    /// Number of times the address set is swept. The paper uses 100 on real
    /// hardware to average out noise; the simulator is noise-free so a
    /// handful of warm-up sweeps plus one measured sweep suffices, but the
    /// parameter is kept for fidelity.
    pub reps: u32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig { reps: 4 }
    }
}

/// Measures the steady-state probing time (cycles per sweep) of `addrs`,
/// swept from core `prober`.
///
/// All caches are flushed first, then the set is swept `reps` times; the
/// cycles of the final sweep are returned. A set that fits its contention
/// sets within associativity converges to all-hits; a set exceeding
/// associativity keeps missing every sweep, which is the signal the
/// discovery algorithm thresholds on.
pub fn probing_time(
    hier: &mut MultiCoreHierarchy,
    prober: usize,
    addrs: &[u64],
    cfg: ProbeConfig,
) -> u64 {
    assert!(cfg.reps >= 2, "need at least one warm-up sweep");
    hier.flush_caches();
    let mut last_sweep = 0;
    for _ in 0..cfg.reps {
        last_sweep = 0;
        for &a in addrs {
            last_sweep += hier.read(prober, a).cycles;
        }
    }
    last_sweep
}

/// A reasonable contention threshold δ for the configured hierarchy: half of
/// the extra cost of one DRAM access over an L3 hit. Adding the (α+1)-st
/// address of a contention set adds at least one full DRAM access per sweep,
/// so this threshold separates the two cases with margin on both sides.
pub fn contention_threshold(config: &HierarchyConfig) -> u64 {
    let lat = config.latencies;
    (lat.dram - lat.l3) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_SIZE;

    fn tiny(cores: usize) -> MultiCoreHierarchy {
        MultiCoreHierarchy::new(HierarchyConfig::tiny_for_tests(), 3, cores)
    }

    #[test]
    fn small_set_converges_to_hits() {
        let mut h = tiny(1);
        let addrs: Vec<u64> = (0..4).map(|i| 0x1000 + i * LINE_SIZE).collect();
        let t = probing_time(&mut h, 0, &addrs, ProbeConfig::default());
        let lat = h.config().latencies;
        // 4 addresses, all should hit L1 in the steady state.
        assert_eq!(t, 4 * lat.l1);
    }

    #[test]
    fn oversubscribed_set_keeps_missing() {
        // Tiny config: L3 slices have 4 sets × 8 ways. Take many lines that
        // alias to the same L1/L2/L3 set indices; well beyond associativity
        // they can never all fit, so the steady-state sweep stays expensive.
        let mut h = tiny(1);
        let cfg = *h.config();
        let span = cfg.l3_slice_geometry().sets() * LINE_SIZE; // stride that preserves the set index
        let addrs: Vec<u64> = (0..64).map(|i| 0x80_0000 + i * span).collect();
        let t = probing_time(&mut h, 0, &addrs, ProbeConfig::default());
        let lat = cfg.latencies;
        assert!(
            t > 64 * lat.l1,
            "a set far exceeding associativity must not settle into L1 hits"
        );
        assert!(
            t >= 8 * lat.dram,
            "expected sustained DRAM traffic, got {t}"
        );
    }

    #[test]
    fn oversubscribed_sets_stay_expensive_from_a_neighbour_core() {
        let mut h = tiny(2);
        let cfg = *h.config();
        let span = cfg.l3_slice_geometry().sets() * LINE_SIZE;
        let addrs: Vec<u64> = (0..64).map(|i| 0x80_0000 + i * span).collect();
        let t = probing_time(&mut h, 1, &addrs, ProbeConfig::default());
        assert!(
            t >= 8 * cfg.latencies.dram,
            "expected sustained DRAM traffic, got {t}"
        );
    }

    #[test]
    fn any_prober_core_measures_the_same_shared_l3() {
        // The probing time is dominated by the shared L3 and DRAM; the
        // prober's identity must not change the steady-state measurement
        // (every core has identical, initially-empty private levels).
        let mut h = tiny(4);
        let span = h.config().l3_slice_geometry().sets() * LINE_SIZE;
        let addrs: Vec<u64> = (0..32).map(|i| 0x40_0000 + i * span).collect();
        let baseline = probing_time(&mut h, 0, &addrs, ProbeConfig::default());
        for core in 1..4 {
            assert_eq!(
                probing_time(&mut h, core, &addrs, ProbeConfig::default()),
                baseline,
                "prober core {core} diverged"
            );
        }
    }

    #[test]
    fn threshold_between_l3_and_dram() {
        let cfg = HierarchyConfig::tiny_for_tests();
        let d = contention_threshold(&cfg);
        assert!(d > 0);
        assert!(d < cfg.latencies.dram - cfg.latencies.l3);
    }

    #[test]
    fn probing_is_deterministic() {
        let addrs: Vec<u64> = (0..16).map(|i| 0x9000 + i * 3 * LINE_SIZE).collect();
        let t1 = probing_time(&mut tiny(1), 0, &addrs, ProbeConfig::default());
        let t2 = probing_time(&mut tiny(1), 0, &addrs, ProbeConfig::default());
        assert_eq!(t1, t2);
    }
}
