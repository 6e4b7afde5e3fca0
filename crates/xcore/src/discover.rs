//! Cross-core consistency of the §3.2 contention-set discovery.
//!
//! The discovery itself is `castan_mem::contention`'s (re-exported from
//! the crate root under this crate's names): the paper's three-step
//! procedure, probing from a chosen core of a [`MultiCoreHierarchy`] over a
//! candidate pool that may span several cores' striped address windows.
//! Because the L3 is shared and physically indexed, the (slice, set)
//! bucket of a line does not depend on which core touches it — so the
//! recovered sets are consistent across cores, which
//! [`consistent_across_cores`] verifies by probing from every core and
//! intersecting. The tests here validate the attacker-core view against
//! the `SliceHash` ground-truth oracle.

use castan_mem::contention::{
    consistent_catalog, discover_catalog, ContentionCatalog, DiscoveryConfig,
};
use castan_mem::MultiCoreHierarchy;

/// Discovers one catalogue per core (probing the same candidate pool from
/// every core of the hierarchy) and intersects them with the paper's
/// consistency filter: only groups that land together in **every** per-core
/// catalogue survive. Because the shared L3 is physically indexed, the
/// per-core catalogues agree wherever discovery succeeds, so this both
/// *verifies* cross-core consistency and returns the agreed grouping.
pub fn consistent_across_cores(
    hier: &mut MultiCoreHierarchy,
    candidates: &[u64],
    cfg: &DiscoveryConfig,
) -> ContentionCatalog {
    let catalogs: Vec<ContentionCatalog> = (0..hier.n_cores())
        .map(|core| discover_catalog(hier, core, candidates, cfg))
        .collect();
    consistent_catalog(&catalogs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use castan_mem::contention::ground_truth_catalog_on;
    use castan_mem::HierarchyConfig;

    fn tiny_multi(boot: u64, cores: usize) -> MultiCoreHierarchy {
        MultiCoreHierarchy::new(HierarchyConfig::tiny_for_tests(), boot, cores)
    }

    /// Candidates sharing the L3 set-index bits so the only unknown is the
    /// slice — one candidate per page, spread over two cores' windows.
    fn two_window_candidates(cfg: &HierarchyConfig, per_window: u64) -> Vec<u64> {
        let page = 1u64 << cfg.page_bits;
        let mut out: Vec<u64> = (0..per_window).map(|i| 0x10_0000 + i * page).collect();
        out.extend((0..per_window).map(|i| 0x4000_0000 + i * page));
        out
    }

    #[test]
    fn cross_core_discovery_matches_the_oracle_and_mixes_windows() {
        let cfg = HierarchyConfig::tiny_for_tests();
        let candidates = two_window_candidates(&cfg, 24);
        let mut h = tiny_multi(13, 2);
        let truth = ground_truth_catalog_on(&mut h, candidates.iter().copied());
        let discovered = discover_catalog(&mut h, 1, &candidates, &DiscoveryConfig::default());
        assert!(!discovered.is_empty());

        // Every discovered set must be a subset of one oracle bucket.
        for set in discovered.sets() {
            let bucket = truth.set_of(set.lines[0]).expect("oracle knows the line");
            for &l in &set.lines {
                assert_eq!(truth.set_of(l), Some(bucket), "line {l:#x} misgrouped");
            }
        }
        // And discovery must have found genuinely cross-core contention:
        // at least one set containing lines from both windows.
        let mixed = discovered.sets().iter().any(|s| {
            s.lines.iter().any(|&l| l < 0x4000_0000) && s.lines.iter().any(|&l| l >= 0x4000_0000)
        });
        assert!(mixed, "expected a set mixing victim and attacker windows");
    }

    #[test]
    fn discovery_recovers_at_least_ninety_percent_per_slice() {
        // Satellite acceptance: per ground-truth bucket (one per slice for
        // this same-set-index candidate pattern), the attacker-core
        // discovery recovers >= 90% of the oracle's member lines.
        for boot in [5u64, 13, 29] {
            let cfg = HierarchyConfig::tiny_for_tests();
            let candidates = two_window_candidates(&cfg, 20);
            let mut h = tiny_multi(boot, 2);
            let truth = ground_truth_catalog_on(&mut h, candidates.iter().copied());
            let discovered = discover_catalog(&mut h, 1, &candidates, &DiscoveryConfig::default());
            for (i, truth_set) in truth.sets().iter().enumerate() {
                if truth_set.len() <= h.l3_associativity() as usize {
                    continue; // cannot cross the threshold: undiscoverable
                }
                let recovered = truth_set
                    .lines
                    .iter()
                    .filter(|&&l| {
                        discovered
                            .set_of(l)
                            .is_some_and(|d| discovered.members(d).len() > 1)
                    })
                    .count();
                assert!(
                    recovered * 10 >= truth_set.len() * 9,
                    "boot {boot}, bucket {i}: recovered {recovered}/{} lines",
                    truth_set.len()
                );
            }
        }
    }

    #[test]
    fn discovery_is_deterministic_under_a_fixed_seed() {
        let cfg = HierarchyConfig::tiny_for_tests();
        let candidates = two_window_candidates(&cfg, 16);
        let dcfg = DiscoveryConfig::default();
        let a = discover_catalog(&mut tiny_multi(7, 2), 1, &candidates, &dcfg);
        let b = discover_catalog(&mut tiny_multi(7, 2), 1, &candidates, &dcfg);
        assert_eq!(a.sets(), b.sets());
        // A different shuffle seed may group differently, but the same seed
        // must never diverge; a different boot genuinely remaps frames.
        let c = discover_catalog(&mut tiny_multi(8, 2), 1, &candidates, &dcfg);
        assert!(!c.is_empty());
    }

    #[test]
    fn catalogs_are_consistent_across_prober_cores() {
        let cfg = HierarchyConfig::tiny_for_tests();
        let candidates = two_window_candidates(&cfg, 16);
        let mut h = tiny_multi(21, 4);
        let reference = discover_catalog(&mut h, 0, &candidates, &DiscoveryConfig::default());
        for core in 1..4 {
            let other = discover_catalog(&mut h, core, &candidates, &DiscoveryConfig::default());
            assert_eq!(reference.sets(), other.sets(), "prober core {core}");
        }
        let consistent = consistent_across_cores(&mut h, &candidates, &DiscoveryConfig::default());
        assert!(!consistent.is_empty());
        // Consistent groups are subsets of the per-core grouping.
        for set in consistent.sets() {
            let bucket = reference.set_of(set.lines[0]).expect("known line");
            for &l in &set.lines {
                assert_eq!(reference.set_of(l), Some(bucket));
            }
        }
    }
}
