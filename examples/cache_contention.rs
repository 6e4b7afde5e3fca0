//! Reverse engineering cache contention sets by probing (§3.2).
//!
//! Runs the paper's three-step contention-set discovery against the
//! simulated memory hierarchy (grow a candidate set until the probing time
//! jumps, shrink it to α+1 members, classify the remaining candidates),
//! repeats it across "reboots", keeps the consistent sets, and validates the
//! result against the simulator's ground truth.
//!
//! ```text
//! cargo run --release --example cache_contention
//! ```

use castan_suite::mem::contention::{consistent_catalog, discover_catalog, DiscoveryConfig};
use castan_suite::mem::{ContentionCatalog, HierarchyConfig, MemoryHierarchy, LINE_SIZE};

fn main() {
    // Candidate addresses sharing the publicly known L1/L2/L3 set-index bits
    // (Fig. 1 of the paper): only the proprietary slice assignment is
    // unknown, which is exactly the situation the discovery handles.
    let config = HierarchyConfig::tiny_for_tests();
    let span = config.l3_slice_geometry().sets() * LINE_SIZE;
    let candidates: Vec<u64> = (0..64).map(|i| 0x10_0000 + i * span).collect();
    println!(
        "probing {} candidate addresses (same set-index bits, unknown slice)…",
        candidates.len()
    );

    // Discover per-boot catalogues and intersect them into consistent sets.
    let mut per_boot = Vec::new();
    for boot in [11u64, 22, 33] {
        let mut hier = MemoryHierarchy::new(config, boot);
        // The paper probes on the one core it has: prober 0.
        let catalog = discover_catalog(
            hier.multicore_mut(),
            0,
            &candidates,
            &DiscoveryConfig::default(),
        );
        println!(
            "boot {boot}: discovered {} contention sets, sizes {:?}",
            catalog.len(),
            catalog.sets().iter().map(|s| s.len()).collect::<Vec<_>>()
        );
        per_boot.push(catalog);
    }
    let consistent = consistent_catalog(&per_boot);
    println!(
        "consistent across boots: {} sets, sizes {:?}",
        consistent.len(),
        consistent
            .sets()
            .iter()
            .map(|s| s.len())
            .collect::<Vec<_>>()
    );

    // Validate against the simulator's ground truth (not available to a real
    // attacker; the point of the exercise is that probing alone recovers it).
    let mut oracle_hier = MemoryHierarchy::new(config, 99);
    let truth = ContentionCatalog::from_ground_truth(&mut oracle_hier, candidates.iter().copied());
    let mut pure = 0usize;
    for set in consistent.sets() {
        let bucket = truth.set_of(set.lines[0]);
        if set.lines.iter().all(|l| truth.set_of(*l) == bucket) {
            pure += 1;
        }
    }
    println!(
        "{pure}/{} consistent sets are pure subsets of true (slice, set) groups",
        consistent.len()
    );
}
