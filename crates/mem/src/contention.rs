//! Cache contention sets: discovery (§3.2) and the catalogue consumed by the
//! analysis-time cache model (§3.3).
//!
//! A *contention set* is a maximal group of addresses such that, with an
//! empty L3 of associativity α, any α of them can be resident simultaneously
//! but bringing in an (α+1)-st evicts one of the others. Because the slice
//! hash is proprietary, CASTAN reverse-engineers these sets by timing probes:
//!
//! 1. grow a set `S` of candidate addresses until adding one raises the
//!    probing time by more than a contention threshold δ;
//! 2. shrink `S` to exactly α+1 members of the contention set by removing
//!    each address and checking whether the probing time drops by more
//!    than δ;
//! 3. classify every remaining candidate by swapping it against a known
//!    member and checking whether the probing time stays high.
//!
//! Running the procedure over several 1 GiB pages and several "reboots"
//! (page-table seeds) and keeping only groups that always land together
//! yields *consistent* contention sets that survive address-space changes —
//! exactly the paper's §3.2 post-processing.
//!
//! The probe loop runs on a chosen *prober core* of a
//! [`MultiCoreHierarchy`], and the candidate pool may span several cores'
//! striped address windows: the L3 is shared and physically indexed, so the
//! (slice, set) bucket of a line does not depend on which core touches it.
//! The paper's single-core procedure is prober 0 of a one-core hierarchy
//! ([`MemoryHierarchy::multicore_mut`]); `castan-xcore` probes from an
//! attacker core next to its victims.
//!
//! The module also provides [`ground_truth_catalog_on`] (and its one-core
//! form [`ContentionCatalog::from_ground_truth`]), which reads the
//! simulator's actual (slice, set) mapping. It serves two roles: a fast
//! path for large experiments, and the oracle against which the discovery
//! procedure's accuracy is tested.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::hierarchy::MemoryHierarchy;
use crate::line_of;
use crate::multicore::MultiCoreHierarchy;
use crate::probe::{contention_threshold, probing_time, ProbeConfig};

/// One contention set: virtual line addresses that collide in the L3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentionSet {
    /// Member cache-line addresses (virtual, line-aligned, sorted).
    pub lines: Vec<u64>,
}

impl ContentionSet {
    /// Number of member lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if the set has no members (never produced by discovery).
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// A catalogue of contention sets plus a reverse index.
#[derive(Clone, Debug, Default)]
pub struct ContentionCatalog {
    sets: Vec<ContentionSet>,
    line_to_set: HashMap<u64, usize>,
    associativity: u32,
}

impl ContentionCatalog {
    /// Builds a catalogue from explicit groups.
    pub fn from_sets(sets: Vec<ContentionSet>, associativity: u32) -> Self {
        let mut line_to_set = HashMap::new();
        for (i, s) in sets.iter().enumerate() {
            for &l in &s.lines {
                line_to_set.insert(l, i);
            }
        }
        ContentionCatalog {
            sets,
            line_to_set,
            associativity,
        }
    }

    /// [`ground_truth_catalog_on`] for the single-core hierarchy.
    pub fn from_ground_truth(
        hier: &mut MemoryHierarchy,
        lines: impl IntoIterator<Item = u64>,
    ) -> Self {
        ground_truth_catalog_on(hier.multicore_mut(), lines)
    }

    /// All contention sets, largest first.
    pub fn sets(&self) -> &[ContentionSet] {
        &self.sets
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// L3 associativity α the catalogue was built for.
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Index of the contention set containing `addr` (any byte address).
    pub fn set_of(&self, addr: u64) -> Option<usize> {
        self.line_to_set.get(&line_of(addr)).copied()
    }

    /// Members of set `idx`.
    pub fn members(&self, idx: usize) -> &[u64] {
        &self.sets[idx].lines
    }

    /// The largest set, if any.
    pub fn largest(&self) -> Option<&ContentionSet> {
        self.sets.first()
    }

    /// Retains only sets with at least `min_len` members (the analysis is
    /// only interested in sets that can exceed associativity).
    pub fn retain_min_len(&mut self, min_len: usize) {
        self.sets.retain(|s| s.lines.len() >= min_len);
        self.line_to_set.clear();
        for (i, s) in self.sets.iter().enumerate() {
            for &l in &s.lines {
                self.line_to_set.insert(l, i);
            }
        }
    }
}

/// Tuning knobs for the discovery procedure.
#[derive(Clone, Debug)]
pub struct DiscoveryConfig {
    /// Probing-time measurement parameters.
    pub probe: ProbeConfig,
    /// Threshold (cycles) for "the probing time jumped because we crossed
    /// associativity". `None` derives `α·δ/2` from the hierarchy latencies,
    /// where δ is the per-access contention threshold of §3.2.
    pub crossing_threshold: Option<u64>,
    /// Maximum number of contention sets to extract before stopping.
    pub max_sets: usize,
    /// Seed used to shuffle the candidate order (the paper adds addresses
    /// in arbitrary order).
    pub shuffle_seed: u64,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            probe: ProbeConfig::default(),
            crossing_threshold: None,
            max_sets: 8,
            shuffle_seed: 0xca57,
        }
    }
}

/// Builds the ground-truth catalogue for the given candidate lines by
/// asking the simulator for each line's (slice, set) bucket. The candidates
/// may span any number of cores' address windows; the bucket of a line does
/// not depend on which core accesses it.
///
/// Not available to a real attacker; used as the experiments' fast path
/// and as the oracle for validating [`discover_catalog`].
pub fn ground_truth_catalog_on(
    hier: &mut MultiCoreHierarchy,
    lines: impl IntoIterator<Item = u64>,
) -> ContentionCatalog {
    let alpha = hier.l3_associativity();
    let mut buckets: HashMap<(u32, u64), Vec<u64>> = HashMap::new();
    for l in lines {
        let l = line_of(l);
        let bucket = hier.ground_truth_bucket(l);
        let v = buckets.entry(bucket).or_default();
        if v.last() != Some(&l) {
            v.push(l);
        }
    }
    let mut sets: Vec<ContentionSet> = buckets
        .into_values()
        .map(|mut lines| {
            lines.sort_unstable();
            lines.dedup();
            ContentionSet { lines }
        })
        .collect();
    sets.sort_by(|a, b| {
        b.lines
            .len()
            .cmp(&a.lines.len())
            .then(a.lines.cmp(&b.lines))
    });
    ContentionCatalog::from_sets(sets, alpha)
}

fn crossing_threshold(hier: &MultiCoreHierarchy, cfg: &DiscoveryConfig) -> u64 {
    cfg.crossing_threshold.unwrap_or_else(|| {
        u64::from(hier.l3_associativity()) * contention_threshold(hier.config()) / 2
    })
}

/// Discovers **one** contention set among `candidates` (byte addresses,
/// possibly spanning several cores' address windows), probing from core
/// `prober` and following the three-step procedure of §3.2. Returns `None`
/// if the candidates never drive the probing time across the threshold
/// (e.g. too few candidates per set).
pub fn discover_contention_set(
    hier: &mut MultiCoreHierarchy,
    prober: usize,
    candidates: &[u64],
    cfg: &DiscoveryConfig,
) -> Option<ContentionSet> {
    let alpha = hier.l3_associativity() as usize;
    let delta_c = crossing_threshold(hier, cfg);
    let mut order: Vec<u64> = candidates.iter().map(|&a| line_of(a)).collect();
    order.sort_unstable();
    order.dedup();
    let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
    order.shuffle(&mut rng);

    // Step 1: grow S until the probing time jumps by more than δ.
    let mut s: Vec<u64> = Vec::new();
    let mut prev_time = 0u64;
    let mut crossed = false;
    let mut rest_start = order.len();
    for (i, &a) in order.iter().enumerate() {
        s.push(a);
        let t = probing_time(hier, prober, &s, cfg.probe);
        if !s.is_empty() && t > prev_time + delta_c && s.len() > alpha {
            crossed = true;
            rest_start = i + 1;
            break;
        }
        prev_time = t;
    }
    if !crossed {
        return None;
    }

    // Step 2: shrink S to exactly α+1 members of the target set C.
    let mut idx = 0;
    while idx < s.len() {
        let removed = s.remove(idx);
        let before = probing_time(hier, prober, &s, cfg.probe);
        // Compare against the probing time with the address present.
        let mut with = s.clone();
        with.insert(idx, removed);
        let t_with = probing_time(hier, prober, &with, cfg.probe);
        if t_with > before + delta_c {
            // Removing it made probing cheap again ⇒ it belongs to C.
            s.insert(idx, removed);
            idx += 1;
        }
        // Otherwise leave it out and keep idx pointing at the next element.
    }
    if s.len() < alpha + 1 {
        return None;
    }

    // Step 3: classify every remaining candidate by substitution.
    let mut members = s.clone();
    let baseline = probing_time(hier, prober, &s, cfg.probe);
    for &a in &order[rest_start..] {
        if s.contains(&a) {
            continue;
        }
        let mut swapped = s.clone();
        let slot = swapped.len() - 1;
        swapped[slot] = a;
        let t = probing_time(hier, prober, &swapped, cfg.probe);
        if t + delta_c > baseline {
            // Probing stayed expensive ⇒ the substitute collides too.
            members.push(a);
        }
    }
    members.sort_unstable();
    members.dedup();
    Some(ContentionSet { lines: members })
}

/// Discovers up to `cfg.max_sets` contention sets among `candidates` for a
/// single boot, probing from core `prober`, removing each discovered set's
/// members from the candidate pool before looking for the next one.
pub fn discover_catalog(
    hier: &mut MultiCoreHierarchy,
    prober: usize,
    candidates: &[u64],
    cfg: &DiscoveryConfig,
) -> ContentionCatalog {
    let alpha = hier.l3_associativity();
    let mut pool: Vec<u64> = candidates.iter().map(|&a| line_of(a)).collect();
    pool.sort_unstable();
    pool.dedup();
    let mut sets = Vec::new();
    let mut cfg = cfg.clone();
    while sets.len() < cfg.max_sets {
        match discover_contention_set(hier, prober, &pool, &cfg) {
            None => break,
            Some(set) => {
                pool.retain(|a| !set.lines.contains(a));
                sets.push(set);
                // Vary the shuffle per round so different sets get found.
                cfg.shuffle_seed = cfg
                    .shuffle_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1);
            }
        }
    }
    ContentionCatalog::from_sets(sets, alpha)
}

/// Intersects per-boot catalogues into *consistent* contention sets: groups
/// of addresses that were classified into the same set in **every** boot
/// (§3.2's post-processing across pages and reboots). Singleton groups are
/// dropped.
pub fn consistent_catalog(catalogs: &[ContentionCatalog]) -> ContentionCatalog {
    assert!(!catalogs.is_empty());
    let alpha = catalogs[0].associativity();
    // Partition-refinement: the signature of an address is the tuple of set
    // ids it received across the runs; addresses missing from any run are
    // discarded.
    let mut signatures: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, cat) in catalogs.iter().enumerate() {
        for (set_idx, set) in cat.sets().iter().enumerate() {
            for &line in &set.lines {
                signatures.entry(line).or_default().resize(i, usize::MAX);
                let sig = signatures.get_mut(&line).unwrap();
                if sig.len() == i {
                    sig.push(set_idx);
                }
            }
        }
    }
    let runs = catalogs.len();
    let mut groups: HashMap<Vec<usize>, Vec<u64>> = HashMap::new();
    for (line, sig) in signatures {
        if sig.len() == runs && !sig.contains(&usize::MAX) {
            groups.entry(sig).or_default().push(line);
        }
    }
    let mut sets: Vec<ContentionSet> = groups
        .into_values()
        .filter(|v| v.len() >= 2)
        .map(|mut lines| {
            lines.sort_unstable();
            ContentionSet { lines }
        })
        .collect();
    sets.sort_by(|a, b| {
        b.lines
            .len()
            .cmp(&a.lines.len())
            .then(a.lines.cmp(&b.lines))
    });
    ContentionCatalog::from_sets(sets, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::LINE_SIZE;

    fn tiny(boot: u64) -> MultiCoreHierarchy {
        MultiCoreHierarchy::new(HierarchyConfig::tiny_for_tests(), boot, 1)
    }

    /// Candidate addresses that all share the L3 set-index bits, so the only
    /// unknown is the slice — the situation the discovery procedure is
    /// designed for.
    fn same_set_candidates(hier: &MultiCoreHierarchy, n: u64) -> Vec<u64> {
        let span = hier.config().l3_slice_geometry().sets() * LINE_SIZE;
        (0..n).map(|i| 0x10_0000 + i * span).collect()
    }

    #[test]
    fn ground_truth_groups_by_slice_and_set() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests(), 1);
        let candidates = same_set_candidates(h.multicore(), 64);
        let cat = ContentionCatalog::from_ground_truth(&mut h, candidates.iter().copied());
        assert!(!cat.is_empty());
        assert_eq!(cat.associativity(), 8);
        // Every candidate must be classified.
        let total: usize = cat.sets().iter().map(|s| s.len()).sum();
        assert_eq!(total, 64);
        // With 2 slices and a fixed set index there can be at most 2 groups.
        assert!(cat.len() <= 2, "got {} sets", cat.len());
        for &l in cat.members(0) {
            assert_eq!(cat.set_of(l), Some(0));
            assert_eq!(
                cat.set_of(l + 13),
                Some(0),
                "byte addresses map to their line"
            );
        }
    }

    #[test]
    fn discovery_matches_ground_truth() {
        let mut h = tiny(5);
        let candidates = same_set_candidates(&h, 48);
        let truth = ground_truth_catalog_on(&mut h, candidates.iter().copied());
        let discovered =
            discover_contention_set(&mut h, 0, &candidates, &DiscoveryConfig::default())
                .expect("should find a contention set");
        // The discovered set must coincide with one ground-truth bucket.
        let truth_set = truth
            .sets()
            .iter()
            .find(|s| s.lines.contains(&discovered.lines[0]))
            .unwrap();
        let exact = discovered.lines == truth_set.lines;
        // Allow a small amount of slack (discovery is a measurement
        // procedure), but it must capture the bulk of the bucket and not
        // absorb foreign lines.
        let foreign = discovered
            .lines
            .iter()
            .filter(|l| !truth_set.lines.contains(l))
            .count();
        assert!(
            exact || (foreign == 0 && discovered.len() + 2 >= truth_set.len()),
            "discovered {:?} vs truth {:?}",
            discovered.lines,
            truth_set.lines
        );
        assert!(discovered.len() > 8, "must exceed associativity");
    }

    #[test]
    fn discovery_needs_enough_candidates() {
        let mut h = tiny(2);
        // Fewer candidates than associativity can never cross the threshold.
        let candidates = same_set_candidates(&h, 6);
        assert!(
            discover_contention_set(&mut h, 0, &candidates, &DiscoveryConfig::default()).is_none()
        );
    }

    #[test]
    fn full_catalog_covers_both_slices() {
        let mut h = tiny(9);
        let candidates = same_set_candidates(&h, 64);
        let cat = discover_catalog(&mut h, 0, &candidates, &DiscoveryConfig::default());
        assert!(!cat.is_empty());
        let covered: usize = cat.sets().iter().map(|s| s.len()).sum();
        assert!(
            covered >= 32,
            "should classify most candidates, got {covered}"
        );
    }

    #[test]
    fn consistent_sets_survive_reboots() {
        let candidates: Vec<u64> = {
            let h = tiny(1);
            same_set_candidates(&h, 40)
        };
        let mut catalogs = Vec::new();
        for boot in [11u64, 22, 33] {
            let mut h = tiny(boot);
            catalogs.push(ground_truth_catalog_on(&mut h, candidates.iter().copied()));
        }
        let consistent = consistent_catalog(&catalogs);
        assert!(!consistent.is_empty(), "some groups must be boot-invariant");
        // Every consistent group must indeed be a subset of a single
        // ground-truth set in a fresh boot.
        let mut h = tiny(44);
        let truth = ground_truth_catalog_on(&mut h, candidates.iter().copied());
        for set in consistent.sets() {
            let bucket = truth.set_of(set.lines[0]).unwrap();
            for &l in &set.lines {
                assert_eq!(truth.set_of(l), Some(bucket));
            }
        }
    }

    #[test]
    fn retain_min_len_filters_and_reindexes() {
        let sets = vec![
            ContentionSet {
                lines: vec![0, 64, 128],
            },
            ContentionSet { lines: vec![4096] },
        ];
        let mut cat = ContentionCatalog::from_sets(sets, 20);
        assert_eq!(cat.len(), 2);
        cat.retain_min_len(2);
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.set_of(64), Some(0));
        assert_eq!(cat.set_of(4096), None);
        assert_eq!(cat.largest().unwrap().len(), 3);
    }
}
