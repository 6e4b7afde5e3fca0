//! Chain-aware eviction planning: from a victim core's hot lines to a
//! ranked list of attacker-core lines that evict them.
//!
//! The sharded DUT stripes one chain instance per core at
//! `core_stage_base(core, stage)` (`castan-chain`), so a victim stage's hot
//! state and the attacker core's own instance of the same (or any other)
//! stage never *share* lines — but they do *collide* in the shared L3
//! wherever their physical (slice, set) buckets coincide. An
//! [`EvictionPlan`] records exactly those collisions, hottest victim bucket
//! first:
//!
//! 1. profile the victim's per-line heat
//!    (`castan_testbed::shard::ShardedDut::profile_heat` →
//!    [`HotLineMap`]);
//! 2. group the hot lines into L3 buckets and rank buckets by the victim
//!    weight they carry ([`build_eviction_plan`]);
//! 3. for each bucket, enumerate the attacker-window lines (inside the
//!    attacker core's stage data regions) that land in the same bucket —
//!    candidates are walked by set-index congruence, so only one line per
//!    `slice_sets × 64` bytes is ever queried;
//! 4. keep buckets with more than α attacker-reachable lines (an α-way set
//!    the attacker cannot overflow never evicts).
//!
//! The bucket grouping comes from either the `SliceHash` ground-truth
//! oracle (the experiments' fast path) or the §3.2 discovery probed from the
//! attacker core ([`crate::discover_catalog_from`]), which is validated
//! against that oracle. Both the
//! oracle and the measured deployment must premap the deployment's pages in
//! the canonical order ([`premap_deployment`]) — frame assignment is
//! first-touch ordered, so an unpremapped oracle would disagree with the
//! DUT about every line's hidden slice.

use castan_chain::{chain_page_anchors, core_stage_base, NfChain};
use castan_mem::{line_of, ContentionCatalog, ContentionSet, MultiCoreHierarchy, LINE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The victim's hot lines, hottest first: virtual line addresses (in the
/// shared address space of the multi-core hierarchy, i.e. already offset by
/// the victim's core/stage bases) with the access-count weight of each.
#[derive(Clone, Debug, Default)]
pub struct HotLineMap {
    entries: Vec<(u64, u64)>,
}

impl HotLineMap {
    /// Builds the map from per-line access counts (as returned hottest-first
    /// by `MultiCoreHierarchy::take_heat`), keeping the `top_k` hottest
    /// lines. Unsorted input is accepted and sorted (count descending, line
    /// ascending).
    pub fn from_heat(heat: &[(u64, u64)], top_k: usize) -> Self {
        Self::from_heat_bounded(heat, top_k, u64::MAX)
    }

    /// [`HotLineMap::from_heat`] with an *evictability* cap: lines touched
    /// more than `max_count` times are dropped. An α-way LRU set protects a
    /// line that is re-touched faster than the attacker can push α other
    /// lines through its set, so the very hottest lines (per-packet
    /// counters, top-of-structure nodes) are poor targets for the
    /// packet-borne attack; the valuable targets are the hottest lines
    /// *below* that re-touch rate. The noisy-neighbour replay mode, which
    /// storms whole buckets between batches, does not need the cap.
    pub fn from_heat_bounded(heat: &[(u64, u64)], top_k: usize, max_count: u64) -> Self {
        // Aggregate per cache line first: byte addresses within one line are
        // one target, and counting them separately would both waste top_k
        // slots and double-count the line's bucket weight. The evictability
        // cap applies to the aggregated per-line count.
        let mut per_line: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for &(addr, count) in heat {
            *per_line.entry(line_of(addr)).or_insert(0) += count;
        }
        let mut entries: Vec<(u64, u64)> = per_line
            .into_iter()
            .filter(|&(_, count)| count <= max_count)
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(top_k);
        HotLineMap { entries }
    }

    /// The `(line, weight)` entries, hottest first.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// The hot lines, hottest first.
    pub fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(l, _)| l)
    }

    /// Number of hot lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no lines were profiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Tuning knobs of the eviction-plan construction.
#[derive(Clone, Copy, Debug)]
pub struct XCoreConfig {
    /// The neighbour core whose address window supplies the eviction lines
    /// (and onto which packet-borne attack traffic is steered).
    pub attacker_core: usize,
    /// How many victim (slice, set) buckets to target, hottest first. Few,
    /// heavily stormed sets evict reliably (the L3 is α-way); many, lightly
    /// touched sets do not.
    pub max_target_sets: usize,
    /// Attacker candidate lines kept per targeted bucket (across all
    /// stages). Must comfortably exceed the L3 associativity for the storm
    /// to keep missing — and keep evicting — in the steady state.
    pub max_lines_per_set: usize,
}

impl Default for XCoreConfig {
    fn default() -> Self {
        XCoreConfig {
            attacker_core: 1,
            max_target_sets: 16,
            max_lines_per_set: 48,
        }
    }
}

/// One ranked entry of an [`EvictionPlan`]: a victim L3 bucket, the victim
/// lines it holds, and the attacker-core lines that collide with it.
#[derive(Clone, Debug)]
pub struct PlanEntry {
    /// The targeted (slice, set) bucket of the shared L3.
    pub bucket: (u32, u64),
    /// Aggregated victim heat landing in this bucket (the rank key).
    pub victim_weight: u64,
    /// The victim's hot lines in this bucket (absolute virtual addresses).
    pub victim_lines: Vec<u64>,
    /// Attacker-reachable colliding lines, *stage-local* per chain stage
    /// (`stage_lines[s]` are addresses inside stage `s`'s data regions, as
    /// the NF's own lookups see them).
    pub stage_lines: Vec<Vec<u64>>,
}

impl PlanEntry {
    /// Total attacker lines across all stages.
    pub fn attacker_line_count(&self) -> usize {
        self.stage_lines.iter().map(Vec::len).sum()
    }

    /// The attacker lines as absolute virtual addresses in `attacker_core`'s
    /// window (what the noisy-neighbour replay touches).
    pub fn absolute_attacker_lines(&self, attacker_core: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.attacker_line_count());
        for (s, lines) in self.stage_lines.iter().enumerate() {
            let base = core_stage_base(attacker_core, s);
            out.extend(lines.iter().map(|&l| base + l));
        }
        out
    }
}

/// A ranked cross-core eviction plan: which attacker-core lines to touch to
/// evict which victim-stage lines, hottest victim bucket first.
#[derive(Clone, Debug)]
pub struct EvictionPlan {
    /// The neighbour core whose window supplies the lines.
    pub attacker_core: usize,
    /// L3 associativity α the plan was built against.
    pub alpha: u32,
    /// Ranked entries (victim weight descending).
    pub entries: Vec<PlanEntry>,
    n_stages: usize,
}

impl EvictionPlan {
    /// Number of targeted buckets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no bucket had more than α attacker-reachable lines.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total victim weight the plan attacks.
    pub fn victim_weight(&self) -> u64 {
        self.entries.iter().map(|e| e.victim_weight).sum()
    }

    /// The replay sequence of the noisy-neighbour mode: every entry's
    /// absolute attacker lines, rank order (hottest bucket's storm first).
    /// Replaying this cyclically pushes more than α distinct lines through
    /// every targeted bucket per cycle, which is what keeps the victim's
    /// lines evicted in the steady state.
    pub fn replay_lines(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for e in &self.entries {
            out.extend(e.absolute_attacker_lines(self.attacker_core));
        }
        out
    }

    /// One single-bucket, per-stage catalogue per plan entry, in rank
    /// order — the rounds of the packet-only synthesis
    /// (`castan-core::rss::analyze_chain_cross_core`): round `r`'s
    /// catalogue tells the analysis-time cache model to storm exactly the
    /// stage-local lines of entry `r`.
    pub fn round_stage_catalogs(&self) -> Vec<Vec<ContentionCatalog>> {
        self.entries
            .iter()
            .map(|e| {
                (0..self.n_stages)
                    .map(|s| {
                        let lines = &e.stage_lines[s];
                        let sets = if lines.len() > self.alpha as usize {
                            vec![ContentionSet {
                                lines: lines.clone(),
                            }]
                        } else {
                            Vec::new()
                        };
                        ContentionCatalog::from_sets(sets, self.alpha)
                    })
                    .collect()
            })
            .collect()
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} buckets targeted from core {} ({} replay lines, victim weight {})",
            self.len(),
            self.attacker_core,
            self.replay_lines().len(),
            self.victim_weight(),
        )
    }
}

/// Premaps `hier` with the deployment's canonical page anchors (every core's
/// stage data regions, core-major order) — the same order the sharded DUT
/// uses when `premap_pages` is on. Call this on a fresh oracle before asking
/// it for buckets; see the module docs for why the order matters.
pub fn premap_deployment(chain: &NfChain, n_cores: usize, hier: &mut MultiCoreHierarchy) {
    for anchor in chain_page_anchors(chain, n_cores, hier.config().page_bits) {
        hier.map_page(anchor);
    }
}

/// The hottest victim (slice, set) buckets, weight-aggregated over the hot
/// lines that land in each, hottest first. The oracle must already be
/// premapped ([`premap_deployment`]).
fn hottest_buckets(
    hot: &HotLineMap,
    oracle: &mut MultiCoreHierarchy,
    max_target_sets: usize,
) -> Vec<((u32, u64), u64, Vec<u64>)> {
    let mut buckets: Vec<((u32, u64), u64, Vec<u64>)> = Vec::new();
    for &(line, weight) in hot.entries() {
        let bucket = oracle.ground_truth_bucket(line);
        match buckets.iter_mut().find(|(b, _, _)| *b == bucket) {
            Some((_, w, lines)) => {
                *w += weight;
                lines.push(line);
            }
            None => buckets.push((bucket, weight, vec![line])),
        }
    }
    buckets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    buckets.truncate(max_target_sets);
    buckets
}

/// Builds the ranked eviction plan for a chain deployment of `n_cores`
/// cores: maps the victim's [`HotLineMap`] onto L3 buckets through `oracle`
/// (premapping it first) and enumerates, per bucket, the colliding lines
/// inside the attacker core's own stage data regions. Buckets without more
/// than α attacker-reachable lines are dropped — the attacker cannot
/// overflow them, so touching them would never evict.
pub fn build_eviction_plan(
    chain: &NfChain,
    hot: &HotLineMap,
    oracle: &mut MultiCoreHierarchy,
    n_cores: usize,
    cfg: &XCoreConfig,
) -> EvictionPlan {
    assert!(cfg.attacker_core < n_cores, "attacker core out of range");
    premap_deployment(chain, n_cores, oracle);
    let alpha = oracle.l3_associativity();
    let slice_sets = oracle.config().l3_slice_geometry().sets();
    let set_span = slice_sets * LINE_SIZE;
    // The set-index bits must sit inside the page offset, so that a line's
    // set index is readable off its *virtual* address and candidates can be
    // enumerated by congruence instead of scanning whole regions.
    assert!(
        set_span <= 1u64 << oracle.config().page_bits,
        "L3 set index must fit inside the page offset"
    );

    let mut entries = Vec::new();
    for (bucket, weight, victim_lines) in hottest_buckets(hot, oracle, cfg.max_target_sets) {
        let (slice, set) = bucket;
        let mut stage_lines: Vec<Vec<u64>> = vec![Vec::new(); chain.len()];
        let mut kept = 0usize;
        'stages: for (stage_idx, stage) in chain.stages.iter().enumerate() {
            let base = core_stage_base(cfg.attacker_core, stage_idx);
            for region in &stage.nf.data_regions {
                let start = base + region.base;
                let end = base + region.end();
                // First line >= start whose virtual set-index bits equal
                // `set`, then every set_span bytes (same set index; the
                // oracle filters for the slice).
                let set_offset = set * LINE_SIZE;
                let mut a = (start / set_span) * set_span + set_offset;
                if a < start {
                    a += set_span;
                }
                while a < end && kept < cfg.max_lines_per_set {
                    if oracle.ground_truth_bucket(a) == (slice, set) {
                        // Stage-local address, as the analysis engine (and
                        // the NF's own lookups) see it.
                        stage_lines[stage_idx].push(a - base);
                        kept += 1;
                    }
                    a += set_span;
                }
                if kept >= cfg.max_lines_per_set {
                    break 'stages;
                }
            }
        }
        if kept > alpha as usize {
            for lines in &mut stage_lines {
                lines.sort_unstable();
            }
            entries.push(PlanEntry {
                bucket,
                victim_weight: weight,
                victim_lines,
                stage_lines,
            });
        }
    }
    EvictionPlan {
        attacker_core: cfg.attacker_core,
        alpha,
        entries,
        n_stages: chain.len(),
    }
}

/// The equal-rate control of the noisy-neighbour experiment: `n`
/// pseudo-random line-aligned addresses drawn uniformly from the attacker
/// core's stage data regions, deterministic given `seed`. Same address
/// window, same touch rate as a planned replay — but with no knowledge of
/// the victim's buckets, so its L3 pressure is spread over all sets instead
/// of concentrated on the victim's.
pub fn random_neighbor_lines(
    chain: &NfChain,
    attacker_core: usize,
    n: usize,
    seed: u64,
) -> Vec<u64> {
    let mut spans: Vec<(u64, u64)> = Vec::new(); // (absolute start, lines)
    for (stage_idx, stage) in chain.stages.iter().enumerate() {
        let base = core_stage_base(attacker_core, stage_idx);
        for region in &stage.nf.data_regions {
            let lines = region.len / LINE_SIZE;
            if lines > 0 {
                spans.push((base + region.base, lines));
            }
        }
    }
    assert!(!spans.is_empty(), "the chain has no data regions to touch");
    let total: u64 = spans.iter().map(|&(_, l)| l).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut pick = rng.random_range(0..total);
            for &(start, lines) in &spans {
                if pick < lines {
                    return line_of(start) + pick * LINE_SIZE;
                }
                pick -= lines;
            }
            unreachable!("pick < total by construction")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use castan_chain::{chain_by_id, ChainId, CORE_ADDR_STRIDE};
    use castan_mem::HierarchyConfig;

    fn xeon_oracle(cores: usize) -> MultiCoreHierarchy {
        MultiCoreHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), 1, cores)
    }

    #[test]
    fn hot_line_map_sorts_truncates_and_caps() {
        let heat = vec![(0x1049, 3), (0x2000, 9), (0x3000, 9), (0x4000, 1)];
        let map = HotLineMap::from_heat(&heat, 3);
        assert_eq!(map.len(), 3);
        assert_eq!(
            map.entries(),
            &[(0x2000, 9), (0x3000, 9), (0x1040, 3)],
            "count desc, line asc, byte addresses line-aligned"
        );
        assert!(!map.is_empty());
        assert_eq!(map.lines().next(), Some(0x2000));
        // The evictability cap drops the over-hot lines.
        let capped = HotLineMap::from_heat_bounded(&heat, 4, 5);
        assert_eq!(capped.entries(), &[(0x1040, 3), (0x4000, 1)]);
        // Byte addresses within one line aggregate before the cap applies.
        let split = vec![(0x5000, 3), (0x5010, 4)];
        assert_eq!(
            HotLineMap::from_heat_bounded(&split, 4, 6).entries(),
            &[] as &[(u64, u64)],
            "aggregated count 7 exceeds the cap"
        );
    }

    #[test]
    fn plan_targets_victim_buckets_with_reachable_lines() {
        let chain = chain_by_id(ChainId::NatLpm);
        let mut oracle = xeon_oracle(2);
        // Victim = core 0: fake a profile of hot lines inside the victim's
        // instance of each stage.
        let victim_a = core_stage_base(0, 0) + chain.stages[0].nf.data_regions[0].base + 0x1000;
        let victim_b = core_stage_base(0, 1) + chain.stages[1].nf.data_regions[0].base + 0x4040;
        let hot = HotLineMap::from_heat(&[(victim_a, 500), (victim_b, 300)], 8);
        let cfg = XCoreConfig {
            attacker_core: 1,
            max_target_sets: 2,
            max_lines_per_set: 40,
        };
        let plan = build_eviction_plan(&chain, &hot, &mut oracle, 2, &cfg);
        assert!(
            !plan.is_empty(),
            "the NF regions must supply colliding lines"
        );
        assert_eq!(plan.attacker_core, 1);

        let alpha = plan.alpha as usize;
        for entry in &plan.entries {
            assert!(
                entry.attacker_line_count() > alpha,
                "entries must be able to overflow α"
            );
            // Victim lines really belong to the bucket, and rank weight is
            // their aggregated heat.
            for &l in &entry.victim_lines {
                assert_eq!(oracle.ground_truth_bucket(l), entry.bucket);
            }
            // Every attacker line is reachable (inside a stage region of
            // the attacker window) and collides with the victim bucket.
            for (s, lines) in entry.stage_lines.iter().enumerate() {
                let base = core_stage_base(1, s);
                for &l in lines {
                    assert!(
                        chain.stages[s]
                            .nf
                            .data_regions
                            .iter()
                            .any(|r| r.contains(l)),
                        "line {l:#x} outside stage {s} regions"
                    );
                    assert!(
                        base + l < 2 * CORE_ADDR_STRIDE,
                        "inside the attacker window"
                    );
                    assert_eq!(oracle.ground_truth_bucket(base + l), entry.bucket);
                }
            }
        }
        // Rank order is by victim weight, and the replay flattens rank-major.
        for w in plan.entries.windows(2) {
            assert!(w[0].victim_weight >= w[1].victim_weight);
        }
        let replay = plan.replay_lines();
        assert_eq!(
            replay.len(),
            plan.entries
                .iter()
                .map(PlanEntry::attacker_line_count)
                .sum::<usize>()
        );
        assert!(replay
            .iter()
            .all(|&a| (CORE_ADDR_STRIDE..2 * CORE_ADDR_STRIDE).contains(&a)));
        assert!(plan.summary().contains("core 1"));

        // Round catalogues mirror the entries: one single-set catalogue per
        // stage that has enough lines, in rank order.
        let rounds = plan.round_stage_catalogs();
        assert_eq!(rounds.len(), plan.len());
        for (round, entry) in rounds.iter().zip(&plan.entries) {
            assert_eq!(round.len(), chain.len());
            for (s, cat) in round.iter().enumerate() {
                if entry.stage_lines[s].len() > alpha {
                    assert_eq!(cat.len(), 1);
                    assert_eq!(cat.members(0), entry.stage_lines[s].as_slice());
                } else {
                    assert!(cat.is_empty());
                }
            }
        }
    }

    #[test]
    fn plan_is_deterministic_and_premapping_makes_oracles_agree() {
        let chain = chain_by_id(ChainId::NatLpm);
        let victim = core_stage_base(0, 1) + chain.stages[1].nf.data_regions[0].base + 0x100_0040;
        let hot = HotLineMap::from_heat(&[(victim, 100)], 4);
        let cfg = XCoreConfig::default();
        let plan_a = build_eviction_plan(&chain, &hot, &mut xeon_oracle(2), 2, &cfg);
        let plan_b = build_eviction_plan(&chain, &hot, &mut xeon_oracle(2), 2, &cfg);
        assert_eq!(plan_a.replay_lines(), plan_b.replay_lines());
        // An oracle that answered unrelated queries first still agrees,
        // because premapping fixed the frame order up front.
        let mut perturbed = xeon_oracle(2);
        premap_deployment(&chain, 2, &mut perturbed);
        let _ = perturbed.ground_truth_bucket(victim + 0x40);
        let plan_c = build_eviction_plan(&chain, &hot, &mut perturbed, 2, &cfg);
        assert_eq!(plan_a.replay_lines(), plan_c.replay_lines());
    }

    #[test]
    fn random_neighbor_lines_are_deterministic_reachable_and_spread() {
        let chain = chain_by_id(ChainId::NatLpm);
        let a = random_neighbor_lines(&chain, 1, 256, 0xDEAD);
        let b = random_neighbor_lines(&chain, 1, 256, 0xDEAD);
        assert_eq!(a, b, "seeded determinism");
        assert_ne!(a, random_neighbor_lines(&chain, 1, 256, 0xBEEF));
        assert_eq!(a.len(), 256);
        for &addr in &a {
            assert_eq!(addr % LINE_SIZE, 0);
            assert!((CORE_ADDR_STRIDE..2 * CORE_ADDR_STRIDE).contains(&addr));
            let local = addr - CORE_ADDR_STRIDE;
            let in_region = chain.stages.iter().enumerate().any(|(s, stage)| {
                let stage_base = s as u64 * castan_chain::STAGE_ADDR_STRIDE;
                local >= stage_base
                    && stage
                        .nf
                        .data_regions
                        .iter()
                        .any(|r| r.contains(local - stage_base))
            });
            assert!(in_region, "line {addr:#x} outside the attacker's regions");
        }
        // Uniform draws over >= 512 MiB of regions rarely repeat a line.
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert!(dedup.len() > 200, "draws should be spread out");
    }
}
