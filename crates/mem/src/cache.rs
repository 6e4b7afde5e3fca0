//! A set-associative cache level with true-LRU replacement.
//!
//! Used for L1d, L2, and each L3 slice. The model tracks only cache-line
//! *presence* (tags), not data — data contents live in the IR interpreter's
//! memory; this crate only answers "hit or miss, and at what cost".
//!
//! # Recency stamps
//!
//! Recency is kept as a `u32` last-use stamp per way, fed by one clock per
//! cache that ticks on every [`access`](SetAssocCache::access): a hit is a
//! single store of the new tick into the way's stamp, and a fill stamps the
//! way it fills. On a miss the victim is the first empty way, else the way
//! with the smallest stamp.
//!
//! That is exactly the victim of true LRU kept as an ordered list (move a
//! way to the front on every hit and fill, evict the back). A way only gets
//! a tag through a fill, and that fill stamps it, so in a full set every
//! way's stamp is the tick of its last hit or fill: the stamps order the
//! ways the way the list would, and the smallest is the list's back. Stale
//! stamps of empty ways (after [`invalidate`](SetAssocCache::invalidate) or
//! [`clear`](SetAssocCache::clear)) never matter, because an empty way is
//! chosen before any stamp is compared; and ticks are unique, so stamps of
//! resident lines never tie.
//!
//! When the clock is about to wrap, every set's stamps are renumbered to
//! their rank order (`0..ways`) and the clock restarts just above them.
//! Ranks keep the order, so no victim changes, and memory stays at 4 bytes
//! per way.

use crate::LINE_SIZE;

/// Tag of an empty way.
const EMPTY: u64 = u64::MAX;

/// One set-associative cache array.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    ways: usize,
    set_mask: u64,
    set_bits: u32,
    /// `sets × ways` tags; [`EMPTY`] marks an empty way.
    tags: Vec<u64>,
    /// `sets × ways` last-use stamps, parallel to `tags`.
    stamps: Vec<u32>,
    /// The last stamp handed out.
    clock: u32,
    hits: u64,
    misses: u64,
}

/// Result of a lookup-and-fill operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillResult {
    /// Whether the line was already present.
    pub hit: bool,
    /// The line evicted to make room, if any.
    pub evicted: Option<u64>,
}

impl SetAssocCache {
    /// Creates a cache with `sets` sets (must be a power of two) and `ways`
    /// ways per set.
    pub fn new(sets: u64, ways: u32) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        let ways = ways as usize;
        SetAssocCache {
            ways,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            tags: vec![EMPTY; sets as usize * ways],
            stamps: vec![0; sets as usize * ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways as u32
    }

    /// Set index of a line address.
    pub fn set_of_line(&self, line_addr: u64) -> u64 {
        (line_addr / LINE_SIZE) & self.set_mask
    }

    /// Tag stored for a line address.
    fn tag_of_line(&self, line_addr: u64) -> u64 {
        (line_addr / LINE_SIZE) >> self.set_bits
    }

    /// Returns true if the line is currently cached (does not touch LRU).
    pub fn contains(&self, line_addr: u64) -> bool {
        let set = self.set_of_line(line_addr) as usize;
        let tag = self.tag_of_line(line_addr);
        self.tags[set * self.ways..(set + 1) * self.ways].contains(&tag)
    }

    /// Looks up `line_addr`, filling it on a miss; returns hit/miss and any
    /// evicted line address.
    #[inline]
    pub fn access(&mut self, line_addr: u64) -> FillResult {
        let now = self.tick();
        let set = self.set_of_line(line_addr) as usize;
        let tag = self.tag_of_line(line_addr);
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];

        if let Some(way) = tags.iter().position(|&t| t == tag) {
            self.hits += 1;
            stamps[way] = now;
            return FillResult {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;
        let victim_way = tags.iter().position(|&t| t == EMPTY).unwrap_or_else(|| {
            (0..stamps.len())
                .min_by_key(|&way| stamps[way])
                .expect("a set has at least one way")
        });
        let evicted_tag = tags[victim_way];
        tags[victim_way] = tag;
        stamps[victim_way] = now;
        let evicted = if evicted_tag == EMPTY {
            None
        } else {
            Some(((evicted_tag << self.set_bits) | set as u64) * LINE_SIZE)
        };
        FillResult {
            hit: false,
            evicted,
        }
    }

    /// Advances the clock and returns the new stamp, first renumbering every
    /// set's stamps to their rank order if the clock would wrap.
    #[inline]
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.renormalize();
        }
        self.clock += 1;
        self.clock
    }

    /// Rewrites each set's stamps as their ranks `0..ways` (same order) and
    /// sets the clock to the largest rank.
    #[cold]
    fn renormalize(&mut self) {
        let mut order: Vec<usize> = Vec::with_capacity(self.ways);
        for stamps in self.stamps.chunks_exact_mut(self.ways) {
            order.clear();
            order.extend(0..stamps.len());
            order.sort_unstable_by_key(|&way| stamps[way]);
            for (rank, &way) in order.iter().enumerate() {
                stamps[way] = rank as u32;
            }
        }
        self.clock = self.ways as u32 - 1;
    }

    /// Invalidates a line if present (used when an inclusive outer level
    /// evicts it).
    pub fn invalidate(&mut self, line_addr: u64) {
        let set = self.set_of_line(line_addr) as usize;
        let tag = self.tag_of_line(line_addr);
        let base = set * self.ways;
        for t in &mut self.tags[base..base + self.ways] {
            if *t == tag {
                *t = EMPTY;
            }
        }
    }

    /// Empties the cache and resets statistics.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.hits = 0;
        self.misses = 0;
    }

    /// (hits, misses) since the last clear.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// All resident line addresses (for inspection in tests and the
    /// analysis-time cache model).
    pub fn resident_lines(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in 0..=self.set_mask {
            let base = set as usize * self.ways;
            for &tag in &self.tags[base..base + self.ways] {
                if tag != EMPTY {
                    out.push(((tag << self.set_bits) | set) * LINE_SIZE);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The ordered-list true LRU the stamps replaced: per set, the way
    /// indices most recently used first; a hit or fill moves its way to the
    /// front, and a miss fills the first empty way, else the last listed.
    struct ListLru {
        ways: usize,
        sets: u64,
        tags: Vec<u64>,
        lru: Vec<usize>,
        stats: (u64, u64),
    }

    impl ListLru {
        fn new(sets: u64, ways: u32) -> Self {
            let ways = ways as usize;
            let lru = (0..sets as usize).flat_map(|_| 0..ways).collect();
            let tags = vec![EMPTY; sets as usize * ways];
            ListLru {
                ways,
                sets,
                tags,
                lru,
                stats: (0, 0),
            }
        }

        /// (first slot of the line's set, the line's tag).
        fn slot(&self, line: u64) -> (usize, u64) {
            let index = line / LINE_SIZE;
            let base = (index & (self.sets - 1)) as usize * self.ways;
            (base, index >> self.sets.trailing_zeros())
        }

        fn access(&mut self, line: u64) -> FillResult {
            let (base, tag) = self.slot(line);
            let tags = &mut self.tags[base..base + self.ways];
            let lru = &mut self.lru[base..base + self.ways];
            let (way, hit) = match tags.iter().position(|&t| t == tag) {
                Some(way) => (way, true),
                None => (
                    tags.iter()
                        .position(|&t| t == EMPTY)
                        .unwrap_or(lru[lru.len() - 1]),
                    false,
                ),
            };
            let pos = lru.iter().position(|&w| w == way).unwrap();
            lru[..=pos].rotate_right(1);
            let old = std::mem::replace(&mut tags[way], tag);
            let set = (base / self.ways) as u64;
            let evicted = (!hit && old != EMPTY)
                .then(|| ((old << self.sets.trailing_zeros()) | set) * LINE_SIZE);
            if hit {
                self.stats.0 += 1
            } else {
                self.stats.1 += 1
            }
            FillResult { hit, evicted }
        }

        fn invalidate(&mut self, line: u64) {
            let (base, tag) = self.slot(line);
            for t in &mut self.tags[base..base + self.ways] {
                if *t == tag {
                    *t = EMPTY;
                }
            }
        }
    }

    /// Drives `c` and the list reference through `ops` (`op % 16`: 0
    /// invalidates, 1 clears, anything else accesses line `line`) and
    /// asserts they never disagree.
    fn assert_matches_list_lru(mut c: SetAssocCache, ops: &[(u8, u64)]) {
        let mut reference = ListLru::new(c.sets(), c.ways());
        for &(op, line) in ops {
            let line = line * LINE_SIZE;
            match op % 16 {
                0 => {
                    c.invalidate(line);
                    reference.invalidate(line);
                }
                1 => {
                    c.clear();
                    reference.tags.fill(EMPTY);
                    reference.stats = (0, 0);
                }
                _ => assert_eq!(c.access(line), reference.access(line), "access {line:#x}"),
            }
            let (base, tag) = reference.slot(line);
            let listed = reference.tags[base..base + reference.ways].contains(&tag);
            assert_eq!(c.contains(line), listed, "contains {line:#x}");
            assert_eq!(c.stats(), reference.stats);
        }
        assert_eq!(c.tags, reference.tags, "same line in every way");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Stamps evict exactly what the ordered list evicts, on 1-, 2-, 8-
        /// and 20-way sets, from a fresh clock and from one about to wrap.
        #[test]
        fn stamps_evict_what_the_ordered_list_evicts(
            geometry in 0usize..8,
            clock_gap in 0u32..64,
            ops in proptest::collection::vec((any::<u8>(), 0u64..96), 1..600),
        ) {
            let ways = [1u32, 2, 8, 20][geometry % 4];
            let sets = if geometry < 4 { 1 } else { 2 };
            let mut c = SetAssocCache::new(sets, ways);
            if geometry % 2 == 1 {
                c.clock = u32::MAX - clock_gap;
            }
            assert_matches_list_lru(c, &ops);
        }
    }

    #[test]
    fn stamps_survive_the_clock_wrap() {
        // 1 set, 2 ways: the two fills take the last two stamps before the
        // wrap, the hit on line 0 crosses it, so line 64 must be the victim.
        let mut c = SetAssocCache::new(1, 2);
        c.clock = u32::MAX - 2;
        c.access(0);
        c.access(64);
        assert_eq!(c.clock, u32::MAX);
        assert!(c.access(0).hit);
        assert_eq!(c.clock, 2, "renumbered to ranks 0, 1; then ticked");
        assert_eq!(c.access(128).evicted, Some(64));
        assert!(c.contains(0) && c.contains(128));

        // A full 8-way set touched in a scrambled order across the wrap.
        let mut c = SetAssocCache::new(2, 8);
        c.clock = u32::MAX - 20;
        let ops: Vec<(u8, u64)> = (0..16u64)
            .chain([6, 0, 14, 2, 8, 4, 12, 10].into_iter().cycle().take(40))
            .chain((16..40).map(|l| l * 2))
            .map(|l| (2, l))
            .collect();
        assert_matches_list_lru(c, &ops);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(4, 2);
        let a = 0x1000;
        assert!(!c.access(a).hit);
        assert!(c.access(a).hit);
        assert!(c.contains(a));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set, 2 ways: lines 0, 256, 512 all map to set 0 (set index uses
        // line-address bits, 4 sets would split them; use sets=1).
        let mut c = SetAssocCache::new(1, 2);
        c.access(0);
        c.access(64);
        // Touch 0 again so 64 becomes LRU.
        c.access(0);
        let r = c.access(128);
        assert_eq!(r.evicted, Some(64));
        assert!(c.contains(0));
        assert!(!c.contains(64));
        assert!(c.contains(128));
    }

    #[test]
    fn associativity_plus_one_evicts() {
        let mut c = SetAssocCache::new(2, 4);
        // All these lines map to set 0 (line index even).
        let lines: Vec<u64> = (0..5).map(|i| i * 2 * LINE_SIZE).collect();
        for &l in &lines[..4] {
            assert!(c.access(l).evicted.is_none());
        }
        let r = c.access(lines[4]);
        assert!(!r.hit);
        assert_eq!(r.evicted, Some(lines[0]), "LRU victim is the first line");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(0x40);
        assert!(c.contains(0x40));
        c.invalidate(0x40);
        assert!(!c.contains(0x40));
    }

    #[test]
    fn resident_lines_roundtrip() {
        let mut c = SetAssocCache::new(8, 2);
        // Six lines in six distinct sets: nothing evicts.
        let lines = [0u64, 64, 128, 192, 256, 320];
        for &l in &lines {
            c.access(l);
        }
        let mut resident = c.resident_lines();
        resident.sort_unstable();
        assert_eq!(resident, lines);
        c.clear();
        assert!(c.resident_lines().is_empty());
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = SetAssocCache::new(2, 1);
        c.access(0); // set 0
        c.access(64); // set 1
        assert!(c.contains(0));
        assert!(c.contains(64));
    }
}
