//! The "proprietary" L3 slice-selection hash.
//!
//! Intel does not document how physical addresses are assigned to L3 slices;
//! the paper treats the mapping as a black box and reverse-engineers
//! *contention sets* instead (§3.2). To keep that asymmetry honest in the
//! reproduction, the simulator uses a seeded hash that the analysis code in
//! `castan-core` never reads — it only ever consumes the contention-set
//! catalogue produced by probing.
//!
//! Publicly known reverse-engineering results (e.g. Irazoqui et al., cited
//! as \[4\] in the paper) show the real hash is *linear over GF(2)*: each
//! slice-id bit is the XOR (parity) of a fixed subset of physical-address
//! bits. We model exactly that structure — a seeded random bit-mask per
//! output bit — because linearity is what makes "consistent" contention sets
//! (same page offset bits, same set across reboots) exist at all: for two
//! addresses inside the same huge page, whether they share a slice depends
//! only on their offsets, not on which physical frame the page landed in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::LINE_SIZE;

/// The slice-selection hash: maps a physical address to a slice id in
/// `0..slices`.
#[derive(Clone, Debug)]
pub struct SliceHash {
    slices: u32,
    /// One 64-bit mask per slice-id bit; output bit = parity(line & mask).
    masks: Vec<u64>,
}

impl SliceHash {
    /// Creates a hash for `slices` slices (must be a power of two) with a
    /// given seed.
    pub fn new(slices: u32, seed: u64) -> Self {
        assert!(slices.is_power_of_two() && slices > 0);
        let bits = slices.trailing_zeros();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut masks = Vec::with_capacity(bits as usize);
        for _ in 0..bits {
            // Use address bits 10..40 of the *line index* (i.e. byte-address
            // bits 16..46): a mix of page-offset bits (below 30) and
            // frame bits (30 and above), like the real hash.
            let raw: u64 = rng.random();
            let mask = (raw & 0x0000_00ff_ffff_fc00) | (1 << (10 + (raw % 13)));
            masks.push(mask);
        }
        SliceHash { slices, masks }
    }

    /// Number of slices.
    pub fn slices(&self) -> u32 {
        self.slices
    }

    /// Slice id for a physical byte address.
    pub fn slice_of(&self, phys_addr: u64) -> u32 {
        let line = phys_addr / LINE_SIZE;
        let mut slice = 0u32;
        for (bit, mask) in self.masks.iter().enumerate() {
            let parity = (line & mask).count_ones() & 1;
            slice |= parity << bit;
        }
        slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic() {
        let h = SliceHash::new(8, 12345);
        assert_eq!(h.slice_of(0xdead_b000), h.slice_of(0xdead_b000));
        assert_eq!(h.slices(), 8);
        let h2 = SliceHash::new(8, 12345);
        assert_eq!(h.slice_of(0x1234_5678_9abc), h2.slice_of(0x1234_5678_9abc));
    }

    #[test]
    fn addresses_in_same_line_share_slice() {
        let h = SliceHash::new(8, 7);
        assert_eq!(h.slice_of(0x1_0000), h.slice_of(0x1_003f));
    }

    #[test]
    fn slices_are_roughly_balanced() {
        let h = SliceHash::new(8, 99);
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for i in 0..65_536u64 {
            *counts.entry(h.slice_of(i * 1024 * LINE_SIZE)).or_default() += 1;
        }
        assert_eq!(counts.len(), 8, "all slices should be used");
        for (&slice, &n) in &counts {
            assert!(
                (4096..=12_288).contains(&n),
                "slice {slice} badly unbalanced: {n}"
            );
        }
    }

    #[test]
    fn hash_is_linear_over_gf2() {
        // slice(a ^ b ^ c) == slice(a) ^ slice(b) ^ slice(c) for line-aligned
        // address bit patterns — the structural property the discovery
        // pipeline relies on.
        let h = SliceHash::new(8, 4242);
        let a = 0x3_4567_8000u64 & !(LINE_SIZE - 1);
        let b = 0x1_0f0f_0c40u64 & !(LINE_SIZE - 1);
        let lhs = h.slice_of(a ^ b);
        let rhs = h.slice_of(a) ^ h.slice_of(b) ^ h.slice_of(0);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn same_page_relation_is_frame_invariant() {
        // Two addresses in the same 1 GiB page either always or never share
        // a slice, regardless of which physical frame the page occupies.
        let h = SliceHash::new(8, 2024);
        let off_a = 0x0123_4540u64;
        let off_b = 0x0a5a_5a80u64;
        let same_at =
            |frame: u64| h.slice_of((frame << 30) | off_a) == h.slice_of((frame << 30) | off_b);
        let first = same_at(1);
        for frame in 2..64u64 {
            assert_eq!(same_at(frame), first, "relation changed at frame {frame}");
        }
    }

    #[test]
    fn high_physical_bits_affect_slice() {
        // Remapping a page (changing bits ≥ 30) must change the slice of at
        // least some lines — this is what makes raw (non-consistent)
        // contention sets process-specific.
        let h = SliceHash::new(8, 1234);
        let differing = (0..4096u64)
            .filter(|&i| {
                let low = i * LINE_SIZE * 17;
                let high = low | (0x3u64 << 30);
                h.slice_of(low) != h.slice_of(high)
            })
            .count();
        assert!(differing > 500, "only {differing} lines changed slice");
    }
}
