//! Virtual-to-physical translation with huge pages.
//!
//! The paper's testbed backs NF data structures with 1 GiB pages, so bits
//! 0–29 of an address are identical between the virtual and physical views,
//! while the upper bits are remapped by the OS. The L3 slice hash operates
//! on *physical* addresses, which is exactly why per-process contention sets
//! differ and why the paper filters for sets that are consistent across
//! reboots (§3.2). [`PageTable`] models that remapping; constructing a new
//! table with a different seed models a reboot.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A deterministic virtual-to-physical page mapping.
#[derive(Clone, Debug)]
pub struct PageTable {
    page_bits: u32,
    /// `(page, frame)` for every virtual page touched so far, sorted by
    /// page: filled lazily but deterministically from the permutation below.
    /// Only a handful of huge pages are ever live, so a binary search over
    /// this beats hashing the page number.
    mapping: Vec<(u64, u64)>,
    /// Pre-shuffled pool of physical frames to hand out.
    frame_pool: Vec<u64>,
    next_frame: usize,
    /// The `(page, frame)` pair `translate` resolved last: with huge pages
    /// consecutive accesses mostly stay on one page and skip the map.
    last: Option<(u64, u64)>,
}

impl PageTable {
    /// Creates a page table with `page_bits` offset bits (30 ⇒ 1 GiB pages).
    ///
    /// `seed` determines which physical frames get assigned; two tables with
    /// the same seed translate identically (same "boot"), different seeds
    /// model different boots.
    pub fn new(page_bits: u32, seed: u64) -> Self {
        assert!((12..=34).contains(&page_bits), "unreasonable page size");
        let mut rng = StdRng::seed_from_u64(seed);
        // A pool of 4096 physical frames is plenty for the handful of
        // virtual pages the NFs map, while still exercising high physical
        // address bits (up to ~42 bits with 1 GiB pages).
        let mut frame_pool: Vec<u64> = (1..=4096u64).collect();
        frame_pool.shuffle(&mut rng);
        PageTable {
            page_bits,
            mapping: Vec::new(),
            frame_pool,
            next_frame: 0,
            last: None,
        }
    }

    /// Number of page-offset bits.
    pub fn page_bits(&self) -> u32 {
        self.page_bits
    }

    /// Translates a virtual address to a physical address, allocating a
    /// frame for the page on first touch.
    ///
    /// # Panics
    ///
    /// When the frame pool is exhausted: handing a frame out twice would
    /// alias two virtual pages onto one set of L3 buckets.
    #[inline]
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        let page = vaddr >> self.page_bits;
        let offset = vaddr & ((1u64 << self.page_bits) - 1);
        let frame = match self.last {
            Some((p, frame)) if p == page => frame,
            _ => self.frame_of(page),
        };
        (frame << self.page_bits) | offset
    }

    /// The frame of `page`, allocated on first touch; remembered as the
    /// last page translated.
    #[cold]
    fn frame_of(&mut self, page: u64) -> u64 {
        let frame = match self.mapping.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(i) => self.mapping[i].1,
            Err(i) => {
                assert!(
                    self.next_frame < self.frame_pool.len(),
                    "page table out of physical frames: more than {} pages mapped \
                     with page_bits = {}",
                    self.frame_pool.len(),
                    self.page_bits,
                );
                let frame = self.frame_pool[self.next_frame];
                self.next_frame += 1;
                self.mapping.insert(i, (page, frame));
                frame
            }
        };
        self.last = Some((page, frame));
        frame
    }

    /// Translates without allocating; returns `None` for unmapped pages.
    pub fn translate_existing(&self, vaddr: u64) -> Option<u64> {
        let page = vaddr >> self.page_bits;
        let offset = vaddr & ((1u64 << self.page_bits) - 1);
        self.mapping
            .binary_search_by_key(&page, |&(p, _)| p)
            .ok()
            .map(|i| (self.mapping[i].1 << self.page_bits) | offset)
    }

    /// Number of virtual pages touched so far.
    pub fn mapped_pages(&self) -> usize {
        self.mapping.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_bits_preserved() {
        let mut pt = PageTable::new(30, 1);
        let v = (7u64 << 30) | 0x0123_4567;
        let p = pt.translate(v);
        assert_eq!(p & ((1 << 30) - 1), 0x0123_4567);
        assert_ne!(p >> 30, 7, "upper bits should be remapped");
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new(30, 9);
        let a = pt.translate(0x1_2345_6789);
        let b = pt.translate(0x1_2345_6789);
        assert_eq!(a, b);
        assert_eq!(pt.translate_existing(0x1_2345_6789), Some(a));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn different_seeds_model_reboots() {
        let mut boot1 = PageTable::new(30, 100);
        let mut boot2 = PageTable::new(30, 200);
        let v = 5u64 << 30;
        // With 4096 frames the chance of an accidental match is negligible;
        // the chosen seeds are known to differ.
        assert_ne!(boot1.translate(v), boot2.translate(v));
    }

    #[test]
    fn same_seed_same_mapping() {
        let mut a = PageTable::new(30, 77);
        let mut b = PageTable::new(30, 77);
        for page in 0..16u64 {
            let v = page << 30 | 123;
            assert_eq!(a.translate(v), b.translate(v));
        }
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new(30, 3);
        let p0 = pt.translate(0) >> 30;
        let p1 = pt.translate(1 << 30) >> 30;
        let p2 = pt.translate(2 << 30) >> 30;
        assert_ne!(p0, p1);
        assert_ne!(p1, p2);
        assert_ne!(p0, p2);
        assert_eq!(pt.translate_existing(3 << 30), None);
    }

    #[test]
    fn memoised_and_cold_translations_agree() {
        // An interleaved stream: back-to-back repeats are answered by the
        // last-page memo, `translate_existing` always by the map.
        let mut memo = PageTable::new(30, 41);
        let pages = [3u64, 3, 9, 3, 3, 0, 9, 9, 17, 0, 3];
        for (i, page) in pages.iter().enumerate() {
            let v = (page << 30) | (i as u64 * 0x1_0040);
            let p = memo.translate(v);
            assert_eq!(memo.translate(v), p, "repeat answered by the memo");
            assert_eq!(memo.translate_existing(v), Some(p));
            assert_eq!(p & ((1 << 30) - 1), v & ((1 << 30) - 1));
        }
        assert_eq!(memo.mapped_pages(), 4);
        // The same pages, first touched in the same order by a table that
        // never sees a page twice in a row (every query misses the memo):
        // same frames.
        let mut other = PageTable::new(30, 41);
        for page in [3u64, 9, 0, 17] {
            assert_eq!(
                other.translate(page << 30),
                memo.translate_existing(page << 30).unwrap()
            );
        }
    }

    #[test]
    fn every_frame_is_handed_out_once() {
        let mut pt = PageTable::new(12, 5);
        let frames: std::collections::HashSet<u64> = (0..4096u64)
            .map(|page| pt.translate(page << 12) >> 12)
            .collect();
        assert_eq!(frames.len(), 4096);
        // Re-translating mapped pages needs no new frame.
        assert_eq!(pt.translate(7 << 12) >> 12, pt.translate(7 << 12) >> 12);
    }

    #[test]
    #[should_panic(expected = "out of physical frames")]
    fn the_4097th_page_does_not_alias_an_earlier_frame() {
        let mut pt = PageTable::new(12, 5);
        for page in 0..=4096u64 {
            pt.translate(page << 12);
        }
    }
}
