//! The NF's flat data memory.
//!
//! A sparse, page-granular byte store holding every data structure an NF
//! keeps (route tables, hash buckets, node pools, allocation cursors). The
//! testbed interpreter reads and writes it directly; the symbolic engine in
//! `castan-core` layers copy-on-write symbolic overlays on top of a shared,
//! immutable snapshot of it.
//!
//! Addresses are plain `u64` virtual addresses; timing is *not* modelled
//! here (that is `castan-mem`'s job) — this is purely functional state.
//!
//! # Page directory
//!
//! Every load and store of every replayed packet lands here, so finding a
//! page must not cost a hash. Pages are 4 KiB and allocated on first write.
//! The directory over the page number `addr >> 12` is a two-level radix:
//! a root `Vec`, grown to the highest 2 MiB region touched so far, of
//! lazily allocated 512-slot leaves, each slot an owned page or `None`.
//! A lookup is two indexed loads and no hashing; a leaf costs 4 KiB per
//! 2 MiB of address space that holds at least one page — for the dense
//! tables NFs keep, 8 bytes a page, less than a hash-map slot. The radix
//! reaches the first 64 GiB of the address space, which covers every NF
//! layout (`castan_nf::layout` stays below 2 GiB). Pages beyond it — only a
//! stray pointer gets there — live in an ordered map, so the whole `u64`
//! space stays addressable and the root never grows past 256 KiB.
//!
//! An access that fits in one page (all aligned ones do) resolves the page
//! once and moves its bytes with one slice copy. An access that straddles a
//! page boundary is split into in-page spans. Addresses wrap at the top of
//! the address space: the byte after `u64::MAX` is byte 0.

use std::collections::BTreeMap;
use std::ops::Range;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Pages per radix leaf (2 MiB of address space).
const LEAF_SHIFT: u32 = 9;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;
/// Page numbers below this are held by the radix (64 GiB of address space).
const RADIX_PAGES: u64 = 1 << 24;

type Page = [u8; PAGE_SIZE];
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// Sparse byte-addressable memory.
#[derive(Clone, Debug, Default)]
pub struct DataMemory {
    /// Radix root, indexed by `page >> LEAF_SHIFT`.
    root: Vec<Option<Box<Leaf>>>,
    /// Pages at or beyond `RADIX_PAGES`.
    far: BTreeMap<u64, Box<Page>>,
}

/// Splits the `len` bytes at `addr` (wrapping at the top of the address
/// space) into in-page spans: the page number, the offset in that page, and
/// which of the `len` bytes the span holds.
fn spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let a = addr.wrapping_add(done as u64);
        let off = (a as usize) & (PAGE_SIZE - 1);
        let n = (PAGE_SIZE - off).min(len - done);
        let span = (a >> PAGE_SHIFT, off, done..done + n);
        done += n;
        Some(span)
    })
}

impl DataMemory {
    /// Creates an empty memory (all bytes read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4 KiB pages materialised so far.
    pub fn resident_pages(&self) -> usize {
        let leaves = self.root.iter().flatten();
        leaves.map(|l| l.iter().flatten().count()).sum::<usize>() + self.far.len()
    }

    /// The page numbered `page`, if it was ever written.
    #[inline]
    fn page(&self, page: u64) -> Option<&Page> {
        if page < RADIX_PAGES {
            let leaf = self.root.get((page >> LEAF_SHIFT) as usize)?.as_deref()?;
            leaf[(page as usize) & (LEAF_PAGES - 1)].as_deref()
        } else {
            self.far.get(&page).map(|p| &**p)
        }
    }

    /// The page numbered `page`, materialised (zeroed) on first use.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let zeroed = || Box::new([0u8; PAGE_SIZE]);
        if page >= RADIX_PAGES {
            return self.far.entry(page).or_insert_with(zeroed);
        }
        let top = (page >> LEAF_SHIFT) as usize;
        if top >= self.root.len() {
            self.root.resize_with(top + 1, || None);
        }
        let leaf = self.root[top].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        leaf[(page as usize) & (LEAF_PAGES - 1)].get_or_insert_with(zeroed)
    }

    /// Reads `len ≤ 8` bytes at `addr` as a little-endian integer.
    #[inline]
    pub fn read(&self, addr: u64, len: u64) -> u64 {
        debug_assert!((1..=8).contains(&len));
        let len = len as usize;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let mut buf = [0u8; 8];
        if off + len > PAGE_SIZE {
            self.read_into(addr, &mut buf[..len]);
        } else if let Some(page) = self.page(addr >> PAGE_SHIFT) {
            buf[..len].copy_from_slice(&page[off..off + len]);
        }
        u64::from_le_bytes(buf)
    }

    /// Writes the low `len ≤ 8` bytes of `value` at `addr`, little-endian.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64, len: u64) {
        debug_assert!((1..=8).contains(&len));
        let len = len as usize;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let bytes = value.to_le_bytes();
        if off + len <= PAGE_SIZE {
            self.page_mut(addr >> PAGE_SHIFT)[off..off + len].copy_from_slice(&bytes[..len]);
        } else {
            self.write_bytes(addr, &bytes[..len]);
        }
    }

    /// Reads one byte (zero if never written).
    pub fn read_byte(&self, addr: u64) -> u8 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page(addr >> PAGE_SHIFT).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u64, value: u8) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr >> PAGE_SHIFT)[off] = value;
    }

    /// Writes `count` consecutive values of `width` bytes starting at
    /// `addr`, all equal to `value`.
    ///
    /// Used by NF initialisation to populate large lookup arrays (e.g. the
    /// direct-lookup LPM covers a /8 route with 2^19 identical entries);
    /// writing page-by-page keeps initialisation linear in the touched
    /// bytes rather than in directory lookups.
    pub fn fill(&mut self, addr: u64, value: u64, width: u64, count: u64) {
        debug_assert!((1..=8).contains(&width));
        let width = width as usize;
        let bytes = value.to_le_bytes();
        for (page, off, span) in spans(addr, width * count as usize) {
            // The value as it repeats from this span's first byte on.
            let mut pattern = [0u8; 8];
            for (i, b) in pattern[..width].iter_mut().enumerate() {
                *b = bytes[(span.start + i) % width];
            }
            for chunk in self.page_mut(page)[off..off + span.len()].chunks_mut(width) {
                chunk.copy_from_slice(&pattern[..chunk.len()]);
            }
        }
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (page, off, span) in spans(addr, bytes.len()) {
            self.page_mut(page)[off..off + span.len()].copy_from_slice(&bytes[span]);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Copies the bytes at `addr` over the zeroed `out`, span by span.
    fn read_into(&self, addr: u64, out: &mut [u8]) {
        for (page, off, span) in spans(addr, out.len()) {
            if let Some(page) = self.page(page) {
                out[span.clone()].copy_from_slice(&page[off..off + span.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = DataMemory::new();
        assert_eq!(m.read(0x1234, 8), 0);
        assert_eq!(m.read_byte(u64::MAX - 7), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut m = DataMemory::new();
        m.write(0x1000, 0x1122_3344_5566_7788, 8);
        assert_eq!(m.read(0x1000, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read_byte(0x1000), 0x88);
        assert_eq!(m.read_byte(0x1007), 0x11);
        assert_eq!(m.read(0x1000, 4), 0x5566_7788);
        assert_eq!(m.read(0x1004, 4), 0x1122_3344);
    }

    #[test]
    fn narrow_write_truncates() {
        let mut m = DataMemory::new();
        m.write(0x10, 0xdead_beef_cafe, 2);
        assert_eq!(m.read(0x10, 8), 0xcafe);
    }

    #[test]
    fn cross_page_access() {
        let mut m = DataMemory::new();
        let addr = (1 << 12) - 4; // straddles two 4 KiB pages
        m.write(addr, 0x0102_0304_0506_0708, 8);
        assert_eq!(m.read(addr, 8), 0x0102_0304_0506_0708);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn accesses_wrap_at_the_top_of_the_address_space() {
        // Reachable from a concretised symbolic pointer; must neither panic
        // (overflow checks on) nor depend on the build profile.
        let mut m = DataMemory::new();
        assert_eq!(m.read(u64::MAX - 3, 8), 0);
        m.write(u64::MAX - 3, 0x0102_0304_0506_0708, 8);
        assert_eq!(m.read(u64::MAX - 3, 8), 0x0102_0304_0506_0708);
        assert_eq!(m.read(u64::MAX - 3, 4), 0x0506_0708, "below the top");
        assert_eq!(m.read(0, 4), 0x0102_0304, "wrapped to address 0");
        assert_eq!(m.resident_pages(), 2);

        m.write_bytes(u64::MAX - 1, &[0xaa, 0xbb, 0xcc]);
        assert_eq!(m.read_bytes(u64::MAX - 1, 3), [0xaa, 0xbb, 0xcc]);
        assert_eq!(m.read_byte(0), 0xcc);
        m.fill(u64::MAX - 4, 0x1122_3344, 4, 3);
        assert_eq!(m.read(u64::MAX - 4, 4), 0x1122_3344);
        assert_eq!(m.read(u64::MAX, 4), 0x1122_3344, "the straddling entry");
        assert_eq!(m.read(3, 4), 0x1122_3344);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn pages_beyond_the_radix_behave_like_any_other() {
        let mut m = DataMemory::new();
        let edge = RADIX_PAGES << PAGE_SHIFT;
        m.write(edge - 4, 0x0102_0304_0506_0708, 8); // last radix page + first far page
        m.write(1 << 50, 7, 1);
        assert_eq!(m.read(edge - 4, 8), 0x0102_0304_0506_0708);
        assert_eq!(m.read(edge, 4), 0x0102_0304);
        assert_eq!(m.read(1 << 50, 8), 7);
        assert_eq!(m.read((1 << 50) + 4096, 8), 0);
        assert_eq!(m.resident_pages(), 3);
        let mut c = m.clone();
        c.write(1 << 50, 9, 1);
        assert_eq!(m.read(1 << 50, 1), 7);
    }

    #[test]
    fn byte_slice_roundtrip() {
        let mut m = DataMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x9000, &data);
        assert_eq!(m.read_bytes(0x9000, 256), data);
    }

    #[test]
    fn fill_writes_repeated_entries() {
        let mut m = DataMemory::new();
        // 3000 4-byte entries spanning several pages.
        m.fill(0x0FFA, 0xdead_beef, 4, 3000);
        assert_eq!(m.read(0x0FFA, 4), 0xdead_beef);
        assert_eq!(m.read(0x0FFA + 4 * 1500, 4), 0xdead_beef);
        assert_eq!(m.read(0x0FFA + 4 * 2999, 4), 0xdead_beef);
        assert_eq!(
            m.read(0x0FFA + 4 * 3000, 4),
            0,
            "past the fill is untouched"
        );
        assert_eq!(
            m.read(0x0FF8, 4),
            0xbeef_0000,
            "partial overlap before start"
        );
    }

    #[test]
    fn fill_matches_individual_writes() {
        let mut a = DataMemory::new();
        let mut b = DataMemory::new();
        a.fill(0x2001, 0x1122_3344_5566_7788, 8, 700);
        for i in 0..700u64 {
            b.write(0x2001 + i * 8, 0x1122_3344_5566_7788, 8);
        }
        assert_eq!(
            a.read_bytes(0x2000, 700 * 8 + 16),
            b.read_bytes(0x2000, 700 * 8 + 16)
        );
    }

    #[test]
    fn clone_is_independent() {
        let mut a = DataMemory::new();
        a.write(0x40, 7, 8);
        let mut b = a.clone();
        b.write(0x40, 9, 8);
        assert_eq!(a.read(0x40, 8), 7);
        assert_eq!(b.read(0x40, 8), 9);
    }
}
