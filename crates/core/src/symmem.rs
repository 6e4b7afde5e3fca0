//! Copy-on-write symbolic memory.
//!
//! Every execution state sees the NF's initial [`DataMemory`] (shared,
//! immutable) plus its own overlay of writes performed along its path. A
//! written cell may hold either a concrete value or a symbolic expression
//! (e.g. a flow-table node whose key fields came from an earlier symbolic
//! packet). Reads that partially overlap a symbolic cell force that cell to
//! a concrete value through a caller-supplied concretizer — the same
//! "locally optimal concretization" escape hatch the paper uses for symbolic
//! pointers (§3.3), applied here to mixed-width aliasing, which the NFs only
//! hit on native-helper boundaries.

use std::collections::BTreeMap;
use std::sync::Arc;

use castan_ir::DataMemory;

use crate::expr::SymExpr;

/// A symbolic view of NF data memory.
///
/// Both overlays are `Arc`-shared between forked states and cloned only on
/// the first mutation after a fork (`Arc::make_mut`), so forking — the
/// hottest operation of the directed search — costs two reference-count
/// bumps instead of two deep map copies.
#[derive(Clone, Debug)]
pub struct SymMemory {
    base: Arc<DataMemory>,
    /// Symbolic cells: address → (width in bytes, expression).
    sym: Arc<BTreeMap<u64, (u64, SymExpr)>>,
    /// Concrete overlay bytes (written constants, concretized cells).
    conc: Arc<BTreeMap<u64, u8>>,
}

impl SymMemory {
    /// Wraps a shared snapshot of the NF's initial memory.
    pub fn new(base: Arc<DataMemory>) -> Self {
        SymMemory {
            base,
            sym: Arc::new(BTreeMap::new()),
            conc: Arc::new(BTreeMap::new()),
        }
    }

    /// Number of symbolic cells currently stored (diagnostics).
    pub fn symbolic_cells(&self) -> usize {
        self.sym.len()
    }

    /// Stores `width` bytes at `addr`.
    pub fn store(&mut self, addr: u64, width: u64, value: SymExpr) {
        // Remove any symbolic cell overlapping the written range.
        let overlapping: Vec<u64> = self
            .sym
            .range(addr.saturating_sub(8)..addr + width)
            .filter(|(a, (w, _))| ranges_overlap(**a, *w, addr, width))
            .map(|(a, _)| *a)
            .collect();
        if !overlapping.is_empty() {
            let sym = Arc::make_mut(&mut self.sym);
            for a in overlapping {
                sym.remove(&a);
            }
        }
        match value.as_const() {
            Some(v) => {
                let conc = Arc::make_mut(&mut self.conc);
                for i in 0..width {
                    conc.insert(addr + i, (v >> (8 * i)) as u8);
                }
            }
            None => {
                // Clear stale concrete bytes in the range, then record the
                // symbolic cell.
                if self.conc.range(addr..addr + width).next().is_some() {
                    let conc = Arc::make_mut(&mut self.conc);
                    for i in 0..width {
                        conc.remove(&(addr + i));
                    }
                }
                Arc::make_mut(&mut self.sym).insert(addr, (width, value));
            }
        }
    }

    /// Loads `width` bytes at `addr`. `concretize` is called when the read
    /// partially overlaps a symbolic cell; it must return a concrete value
    /// for that cell (and the cell is then fixed to that value).
    pub fn load(
        &mut self,
        addr: u64,
        width: u64,
        concretize: &mut dyn FnMut(&SymExpr) -> u64,
    ) -> SymExpr {
        // Exact symbolic hit.
        if let Some((w, e)) = self.sym.get(&addr) {
            if *w == width {
                return e.clone();
            }
        }
        // Concretize any overlapping symbolic cells (exact-width mismatch or
        // partial overlap).
        let overlapping: Vec<u64> = self
            .sym
            .range(addr.saturating_sub(8)..addr + width)
            .filter(|(a, (w, _))| ranges_overlap(**a, *w, addr, width))
            .map(|(a, _)| *a)
            .collect();
        for a in overlapping {
            let (w, e) = Arc::make_mut(&mut self.sym)
                .remove(&a)
                .expect("cell existed");
            let v = concretize(&e);
            let conc = Arc::make_mut(&mut self.conc);
            for i in 0..w {
                conc.insert(a + i, (v >> (8 * i)) as u8);
            }
        }
        // Assemble from the concrete overlay and the shared base.
        let mut out = 0u64;
        for i in 0..width {
            let b = self
                .conc
                .get(&(addr + i))
                .copied()
                .unwrap_or_else(|| self.base.read_byte(addr + i));
            out |= u64::from(b) << (8 * i);
        }
        SymExpr::constant(out)
    }

    /// Convenience for loads the caller knows cannot hit symbolic cells
    /// (panics otherwise) — used in tests and diagnostics.
    pub fn load_concrete(&mut self, addr: u64, width: u64) -> u64 {
        self.load(addr, width, &mut |_| {
            panic!("unexpected symbolic cell at {addr:#x}")
        })
        .as_const()
        .expect("assembled loads are constant")
    }
}

fn ranges_overlap(a: u64, a_len: u64, b: u64, b_len: u64) -> bool {
    a < b + b_len && b < a + a_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SymExpr;

    fn base_with(addr: u64, value: u64) -> Arc<DataMemory> {
        let mut m = DataMemory::new();
        m.write(addr, value, 8);
        Arc::new(m)
    }

    #[test]
    fn reads_fall_through_to_base() {
        let mut m = SymMemory::new(base_with(0x100, 0xdead_beef));
        assert_eq!(m.load_concrete(0x100, 4), 0xdead_beef);
        assert_eq!(m.load_concrete(0x200, 8), 0);
    }

    #[test]
    fn concrete_overlay_shadows_base() {
        let mut m = SymMemory::new(base_with(0x100, 0xdead_beef));
        m.store(0x100, 4, SymExpr::constant(0x1234));
        assert_eq!(m.load_concrete(0x100, 4), 0x1234);
        // Base object is untouched (copy-on-write).
        assert_eq!(m.base.read(0x100, 4), 0xdead_beef);
    }

    #[test]
    fn symbolic_roundtrip_exact_width() {
        let mut m = SymMemory::new(Arc::new(DataMemory::new()));
        m.store(0x40, 4, SymExpr::atom(3));
        let e = m.load(0x40, 4, &mut |_| panic!("no concretization expected"));
        assert_eq!(e.atoms(), [3]);
        assert_eq!(m.symbolic_cells(), 1);
    }

    #[test]
    fn partial_overlap_concretizes() {
        let mut m = SymMemory::new(Arc::new(DataMemory::new()));
        m.store(0x40, 4, SymExpr::atom(3));
        let mut calls = 0;
        let v = m.load(0x42, 2, &mut |_| {
            calls += 1;
            0xaabb_ccdd
        });
        assert_eq!(calls, 1);
        // Bytes 0x42..0x44 of the concretized little-endian 0xaabbccdd.
        assert_eq!(v.as_const(), Some(0xaabb));
        // The cell is now concrete; further loads see the fixed value.
        assert_eq!(m.load_concrete(0x40, 4), 0xaabb_ccdd);
        assert_eq!(m.symbolic_cells(), 0);
    }

    #[test]
    fn store_overwrites_symbolic_cell() {
        let mut m = SymMemory::new(Arc::new(DataMemory::new()));
        m.store(0x40, 8, SymExpr::atom(1));
        m.store(0x40, 8, SymExpr::constant(7));
        assert_eq!(m.load_concrete(0x40, 8), 7);
        assert_eq!(m.symbolic_cells(), 0);
    }

    #[test]
    fn forked_copies_are_independent() {
        let mut a = SymMemory::new(Arc::new(DataMemory::new()));
        a.store(0x10, 8, SymExpr::constant(1));
        let mut b = a.clone();
        b.store(0x10, 8, SymExpr::constant(2));
        assert_eq!(a.load_concrete(0x10, 8), 1);
        assert_eq!(b.load_concrete(0x10, 8), 2);
    }
}
