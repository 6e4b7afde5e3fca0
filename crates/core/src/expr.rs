//! Symbolic expressions and atoms.
//!
//! An *atom* is an input the analysis treats as unknown: a header field of
//! the k-th symbolic packet, or a havoced hash output (§3.5). Expressions
//! are atomically reference-counted trees over atoms and constants mirroring
//! the IR's operations, so states holding them can cross worker threads;
//! construction folds constants eagerly so fully concrete computations never
//! allocate deep trees, and interior nodes are hash-consed through a
//! per-thread intern table so the common subterms NF code generates over and
//! over (field extractions, affine index math) share one allocation.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use castan_ir::{BinOp, CmpOp};
use castan_packet::PacketField;

/// Index of an atom in the per-analysis [`AtomTable`].
pub type AtomId = u32;

/// What an atom stands for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AtomKind {
    /// A header field of symbolic packet number `packet` (0-based).
    Field {
        /// Packet index in the synthesized sequence.
        packet: u32,
        /// The header field.
        field: PacketField,
    },
    /// The havoced output of hash application number `index`.
    Havoc {
        /// Sequential havoc index.
        index: u32,
        /// Output width in bits.
        bits: u32,
    },
}

impl AtomKind {
    /// Width of the atom in bits.
    pub fn bits(self) -> u32 {
        match self {
            AtomKind::Field { field, .. } => field.bits(),
            AtomKind::Havoc { bits, .. } => bits,
        }
    }

    /// Largest value the atom can take.
    pub fn max_value(self) -> u64 {
        if self.bits() >= 64 {
            u64::MAX
        } else {
            (1 << self.bits()) - 1
        }
    }
}

/// The registry of atoms created during one analysis.
#[derive(Clone, Debug, Default)]
pub struct AtomTable {
    atoms: Vec<AtomKind>,
}

impl AtomTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a packet-field atom (one per (packet, field) pair).
    pub fn field_atom(&mut self, packet: u32, field: PacketField) -> AtomId {
        for (i, a) in self.atoms.iter().enumerate() {
            if matches!(a, AtomKind::Field { packet: p, field: f } if *p == packet && *f == field) {
                return i as AtomId;
            }
        }
        self.atoms.push(AtomKind::Field { packet, field });
        (self.atoms.len() - 1) as AtomId
    }

    /// Creates a fresh havoc atom.
    pub fn havoc_atom(&mut self, bits: u32) -> AtomId {
        let index = self
            .atoms
            .iter()
            .filter(|a| matches!(a, AtomKind::Havoc { .. }))
            .count() as u32;
        self.atoms.push(AtomKind::Havoc { index, bits });
        (self.atoms.len() - 1) as AtomId
    }

    /// Kind of an atom.
    pub fn kind(&self, id: AtomId) -> AtomKind {
        self.atoms[id as usize]
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if no atoms have been created.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All atom ids.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> + '_ {
        0..self.atoms.len() as AtomId
    }
}

/// A symbolic expression.
#[derive(Clone, Debug)]
pub enum SymExpr {
    /// A concrete constant.
    Const(u64),
    /// An atom.
    Atom(AtomId),
    /// A binary operation.
    Bin(BinOp, Arc<SymExpr>, Arc<SymExpr>),
    /// A comparison (evaluates to 0 or 1).
    Cmp(CmpOp, Arc<SymExpr>, Arc<SymExpr>),
}

/// Hash-cons key: leaves by value, interior nodes by operator plus the
/// *identity* of their already-interned children. Child pointers stay valid
/// for as long as the entry lives because the interned node holds them.
#[derive(PartialEq, Eq, Hash)]
enum ConsKey {
    Const(u64),
    Atom(AtomId),
    Bin(u8, usize, usize),
    Cmp(u8, usize, usize),
}

/// Cap on the per-thread intern table; reaching it drops the table (the
/// interned nodes themselves stay alive wherever they are referenced).
const INTERN_CAP: usize = 1 << 16;

thread_local! {
    static INTERN: RefCell<HashMap<ConsKey, Arc<SymExpr>>> =
        RefCell::new(HashMap::new());
    static INTERN_STATS: std::cell::Cell<(u64, u64)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Lifetime statistics of the calling thread's `SymExpr` intern table.
///
/// Every worker thread owns its own table, so which hits land where depends
/// on how slots were scheduled across threads — these numbers are advisory
/// profiling data, never part of a deterministic baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Nodes whose structure was already interned (allocation shared).
    pub hits: u64,
    /// Nodes interned fresh (one allocation each).
    pub misses: u64,
    /// Current number of live entries in this thread's table.
    pub size: u64,
}

/// The calling thread's intern-table statistics (see [`InternStats`]).
pub fn intern_stats() -> InternStats {
    let (hits, misses) = INTERN_STATS.with(|s| s.get());
    let size = INTERN.with(|t| t.borrow().len() as u64);
    InternStats { hits, misses, size }
}

/// Interns a node, returning the canonical shared allocation for its
/// structure. Two structurally equal nodes built from the same (shared)
/// children always return the same `Arc` within a thread.
fn cons(e: SymExpr) -> Arc<SymExpr> {
    let key = match &e {
        SymExpr::Const(v) => ConsKey::Const(*v),
        SymExpr::Atom(id) => ConsKey::Atom(*id),
        SymExpr::Bin(op, a, b) => {
            ConsKey::Bin(*op as u8, Arc::as_ptr(a) as usize, Arc::as_ptr(b) as usize)
        }
        SymExpr::Cmp(op, a, b) => {
            ConsKey::Cmp(*op as u8, Arc::as_ptr(a) as usize, Arc::as_ptr(b) as usize)
        }
    };
    INTERN.with(|t| {
        let mut t = t.borrow_mut();
        if t.len() >= INTERN_CAP {
            t.clear();
        }
        let mut fresh = false;
        let node = t
            .entry(key)
            .or_insert_with(|| {
                fresh = true;
                Arc::new(e)
            })
            .clone();
        INTERN_STATS.with(|s| {
            let (hits, misses) = s.get();
            s.set(if fresh {
                (hits, misses + 1)
            } else {
                (hits + 1, misses)
            });
        });
        node
    })
}

impl SymExpr {
    /// Constant constructor.
    pub fn constant(v: u64) -> SymExpr {
        SymExpr::Const(v)
    }

    /// Atom constructor.
    pub fn atom(id: AtomId) -> SymExpr {
        SymExpr::Atom(id)
    }

    /// Binary operation with constant folding.
    pub fn bin(op: BinOp, a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Const(x), SymExpr::Const(y)) => SymExpr::Const(op.eval(*x, *y)),
            // A handful of identities that keep NF address expressions small.
            (_, SymExpr::Const(0))
                if matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                ) =>
            {
                a
            }
            (SymExpr::Const(0), _) if matches!(op, BinOp::Add | BinOp::Or | BinOp::Xor) => b,
            (_, SymExpr::Const(1)) if matches!(op, BinOp::Mul) => a,
            (SymExpr::Const(1), _) if matches!(op, BinOp::Mul) => b,
            _ => SymExpr::Bin(op, cons(a), cons(b)),
        }
    }

    /// Comparison with constant folding.
    pub fn cmp(op: CmpOp, a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Const(x), SymExpr::Const(y)) => SymExpr::Const(u64::from(op.eval(*x, *y))),
            _ => SymExpr::Cmp(op, cons(a), cons(b)),
        }
    }

    /// The concrete value, if the expression is a constant.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            SymExpr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// True if no atoms occur in the expression.
    pub fn is_concrete(&self) -> bool {
        match self {
            SymExpr::Const(_) => true,
            SymExpr::Atom(_) => false,
            SymExpr::Bin(_, a, b) | SymExpr::Cmp(_, a, b) => a.is_concrete() && b.is_concrete(),
        }
    }

    /// Evaluates under a full assignment (atoms missing from `lookup`
    /// evaluate to 0).
    pub fn eval(&self, lookup: &dyn Fn(AtomId) -> u64) -> u64 {
        match self {
            SymExpr::Const(v) => *v,
            SymExpr::Atom(id) => lookup(*id),
            SymExpr::Bin(op, a, b) => op.eval(a.eval(lookup), b.eval(lookup)),
            SymExpr::Cmp(op, a, b) => u64::from(op.eval(a.eval(lookup), b.eval(lookup))),
        }
    }

    /// The atoms occurring in the expression, ascending, each once.
    pub fn atoms(&self) -> Vec<AtomId> {
        self.atoms_and_fingerprint().0
    }

    /// [`SymExpr::atoms`] and a fingerprint of the expression's structure,
    /// from one walk. The fingerprint depends on nothing but the tree —
    /// operators, constants, atom ids, operand order; no address, no
    /// per-process hasher state — so it is the same on every thread and in
    /// every run.
    fn atoms_and_fingerprint(&self) -> (Vec<AtomId>, u64) {
        let mut atoms = Vec::new();
        let fingerprint = self.walk(&mut atoms);
        atoms.sort_unstable();
        atoms.dedup();
        (atoms, fingerprint)
    }

    fn walk(&self, atoms: &mut Vec<AtomId>) -> u64 {
        match self {
            SymExpr::Const(v) => mix(1, *v),
            SymExpr::Atom(id) => {
                atoms.push(*id);
                mix(2, u64::from(*id))
            }
            SymExpr::Bin(op, a, b) => {
                let (a, b) = (a.walk(atoms), b.walk(atoms));
                mix(mix(3 | (*op as u64) << 8, a), b)
            }
            SymExpr::Cmp(op, a, b) => {
                let (a, b) = (a.walk(atoms), b.walk(atoms));
                mix(mix(4 | (*op as u64) << 8, a), b)
            }
        }
    }

    /// Number of nodes in the expression tree (used to guard against blow-up
    /// in diagnostics).
    pub fn size(&self) -> usize {
        match self {
            SymExpr::Const(_) | SymExpr::Atom(_) => 1,
            SymExpr::Bin(_, a, b) | SymExpr::Cmp(_, a, b) => 1 + a.size() + b.size(),
        }
    }
}

/// Folds `word` into a running fingerprint `h` (the SplitMix64 finaliser
/// over their combination: every input bit reaches every output bit, and the
/// fold is order-sensitive).
pub(crate) fn mix(h: u64, word: u64) -> u64 {
    let mut z = (h.rotate_left(23) ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A boolean constraint: the expression must evaluate to non-zero (when
/// `expected` is true) or to zero (when false).
///
/// A constraint is immutable and a clone is one reference count: a path
/// constraint is copied into every state that forks off it and asked about
/// at every branch after the one that added it, so what the solver needs of
/// it — its conjuncts, each with its atom list — is computed once, at
/// construction, and shared by all clones.
#[derive(Clone, Debug)]
pub struct Constraint(Arc<Prepared>);

#[derive(Debug)]
struct Prepared {
    /// The constraint as asserted.
    whole: Conjunct,
    /// What it splits into; empty when `whole` is its own only conjunct.
    split: Box<[Conjunct]>,
}

/// An asserted truth value of an expression, with the expression's atoms.
/// Every [`Constraint`] is one; a constraint that is a boolean conjunction
/// (`x && y` asserted true, `x || y` asserted false) also splits into one
/// per operand, so the solver's propagation pass sees the underlying
/// equalities — NF guard conditions are built exactly this way.
#[derive(Debug)]
pub(crate) struct Conjunct {
    /// The condition expression.
    pub(crate) expr: SymExpr,
    /// Required truth value.
    pub(crate) expected: bool,
    /// The atoms of `expr`, ascending, each once.
    pub(crate) atoms: Box<[AtomId]>,
    /// Structural fingerprint of `(expr, expected)`: equal for equal
    /// conjuncts wherever and whenever they were built. The solver seeds a
    /// component's randomised completion from it, never compares it.
    pub(crate) fingerprint: u64,
}

impl Conjunct {
    fn new(expr: SymExpr, expected: bool) -> Conjunct {
        let (atoms, fingerprint) = expr.atoms_and_fingerprint();
        Conjunct {
            atoms: atoms.into(),
            fingerprint: mix(fingerprint, u64::from(expected)),
            expr,
            expected,
        }
    }

    /// Evaluates the conjunct under an assignment.
    pub(crate) fn holds(&self, lookup: &dyn Fn(AtomId) -> u64) -> bool {
        (self.expr.eval(lookup) != 0) == self.expected
    }

    /// `(lhs, rhs)` if the conjunct asserts `lhs == rhs` (either `Eq`
    /// expected true or `Ne` expected false).
    pub(crate) fn as_equality(&self) -> Option<(&SymExpr, &SymExpr)> {
        match (&self.expr, self.expected) {
            (SymExpr::Cmp(CmpOp::Eq, a, b), true) | (SymExpr::Cmp(CmpOp::Ne, a, b), false) => {
                Some((a, b))
            }
            _ => None,
        }
    }
}

/// True for expressions whose value is always 0 or 1 (comparison results and
/// their bitwise combinations): for these, bitwise `and`/`or` coincide with
/// logical conjunction/disjunction.
fn is_boolean(expr: &SymExpr) -> bool {
    match expr {
        SymExpr::Cmp(..) => true,
        SymExpr::Const(v) => *v <= 1,
        SymExpr::Bin(BinOp::And | BinOp::Or, a, b) => is_boolean(a) && is_boolean(b),
        _ => false,
    }
}

/// The two operands, if asserting `expected` of `expr` asserts it of both.
fn conjunction(expr: &SymExpr, expected: bool) -> Option<(&SymExpr, &SymExpr)> {
    match (expr, expected) {
        (SymExpr::Bin(BinOp::And, a, b), true) | (SymExpr::Bin(BinOp::Or, a, b), false)
            if is_boolean(a) && is_boolean(b) =>
        {
            Some((a, b))
        }
        _ => None,
    }
}

fn split_conjunction(expr: &SymExpr, expected: bool, out: &mut Vec<Conjunct>) {
    match conjunction(expr, expected) {
        Some((a, b)) => {
            split_conjunction(a, expected, out);
            split_conjunction(b, expected, out);
        }
        None => out.push(Conjunct::new(expr.clone(), expected)),
    }
}

impl Constraint {
    /// Requires `expr != 0` (`expected` true) or `expr == 0` (false).
    pub fn new(expr: SymExpr, expected: bool) -> Self {
        let mut split = Vec::new();
        if conjunction(&expr, expected).is_some() {
            split_conjunction(&expr, expected, &mut split);
        }
        Constraint(Arc::new(Prepared {
            whole: Conjunct::new(expr, expected),
            split: split.into(),
        }))
    }

    /// Requires `expr != 0`.
    pub fn require_true(expr: SymExpr) -> Self {
        Constraint::new(expr, true)
    }

    /// Requires `expr == 0`.
    pub fn require_false(expr: SymExpr) -> Self {
        Constraint::new(expr, false)
    }

    /// The condition expression.
    pub fn expr(&self) -> &SymExpr {
        &self.0.whole.expr
    }

    /// Required truth value.
    pub fn expected(&self) -> bool {
        self.0.whole.expected
    }

    /// The conjuncts the constraint splits into, in expression order (itself,
    /// if it is no conjunction); it holds iff every one of them does.
    pub(crate) fn conjuncts(&self) -> &[Conjunct] {
        if self.0.split.is_empty() {
            std::slice::from_ref(&self.0.whole)
        } else {
            &self.0.split
        }
    }

    /// Evaluates the constraint under an assignment.
    pub fn holds(&self, lookup: &dyn Fn(AtomId) -> u64) -> bool {
        self.0.whole.holds(lookup)
    }

    /// Atoms referenced by the constraint, ascending, each once.
    pub fn atoms(&self) -> &[AtomId] {
        &self.0.whole.atoms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let e = SymExpr::bin(BinOp::Add, SymExpr::constant(40), SymExpr::constant(2));
        assert_eq!(e.as_const(), Some(42));
        let c = SymExpr::cmp(CmpOp::Ult, SymExpr::constant(1), SymExpr::constant(2));
        assert_eq!(c.as_const(), Some(1));
    }

    #[test]
    fn intern_stats_track_hits_and_misses() {
        // Tests share threads, so assert on the delta, not absolutes.
        let before = intern_stats();
        // A structurally fresh pair of leaves: at least the distinctive atom
        // must miss; rebuilding the identical node then hits every leaf.
        let a = SymExpr::bin(BinOp::Add, SymExpr::atom(0xBEEF), SymExpr::constant(77));
        let mid = intern_stats();
        assert!(mid.misses > before.misses, "fresh structure interns fresh");
        let b = SymExpr::bin(BinOp::Add, SymExpr::atom(0xBEEF), SymExpr::constant(77));
        let after = intern_stats();
        assert!(
            after.hits > mid.hits,
            "rebuilt structure shares allocations"
        );
        assert!(after.size >= 2, "the table holds the interned leaves");
        // And interning really deduplicates: the children are pointer-equal.
        match (&a, &b) {
            (SymExpr::Bin(_, a1, a2), SymExpr::Bin(_, b1, b2)) => {
                assert!(Arc::ptr_eq(a1, b1) && Arc::ptr_eq(a2, b2));
            }
            other => panic!("expected Bin nodes, got {other:?}"),
        }
    }

    #[test]
    fn identity_simplifications() {
        let a = SymExpr::atom(0);
        let e = SymExpr::bin(BinOp::Add, a.clone(), SymExpr::constant(0));
        assert!(matches!(e, SymExpr::Atom(0)));
        let e = SymExpr::bin(BinOp::Mul, SymExpr::constant(1), a.clone());
        assert!(matches!(e, SymExpr::Atom(0)));
        let e = SymExpr::bin(BinOp::Mul, a, SymExpr::constant(8));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn eval_and_atoms() {
        let mut tbl = AtomTable::new();
        let x = tbl.field_atom(0, PacketField::DstIp);
        let y = tbl.field_atom(1, PacketField::SrcPort);
        assert_eq!(
            tbl.field_atom(0, PacketField::DstIp),
            x,
            "atoms are interned"
        );
        let e = SymExpr::bin(
            BinOp::Add,
            SymExpr::bin(BinOp::Mul, SymExpr::atom(x), SymExpr::constant(4)),
            SymExpr::atom(y),
        );
        let v = e.eval(&|id| if id == x { 10 } else { 7 });
        assert_eq!(v, 47);
        assert_eq!(e.atoms().len(), 2);
        assert!(!e.is_concrete());
        assert_eq!(tbl.len(), 2);
    }

    #[test]
    fn havoc_atoms_are_distinct() {
        let mut tbl = AtomTable::new();
        let h1 = tbl.havoc_atom(16);
        let h2 = tbl.havoc_atom(16);
        assert_ne!(h1, h2);
        assert_eq!(tbl.kind(h1).bits(), 16);
        assert_eq!(tbl.kind(h1).max_value(), 0xffff);
        match tbl.kind(h2) {
            AtomKind::Havoc { index, .. } => assert_eq!(index, 1),
            _ => panic!("expected a havoc atom"),
        }
    }

    #[test]
    fn constraint_semantics() {
        let c = Constraint::require_true(SymExpr::cmp(
            CmpOp::Eq,
            SymExpr::atom(0),
            SymExpr::constant(5),
        ));
        assert!(c.holds(&|_| 5));
        assert!(!c.holds(&|_| 6));
        let c = Constraint::require_false(SymExpr::atom(0));
        assert!(c.holds(&|_| 0));
        assert!(!c.holds(&|_| 1));
        assert_eq!(c.atoms().len(), 1);
    }

    #[test]
    fn conjunctions_split_into_their_operands() {
        let lt = |a, v| SymExpr::cmp(CmpOp::Ult, SymExpr::atom(a), SymExpr::constant(v));
        // (a0 < 5 && (a2 < 7 && a0 < 9)) asserted true: three conjuncts, in
        // expression order, each with its own atoms.
        let nested = SymExpr::bin(
            BinOp::And,
            lt(0, 5),
            SymExpr::bin(BinOp::And, lt(2, 7), lt(0, 9)),
        );
        let c = Constraint::require_true(nested.clone());
        let atoms: Vec<&[AtomId]> = c.conjuncts().iter().map(|p| &*p.atoms).collect();
        assert_eq!(atoms, [&[0][..], &[2], &[0]]);
        assert!(c.conjuncts().iter().all(|p| p.expected));
        assert_eq!(c.atoms(), [0, 2]);
        // `||` asserted false splits the same way; asserted true, or `&&`
        // asserted false, it is one conjunct: the constraint itself.
        let either = SymExpr::bin(BinOp::Or, lt(0, 5), lt(1, 7));
        assert_eq!(
            Constraint::require_false(either.clone()).conjuncts().len(),
            2
        );
        assert_eq!(Constraint::require_true(either).conjuncts().len(), 1);
        assert_eq!(Constraint::require_false(nested).conjuncts().len(), 1);
        // Bitwise `and` of non-boolean operands is no conjunction.
        let mask = SymExpr::bin(BinOp::And, SymExpr::atom(0), SymExpr::constant(0xff));
        let c = Constraint::require_true(mask);
        assert_eq!(c.conjuncts().len(), 1);
        assert!(c.conjuncts()[0].as_equality().is_none());
    }

    #[test]
    fn interior_nodes_are_hash_consed() {
        let build = || {
            SymExpr::bin(
                BinOp::Add,
                SymExpr::bin(BinOp::Mul, SymExpr::atom(1), SymExpr::constant(4)),
                SymExpr::constant(0x4000),
            )
        };
        let (a, b) = (build(), build());
        match (&a, &b) {
            (SymExpr::Bin(_, a1, a2), SymExpr::Bin(_, b1, b2)) => {
                assert!(Arc::ptr_eq(a1, b1), "shared inner product node");
                assert!(Arc::ptr_eq(a2, b2), "shared constant leaf");
            }
            other => panic!("expected Bin nodes, got {other:?}"),
        }
    }

    #[test]
    fn expressions_cross_threads() {
        let e = SymExpr::bin(BinOp::Xor, SymExpr::atom(0), SymExpr::constant(0xff));
        let v = std::thread::spawn(move || e.eval(&|_| 0x0f))
            .join()
            .unwrap();
        assert_eq!(v, 0xf0);
    }

    #[test]
    fn field_atom_max_values() {
        let mut tbl = AtomTable::new();
        let ip = tbl.field_atom(0, PacketField::DstIp);
        let port = tbl.field_atom(0, PacketField::DstPort);
        assert_eq!(tbl.kind(ip).max_value(), u64::from(u32::MAX));
        assert_eq!(tbl.kind(port).max_value(), 0xffff);
    }
}
