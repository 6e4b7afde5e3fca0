//! What `castan-core::solve` answers is pinned twice over a fixed-seed
//! generated corpus of queries.
//!
//! **Against history.** Every answer is compared with digests captured at
//! commit 19ce1bd, before the query path was rewritten for speed. A query
//! that never reaches the randomised completion must still answer exactly
//! that. One that does reach it answers differently since the completion
//! stopped drawing from a stream the solver carried from query to query and
//! draws from a generator seeded by the component itself: those answers
//! were captured once, at the commit that made the change, and are listed
//! apart ([`RESEEDED`]) — and the test checks that every query on that list
//! contains a block that can reach the completion, so the list cannot hide
//! a change to anything else.
//!
//! **Against itself.** What replaced "the same position in the random
//! stream" is purity: a query's verdict and model are the same on a fresh
//! solver, after any prefix of the corpus, with the corpus in another
//! order, and whether the solver's component cache is cold, warm, or was
//! made to start over in the middle.
//!
//! **Against the flat query.** The engine does not put a query as a slice:
//! it grows a path constraint one `push` at a time, forks it, and asks about
//! it with one more constraint in between, and the path carries its slicing
//! and its components' answers from push to push and fork to fork. Every
//! prefix of every corpus query is asked that way too, and every query
//! once more with its blocks interleaved and then tied together, so that
//! components merge — in the query and on the path — and must answer what
//! a fresh solver answers the same constraints as a flat slice.
//!
//! The corpus is built from *blocks*, each over its own atoms, so a query of
//! several blocks is a multi-component system in block order. Together the
//! blocks cover what the engine asks: direct / affine / mask / shift
//! equalities, pins through a choice operator that a second constraint then
//! contradicts, conflicting pins, values wider than the atom, range pairs,
//! flattened conjunctions, multi-atom systems that exhaust the backtracking
//! budget, and components that end `Unknown` ahead of an `Unsat` or a `Sat`
//! one.

use castan_core::expr::Constraint;
use castan_core::state::ConstraintSet;
use castan_core::{AtomId, AtomTable, Model, SolveOutcome, Solver, SolverStats, SymExpr};
use castan_ir::{BinOp, CmpOp};
use castan_packet::PacketField;

const QUERIES: usize = 360;

/// SplitMix64: the corpus must not depend on the workspace's `rand` shim.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn table() -> AtomTable {
    let mut t = AtomTable::new();
    for packet in 0..3 {
        for field in [
            PacketField::SrcIp,
            PacketField::DstIp,
            PacketField::SrcPort,
            PacketField::DstPort,
            PacketField::IpProto,
        ] {
            t.field_atom(packet, field);
        }
    }
    for bits in [16, 32, 8, 64] {
        t.havoc_atom(bits);
    }
    t
}

fn atom(a: AtomId) -> SymExpr {
    SymExpr::atom(a)
}

fn k(v: u64) -> SymExpr {
    SymExpr::constant(v)
}

fn cmp(op: CmpOp, a: SymExpr, b: SymExpr) -> SymExpr {
    SymExpr::cmp(op, a, b)
}

fn bin(op: BinOp, a: SymExpr, b: SymExpr) -> SymExpr {
    SymExpr::bin(op, a, b)
}

fn holds(e: SymExpr) -> Constraint {
    Constraint::require_true(e)
}

fn eq(a: SymExpr, b: SymExpr) -> Constraint {
    holds(cmp(CmpOp::Eq, a, b))
}

const BLOCK_KINDS: u64 = 21;

/// Appends block number `kind` over atoms drawn from `free` (each atom is
/// used by at most one block of a query, so blocks are components).
fn block(kind: u64, g: &mut Gen, t: &AtomTable, free: &mut Vec<AtomId>, out: &mut Vec<Constraint>) {
    let mut take = |g: &mut Gen| free.swap_remove(g.below(free.len() as u64) as usize);
    let a = take(g);
    let max = t.kind(a).max_value();
    let v = g.next() & max;
    match kind {
        // Direct pin.
        0 => out.push(eq(atom(a), k(v))),
        // Affine table index: base + (a >> s) * stride == base + idx * stride.
        1 => {
            let (s, stride) = (1 + g.below(6), 1 << g.below(4));
            let idx = (g.next() & max) >> s;
            let addr = bin(
                BinOp::Add,
                k(0x4000_0000),
                bin(BinOp::Mul, bin(BinOp::Shr, atom(a), k(s)), k(stride)),
            );
            out.push(eq(
                addr,
                k(0x4000_0000u64.wrapping_add(idx.wrapping_mul(stride))),
            ));
        }
        // Mask equality (a choice pin).
        2 => {
            let m = g.next() & max;
            out.push(eq(bin(BinOp::And, atom(a), k(m)), k(v & m)));
        }
        // Shift-left equality; the target may have bits the shift cannot make.
        3 => {
            let s = g.below(8);
            let target = if g.below(4) == 0 { v } else { (v >> s) << s };
            out.push(eq(bin(BinOp::Shl, atom(a), k(s)), k(target)));
        }
        // Xor over sub: exact inversions, possibly past the atom's width.
        4 => {
            let e = bin(
                BinOp::Xor,
                bin(BinOp::Sub, atom(a), k(g.below(1000))),
                k(g.next() & 0xff),
            );
            out.push(eq(e, k(v)));
        }
        // A choice pin that a second constraint contradicts.
        5 => {
            out.push(eq(bin(BinOp::And, atom(a), k(0xf)), k(v & 0xf)));
            out.push(holds(cmp(CmpOp::Ugt, atom(a), k(0x10))));
        }
        // Conflicting exact pins.
        6 => {
            out.push(eq(atom(a), k(v)));
            out.push(eq(atom(a), k(v ^ 1)));
        }
        // A value the atom is too narrow for (the 64-bit atom wraps to a
        // small one it can hold).
        7 => out.push(eq(atom(a), k(max.wrapping_add(1 + g.below(1 << 20))))),
        // Range pair with a boundary inside.
        8 => {
            let lo = v.min(max - 64);
            out.push(holds(cmp(CmpOp::Uge, atom(a), k(lo))));
            out.push(holds(cmp(CmpOp::Ult, atom(a), k(lo + 1 + g.below(64)))));
        }
        // Empty open interval.
        9 => {
            let lo = v.min(max - 2);
            out.push(holds(cmp(CmpOp::Ugt, atom(a), k(lo))));
            out.push(holds(cmp(CmpOp::Ult, atom(a), k(lo + 2))));
            out.push(holds(cmp(CmpOp::Ne, atom(a), k(lo + 1))));
        }
        // Multiplicative hash bucket: no inversion, a needle for the search.
        10 => {
            let e = bin(
                BinOp::And,
                bin(BinOp::Mul, atom(a), k(0x9E37_79B1)),
                k(0xffff_0000),
            );
            out.push(eq(e, k(g.next() & 0xffff_0000)));
        }
        // Two-atom propagation chain: b pinned, a follows.
        11 => {
            let b = take(g);
            let vb = g.next() & t.kind(b).max_value();
            out.push(eq(atom(a), bin(BinOp::Add, atom(b), k(g.below(300)))));
            out.push(eq(atom(b), k(vb)));
        }
        // Two-atom ordering under a small bound.
        12 => {
            let b = take(g);
            out.push(holds(cmp(CmpOp::Ult, atom(a), atom(b))));
            out.push(holds(cmp(CmpOp::Ult, atom(b), k(2 + g.below(200)))));
        }
        // Four-atom sum with side conditions: exhausts the backtracking budget.
        13 => {
            let (b, c, d) = (take(g), take(g), take(g));
            let sum = bin(
                BinOp::Add,
                bin(
                    BinOp::Add,
                    bin(BinOp::And, atom(a), k(0xf0f0)),
                    bin(BinOp::Mul, atom(b), k(3)),
                ),
                bin(BinOp::Add, atom(c), atom(d)),
            );
            out.push(eq(sum, k(20_000 + g.below(40_000))));
            out.push(holds(cmp(CmpOp::Ugt, atom(a), k(g.below(200)))));
            out.push(holds(cmp(CmpOp::Ugt, atom(b), k(g.below(77)))));
            out.push(holds(cmp(CmpOp::Ult, atom(c), k(100 + g.below(150)))));
            out.push(holds(cmp(CmpOp::Ne, atom(d), k(g.below(9)))));
        }
        // One conjunction asserted true, one disjunction asserted false:
        // both flatten into separate constraints.
        14 => {
            let lo = v.min(max - 8);
            out.push(holds(bin(
                BinOp::And,
                cmp(CmpOp::Uge, atom(a), k(lo)),
                cmp(CmpOp::Ule, atom(a), k(lo + 3)),
            )));
            out.push(Constraint::require_false(bin(
                BinOp::Or,
                cmp(CmpOp::Eq, atom(a), k(lo)),
                cmp(CmpOp::Eq, atom(a), k(lo + 3)),
            )));
        }
        // A disjunction asserted true does not flatten.
        15 => out.push(holds(bin(
            BinOp::Or,
            cmp(CmpOp::Eq, atom(a), k(v)),
            cmp(CmpOp::Eq, atom(a), k(v >> 1)),
        ))),
        // Atom-free constraints: true ones are singletons, a false one
        // short-circuits the whole query.
        16 => {
            out.push(holds(k(1)));
            out.push(eq(atom(a), k(v)));
            if g.below(3) == 0 {
                out.push(holds(cmp(CmpOp::Ult, k(5), k(g.below(10)))));
            }
        }
        // `!=` asserted false is an equality; asserted true it is not.
        17 => {
            let b = take(g);
            out.push(Constraint::require_false(cmp(CmpOp::Ne, atom(a), k(v))));
            out.push(holds(cmp(CmpOp::Ne, atom(b), k(0))));
        }
        // A thin hash-bucket inequality: few candidates land in it, so the
        // answer usually comes from a full-range random draw — the models
        // that pin which draws the randomised completion makes.
        18 => {
            let bucket = bin(
                BinOp::And,
                bin(BinOp::Mul, atom(a), k(0x9E37_79B1)),
                k(0xffff),
            );
            out.push(holds(cmp(CmpOp::Ugt, bucket, k(0xe000 + g.below(0x1800)))));
        }
        // The same over two atoms, so a try is two draws.
        19 => {
            let b = take(g);
            let bucket = bin(
                BinOp::And,
                bin(
                    BinOp::Mul,
                    bin(BinOp::Xor, atom(a), atom(b)),
                    k(0x9E37_79B1),
                ),
                k(0xff),
            );
            out.push(holds(cmp(CmpOp::Ugt, bucket, k(0xe0 + g.below(0x1c)))));
        }
        // Or-mask inversion, feasible only when the mask is inside the target.
        _ => {
            let m = g.next() & max & 0xff;
            let target = if g.below(3) == 0 { v } else { v | m };
            out.push(eq(bin(BinOp::Or, atom(a), k(m)), k(target)));
        }
    }
}

/// One answer, as the words that go into its digest.
fn outcome_words(t: &AtomTable, outcome: &SolveOutcome) -> Vec<u64> {
    match outcome {
        SolveOutcome::Sat(m) => std::iter::once(0).chain(model_words(t, m)).collect(),
        SolveOutcome::Unsat => vec![1],
        SolveOutcome::Unknown => vec![2],
    }
}

/// Every atom of the table: (present, value).
fn model_words<'a>(t: &'a AtomTable, m: &'a Model) -> impl Iterator<Item = u64> + 'a {
    t.ids().flat_map(|id| match m.get(id) {
        Some(v) => [1, v],
        None => [0, 0],
    })
}

/// How a query is put to the solver.
enum Ask {
    /// `solve_with_extra`: the constraints from this index on are `extra`.
    Extra(usize),
    /// `concretize` this expression under the constraints.
    Concretize(SymExpr),
    Solve,
}

struct Query {
    cs: Vec<Constraint>,
    ask: Ask,
    /// The block kinds the query was built from.
    kinds: Vec<u64>,
}

/// The corpus. It is built once per test and asked in whatever order: the
/// solver remembers components by the identity of their constraints, so
/// asking the *same* objects again is what a warm cache means.
fn corpus(t: &AtomTable) -> Vec<Query> {
    let mut g = Gen(20_180_820);
    (0..QUERIES)
        .map(|q| {
            let mut free: Vec<AtomId> = t.ids().collect();
            let mut cs: Vec<Constraint> = Vec::new();
            // Every ninth query puts a component that ends `Unknown` first
            // and an `Unsat` or a `Sat` one behind it; the rest draw 1–4
            // blocks, one in four of them a random-draw block (18, 19). The
            // last eight are nothing else.
            let kinds: Vec<u64> = match q % 9 {
                _ if q + 8 >= QUERIES => vec![18 + g.below(2)],
                0 => vec![10, [6, 0, 8][q / 9 % 3], 18],
                4 => vec![7, 19, [6, 11][q / 9 % 2]],
                _ => (0..1 + g.below(4))
                    .map(|_| match g.below(4) {
                        0 => 18 + g.below(2),
                        _ => g.below(BLOCK_KINDS),
                    })
                    .collect(),
            };
            for &kind in &kinds {
                block(kind, &mut g, t, &mut free, &mut cs);
            }
            let ask = match g.below(20) {
                0..=6 => Ask::Extra(g.below(cs.len() as u64 + 1) as usize),
                7..=9 => {
                    let (x, y) = (
                        g.below(t.len() as u64) as AtomId,
                        g.below(t.len() as u64) as AtomId,
                    );
                    Ask::Concretize(bin(BinOp::Xor, bin(BinOp::Shr, atom(x), k(3)), atom(y)))
                }
                _ => Ask::Solve,
            };
            Query { cs, ask, kinds }
        })
        .collect()
}

/// One query's answer: a verdict letter (`S`at, `U`nsat, `?` unknown,
/// `c`oncretized, `n`o value) and the digest of the verdict with its model
/// (every atom of the table) or value.
fn ask(solver: &mut Solver, t: &AtomTable, query: &Query) -> (char, u64) {
    let words = match &query.ask {
        Ask::Extra(split) => {
            let (base, extra) = query.cs.split_at(*split);
            let base = base.iter().cloned().collect();
            outcome_words(t, &solver.solve_with_extra(t, &base, extra))
        }
        Ask::Concretize(e) => match solver.concretize(t, &query.cs.iter().cloned().collect(), e) {
            Some(v) => vec![3, v],
            None => vec![4],
        },
        Ask::Solve => outcome_words(t, &solver.solve(t, &query.cs)),
    };
    (['S', 'U', '?', 'c', 'n'][words[0] as usize], digest(words))
}

/// The blocks a draw of the randomised completion can satisfy: the thin
/// buckets. (The needle, 10, and the four-atom sum, 13, get that far too,
/// but no draw ever hits them: they answer `?` whatever the seed.)
fn can_draw(query: &Query) -> bool {
    query.kinds.iter().any(|k| matches!(k, 18 | 19))
}

#[test]
fn every_query_answers_what_19ce1bd_answered_unless_it_draws() {
    let t = table();
    let corpus = corpus(&t);
    let mut solver = Solver::default();
    let answers: Vec<(char, u64)> = corpus.iter().map(|q| ask(&mut solver, &t, q)).collect();

    let mut reseeded = RESEEDED.iter().peekable();
    let mut old_digests = DIGESTS_AT_19CE1BD.iter();
    let mut untouched_draws = 0;
    for (q, (&(verdict, got), old_verdict)) in
        answers.iter().zip(VERDICTS_AT_19CE1BD.chars()).enumerate()
    {
        // 19ce1bd's digest list has one entry per answer that carried a
        // model or a value there.
        let old_digest = matches!(old_verdict, 'S' | 'c').then(|| *old_digests.next().unwrap());
        let carries = matches!(verdict, 'S' | 'c');
        match reseeded.next_if(|r| r.0 == q) {
            None => {
                assert_eq!(verdict, old_verdict, "query {q}: the verdict changed");
                if carries {
                    assert_eq!(
                        Some(got),
                        old_digest,
                        "query {q} ({verdict}): the model changed"
                    );
                }
                untouched_draws += usize::from(can_draw(&corpus[q]));
            }
            Some(&(_, new_verdict, new_digest)) => {
                assert!(
                    can_draw(&corpus[q]),
                    "query {q} is listed as reseeded but no block of it ({:?}) draws",
                    corpus[q].kinds
                );
                assert!(
                    new_verdict != old_verdict || Some(new_digest) != old_digest,
                    "query {q} is listed as reseeded but answers what 19ce1bd did"
                );
                assert_eq!(verdict, new_verdict, "query {q}: the verdict changed");
                if carries {
                    assert_eq!(got, new_digest, "query {q} ({verdict}): the model changed");
                }
            }
        }
    }
    assert!(reseeded.next().is_none(), "RESEEDED is not in query order");
    assert_eq!(
        solver.stats(),
        SolverStats {
            sat: STATS[0],
            unsat: STATS[1],
            unknown: STATS[2],
        }
    );
    // The corpus is only a pin if it reaches every kind of answer, and the
    // history half only if queries that may draw are on both sides of it.
    for (letter, at_least) in [('S', 60), ('U', 40), ('?', 40), ('c', 10), ('n', 10)] {
        let n = answers.iter().filter(|a| a.0 == letter).count();
        assert!(n >= at_least, "only {n} '{letter}' answers in the corpus");
    }
    assert!(RESEEDED.len() >= 30 && untouched_draws >= 30);
}

/// Asks distinct one-constraint queries until the solver has dropped what it
/// remembered: a probe it answered from memory is solved again.
fn make_it_forget(solver: &mut Solver, t: &AtomTable) {
    let probe = [eq(atom(0), k(1))];
    solver.solve(t, &probe);
    let solved_again = |solver: &mut Solver| {
        let before = solver.component_stats();
        solver.solve(t, &probe);
        solver.component_stats().since(before).solved == 1
    };
    assert!(!solved_again(solver), "the probe was not remembered");
    for filler in 2..1 << 16 {
        solver.solve(t, &[eq(atom(0), k(filler))]);
        if solved_again(solver) {
            return;
        }
    }
    panic!("65,534 distinct components later the solver still remembers the first");
}

#[test]
fn an_answer_depends_on_the_query_alone() {
    let t = table();
    let corpus = corpus(&t);
    // Cold: every query on a solver of its own.
    let alone: Vec<(char, u64)> = corpus
        .iter()
        .map(|q| ask(&mut Solver::default(), &t, q))
        .collect();
    let check = |what: &str, q: usize, got: (char, u64)| {
        assert_eq!(
            got, alone[q],
            "query {q} {what} answers differently than alone"
        );
    };

    // After every prefix of the corpus, then warm: a second pass over the
    // same constraint objects is answered from memory (all of it while the
    // corpus fits the cache; the bar leaves room for a smaller one).
    let mut solver = Solver::default();
    for (q, query) in corpus.iter().enumerate() {
        check(
            "after the queries before it",
            q,
            ask(&mut solver, &t, query),
        );
    }
    let first_pass = solver.component_stats();
    assert_eq!(first_pass.reused, 0, "no two queries share a constraint");
    for (q, query) in corpus.iter().enumerate() {
        check("asked a second time", q, ask(&mut solver, &t, query));
    }
    let second_pass = solver.component_stats().since(first_pass);
    assert!(
        second_pass.reused > 3 * second_pass.solved,
        "a second pass mostly re-solved: {second_pass:?}"
    );

    // Shuffled, on one solver that is made to forget everything three times
    // on the way.
    let mut g = Gen(7);
    let mut order: Vec<usize> = (0..QUERIES).collect();
    for i in (1..QUERIES).rev() {
        order.swap(i, g.below(i as u64 + 1) as usize);
    }
    let mut solver = Solver::default();
    for (n, &q) in order.iter().enumerate() {
        if n % 100 == 50 {
            make_it_forget(&mut solver, &t);
        }
        check("in a shuffled corpus", q, ask(&mut solver, &t, &corpus[q]));
    }
}

#[test]
fn a_path_grown_push_by_push_answers_what_the_flat_query_does() {
    let t = table();
    let corpus = corpus(&t);
    let mut solver = Solver::default();
    let flat = |cs: &[Constraint]| Solver::default().solve(&t, cs);
    let (mut steps, mut ties, mut tied_digest) = (0, [0usize; 3], 0u64);
    for (q, query) in corpus.iter().enumerate() {
        let mut path = ConstraintSet::new();
        for (i, c) in query.cs.iter().enumerate() {
            let so_far = &query.cs[..=i];
            // Between pushes: the path as it stands and the next constraint.
            assert_eq!(
                solver.solve_with_extra(&t, &path, std::slice::from_ref(c)),
                flat(so_far),
                "query {q}, constraint {i}, tentative"
            );
            // Both sides of a fork take it, and neither is the other's.
            let mut fork = path.clone();
            for side in [&mut path, &mut fork] {
                side.push(c.clone());
                assert_eq!(
                    solver.solve_with_extra(&t, side, &[]),
                    flat(so_far),
                    "query {q}, constraint {i}, pushed"
                );
            }
            steps += 1;
        }
        assert_eq!(path.len(), query.cs.len());

        // The same constraints dealt out so that the blocks interleave, and
        // then tied block to block, and to an atom nothing else constrains,
        // through a thin hash bucket: two components whose members
        // alternate become one that only the randomised completion can
        // answer — and its draws are seeded by the members in query order.
        // First in the query, then on a fork of the path; and against what
        // batch slicing answered.
        let (evens, odds) = (
            query.cs.iter().step_by(2),
            query.cs.iter().skip(1).step_by(2),
        );
        let woven: Vec<Constraint> = evens.chain(odds).cloned().collect();
        let path: ConstraintSet = woven.iter().cloned().collect();
        assert_eq!(solver.solve_with_extra(&t, &path, &[]), flat(&woven));
        let mut firsts = woven.iter().filter_map(|c| c.atoms().first().copied());
        let free = t
            .ids()
            .find(|z| woven.iter().all(|c| !c.atoms().contains(z)));
        let (Some(x), Some(z)) = (firsts.next(), free) else {
            continue;
        };
        for y in firsts.filter(|&y| y != x) {
            let tangle = bin(BinOp::Xor, bin(BinOp::Xor, atom(x), atom(y)), atom(z));
            let bucket = bin(BinOp::And, bin(BinOp::Mul, tangle, k(0x9E37_79B1)), k(0xff));
            let tie = holds(cmp(CmpOp::Ugt, bucket, k(0xe0 + (q as u64 % 0x1c))));
            let tied: Vec<Constraint> = woven.iter().chain([&tie]).cloned().collect();
            let expected = flat(&tied);
            assert_eq!(
                solver.solve_with_extra(&t, &path, std::slice::from_ref(&tie)),
                expected,
                "query {q}, atoms {x} and {y} tied tentatively"
            );
            let mut fork = path.clone();
            fork.push(tie);
            assert_eq!(
                solver.solve_with_extra(&t, &fork, &[]),
                expected,
                "query {q}, atoms {x} and {y} tied"
            );
            ties[outcome_words(&t, &expected)[0] as usize] += 1;
            tied_digest = digest([tied_digest, digest(outcome_words(&t, &expected))]);
        }
    }
    assert!(steps >= 1000, "{steps} steps");
    assert_eq!(
        (ties, tied_digest),
        TIED_AT_1C4C695,
        "a tied query answers differently than under batch slicing"
    );
}

/// The tied queries of `a_path_grown_push_by_push_…` as 1c4c695 answered
/// them — the last commit that partitioned a query from nothing: how many
/// `Sat`, `Unsat` and `Unknown`, and the digest of all answers in order.
const TIED_AT_1C4C695: ([usize; 3], u64) = ([136, 157, 555], 0xc3d6_99c3_3233_38ba);

/// `SolverStats` after the last query: sat, unsat, unknown (as of the commit
/// that reseeded the completion; 125, 55, 180 at 19ce1bd).
const STATS: [u64; 3] = [126, 55, 179];

/// One letter per query, as answered at 19ce1bd.
const VERDICTS_AT_19CE1BD: &str = "\
    nSnnn???S??cc??S?S?cS?U?SSUU?cS?n????S?UUn?S??S?S??SSSUS?nUn\
    c?????n?S??c???SUU??UUn?Sn?????U??USSnSn?????SS?U??Sn?S??n?S\
    n??S???cS?n??USUcS??S?US?S??Un?SS??SS????cU?ccUUS?S?SSS?S?SS\
    ??SSUSS?SUS?S?S?????USUSU?SnSc?nUSS?U???n??nS?nSS?SUSn??cUUS\
    USSUS????n?S???SU?ScUnnnS?S???Uc??UnUc?nSSc??????ScSUSSS?nS?\
    S?SSSS????n??S???SS?SS??U?S?U?U???ScS??Sn??Sn?n??USUSSSSSSSc\
";

/// One digest per answer that carried a model or a value at 19ce1bd — its
/// `S` and `c` queries — in query order.
#[rustfmt::skip]
const DIGESTS_AT_19CE1BD: [u64; 125] = [
    0x2c6dd297545d45c3, 0x2fae81e860d4267d, 0x0835ee07b4ee5316, 0x0835ee07b4ee5316,
    0xcbcec95f5c9a6d13, 0x98e5a518ec09a477, 0x08212607b4cb033e, 0x635ab0db3454b3b3,
    0x13c01473f2f18365, 0x307984b4c38a7d8f, 0x415cfa5c2629e676, 0xe4d60dbfb6f2e45c,
    0xd49861ddea9cbc1e, 0xf262bb9976674f6f, 0x1e39b080346e34ab, 0xb91cfd3924fbcf09,
    0x8d0976a7a6953a41, 0xb81e8ebcf4598797, 0x2c7ef22fe7d04ae2, 0x4cc3283b5fe74a6a,
    0x3d3c9a4d2508ab0d, 0xe2dd32178b7f8653, 0x0835ee07b4ee5316, 0x936af6f90cfe50ea,
    0x475487716d171f1d, 0x0b6907ad1989ce59, 0x50f4f19448d6db18, 0x1df2edbe8ed51c26,
    0xb03eefeecd78b693, 0xd884df502f017bc0, 0xac3ba7521628c97a, 0xa5bb5b73d8f09363,
    0xe19b37844d26ea2d, 0x22b6b5019ee45c03, 0x0835f207b4ee59e2, 0x910fb68fcdc3ca34,
    0x435f8bfa36d00426, 0x0835ee07b4ee5316, 0x6c36b52bd6e98122, 0x141bde8120d01539,
    0xf88a3121da3d14bd, 0x9af261ac7acd6d91, 0xd483eaa73a2c23f4, 0xafcd451f28fac87a,
    0xc322c920696b12bd, 0x1371a01323587e43, 0x0835ee07b4ee5316, 0x0835ee07b4ee5316,
    0x0835ee07b4ee5316, 0xdfd49131e025d1a9, 0x60eef4dcbbf13d0c, 0x61fa341719ec5cb0,
    0x069c4ed6fbe2f664, 0x0b05227aff3c02fd, 0x98caa7f8b3afb258, 0xd08b9afba7d2f61c,
    0x2df9d7ddef5cf1b1, 0x057d0d7c0b06d411, 0xc7eefe09a9c4d576, 0x40fde9e8c4c4a1fc,
    0xc9c8bdb9f7aaf397, 0xf3de331b67432f67, 0x1815dee068ff898a, 0xdd5c1569f485da26,
    0xadfb37146ffadc29, 0x2e59e341b67755f9, 0xff0b0ee46029da8f, 0xdbe2ea458531858f,
    0x016bc944de0970c1, 0x0835ee07b4ee5316, 0x991e2d4483022ed1, 0x76665ad5e14f90c0,
    0xc8d84906d03abc64, 0x814b72ca48afeb27, 0x88e27bf26c50f79e, 0x3c3d232653d474a6,
    0xfb6acd26f4a557e2, 0x0835ee07b4ee5316, 0x78ae6083f152bc3b, 0x36a790766a2d513c,
    0x1e716f3bd85aa66a, 0xd972e9b244996814, 0xe43afe5849e9e1f3, 0x001a9ba7af9f01b2,
    0x8415d02b13590ba9, 0x0835eb07b4ee4dfd, 0x25e877eae09ab008, 0xa93d5d4f98e317d2,
    0x0835ee07b4ee5316, 0x0835ee07b4ee5316, 0x7981099e2ea0b150, 0xb521e82a8ba7ad0a,
    0x0835ee07b4ee5316, 0xdd808dfa6f53cf32, 0x07b4f607b4132dae, 0x57109c028283168f,
    0x28c9f8511197b216, 0xaf8a4cab80e7a185, 0x379b7415dfecb1f0, 0xc6a1b54a3efeb325,
    0xf039edeffcb46b95, 0x3ea9ddd2e2ed9bad, 0x4a2bf28dc9a8196e, 0xb37cefe7cdd7755b,
    0xd34c3aafd9387eec, 0xd83874b8b361fe28, 0x8101e4765bcfd3b2, 0x3dc648a6982e86c4,
    0x5a63b2e9bb64a5f3, 0xdd6ae8c764ca2958, 0x68db9ea4ebdfd862, 0x0ae7ca98e6224026,
    0x0835ee07b4ee5316, 0xdd5b0bd5de750eae, 0x5486bde4a9b48c0d, 0x10a9e211e8116c70,
    0x830f70bea09f32be, 0x8397eb53f284a28b, 0xe519b96adecb975d, 0x571e99f6bf22007d,
    0xe16b74f4572e5a92, 0x5b0723ca680f4c14, 0xddb8dab1cb8e9521, 0xf336989e7fab7a72,
    0x0835ee07b4ee5316,
];

/// The queries that answer differently since the randomised completion is
/// seeded by the component: query, verdict, digest (0 without a model or
/// value). Captured once, at the commit that reseeded it.
#[rustfmt::skip]
const RESEEDED: [(usize, char, u64); 51] = [
    (20, 'S', 0x48853f94b005482b), (21, 'S', 0xf02cde02661644d8), (30, 'S', 0xf320bf23acec7ebe),
    (35, 'S', 0xd35d6f9d080a19fb), (44, 'S', 0x23241e6239ce6c53), (46, '?', 0x0000000000000000),
    (47, 'S', 0x9b51e129234681bf), (53, '?', 0x0000000000000000), (79, 'S', 0xf54d5e679b4a61b5),
    (95, '?', 0x0000000000000000), (96, 'S', 0x463a80db9f51db96), (98, 'S', 0x2a4076f2362db8db),
    (101, 'S', 0xe2b5f45ba70aa282), (104, 'S', 0x63f1ccb607905b1b), (106, 'S', 0x82dd844edc7f9dfb),
    (118, 'S', 0x7cec710c67a1c7d3), (146, 'S', 0x7a0e0fd9123a1ef4), (164, 'n', 0x0000000000000000),
    (182, '?', 0x0000000000000000), (186, 'S', 0x6ad2d641a6e00404), (188, '?', 0x0000000000000000),
    (190, 'S', 0x2968d4e072cf86e0), (192, '?', 0x0000000000000000), (195, 'S', 0x2f3b9a5b2539ca92),
    (224, 'S', 0x1726803f5737903f), (227, 'S', 0x3a6fbb9f86ead85b), (232, 'S', 0xbc4a67c36f27042d),
    (246, 'S', 0x42938774accc4234), (251, '?', 0x0000000000000000), (254, 'S', 0xfec3720f45e1dfe0),
    (259, 'n', 0x0000000000000000), (264, 'S', 0x94ec45425f0f575b), (269, 'S', 0xff51362074ec5776),
    (277, 'n', 0x0000000000000000), (281, 'S', 0x41509de01600aaa2), (287, 'S', 0xe17b448497499852),
    (290, 'c', 0x0874a907b558ead7), (295, 'S', 0xd0a12314839ad6d5), (298, 'S', 0xd31a1c03621f5138),
    (302, 'S', 0xf62948a74238597e), (304, '?', 0x0000000000000000), (309, 'S', 0x52612edea693b212),
    (326, 'S', 0x8d3a75ebb415a7ae), (334, 'S', 0x6a5fcbb5838b9835), (352, 'S', 0x10488ce33a3b18f6),
    (354, '?', 0x0000000000000000), (355, '?', 0x0000000000000000), (356, 'S', 0x4f542900403ab8f4),
    (357, 'S', 0xa5c9398c33acfa1b), (358, 'S', 0x36d9f379b429e8b8), (359, 'n', 0x0000000000000000),
];
