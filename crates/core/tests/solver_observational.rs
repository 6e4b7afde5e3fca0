//! Host-speed work inside `castan-core::solve` must be invisible to every
//! caller: same verdict, same model, same position in the solver's random
//! stream after every query. This runs a fixed-seed generated corpus of
//! queries in sequence on *one* [`Solver`] — so a single extra or missing
//! random draw in query k shifts every randomised answer after it — and
//! compares each answer against digests captured at commit 19ce1bd, before
//! the query path was rewritten.
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
        // that pin the solver's position in its random stream.
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

/// Runs the corpus; one digest and one verdict letter per query.
fn run_corpus() -> (Vec<u64>, String, SolverStats) {
    let t = table();
    let mut g = Gen(20_180_820);
    let mut solver = Solver::default();
    let mut digests = Vec::with_capacity(QUERIES);
    let mut verdicts = String::with_capacity(QUERIES);
    for q in 0..QUERIES {
        let mut free: Vec<AtomId> = t.ids().collect();
        let mut cs: Vec<Constraint> = Vec::new();
        // Every ninth query puts a component that ends `Unknown` first and
        // an `Unsat` or a `Sat` one behind it; the rest draw 1–4 blocks,
        // one in four of them a random-draw block (18, 19). The last eight
        // are nothing else, so the stream's final position is pinned too.
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
        for kind in kinds {
            block(kind, &mut g, &t, &mut free, &mut cs);
        }
        let words = match g.below(20) {
            // `solve_with_extra`: the tail of the system arrives as `extra`.
            0..=6 => {
                let split = g.below(cs.len() as u64 + 1) as usize;
                let (base, extra) = cs.split_at(split);
                outcome_words(&t, &solver.solve_with_extra(&t, base, extra))
            }
            // `concretize` an expression over two atoms of the table.
            7..=9 => {
                let (x, y) = (
                    g.below(t.len() as u64) as AtomId,
                    g.below(t.len() as u64) as AtomId,
                );
                let e = bin(BinOp::Xor, bin(BinOp::Shr, atom(x), k(3)), atom(y));
                match solver.concretize(&t, &cs, &e) {
                    Some(v) => vec![3, v],
                    None => vec![4],
                }
            }
            _ => outcome_words(&t, &solver.solve(&t, &cs)),
        };
        verdicts.push(match words[0] {
            0 => 'S',
            1 => 'U',
            2 => '?',
            3 => 'c',
            _ => 'n',
        });
        digests.push(digest(words));
    }
    (digests, verdicts, solver.stats())
}

#[test]
fn every_query_answers_what_the_parent_commit_answered() {
    let (digests, verdicts, stats) = run_corpus();
    assert_eq!(verdicts, EXPECTED_VERDICTS, "a verdict changed");
    let valued = (0..QUERIES).filter(|&q| matches!(&verdicts[q..=q], "S" | "c"));
    for (q, want) in valued.zip(EXPECTED_DIGESTS) {
        assert_eq!(
            digests[q],
            want,
            "query {q} ({}): same verdict, different model — or a different \
             position in the random stream inherited from an earlier query",
            &verdicts[q..=q]
        );
    }
    assert_eq!(
        stats,
        SolverStats {
            sat: EXPECTED_STATS[0],
            unsat: EXPECTED_STATS[1],
            unknown: EXPECTED_STATS[2],
        }
    );
    // The corpus is only a pin if it reaches every kind of answer.
    for (letter, at_least) in [('S', 60), ('U', 40), ('?', 40), ('c', 10), ('n', 10)] {
        let n = verdicts.chars().filter(|c| *c == letter).count();
        assert!(n >= at_least, "only {n} '{letter}' answers in the corpus");
    }
}

/// `SolverStats` after the last query: sat, unsat, unknown.
const EXPECTED_STATS: [u64; 3] = [125, 55, 180];

/// One letter per query: `S`at, `U`nsat, `?` unknown, `c`oncretized, `n`o value.
const EXPECTED_VERDICTS: &str = "\
    nSnnn???S??cc??S?S?cS?U?SSUU?cS?n????S?UUn?S??S?S??SSSUS?nUn\
    c?????n?S??c???SUU??UUn?Sn?????U??USSnSn?????SS?U??Sn?S??n?S\
    n??S???cS?n??USUcS??S?US?S??Un?SS??SS????cU?ccUUS?S?SSS?S?SS\
    ??SSUSS?SUS?S?S?????USUSU?SnSc?nUSS?U???n??nS?nSS?SUSn??cUUS\
    USSUS????n?S???SU?ScUnnnS?S???Uc??UnUc?nSSc??????ScSUSSS?nS?\
    S?SSSS????n??S???SS?SS??U?S?U?U???ScS??Sn??Sn?n??USUSSSSSSSc\
";

/// One digest per answer that carries a model (every atom of the table) or a
/// value — the `S` and `c` queries — in query order.
#[rustfmt::skip]
const EXPECTED_DIGESTS: [u64; 125] = [
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
