//! Constraint-solver and hash-inversion substrate costs (§3.5).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use castan_core::expr::Constraint;
use castan_core::rainbow::{ExhaustiveInverter, FlowKeySpace, HashInverter, RainbowTable};
use castan_core::state::ConstraintSet;
use castan_core::{AnalysisConfig, AtomTable, Castan, SolveOutcome, Solver, SymExpr};
use castan_ir::{BinOp, CmpOp, HashFunc};
use castan_mem::{ContentionCatalog, HierarchyConfig, MemoryHierarchy, LINE_SIZE};
use castan_nf::{nf_by_id, NfId};
use castan_packet::{Ipv4Addr, PacketField};

fn bench_solver(c: &mut Criterion) {
    c.bench_function("solve_affine_index_chain", |b| {
        let mut atoms = AtomTable::new();
        let ip = atoms.field_atom(0, PacketField::DstIp);
        let port = atoms.field_atom(0, PacketField::DstPort);
        let addr = SymExpr::bin(
            BinOp::Add,
            SymExpr::constant(0x4000_0000),
            SymExpr::bin(
                BinOp::Mul,
                SymExpr::bin(BinOp::Shr, SymExpr::atom(ip), SymExpr::constant(5)),
                SymExpr::constant(4),
            ),
        );
        let constraints = vec![
            Constraint::require_true(SymExpr::cmp(
                CmpOp::Eq,
                addr,
                SymExpr::constant(0x4000_1230),
            )),
            Constraint::require_true(SymExpr::cmp(
                CmpOp::Eq,
                SymExpr::atom(port),
                SymExpr::constant(80),
            )),
        ];
        let mut solver = Solver::default();
        b.iter(|| black_box(solver.solve(&atoms, &constraints)))
    });
}

/// What the engine actually asks: the path constraint of a finished quick
/// NAT analysis (tens of constraints, one component per packet field and
/// havoc) with the engine put back in front of the path's last table access,
/// probing one cache line for it the two ways `resolve_symbolic_address`
/// does. The exact pin inverts to a `Sat` model over the whole atom table;
/// the within-the-line pair has no equality to invert and no candidate that
/// is a bucket index, so its component runs the backtracking pass and the
/// random completion to an `Unknown` — the engine's most common expensive
/// answer. The pins are built anew for every query, as the engine builds
/// them: the path constraint has answered before, the pin never, so what is
/// timed is one fresh component plus reading the others off the path.
/// `resolve_sweep` is the whole shape of one `resolve_symbolic_address`
/// call: seven candidate lines, each probed exactly and then within the
/// line — 14 queries an iteration over the one path constraint.
/// `fork_push` is what `assume` on a forked state costs now that the
/// slicing is kept up there: a clone of the path and a push of the pin.
fn bench_path_constraint(c: &mut Criterion) {
    let nf = nf_by_id(NfId::NatHashTable);
    let catalog = {
        let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), 1);
        let table = &nf.data_regions[0];
        let lines = (0..2048u64).map(|i| table.base + (i * 8 * 64) % table.len);
        ContentionCatalog::from_ground_truth(&mut hier, lines)
    };
    let (_, state) = Castan::new(AnalysisConfig::quick()).analyze_detailed(&nf, &catalog);
    let state = state.expect("the quick NAT analysis completes a path");
    let last = state.constraints.last().expect("a path constraint");
    let (SymExpr::Cmp(CmpOp::Eq, addr, line), true) = (last.expr(), last.expected()) else {
        panic!("the NAT path ends on an address pin, not {last:?}");
    };
    let line = line.as_const().expect("pinned to a concrete line");
    let base: ConstraintSet = state
        .constraints
        .iter()
        .filter(|c| c.atoms() != last.atoms())
        .cloned()
        .collect();
    let pin = |op, bound| {
        Constraint::require_true(SymExpr::cmp(
            op,
            SymExpr::clone(addr),
            SymExpr::constant(bound),
        ))
    };
    let exact = |line| [pin(CmpOp::Eq, line)];
    let within = |line| [pin(CmpOp::Uge, line), pin(CmpOp::Ult, line + LINE_SIZE)];

    let mut solver = Solver::default();
    let sat = solver.solve_with_extra(&state.atoms, &base, &exact(line));
    let unknown = solver.solve_with_extra(&state.atoms, &base, &within(line));
    assert!(
        base.len() >= 20 && sat.is_sat() && unknown == SolveOutcome::Unknown,
        "the case no longer measures what it says: {} constraints, exact pin {}, line pin {unknown:?}",
        base.len(),
        if sat.is_sat() { "sat" } else { "not sat" },
    );

    let mut group = c.benchmark_group("path_constraint");
    group.bench_function("exact_pin", |b| {
        b.iter(|| black_box(solver.solve_with_extra(&state.atoms, &base, &exact(line))))
    });
    group.bench_function("line_pin", |b| {
        b.iter(|| black_box(solver.solve_with_extra(&state.atoms, &base, &within(line))))
    });
    group.bench_function("resolve_sweep", |b| {
        b.iter(|| {
            for candidate in (0..7).map(|i| line + i * LINE_SIZE) {
                black_box(solver.solve_with_extra(&state.atoms, &base, &exact(candidate)));
                black_box(solver.solve_with_extra(&state.atoms, &base, &within(candidate)));
            }
        })
    });
    group.bench_function("fork_push", |b| {
        b.iter(|| {
            let mut child = base.clone();
            child.push(pin(CmpOp::Eq, line));
            black_box(child)
        })
    });
    group.finish();
}

fn bench_inverters(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_inversion");
    group.sample_size(10);
    let space = FlowKeySpace::udp(Ipv4Addr::new(192, 168, 1, 1), 80, 50_000);
    group.bench_function("exhaustive_build_50k", |b| {
        b.iter(|| black_box(ExhaustiveInverter::build(HashFunc::Flow16, space.clone())))
    });
    let table = RainbowTable::build(HashFunc::Flow16, space.clone(), 5_000, 16);
    group.bench_function("rainbow_invert", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let target = HashFunc::Flow16.apply(&space.key(i % 50_000));
            black_box(table.invert(target, 2))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solver,
    bench_path_constraint,
    bench_inverters
);
criterion_main!(benches);
