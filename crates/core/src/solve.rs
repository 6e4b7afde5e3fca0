//! The constraint solver.
//!
//! The original CASTAN delegates to KLEE's SMT solver. The constraints this
//! engine generates are far more structured than general SMT: equalities and
//! orderings between packet-field atoms, constants, affine index
//! computations, and havoced hash outputs. This purpose-built solver covers
//! that fragment with three cooperating strategies:
//!
//! 1. **propagation** — repeatedly pin atoms from equality constraints in
//!    which only one atom is still free, inverting the surrounding affine /
//!    bitwise operators;
//! 2. **candidate enumeration** — collect the constants mentioned by the
//!    constraints (plus boundary values) as likely values for each atom;
//! 3. **randomised completion** — bounded random search over the candidate
//!    sets and the atoms' full ranges for whatever propagation leaves open.
//!    Its generator is seeded from [`SolverConfig::seed`] and the structural
//!    fingerprints of the conjuncts being solved, not drawn from a stream the
//!    solver carries from query to query: what a system of conjuncts answers
//!    then depends on that system alone — not on which queries came before
//!    it, on which worker thread asked, or on whether the answer was
//!    remembered.
//!
//! The result is either a concrete [`Model`], a proof of unsatisfiability
//! for the trivially-contradictory cases, or `Unknown` when the search
//! budget is exhausted (treated conservatively by callers, like a solver
//! timeout in the original tool).
//!
//! Before any of that a query is sliced into independent components (KLEE's
//! independence optimisation) — and the slicing is carried, not recomputed.
//! The engine asks a dozen queries in a row over one path constraint with a
//! different address pin each, then forks, pushes one constraint and asks
//! again, so the path constraint ([`ConstraintSet`]) keeps its own
//! components up to date as it grows and remembers what each answered. A
//! query groups only its tentative constraints with the path components
//! their atoms touch, solves that one merged component, and reads every
//! other answer off the path: no key, no hash, no allocation.
//!
//! Because a component's answer is a pure function of its conjuncts, the
//! solver also remembers the last few components it solved (KLEE's
//! counterexample cache, keyed exactly). Since the paths carry their
//! answers, the cache only sees components that are new to their path: the
//! merged one of each query, and each path component once, right after the
//! push that formed it — which is where it still hits, because the
//! feasibility query that preceded the push solved exactly that component.
//! On the `synth-chain` benchmark that is 5.6 k hits in 58 k look-ups
//! (9.6 %), beside 510 k answers read off the path; before the paths
//! carried them it was 514 k hits in 568 k (90.4 %).

use std::collections::HashMap;
use std::sync::Arc;

use castan_ir::BinOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::expr::{mix, AtomId, AtomTable, Conjunct, Constraint, SymExpr};
use crate::state::{ConstraintSet, Member};

/// An assignment of atoms to concrete values, dense over [`AtomId`].
///
/// A `Sat` answer covers every atom of the table the query was asked about
/// (atoms no constraint mentions are 0), so the only atoms a model can be
/// missing are those created after it was computed — and all of them in the
/// empty model, which is how synthesis says "no assignment known" and falls
/// back to builder defaults. Absent is therefore not the same as 0:
/// [`Model::get`] tells the two apart, [`Model::value`] does not.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: Vec<u64>,
}

impl Model {
    /// The empty model: every atom absent.
    pub fn new() -> Model {
        Model::default()
    }

    /// The value of `id`, if the model covers it.
    pub fn get(&self, id: AtomId) -> Option<u64> {
        self.values.get(id as usize).copied()
    }

    /// The value of `id`, 0 if the model does not cover it.
    pub fn value(&self, id: AtomId) -> u64 {
        self.get(id).unwrap_or(0)
    }

    /// Evaluates `expr` under the model.
    pub fn eval(&self, expr: &SymExpr) -> u64 {
        expr.eval(&|id| self.value(id))
    }

    /// True if `constraint` holds under the model.
    pub fn satisfies(&self, constraint: &Constraint) -> bool {
        constraint.holds(&|id| self.value(id))
    }
}

/// Result of a solver query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The constraints are contradictory.
    Unsat,
    /// The search budget was exhausted without a verdict.
    Unknown,
}

impl SolveOutcome {
    /// True for `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(self) -> Option<Model> {
        match self {
            SolveOutcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Outcome counts of the queries a [`Solver`] has answered — one count per
/// *outer* query ([`Solver::solve`], [`Solver::solve_with_extra`],
/// [`Solver::is_satisfiable`], [`Solver::concretize`]); the per-component
/// sub-solves of independence slicing are not individually counted. The
/// counts are pure functions of the queries asked, so they are as
/// deterministic as the engine that asks them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered `Unsat`.
    pub unsat: u64,
    /// Queries that exhausted their budget (`Unknown`).
    pub unknown: u64,
}

impl SolverStats {
    /// Total queries answered.
    pub fn total(&self) -> u64 {
        self.sat + self.unsat + self.unknown
    }

    /// Adds another stats block into this one.
    pub fn absorb(&mut self, other: SolverStats) {
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown += other.unknown;
    }

    /// The queries answered after an `earlier` snapshot of the same solver
    /// (saturating, so a mismatched snapshot cannot underflow).
    pub fn since(&self, earlier: SolverStats) -> SolverStats {
        SolverStats {
            sat: self.sat.saturating_sub(earlier.sat),
            unsat: self.unsat.saturating_sub(earlier.unsat),
            unknown: self.unknown.saturating_sub(earlier.unknown),
        }
    }
}

/// How a [`Solver`] came by the answers of the components of its queries.
/// Profiling data, unlike [`SolverStats`]: what a solver remembers depends
/// on what it was asked before, and which worker fills a path component's
/// slot on who gets there first, so with several workers the split depends
/// on scheduling (the answers do not).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentStats {
    /// Components solved.
    pub solved: u64,
    /// Components answered from the cache.
    pub reused: u64,
    /// Components of the path that the query left alone and that had
    /// answered before: read from the path, no key, no look-up.
    pub carried: u64,
}

impl ComponentStats {
    /// Adds another stats block into this one.
    pub fn absorb(&mut self, other: ComponentStats) {
        self.solved += other.solved;
        self.reused += other.reused;
        self.carried += other.carried;
    }

    /// The components met after an `earlier` snapshot of the same solver.
    pub fn since(&self, earlier: ComponentStats) -> ComponentStats {
        ComponentStats {
            solved: self.solved.saturating_sub(earlier.solved),
            reused: self.reused.saturating_sub(earlier.reused),
            carried: self.carried.saturating_sub(earlier.carried),
        }
    }
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Random completion attempts before giving up.
    pub random_tries: u32,
    /// RNG seed (analyses are reproducible).
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            random_tries: 256,
            seed: 0xCA57A,
        }
    }
}

/// The solver.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    stats: SolverStats,
    components: Components,
    slicing: Slicing,
    /// The answer under construction, by `AtomId`.
    values: Vec<u64>,
}

impl Solver {
    /// Creates a solver.
    pub fn new(config: SolverConfig) -> Self {
        Solver {
            components: Components {
                config,
                ..Components::default()
            },
            ..Solver::default()
        }
    }

    /// Outcome counts of every outer query this solver has answered.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Components solved, reused and carried so far (see
    /// [`ComponentStats`]).
    pub fn component_stats(&self) -> ComponentStats {
        self.components.stats
    }

    /// Solves the conjunction of `constraints`: slices them as a path that
    /// assumed them one by one would have, and asks that.
    pub fn solve(&mut self, atoms: &AtomTable, constraints: &[Constraint]) -> SolveOutcome {
        let path: ConstraintSet = constraints.iter().cloned().collect();
        self.solve_with_extra(atoms, &path, &[])
    }

    /// Solves the conjunction of `base ∧ extra` — the shape of a
    /// path-feasibility query (shared path constraint plus a tentative
    /// branch condition). Only the components of `base` that `extra`'s atoms
    /// touch are looked at again; the rest answer what they answered before.
    pub fn solve_with_extra(
        &mut self,
        atoms: &AtomTable,
        base: &ConstraintSet,
        extra: &[Constraint],
    ) -> SolveOutcome {
        let outcome = self.solve_with_extra_inner(atoms, base, extra);
        match &outcome {
            SolveOutcome::Sat(model) => {
                self.stats.sat += 1;
                // Self-check: the answer was assembled per conjunct and per
                // component, most of them remembered, so hold it against the
                // query as it was asked.
                if cfg!(debug_assertions) {
                    for (i, c) in base.iter().chain(extra).enumerate() {
                        assert!(
                            model.satisfies(c),
                            "solver self-check: the Sat model violates constraint {i} \
                             of {} (base {}, extra {}): {c:?}",
                            base.len() + extra.len(),
                            base.len(),
                            extra.len(),
                        );
                    }
                }
            }
            SolveOutcome::Unsat => self.stats.unsat += 1,
            SolveOutcome::Unknown => self.stats.unknown += 1,
        }
        outcome
    }

    fn solve_with_extra_inner(
        &mut self,
        table: &AtomTable,
        base: &ConstraintSet,
        extra: &[Constraint],
    ) -> SolveOutcome {
        let Solver {
            components,
            slicing,
            values,
            ..
        } = self;
        let asked = Asked { path: base, extra };

        // Independence slicing (the optimization KLEE applies before every
        // query, which the original tool inherits): constraints that share
        // no atoms — different packets of the sequence, unrelated havocs —
        // form independent systems, and the conjunction is satisfiable iff
        // every connected component is. Solving per component is both much
        // cheaper (propagation and the randomised completion touch only
        // the component's constraints) and more complete: a random search
        // over a 3-atom component succeeds where a joint draw across 40
        // atoms starves its budget. The path carries its components, so all
        // that is sliced here is `extra`.
        if base.falsified() || !slicing.group(asked) {
            return SolveOutcome::Unsat;
        }

        // Components are met in the order of their first conjuncts: the
        // path's, each in its place — merged with the group that touches it,
        // where the first of that group's path components sits — then the
        // groups that touch none. Component models merge disjointly, over
        // zeros for the atoms no constraint mentions.
        values.clear();
        values.resize(table.len(), 0);
        let mut unknown = false;
        let mut settle = |atoms: &[AtomId], answer: &Answer| match answer.verdict {
            // Once the query cannot end `Sat` nobody reads the model.
            Verdict::Sat if unknown => true,
            Verdict::Sat => {
                for (&a, &v) in atoms.iter().zip(&answer.model) {
                    values[a as usize] = v;
                }
                true
            }
            Verdict::Unsat => false,
            // Later components are still looked at: one may be Unsat.
            Verdict::Unknown => {
                unknown = true;
                true
            }
        };
        for (at, component) in base.components().iter().enumerate() {
            let satisfiable = if let Some(g) = slicing.group_at(at) {
                if !slicing.gather(g, Some(at), asked) {
                    continue; // merged where an earlier component sits
                }
                let answer = components.answer(asked, &slicing.members, &slicing.atoms, table);
                settle(&slicing.atoms, &answer)
            } else if let Some(answer) = component.answer.get() {
                components.stats.carried += 1;
                settle(&component.atoms, answer)
            } else {
                // Asked once, for every state that inherits the component.
                // Two workers may get here at the same time; they bring the
                // same answer.
                let answer = components.answer(asked, &component.members, &component.atoms, table);
                let satisfiable = settle(&component.atoms, &answer);
                let _ = component.answer.set(answer);
                satisfiable
            };
            if !satisfiable {
                return SolveOutcome::Unsat;
            }
        }
        for g in 0..slicing.tentative.len() {
            if slicing.gather(g, None, asked) {
                let answer = components.answer(asked, &slicing.members, &slicing.atoms, table);
                if !settle(&slicing.atoms, &answer) {
                    return SolveOutcome::Unsat;
                }
            }
        }
        if unknown {
            SolveOutcome::Unknown
        } else {
            SolveOutcome::Sat(Model {
                values: std::mem::take(values),
            })
        }
    }

    /// True if `constraints ∧ extra` is satisfiable (Unknown counts as
    /// unsatisfiable, which makes callers conservative, like a solver
    /// timeout would in the original tool).
    pub fn is_satisfiable(
        &mut self,
        atoms: &AtomTable,
        constraints: &ConstraintSet,
        extra: &[Constraint],
    ) -> bool {
        self.solve_with_extra(atoms, constraints, extra).is_sat()
    }

    /// Finds a value for `expr` consistent with the constraints.
    pub fn concretize(
        &mut self,
        atoms: &AtomTable,
        constraints: &ConstraintSet,
        expr: &SymExpr,
    ) -> Option<u64> {
        if let Some(v) = expr.as_const() {
            return Some(v);
        }
        match self.solve_with_extra(atoms, constraints, &[]) {
            SolveOutcome::Sat(m) => Some(m.eval(expr)),
            _ => None,
        }
    }
}

/// What a query is over: the path's constraints, then `extra`'s. A
/// [`Member`] indexes the two as one list.
#[derive(Clone, Copy)]
struct Asked<'a> {
    path: &'a ConstraintSet,
    extra: &'a [Constraint],
}

impl<'a> Asked<'a> {
    fn owner(self, m: Member) -> &'a Constraint {
        let at = m.constraint as usize;
        match at.checked_sub(self.path.len()) {
            None => &self.path[at],
            Some(at) => &self.extra[at],
        }
    }

    fn conjunct(self, m: Member) -> &'a Conjunct {
        &self.owner(m).conjuncts()[m.conjunct as usize]
    }
}

/// How `extra` slices against the path, rebuilt by every query in buffers
/// the [`Solver`] keeps: a feasibility query is a few microseconds, and a
/// handful of allocations each would be a tenth of that — more when two
/// workers share the allocator.
///
/// An atom's *class* is the path component it belongs to, or the atom itself
/// if the path never mentions it. Conjuncts of `extra` that meet in a class
/// are one *group*, named by its first conjunct, and a group is one
/// component of the query together with every path component among its
/// classes.
#[derive(Clone, Debug, Default)]
struct Slicing {
    /// `extra`'s conjuncts that have atoms, in order.
    tentative: Vec<Member>,
    /// Union–find over `tentative`; a root is the least of its group.
    group: Vec<usize>,
    /// Every class met, with the first conjunct met in it. Path components
    /// are classes by index, atoms behind them.
    classes: Vec<(usize, usize)>,
    /// The path components among `classes`, each with its group.
    touched: Vec<(usize, usize)>,
    /// The gathered component's members, in query order.
    members: Vec<Member>,
    /// The gathered component's atoms, ascending.
    atoms: Vec<AtomId>,
}

fn root(group: &[usize], mut i: usize) -> usize {
    while group[i] != i {
        i = group[i];
    }
    i
}

impl Slicing {
    /// Groups `extra`'s conjuncts; false if a concrete one of them is false
    /// (true ones constrain nothing).
    fn group(&mut self, asked: Asked) -> bool {
        let Slicing {
            tentative,
            group,
            classes,
            touched,
            ..
        } = self;
        let n_components = asked.path.components().len();
        tentative.clear();
        group.clear();
        classes.clear();
        for (i, c) in asked.extra.iter().enumerate() {
            for (j, conjunct) in c.conjuncts().iter().enumerate() {
                if conjunct.atoms.is_empty() {
                    if !conjunct.holds(&|_| 0) {
                        return false;
                    }
                    continue;
                }
                let me = tentative.len();
                tentative.push(Member {
                    constraint: (asked.path.len() + i) as u32,
                    conjunct: j as u32,
                });
                group.push(me);
                for &a in conjunct.atoms.iter() {
                    let class = asked
                        .path
                        .component_of(a)
                        .unwrap_or(n_components + a as usize);
                    match classes.iter().find(|(c, _)| *c == class) {
                        Some(&(_, first)) => {
                            let (x, y) = (root(group, me), root(group, first));
                            group[x.max(y)] = x.min(y);
                        }
                        None => classes.push((class, me)),
                    }
                }
            }
        }
        touched.clear();
        touched.extend(
            classes
                .iter()
                .filter(|(class, _)| *class < n_components)
                .map(|&(class, first)| (class, root(group, first))),
        );
        true
    }

    /// The group that touches path component `at`.
    fn group_at(&self, at: usize) -> Option<usize> {
        let touch = self.touched.iter().find(|(component, _)| *component == at);
        touch.map(|&(_, g)| g)
    }

    /// Gathers the query component of group `g` into `members` and `atoms`,
    /// if `here` is where the query has it: at the first path component the
    /// group touches, or behind the path (`None`) if it touches none. Path
    /// members come in path order, then `extra`'s.
    fn gather(&mut self, g: usize, here: Option<usize>, asked: Asked) -> bool {
        let Slicing {
            tentative,
            group,
            touched,
            members,
            atoms,
            ..
        } = self;
        let in_path = touched.iter().filter(|(_, h)| *h == g).map(|&(at, _)| at);
        if group[g] != g || in_path.clone().min() != here {
            return false;
        }
        members.clear();
        atoms.clear();
        for at in in_path.clone() {
            let component = &asked.path.components()[at];
            members.extend_from_slice(&component.members);
            atoms.extend_from_slice(&component.atoms);
        }
        if in_path.count() > 1 {
            members.sort_unstable();
        }
        for (i, &m) in tentative.iter().enumerate() {
            if root(group, i) == g {
                members.push(m);
                atoms.extend_from_slice(&asked.conjunct(m).atoms);
            }
        }
        atoms.sort_unstable();
        atoms.dedup();
        true
    }
}

/// Node budget of the candidate backtracking pass (assignments tried
/// across the whole search, not per level).
const CANDIDATE_DFS_BUDGET: u32 = 512;

/// Components remembered at once. Sized when every component of every query
/// went through the cache: the size hardly moved the hit rate (`nat-lb-lpm`:
/// 90.2 % of look-ups at 256 entries, 91.2 % at 1,024, 91.6 % at 4,096), and
/// what bounds it from above is the memory the remembered constraints pin
/// (peak RSS of the `pipeline` benchmark: +0.8 %, +1.8 %, +5.8 %). Now that
/// the paths carry their answers it sees a tenth of those look-ups and hits
/// on a tenth of them; whether it still earns the memory is an open question.
const CACHE_ENTRIES: usize = 1024;

/// What answers a component: the answers to the components solved last, by
/// what they are a function of, and the working memory to solve one that is
/// not among them. The cache is only ever probed by key: nothing iterates
/// it, so the hasher's per-process order reaches no result — and since an
/// answer is a pure function of its key, neither does what the cache
/// happens to hold.
#[derive(Clone, Debug, Default)]
struct Components {
    config: SolverConfig,
    stats: ComponentStats,
    cache: HashMap<Box<[u64]>, Arc<Answer>>,
    /// The current component's cache key.
    key: Vec<u64>,
    /// By `AtomId`: position among the current component's atoms.
    local_of: Vec<usize>,
    search: Search,
}

/// What a component answered. One allocation, shared by the cache entry and
/// the path component's slot.
#[derive(Debug)]
pub(crate) struct Answer {
    verdict: Verdict,
    /// On `Sat`, the value of each of the component's atoms, ascending.
    model: Box<[u64]>,
    /// The constraints whose conjuncts the key names by address. While the
    /// entry lives they do, so no other conjunct can come to live at one of
    /// those addresses and a key match is the identical component.
    _pinned: Box<[Constraint]>,
}

impl Components {
    /// The answer of the component `members` of `asked`, over `atoms`
    /// (ascending): remembered, or solved now and remembered.
    fn answer(
        &mut self,
        asked: Asked,
        members: &[Member],
        atoms: &[AtomId],
        table: &AtomTable,
    ) -> Arc<Answer> {
        // What a component answers is a function of its conjuncts, in
        // query order, and of how wide the table says their atoms are;
        // the key names exactly that, conjuncts by identity.
        self.key.clear();
        self.key.push(members.len() as u64);
        self.key.extend(
            members
                .iter()
                .map(|&m| std::ptr::from_ref(asked.conjunct(m)) as usize as u64),
        );
        self.key
            .extend(atoms.iter().map(|&a| u64::from(table.kind(a).bits())));
        if let Some(answer) = self.cache.get(self.key.as_slice()) {
            self.stats.reused += 1;
            return Arc::clone(answer);
        }

        self.stats.solved += 1;
        self.local_of.resize(table.len(), 0);
        for (pos, &a) in atoms.iter().enumerate() {
            self.local_of[a as usize] = pos;
        }
        // The search walks the conjuncts hundreds of times: find them once.
        let conjuncts: Vec<&Conjunct> = members.iter().map(|&m| asked.conjunct(m)).collect();
        let component = Component {
            conjuncts: &conjuncts,
            atoms,
            local_of: &self.local_of,
            table,
        };
        let verdict = component.solve(&mut self.search, &self.config);
        let model = match verdict {
            Verdict::Sat => self
                .search
                .model()
                .iter()
                .map(|v| v.expect("a Sat component model is total"))
                .collect(),
            Verdict::Unsat | Verdict::Unknown => Box::default(),
        };
        let mut pinned: Vec<Constraint> = Vec::with_capacity(members.len());
        let mut last = None;
        for &m in members {
            // A constraint's conjuncts are adjacent in the query.
            if last.replace(m.constraint) != Some(m.constraint) {
                pinned.push(asked.owner(m).clone());
            }
        }
        let answer = Arc::new(Answer {
            verdict,
            model,
            _pinned: pinned.into(),
        });
        // A full cache starts over; what the paths carry they keep.
        if self.cache.len() >= CACHE_ENTRIES {
            self.cache.clear();
        }
        self.cache
            .insert(self.key.as_slice().into(), Arc::clone(&answer));
        answer
    }
}

/// What [`Component::solve`] concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// Satisfiable; [`Search::model`] is a total model of the component.
    Sat,
    Unsat,
    Unknown,
}

/// Result of the bounded candidate backtracking search.
enum DfsOutcome {
    /// A satisfying assignment, at this level of [`Search::levels`].
    Found(usize),
    /// The whole (pruned) candidate grid was covered without a hit.
    Exhausted,
    /// The node budget ran out before the grid was covered.
    OutOfBudget,
}

/// The working memory of one component's search. Its models are *local*:
/// one `Option<u64>` per atom of the component, in ascending atom order, so
/// a search node copies a handful of words and nothing is hashed.
#[derive(Clone, Debug, Default)]
struct Search {
    /// Local models back to back. Level 0 is the model propagation pinned
    /// (and, after a `Sat`, the answer); level d + 1 is the trial a search
    /// node at depth d assigns into. Every level assigns at least one atom,
    /// so one level per unassigned atom is all the search needs.
    levels: Vec<Option<u64>>,
    /// Atoms per level.
    width: usize,
    /// Candidate values: constants from the constraints plus boundary
    /// values, sorted.
    candidates: Vec<u64>,
    /// Positions level 0 leaves unassigned, ascending.
    unassigned: Vec<usize>,
}

impl Search {
    fn model(&self) -> &[Option<u64>] {
        self.level(0)
    }

    fn level(&self, depth: usize) -> &[Option<u64>] {
        &self.levels[depth * self.width..][..self.width]
    }

    /// Level `depth` to read and level `depth + 1` to write.
    fn model_and_trial(&mut self, depth: usize) -> (&[Option<u64>], &mut [Option<u64>]) {
        let (lower, upper) = self.levels.split_at_mut((depth + 1) * self.width);
        (&lower[depth * self.width..], &mut upper[..self.width])
    }

    /// Makes level `depth` the answer.
    fn accept(&mut self, depth: usize) {
        let start = depth * self.width;
        self.levels.copy_within(start..start + self.width, 0);
    }
}

/// One connected component of a query.
struct Component<'a> {
    /// The component's conjuncts, in query order.
    conjuncts: &'a [&'a Conjunct],
    /// The component's atoms, ascending: the positions of a local model.
    atoms: &'a [AtomId],
    /// Position in `atoms` of each of them, by `AtomId` (entries of other
    /// atoms are stale).
    local_of: &'a [usize],
    table: &'a AtomTable,
}

impl<'a> Component<'a> {
    fn constraints(&self) -> impl Iterator<Item = &'a Conjunct> + '_ {
        self.conjuncts.iter().copied()
    }

    fn get(&self, model: &[Option<u64>], id: AtomId) -> Option<u64> {
        model[self.local_of[id as usize]]
    }

    /// Largest value of the atom at `pos`.
    fn max_value(&self, pos: usize) -> u64 {
        self.table.kind(self.atoms[pos]).max_value()
    }

    fn free_atoms(&self, c: &Conjunct, model: &[Option<u64>]) -> usize {
        c.atoms
            .iter()
            .filter(|&&a| self.get(model, a).is_none())
            .count()
    }

    /// Evaluates `c`, whose atoms are all assigned.
    fn holds(&self, c: &Conjunct, model: &[Option<u64>]) -> bool {
        c.holds(&|id| self.get(model, id).unwrap_or(0))
    }

    /// True if some constraint has every atom assigned yet evaluates false.
    fn any_violated(&self, model: &[Option<u64>]) -> bool {
        self.constraints()
            .any(|c| self.free_atoms(c, model) == 0 && !self.holds(c, model))
    }

    /// True if every atom is assigned and every constraint holds.
    fn all_hold(&self, model: &[Option<u64>]) -> bool {
        model.iter().all(Option::is_some) && self.constraints().all(|c| self.holds(c, model))
    }

    /// Solves the component as a joint system; on `Sat` the model is level 0
    /// of `search`.
    fn solve(&self, search: &mut Search, config: &SolverConfig) -> Verdict {
        search.width = self.atoms.len();
        search.levels.clear();
        search.levels.resize(search.width, None);
        let used_choice_pins = self.propagate(&mut search.levels);

        if self.all_hold(search.model()) {
            return Verdict::Sat;
        }

        // Values pinned by propagation through *exact* inversions are implied
        // by equality constraints, so a constraint whose atoms are all pinned
        // yet evaluates false is a genuine contradiction. Pins that involved
        // a choice (masking operators with several pre-images) do not license
        // this conclusion.
        if !used_choice_pins && self.any_violated(search.model()) {
            return Verdict::Unsat;
        }

        search.candidates.clear();
        search.candidates.extend([0, 1]);
        for c in self.constraints() {
            collect_constants(&c.expr, &mut search.candidates);
        }
        search.candidates.sort_unstable();
        search.candidates.dedup();

        // Positions are in ascending atom order, so the search is
        // deterministic.
        search.unassigned.clear();
        search
            .unassigned
            .extend((0..search.width).filter(|&pos| search.levels[pos].is_none()));
        search
            .levels
            .resize(search.width * (search.unassigned.len() + 1), None);

        // Bounded backtracking over the candidate values with propagation
        // between assignments: assign one atom, let propagation pin what
        // follows from it, prune as soon as a fully-assigned constraint is
        // violated. Deterministic, and far more effective on the small
        // components slicing produces than blind random draws — most
        // branches die at depth one.
        let mut budget = CANDIDATE_DFS_BUDGET;
        let covered = match self.candidate_dfs(search, 0, &mut budget) {
            DfsOutcome::Found(depth) => {
                search.accept(depth);
                return Verdict::Sat;
            }
            DfsOutcome::Exhausted => true,
            DfsOutcome::OutOfBudget => false,
        };

        // Randomised completion. When the backtracking pass already
        // covered the whole candidate grid, only full-range draws can
        // still help, so a fraction of the budget suffices; otherwise the
        // full budget mixes candidate and range draws. With nothing left to
        // draw, the pinned model that failed above is all there is.
        if search.unassigned.is_empty() {
            return Verdict::Unknown;
        }
        let tries = if covered {
            config.random_tries / 8
        } else {
            config.random_tries
        };
        // The draws are the component's own: seeded from what it consists
        // of, so they are the same whenever and wherever it is solved.
        let mut rng = StdRng::seed_from_u64(
            self.constraints()
                .fold(config.seed, |seed, c| mix(seed, c.fingerprint)),
        );
        let width = search.width;
        for _ in 0..tries {
            let (model, trial) = search.levels.split_at_mut(width);
            let trial = &mut trial[..width];
            trial.copy_from_slice(model);
            for &pos in &search.unassigned {
                let max = self.max_value(pos);
                // The candidates are never empty: 0 and 1 are always in.
                let v = if rng.random_bool(0.5) {
                    let idx = rng.random_range(0..search.candidates.len());
                    search.candidates[idx].min(max)
                } else {
                    rng.random_range(0..=max)
                };
                trial[pos] = Some(v);
            }
            // Every atom of the component is assigned now, so there is
            // nothing for a propagation pass to pin.
            if self.all_hold(trial) {
                search.accept(1);
                return Verdict::Sat;
            }
        }
        Verdict::Unknown
    }

    /// Pins atoms from equality constraints until a fixpoint is reached.
    /// Returns true if any pin involved a non-injective ("choice") operator.
    fn propagate(&self, model: &mut [Option<u64>]) -> bool {
        let mut used_choice = false;
        for _round in 0..32 {
            let mut changed = false;
            for c in self.constraints() {
                let Some((lhs, rhs)) = c.as_equality() else {
                    continue;
                };
                // An inversion needs one side fully assigned and a single
                // free atom on the other: with none there is nothing to pin,
                // with two no side qualifies.
                if self.free_atoms(c, model) != 1 {
                    continue;
                }
                let lookup = |id: AtomId| self.get(model, id);
                // Try both orientations; the free atom is on one side only
                // (or on both, and neither evaluates), so at most one hits.
                let hit =
                    [(lhs, rhs), (rhs, lhs)]
                        .into_iter()
                        .find_map(|(target_side, value_side)| {
                            let v = eval_partial(value_side, &lookup)?;
                            invert_for_single_atom(target_side, v, &lookup)
                        });
                if let Some((atom, pinned, choice)) = hit {
                    let pos = self.local_of[atom as usize];
                    if pinned <= self.max_value(pos) {
                        model[pos] = Some(pinned);
                        used_choice |= choice;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        used_choice
    }

    /// Depth-first search over candidate assignments for the unassigned
    /// atoms of level `depth`, lowest first. After each assignment a
    /// propagation pass pins whatever the equalities imply, and the branch
    /// is pruned if any fully-assigned constraint is violated. `budget`
    /// counts assignment nodes across the whole search.
    fn candidate_dfs(&self, search: &mut Search, depth: usize, budget: &mut u32) -> DfsOutcome {
        let model = search.level(depth);
        let Some(pos) = model.iter().position(Option::is_none) else {
            return if self.all_hold(model) {
                DfsOutcome::Found(depth)
            } else {
                DfsOutcome::Exhausted
            };
        };
        let max = self.max_value(pos);
        let mut out_of_budget = false;
        let mut last = None;
        for i in 0..search.candidates.len() {
            let v = search.candidates[i].min(max);
            if last == Some(v) {
                continue; // candidates are sorted; clamping makes duplicates
            }
            last = Some(v);
            if *budget == 0 {
                return DfsOutcome::OutOfBudget;
            }
            *budget -= 1;
            let (model, trial) = search.model_and_trial(depth);
            trial.copy_from_slice(model);
            trial[pos] = Some(v);
            self.propagate(trial);
            if self.any_violated(trial) {
                continue;
            }
            match self.candidate_dfs(search, depth + 1, budget) {
                DfsOutcome::Found(at) => return DfsOutcome::Found(at),
                DfsOutcome::Exhausted => {}
                DfsOutcome::OutOfBudget => out_of_budget = true,
            }
        }
        if out_of_budget {
            DfsOutcome::OutOfBudget
        } else {
            DfsOutcome::Exhausted
        }
    }
}

/// Evaluates an expression if every atom it references is assigned.
fn eval_partial(expr: &SymExpr, lookup: &dyn Fn(AtomId) -> Option<u64>) -> Option<u64> {
    match expr {
        SymExpr::Const(v) => Some(*v),
        SymExpr::Atom(id) => lookup(*id),
        SymExpr::Bin(op, a, b) => Some(op.eval(eval_partial(a, lookup)?, eval_partial(b, lookup)?)),
        SymExpr::Cmp(op, a, b) => Some(u64::from(
            op.eval(eval_partial(a, lookup)?, eval_partial(b, lookup)?),
        )),
    }
}

/// If `expr` contains exactly one unassigned atom and the operators along
/// the path to it are invertible, returns `(atom, value, used_choice)` such
/// that assigning the value makes `expr == target`. `used_choice` is true
/// when a non-injective operator (mask, shift-right, …) was inverted by
/// picking one of several pre-images.
fn invert_for_single_atom(
    expr: &SymExpr,
    target: u64,
    lookup: &dyn Fn(AtomId) -> Option<u64>,
) -> Option<(AtomId, u64, bool)> {
    match expr {
        SymExpr::Const(_) => None,
        SymExpr::Atom(id) => {
            if lookup(*id).is_none() {
                Some((*id, target, false))
            } else {
                None
            }
        }
        SymExpr::Bin(op, a, b) => {
            let a_val = eval_partial(a, lookup);
            let b_val = eval_partial(b, lookup);
            match (a_val, b_val) {
                (Some(av), None) => {
                    let (t, choice) = invert_rhs(*op, av, target)?;
                    let (atom, v, inner) = invert_for_single_atom(b, t, lookup)?;
                    Some((atom, v, inner || choice))
                }
                (None, Some(bv)) => {
                    let (t, choice) = invert_lhs(*op, bv, target)?;
                    let (atom, v, inner) = invert_for_single_atom(a, t, lookup)?;
                    Some((atom, v, inner || choice))
                }
                _ => None,
            }
        }
        SymExpr::Cmp(..) => None,
    }
}

/// Solves `op(x, rhs) == target` for x; the bool marks a "choice" inversion.
fn invert_lhs(op: BinOp, rhs: u64, target: u64) -> Option<(u64, bool)> {
    match op {
        BinOp::Add => Some((target.wrapping_sub(rhs), false)),
        BinOp::Sub => Some((target.wrapping_add(rhs), false)),
        BinOp::Xor => Some((target ^ rhs, false)),
        BinOp::Mul => {
            if rhs == 0 {
                None
            } else if target.is_multiple_of(rhs) {
                Some((target / rhs, false))
            } else {
                None
            }
        }
        BinOp::Shl => {
            // x << rhs == target  ⇒  x = target >> rhs (check no bits lost)
            let s = (rhs & 63) as u32;
            let x = target.wrapping_shr(s);
            if x.wrapping_shl(s) == target {
                Some((x, false))
            } else {
                None
            }
        }
        BinOp::Shr => {
            let s = (rhs & 63) as u32;
            let x = target.wrapping_shl(s);
            if x.wrapping_shr(s) == target {
                Some((x, s > 0))
            } else {
                None
            }
        }
        BinOp::And => {
            // x & rhs == target: feasible iff target ⊆ rhs; choose x = target.
            if target & !rhs == 0 {
                Some((target, rhs != u64::MAX))
            } else {
                None
            }
        }
        BinOp::Or => {
            // x | rhs == target: feasible iff rhs ⊆ target; choose x = target.
            if rhs & !target == 0 {
                Some((target, rhs != 0))
            } else {
                None
            }
        }
        BinOp::UDiv | BinOp::URem => None,
    }
}

/// Solves `op(lhs, x) == target` for x.
fn invert_rhs(op: BinOp, lhs: u64, target: u64) -> Option<(u64, bool)> {
    match op {
        BinOp::Add | BinOp::Xor => invert_lhs(op, lhs, target), // commutative
        BinOp::Mul => invert_lhs(op, lhs, target),
        BinOp::And | BinOp::Or => invert_lhs(op, lhs, target),
        BinOp::Sub => Some((lhs.wrapping_sub(target), false)),
        _ => None,
    }
}

/// Collects constants appearing in an expression (used as candidate values).
fn collect_constants(expr: &SymExpr, out: &mut Vec<u64>) {
    match expr {
        SymExpr::Const(v) => {
            out.push(*v);
            out.push(v.wrapping_add(1));
            out.push(v.wrapping_sub(1));
        }
        SymExpr::Atom(_) => {}
        SymExpr::Bin(_, a, b) | SymExpr::Cmp(_, a, b) => {
            collect_constants(a, out);
            collect_constants(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castan_ir::CmpOp;
    use castan_packet::PacketField;

    fn atom_table() -> (AtomTable, AtomId, AtomId) {
        let mut t = AtomTable::new();
        let ip = t.field_atom(0, PacketField::DstIp);
        let port = t.field_atom(0, PacketField::DstPort);
        (t, ip, port)
    }

    fn eq(a: SymExpr, b: SymExpr) -> Constraint {
        Constraint::require_true(SymExpr::cmp(CmpOp::Eq, a, b))
    }

    #[test]
    fn solves_direct_equality() {
        let (t, ip, _) = atom_table();
        let mut s = Solver::default();
        let c = eq(SymExpr::atom(ip), SymExpr::constant(0x0a000001));
        match s.solve(&t, &[c]) {
            SolveOutcome::Sat(m) => assert_eq!(m.get(ip), Some(0x0a000001)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn solves_affine_index_equation() {
        // BASE + (ip >> 5) * 4 == BASE + 0x1230  ⇒  ip >> 5 == 0x48c.
        let (t, ip, _) = atom_table();
        let mut s = Solver::default();
        let addr = SymExpr::bin(
            BinOp::Add,
            SymExpr::constant(0x4000_0000),
            SymExpr::bin(
                BinOp::Mul,
                SymExpr::bin(BinOp::Shr, SymExpr::atom(ip), SymExpr::constant(5)),
                SymExpr::constant(4),
            ),
        );
        let c = eq(addr, SymExpr::constant(0x4000_0000 + 0x1230));
        let m = s.solve(&t, std::slice::from_ref(&c)).model().expect("sat");
        // Check by evaluation rather than a specific value: any ip with
        // ip >> 5 == 0x48c is fine.
        assert!(m.satisfies(&c));
        assert_eq!(m.value(ip) >> 5, 0x48c);
    }

    #[test]
    fn detects_trivial_unsat() {
        let (t, _, _) = atom_table();
        let mut s = Solver::default();
        let c = Constraint::require_true(SymExpr::cmp(
            CmpOp::Eq,
            SymExpr::constant(1),
            SymExpr::constant(2),
        ));
        assert_eq!(s.solve(&t, &[c]), SolveOutcome::Unsat);
    }

    #[test]
    fn conflicting_pins_are_not_sat() {
        let (t, ip, _) = atom_table();
        let mut s = Solver::default();
        let c1 = eq(SymExpr::atom(ip), SymExpr::constant(5));
        let c2 = eq(SymExpr::atom(ip), SymExpr::constant(9));
        let out = s.solve(&t, &[c1, c2]);
        assert!(!out.is_sat(), "conflicting equalities must not be sat");
    }

    #[test]
    fn respects_atom_width() {
        let (t, _, port) = atom_table();
        let mut s = Solver::default();
        // A 16-bit port can never equal 2^20.
        let c = eq(SymExpr::atom(port), SymExpr::constant(1 << 20));
        assert!(!s.solve(&t, &[c]).is_sat());
    }

    #[test]
    fn solves_inequalities_with_search() {
        let (t, ip, port) = atom_table();
        let mut s = Solver::default();
        let cs = vec![
            Constraint::require_true(SymExpr::cmp(
                CmpOp::Ult,
                SymExpr::atom(port),
                SymExpr::constant(100),
            )),
            Constraint::require_true(SymExpr::cmp(
                CmpOp::Ugt,
                SymExpr::atom(port),
                SymExpr::constant(90),
            )),
            eq(SymExpr::atom(ip), SymExpr::constant(7)),
        ];
        let m = s
            .solve(&t, &cs)
            .model()
            .expect("narrow range should be found");
        assert!(m.value(port) > 90 && m.value(port) < 100);
        assert_eq!(m.value(ip), 7);
    }

    #[test]
    fn is_satisfiable_with_extra() {
        let (t, ip, _) = atom_table();
        let mut s = Solver::default();
        let base = ConstraintSet::from_iter([Constraint::require_true(SymExpr::cmp(
            CmpOp::Ult,
            SymExpr::atom(ip),
            SymExpr::constant(100),
        ))]);
        let ok = vec![eq(SymExpr::atom(ip), SymExpr::constant(42))];
        let bad = vec![eq(SymExpr::atom(ip), SymExpr::constant(200))];
        assert!(s.is_satisfiable(&t, &base, &ok));
        assert!(!s.is_satisfiable(&t, &base, &bad));
    }

    #[test]
    fn concretize_returns_consistent_value() {
        let (t, ip, _) = atom_table();
        let mut s = Solver::default();
        let cs = ConstraintSet::from_iter([eq(SymExpr::atom(ip), SymExpr::constant(0x01020304))]);
        let e = SymExpr::bin(BinOp::Shr, SymExpr::atom(ip), SymExpr::constant(8));
        assert_eq!(s.concretize(&t, &cs, &e), Some(0x010203));
        assert_eq!(s.concretize(&t, &cs, &SymExpr::constant(9)), Some(9));
    }

    #[test]
    fn stats_count_one_per_outer_query() {
        let (t, ip, port) = atom_table();
        let mut s = Solver::default();
        assert_eq!(s.stats(), SolverStats::default());
        // Sat — and the two constraints form two independent components, yet
        // the query counts once.
        let sat = ConstraintSet::from_iter([
            eq(SymExpr::atom(ip), SymExpr::constant(5)),
            eq(SymExpr::atom(port), SymExpr::constant(9)),
        ]);
        assert!(s.solve(&t, &sat).is_sat());
        // Unsat.
        let unsat = ConstraintSet::from_iter([eq(SymExpr::constant(1), SymExpr::constant(2))]);
        assert!(!s.is_satisfiable(&t, &unsat, &[]));
        // Concretize routes through solve: one more Sat.
        let before = s.stats();
        assert_eq!(
            s.concretize(&t, &sat, &SymExpr::atom(ip)),
            Some(5),
            "concretize under a pinning constraint"
        );
        let delta = s.stats().since(before);
        assert_eq!((delta.sat, delta.unsat, delta.unknown), (1, 0, 0));
        // A constant concretization never consults the solver.
        s.concretize(&t, &sat, &SymExpr::constant(7));
        assert_eq!(
            s.stats(),
            SolverStats {
                sat: 2,
                unsat: 1,
                unknown: 0
            }
        );
        assert_eq!(s.stats().total(), 3);
    }

    #[test]
    fn a_remembered_answer_never_outlives_the_constraints_its_key_names() {
        let (t, ip, _) = atom_table();
        let mut s = Solver::default();
        let address = |c: &Constraint| std::ptr::from_ref(&c.conjuncts()[0]) as usize;
        let first = eq(SymExpr::atom(ip), SymExpr::constant(5));
        let freed = address(&first);
        assert_eq!(s.solve(&t, &[first]).model().unwrap().get(ip), Some(5));
        // The caller's only handle is gone. Keep building constraints of the
        // same shape and size — the allocator's favourite candidates for the
        // freed address — each asking for another value.
        let mut reused_at = None;
        for round in 0..3 * CACHE_ENTRIES {
            let v = 6 + round as u64;
            let c = eq(SymExpr::atom(ip), SymExpr::constant(v));
            if address(&c) == freed {
                reused_at.get_or_insert(round);
            }
            let m = s.solve(&t, &[c]).model().expect("a pin is sat");
            assert_eq!(m.get(ip), Some(v), "round {round}: a stale answer");
        }
        // While the entry lived it kept the constraint, and so the address,
        // to itself: only a cache that started over can have given it back.
        assert!(
            reused_at.is_none_or(|round| round >= CACHE_ENTRIES),
            "the address came back in round {reused_at:?}, before the cache was full"
        );
        assert_eq!(s.component_stats().reused, 0);
    }

    #[test]
    fn tables_that_disagree_on_a_width_do_not_share_an_answer() {
        // Atom 0 is a 32-bit address in one table and a 16-bit port in the
        // other; the value fits only the first.
        let mut wide = AtomTable::new();
        let a = wide.field_atom(0, PacketField::DstIp);
        let mut narrow = AtomTable::new();
        assert_eq!(narrow.field_atom(0, PacketField::DstPort), a);
        let cs = [eq(SymExpr::atom(a), SymExpr::constant(0x12345))];
        for tables in [[&wide, &narrow], [&narrow, &wide]] {
            let mut s = Solver::default();
            for table in tables {
                let fits = std::ptr::eq(table, &wide);
                assert_eq!(
                    s.solve(table, &cs).model().and_then(|m| m.get(a)),
                    fits.then_some(0x12345)
                );
            }
            assert_eq!(
                s.component_stats(),
                ComponentStats {
                    solved: 2,
                    reused: 0,
                    carried: 0,
                }
            );
        }
    }

    #[test]
    fn a_remembered_unsat_ends_the_query_where_a_solved_one_does() {
        let (mut t, ip, port) = atom_table();
        let proto = t.field_atom(0, PacketField::IpProto);
        let last = eq(SymExpr::atom(proto), SymExpr::constant(17));
        let cs = vec![
            eq(SymExpr::atom(port), SymExpr::constant(80)),
            eq(SymExpr::atom(ip), SymExpr::constant(5)),
            eq(SymExpr::atom(ip), SymExpr::constant(9)),
            last.clone(),
        ];
        let mut s = Solver::default();
        // Solved: the component behind the contradiction is never looked at.
        assert_eq!(s.solve(&t, &cs), SolveOutcome::Unsat);
        let solved = s.component_stats();
        assert_eq!((solved.solved, solved.reused), (2, 0));
        // Remembered: the same two components, the same place to stop.
        assert_eq!(s.solve(&t, &cs), SolveOutcome::Unsat);
        let remembered = s.component_stats().since(solved);
        assert_eq!((remembered.solved, remembered.reused), (0, 2));
        assert_eq!(s.stats().unsat, 2);
        // So the third component is news to the solver.
        let before = s.component_stats();
        assert!(s.solve(&t, &[last]).is_sat());
        assert_eq!(s.component_stats().since(before).solved, 1);
    }

    #[test]
    fn xor_and_sub_inversion() {
        let (t, ip, _) = atom_table();
        let mut s = Solver::default();
        let e = SymExpr::bin(
            BinOp::Xor,
            SymExpr::bin(BinOp::Sub, SymExpr::atom(ip), SymExpr::constant(3)),
            SymExpr::constant(0xff),
        );
        let c = eq(e, SymExpr::constant(0x1234));
        let m = s.solve(&t, std::slice::from_ref(&c)).model().expect("sat");
        assert!(m.satisfies(&c));
    }
}
