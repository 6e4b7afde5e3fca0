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
//! independence optimisation), and because a component's answer is a pure
//! function of its conjuncts, the solver remembers the last few it solved
//! (KLEE's counterexample cache, keyed exactly): the engine asks a dozen
//! queries in a row over one path constraint with a different address pin
//! each, and only the component the pin lands in is new.

use std::collections::HashMap;

use castan_ir::BinOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::expr::{mix, AtomId, AtomTable, Conjunct, Constraint, SymExpr};

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

/// How often a [`Solver`] solved a component of a query and how often it
/// reused the remembered answer of an identical one. Profiling data, unlike
/// [`SolverStats`]: what a solver remembers depends on what it was asked
/// before, so with several workers the split depends on scheduling (the
/// answers do not).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentStats {
    /// Components solved.
    pub solved: u64,
    /// Components answered from the cache.
    pub reused: u64,
}

impl ComponentStats {
    /// Adds another stats block into this one.
    pub fn absorb(&mut self, other: ComponentStats) {
        self.solved += other.solved;
        self.reused += other.reused;
    }

    /// The components met after an `earlier` snapshot of the same solver.
    pub fn since(&self, earlier: ComponentStats) -> ComponentStats {
        ComponentStats {
            solved: self.solved.saturating_sub(earlier.solved),
            reused: self.reused.saturating_sub(earlier.reused),
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
#[derive(Clone, Debug)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    components: ComponentStats,
    cache: ComponentCache,
    scratch: Scratch,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new(SolverConfig::default())
    }
}

impl Solver {
    /// Creates a solver.
    pub fn new(config: SolverConfig) -> Self {
        Solver {
            config,
            stats: SolverStats::default(),
            components: ComponentStats::default(),
            cache: ComponentCache::default(),
            scratch: Scratch::default(),
        }
    }

    /// Outcome counts of every outer query this solver has answered.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Components solved and reused so far (see [`ComponentStats`]).
    pub fn component_stats(&self) -> ComponentStats {
        self.components
    }

    /// Solves the conjunction of `constraints`.
    pub fn solve(&mut self, atoms: &AtomTable, constraints: &[Constraint]) -> SolveOutcome {
        self.solve_with_extra(atoms, constraints, &[])
    }

    /// Solves the conjunction of `base ∧ extra` without the caller having to
    /// concatenate the two slices — the common shape of a path-feasibility
    /// query (shared path constraint plus a tentative branch condition).
    pub fn solve_with_extra(
        &mut self,
        atoms: &AtomTable,
        base: &[Constraint],
        extra: &[Constraint],
    ) -> SolveOutcome {
        let outcome = self.solve_with_extra_inner(atoms, base, extra);
        match &outcome {
            SolveOutcome::Sat(model) => {
                self.stats.sat += 1;
                // Self-check: the answer was assembled per conjunct and per
                // component, some of them remembered, so hold it against the
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
        atoms: &AtomTable,
        base: &[Constraint],
        extra: &[Constraint],
    ) -> SolveOutcome {
        // The query is over conjuncts, which every constraint prepared at
        // construction; nothing of the (shared, long) base is re-walked here.
        let conjuncts: Vec<Asked> = base
            .iter()
            .chain(extra)
            .flat_map(|owner| {
                owner
                    .conjuncts()
                    .iter()
                    .map(move |conjunct| Asked { conjunct, owner })
            })
            .collect();

        // Trivially contradictory concrete constraints short-circuit.
        if conjuncts
            .iter()
            .any(|c| c.atoms.is_empty() && !c.holds(&|_| 0))
        {
            return SolveOutcome::Unsat;
        }

        // Independence slicing (the optimization KLEE applies before every
        // query, which the original tool inherits): constraints that share
        // no atoms — different packets of the sequence, unrelated havocs —
        // form independent systems, and the conjunction is satisfiable iff
        // every connected component is. Solving per component is both much
        // cheaper (propagation and the randomised completion touch only
        // the component's constraints) and more complete: a random search
        // over a 3-atom component succeeds where a joint draw across 40
        // atoms starves its budget. Component models merge disjointly, over
        // zeros for the atoms no constraint mentions.
        let Scratch {
            partition,
            local_of,
            comp_atoms,
            key,
            values,
            search,
        } = &mut self.scratch;
        partition.split(&conjuncts, atoms.len());
        local_of.resize(atoms.len(), 0);
        values.clear();
        values.resize(atoms.len(), 0);
        let mut unknown = false;
        for members in partition.components() {
            comp_atoms.clear();
            comp_atoms.extend(members.iter().flat_map(|&i| conjuncts[i].atoms.iter()));
            if comp_atoms.is_empty() {
                continue; // a concrete conjunct, found true above
            }
            comp_atoms.sort_unstable();
            comp_atoms.dedup();
            // What a component answers is a function of its conjuncts, in
            // query order, and of how wide the table says their atoms are;
            // the key names exactly that, conjuncts by identity.
            key.clear();
            key.push(members.len() as u64);
            key.extend(
                members
                    .iter()
                    .map(|&i| std::ptr::from_ref(conjuncts[i].conjunct) as usize as u64),
            );
            key.extend(comp_atoms.iter().map(|&a| u64::from(atoms.kind(a).bits())));
            let answer = match self.cache.get(key) {
                Some(answer) => {
                    self.components.reused += 1;
                    answer
                }
                None => {
                    self.components.solved += 1;
                    for (pos, &a) in comp_atoms.iter().enumerate() {
                        local_of[a as usize] = pos;
                    }
                    let component = Component {
                        conjuncts: &conjuncts,
                        members,
                        atoms: comp_atoms,
                        local_of,
                        table: atoms,
                    };
                    let verdict = component.solve(search, &self.config);
                    self.cache.insert(key, verdict, search, &component)
                }
            };
            match answer.verdict {
                Verdict::Sat => {
                    for (&a, &v) in comp_atoms.iter().zip(&answer.model) {
                        values[a as usize] = v;
                    }
                }
                Verdict::Unsat => return SolveOutcome::Unsat,
                // Later components are still looked at: one may be Unsat.
                Verdict::Unknown => unknown = true,
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
        constraints: &[Constraint],
        extra: &[Constraint],
    ) -> bool {
        self.solve_with_extra(atoms, constraints, extra).is_sat()
    }

    /// Finds a value for `expr` consistent with the constraints.
    pub fn concretize(
        &mut self,
        atoms: &AtomTable,
        constraints: &[Constraint],
        expr: &SymExpr,
    ) -> Option<u64> {
        if let Some(v) = expr.as_const() {
            return Some(v);
        }
        match self.solve(atoms, constraints) {
            SolveOutcome::Sat(m) => Some(m.eval(expr)),
            _ => None,
        }
    }
}

/// Buffers a [`Solver`] reuses from query to query (every one is rebuilt
/// before it is read): a feasibility query is tens of microseconds, and a
/// dozen allocations each would be a tenth of that — more when two workers
/// share the allocator.
#[derive(Clone, Debug, Default)]
struct Scratch {
    partition: Partition,
    /// By `AtomId`: position among the current component's atoms.
    local_of: Vec<usize>,
    /// The current component's atoms, ascending.
    comp_atoms: Vec<AtomId>,
    /// The current component's cache key.
    key: Vec<u64>,
    /// The answer under construction, by `AtomId`.
    values: Vec<u64>,
    search: Search,
}

/// Node budget of the candidate backtracking pass (assignments tried
/// across the whole search, not per level).
const CANDIDATE_DFS_BUDGET: u32 = 512;

/// One conjunct of a query and the constraint it is a conjunct of.
#[derive(Clone, Copy)]
struct Asked<'a> {
    conjunct: &'a Conjunct,
    owner: &'a Constraint,
}

impl std::ops::Deref for Asked<'_> {
    type Target = Conjunct;

    fn deref(&self) -> &Conjunct {
        self.conjunct
    }
}

/// Components remembered at once. The engine's locality is one
/// `resolve_symbolic_address` call — a dozen queries over one path
/// constraint — so the size hardly moves the hit rate (`nat-lb-lpm`: 90.2 %
/// of look-ups at 256 entries, 91.2 % at 1,024, 91.6 % at 4,096); what
/// bounds it from above is the memory the remembered constraints pin (peak
/// RSS of the `pipeline` benchmark: +0.8 %, +1.8 %, +5.8 %).
const CACHE_ENTRIES: usize = 1024;

/// The answers to the components solved last, by what they are a function
/// of. Only ever probed by key: nothing iterates it, so the hasher's
/// per-process order reaches no result — and since an answer is a pure
/// function of its key, neither does what the cache happens to hold.
#[derive(Clone, Debug, Default)]
struct ComponentCache {
    entries: HashMap<Box<[u64]>, Answer>,
}

/// What a component answered.
#[derive(Clone, Debug)]
struct Answer {
    verdict: Verdict,
    /// On `Sat`, the value of each of the component's atoms, ascending.
    model: Box<[u64]>,
    /// The constraints whose conjuncts the key names by address. While the
    /// entry lives they do, so no other conjunct can come to live at one of
    /// those addresses and a key match is the identical component.
    _pinned: Box<[Constraint]>,
}

impl ComponentCache {
    fn get(&self, key: &[u64]) -> Option<&Answer> {
        self.entries.get(key)
    }

    /// Remembers what `component`, solved in `search`, answered. A full
    /// cache starts over: the components of the path constraint being asked
    /// about are back after one query.
    fn insert(
        &mut self,
        key: &[u64],
        verdict: Verdict,
        search: &Search,
        component: &Component,
    ) -> &Answer {
        if self.entries.len() >= CACHE_ENTRIES {
            self.entries.clear();
        }
        let model = match verdict {
            Verdict::Sat => search
                .model()
                .iter()
                .map(|v| v.expect("a Sat component model is total"))
                .collect(),
            Verdict::Unsat | Verdict::Unknown => Box::default(),
        };
        let mut pinned: Vec<Constraint> = Vec::with_capacity(component.members.len());
        for &i in component.members {
            let owner = component.conjuncts[i].owner;
            // A constraint's conjuncts are adjacent in the query.
            if !pinned.last().is_some_and(|last| last.is(owner)) {
                pinned.push(owner.clone());
            }
        }
        self.entries.entry(key.into()).or_insert(Answer {
            verdict,
            model,
            _pinned: pinned.into(),
        })
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
    /// The query's conjuncts; `members` are the component's, in query order.
    conjuncts: &'a [Asked<'a>],
    members: &'a [usize],
    /// The component's atoms, ascending: the positions of a local model.
    atoms: &'a [AtomId],
    /// Position in `atoms` of each of them, by `AtomId` (entries of other
    /// atoms are stale).
    local_of: &'a [usize],
    table: &'a AtomTable,
}

impl<'a> Component<'a> {
    fn constraints(&self) -> impl Iterator<Item = &'a Conjunct> + '_ {
        self.members.iter().map(|&i| self.conjuncts[i].conjunct)
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

/// The connected components of a query's conjuncts under the "shares an
/// atom" relation, in first-appearance order with their members in query
/// order, so the partition is deterministic. Atom-free (concrete) conjuncts
/// are singletons.
#[derive(Clone, Debug, Default)]
struct Partition {
    /// Union–find over conjunct indices.
    parent: Vec<usize>,
    /// By `AtomId`: the first conjunct seen with the atom.
    owner: Vec<usize>,
    /// By root conjunct: its component.
    component_of: Vec<usize>,
    /// Conjunct indices, grouped by component.
    members: Vec<usize>,
    /// Component c ends before `members[ends[c]]`, where c + 1 starts.
    ends: Vec<usize>,
}

impl Partition {
    const NONE: usize = usize::MAX;

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Partitions `conjuncts`, whose atoms index a table of `n_atoms`.
    fn split(&mut self, conjuncts: &[Asked], n_atoms: usize) {
        let n = conjuncts.len();
        self.parent.clear();
        self.parent.extend(0..n);
        self.owner.clear();
        self.owner.resize(n_atoms, Self::NONE);
        for (i, c) in conjuncts.iter().enumerate() {
            for &a in c.atoms.iter() {
                let first = self.owner[a as usize];
                if first == Self::NONE {
                    self.owner[a as usize] = i;
                } else {
                    let (ra, rb) = (self.find(i), self.find(first));
                    self.parent[ra] = rb;
                }
            }
        }
        // Counting sort by component, numbered as first met: count, turn the
        // counts into each component's start, then fill — which leaves every
        // cursor one past its component's last member.
        self.component_of.clear();
        self.component_of.resize(n, Self::NONE);
        self.ends.clear();
        for i in 0..n {
            let root = self.find(i);
            if self.component_of[root] == Self::NONE {
                self.component_of[root] = self.ends.len();
                self.ends.push(0);
            }
            self.ends[self.component_of[root]] += 1;
        }
        let mut start = 0;
        for end in &mut self.ends {
            start += std::mem::replace(end, start);
        }
        self.members.clear();
        self.members.resize(n, 0);
        for i in 0..n {
            let root = self.find(i);
            let cursor = &mut self.ends[self.component_of[root]];
            self.members[*cursor] = i;
            *cursor += 1;
        }
    }

    fn components(&self) -> impl Iterator<Item = &[usize]> {
        self.ends.iter().scan(0, |start, &end| {
            Some(&self.members[std::mem::replace(start, end)..end])
        })
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
        let base = vec![Constraint::require_true(SymExpr::cmp(
            CmpOp::Ult,
            SymExpr::atom(ip),
            SymExpr::constant(100),
        ))];
        let ok = vec![eq(SymExpr::atom(ip), SymExpr::constant(42))];
        let bad = vec![eq(SymExpr::atom(ip), SymExpr::constant(200))];
        assert!(s.is_satisfiable(&t, &base, &ok));
        assert!(!s.is_satisfiable(&t, &base, &bad));
    }

    #[test]
    fn concretize_returns_consistent_value() {
        let (t, ip, _) = atom_table();
        let mut s = Solver::default();
        let cs = vec![eq(SymExpr::atom(ip), SymExpr::constant(0x01020304))];
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
        let sat = vec![
            eq(SymExpr::atom(ip), SymExpr::constant(5)),
            eq(SymExpr::atom(port), SymExpr::constant(9)),
        ];
        assert!(s.solve(&t, &sat).is_sat());
        // Unsat.
        let unsat = vec![eq(SymExpr::constant(1), SymExpr::constant(2))];
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
                    reused: 0
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
