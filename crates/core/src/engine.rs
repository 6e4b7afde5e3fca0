//! The directed symbolic-execution engine (§3.1, §3.3, §3.4).
//!
//! The engine executes the NF's IR over a sequence of N symbolic packets,
//! maintaining a frontier of execution states ranked by a pluggable
//! [`SearchStrategy`] (the default is the paper's max
//! `current cost + potential cost` priority search). Memory accesses through
//! symbolic pointers are concretized adversarially by the cache model; hash
//! applications are havoced; branches (and selects) on symbolic conditions
//! fork. When the exploration budget is exhausted, the most expensive state
//! is handed to the synthesis stage, which resolves its path constraint into
//! concrete packets.
//!
//! [`SearchStrategy`]: crate::search::SearchStrategy
//!
//! # Parallel exploration
//!
//! Exploration proceeds in *rounds*: each round pops a fixed-size batch of
//! states from the frontier (the batch size never depends on the thread
//! count), runs one scheduling quantum per state on a pool of worker
//! threads that lives as long as the search (one shared slot queue), then
//! merges the results back into the frontier in slot order at a barrier.
//! Because the batch composition, each slot's execution (a solver query's
//! answer depends on the query alone, whichever worker's solver is asked and
//! whatever it was asked before), and the merge order are all independent of
//! how slots were distributed over workers, the analysis result is
//! **identical for any thread count** — a property the test suite pins.
//!
//! # Per-fork cost
//!
//! Forking clones an [`ExecState`], so fork cost is dominated by the
//! state's owned data. The path-constraint list and both symbolic-memory
//! overlays are copy-on-write ([`crate::state::ConstraintSet`],
//! [`SymMemory`]), and each state carries a cached *witness* — a satisfying
//! model for its path constraint — that decides a branch-feasibility query
//! without the solver whenever it happens to satisfy the new constraint
//! too, which proves the extended system satisfiable. That is a minority of
//! queries (3 % on the chain workloads, 29 % on single NFs, per
//! `core.witness_hit_share`); the rest reach the solver.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use castan_analysis::{analyze_nf, EnvelopeParams, NfEnvelope};
use castan_ir::native::MemAccess;
use castan_ir::{CmpOp, CostClass, ExecSink, HashFunc, Icfg, Inst, Operand, Program, Terminator};
use castan_mem::ContentionCatalog;
use castan_nf::NfSpec;
use castan_packet::Packet;

use crate::cache::{make_model, CacheModelKind};
use crate::costmap::{CostMap, DEFAULT_LOOP_BOUND};
use crate::expr::{intern_stats, Constraint, InternStats, SymExpr};
use crate::havoc::HavocRecord;
use crate::report::AnalysisReport;
use crate::search::{SearchScore, SearchStrategyKind};
use crate::solve::{ComponentStats, Model, SolveOutcome, Solver, SolverConfig};
use crate::state::{ExecState, Frame, StateStatus};
use crate::symmem::SymMemory;
use crate::synth::{synthesize, SynthConfig};
use crate::trace::{PruneReason, SearchTrace, SlotTrace, SolverSite};

/// States popped per scheduling round. Fixed (never derived from the thread
/// count) so the exploration order is thread-count independent.
const ROUND_SLOTS: usize = 8;

/// Which potential-cost annotation ranks frontier states (§3.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PotentialKind {
    /// The paper's heuristic cost map (loop bound M, unsound but sharp).
    #[default]
    CostMap,
    /// The sound static envelope's per-node remaining upper bound
    /// (`castan-analysis`). Admissible: never underestimates what a state
    /// can still earn, so cost-guided search with it cannot starve the true
    /// worst-case path.
    StaticUpper,
}

/// Analysis configuration.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Number of symbolic packets N in the synthesized workload (Table 4 of
    /// the paper uses 30–50 depending on the NF).
    pub packets: u32,
    /// Exploration budget: total symbolic instructions executed across all
    /// states. This plays the role of the paper's wall-clock time budget,
    /// but deterministically. Checked at round barriers, so a run may
    /// overshoot by at most one round.
    pub step_budget: u64,
    /// Loop bound M for the potential-cost annotation (§3.4).
    pub loop_bound: u32,
    /// Which cache model to plug in (§3.3).
    pub cache_model: CacheModelKind,
    /// Maximum concretization candidates to fork on per symbolic pointer.
    pub fork_candidates: usize,
    /// Maximum pending states kept in the searcher.
    pub state_cap: usize,
    /// Instructions executed per scheduling quantum before re-ranking.
    pub quantum: u32,
    /// Frontier discipline (§3.4; the default is the paper's priority
    /// search).
    pub strategy: SearchStrategyKind,
    /// Potential-cost annotation used by the ranking score.
    pub potential: PotentialKind,
    /// Branch-and-bound pruning: once a state has completed all N packets,
    /// discard frontier states whose static envelope upper bound cannot beat
    /// the best completed state. Sound (the bound is admissible) and
    /// deterministic; only `states_explored` shrinks.
    pub prune: bool,
    /// Worker threads per scheduling round. Any value yields byte-identical
    /// results; >1 only changes wall-clock time.
    pub threads: usize,
    /// Solver configuration.
    pub solver: SolverConfig,
    /// Hash-inversion (synthesis) configuration.
    pub synth: SynthConfig,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            packets: 30,
            step_budget: 120_000,
            loop_bound: DEFAULT_LOOP_BOUND,
            cache_model: CacheModelKind::ContentionSets,
            fork_candidates: 2,
            state_cap: 2_048,
            quantum: 250,
            strategy: SearchStrategyKind::Priority,
            potential: PotentialKind::CostMap,
            prune: true,
            threads: 1,
            solver: SolverConfig::default(),
            synth: SynthConfig::default(),
        }
    }
}

impl AnalysisConfig {
    /// A small configuration for unit tests and quick smoke runs.
    pub fn quick() -> Self {
        AnalysisConfig {
            packets: 6,
            step_budget: 15_000,
            state_cap: 256,
            quantum: 150,
            synth: SynthConfig {
                keyspace_size: 30_000,
                rainbow_chains: 4_000,
                rainbow_chain_len: 8,
                candidates_per_havoc: 6,
            },
            ..Default::default()
        }
    }
}

/// The CASTAN analysis front end.
#[derive(Clone, Debug, Default)]
pub struct Castan {
    config: AnalysisConfig,
}

impl Castan {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: AnalysisConfig) -> Self {
        Castan { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Analyzes an NF and synthesizes an adversarial workload.
    pub fn analyze(&self, nf: &NfSpec, catalog: &ContentionCatalog) -> AnalysisReport {
        self.analyze_detailed(nf, catalog).0
    }

    /// Like [`Castan::analyze`], but also returns the chosen execution state
    /// (its path constraint, atoms, and havoc log). The chained analysis
    /// ([`crate::chain`]) uses the state to translate per-stage constraints
    /// across stage boundaries.
    pub fn analyze_detailed(
        &self,
        nf: &NfSpec,
        catalog: &ContentionCatalog,
    ) -> (AnalysisReport, Option<ExecState>) {
        self.analyze_inner(nf, catalog, None)
    }

    /// Like [`Castan::analyze`], but additionally records a [`SearchTrace`]
    /// of what the search did. Tracing is observational: the report is
    /// byte-identical to the untraced one for every strategy and thread
    /// count (pinned by unit test and proptest).
    pub fn analyze_traced(
        &self,
        nf: &NfSpec,
        catalog: &ContentionCatalog,
    ) -> (AnalysisReport, SearchTrace) {
        let (report, _, trace) = self.analyze_detailed_traced(nf, catalog);
        (report, trace)
    }

    /// [`Castan::analyze_detailed`] with a [`SearchTrace`] attached.
    pub fn analyze_detailed_traced(
        &self,
        nf: &NfSpec,
        catalog: &ContentionCatalog,
    ) -> (AnalysisReport, Option<ExecState>, SearchTrace) {
        let mut trace = SearchTrace::new(
            nf.name(),
            self.config.strategy.name(),
            self.config.threads.max(1) as u64,
        );
        let (report, state) = self.analyze_inner(nf, catalog, Some(&mut trace));
        (report, state, trace)
    }

    /// The engine proper. With `trace` present every observation point
    /// feeds the trace (and wall-clock sampling is armed); with `None` the
    /// run takes the exact same decisions — tracing observes, never steers.
    /// The chain analysis passes one parent trace through every stage so
    /// per-stage counters accumulate into a single chain-level trace.
    pub(crate) fn analyze_inner(
        &self,
        nf: &NfSpec,
        catalog: &ContentionCatalog,
        mut trace: Option<&mut SearchTrace>,
    ) -> (AnalysisReport, Option<ExecState>) {
        let start = Instant::now();
        let timing = trace.is_some();
        let program = &nf.program;
        let icfg = Icfg::build(program);
        let costmap = CostMap::build(program, &icfg, Some(&nf.natives), self.config.loop_bound);
        // Sound per-NF cost envelope: the soundness oracle for every
        // completed path and the admissible bound for pruning/ranking. The
        // flow budget is the packet count — N packets can install at most N
        // flows starting from the NF's initial state.
        let envelope = analyze_nf(nf, &EnvelopeParams::new(u64::from(self.config.packets)));
        let catalog = Arc::new(catalog.clone());

        let engine = Engine {
            nf,
            program,
            icfg: &icfg,
            costmap: &costmap,
            envelope: &envelope,
            config: &self.config,
            timing,
        };

        let initial = ExecState::initial(
            program,
            SymMemory::new(Arc::new(nf.initial_memory.clone())),
            make_model(self.config.cache_model, catalog),
            self.config.packets,
        );

        let mut strategy = self.config.strategy.make(self.config.solver.seed);
        let score = engine.score(&initial);
        if let Some(t) = trace.as_deref_mut() {
            t.pushes += 1;
        }
        strategy.push(initial, score);

        // The most expensive completed state so far (by its worst packet,
        // then by its total; of equals, the latest). Only it is kept: a
        // quick LPM analysis completes thousands of states.
        let cost_of = |s: &ExecState| {
            (
                s.max_completed_cpp(),
                s.completed.iter().map(|m| m.est_cycles).sum::<u64>(),
            )
        };
        let mut best_finished: Option<ExecState> = None;
        let mut best_partial: Option<ExecState> = None;
        let mut steps: u64 = 0;
        let mut states_explored: u64 = 0;
        let mut forks: u64 = 0;
        let mut next_id: u64 = 0;
        // Best completed worst-packet cost seen so far: the branch-and-bound
        // incumbent. Frontier states whose envelope upper bound cannot beat
        // it are pruned (strictly `<`, so the argmax is preserved).
        let mut incumbent: u64 = 0;
        let threads = self.config.threads.max(1);
        // The search thread's solver: the slots no worker runs, then
        // synthesis. It is dropped, with what it remembers, with the analysis.
        let mut solver = Solver::new(self.config.solver);

        // The workers live as long as the search, not one round: a round then
        // costs two wake-ups instead of spawns, and every worker keeps the
        // `SymExpr` intern table it has warmed up and a solver that remembers
        // the components of the path constraints it has been asked about.
        std::thread::scope(|scope| {
            let workers = (threads > 1).then(|| Workers::spawn(scope, &engine, threads));
            while steps < self.config.step_budget && !strategy.is_empty() {
                if let Some(t) = trace.as_deref_mut() {
                    let frontier = strategy.len() as u64;
                    t.rounds += 1;
                    t.frontier_peak = t.frontier_peak.max(frontier);
                    t.frontier_hist.observe(frontier);
                }
                // Pop a fixed-size batch: the round's slots. Pruned states are
                // dropped here without counting as explored — that is the
                // measurable effect of the branch-and-bound bound.
                let mut batch: Vec<ExecState> = Vec::with_capacity(ROUND_SLOTS);
                while batch.len() < ROUND_SLOTS {
                    match strategy.pop() {
                        Some((s, _)) => {
                            if let Some(t) = trace.as_deref_mut() {
                                t.pops += 1;
                            }
                            match engine.prune_reason(&s, incumbent) {
                                None => batch.push(s),
                                Some(reason) => {
                                    if let Some(t) = trace.as_deref_mut() {
                                        t.prune(reason);
                                    }
                                }
                            }
                        }
                        None => break,
                    }
                }
                states_explored += batch.len() as u64;
                if let Some(t) = trace.as_deref_mut() {
                    t.occupancy_hist.observe(batch.len() as u64);
                }

                let explore_t0 = timing.then(Instant::now);
                let results: Vec<SlotResult> = match &workers {
                    Some(w) if batch.len() > 1 => w.run_round(batch),
                    _ => batch
                        .into_iter()
                        .map(|s| run_slot(&engine, &mut solver, s))
                        .collect(),
                };
                if let (Some(t), Some(t0)) = (trace.as_deref_mut(), explore_t0) {
                    t.explore_ns += t0.elapsed().as_nanos() as u64;
                    t.span(format!("explore round {}", t.rounds - 1), t0, 0);
                }

                let merge_t0 = timing.then(Instant::now);
                // Barrier: merge in slot order — deterministic for any thread
                // count.
                for r in results {
                    steps += r.steps;
                    forks += r.forks;
                    if let Some(t) = trace.as_deref_mut() {
                        t.absorb_slot(&r.trace);
                    }
                    if let Some(c) = r.completed {
                        // Soundness gate: every completed path's predicted
                        // per-packet cost must lie inside the static envelope. A
                        // violation means either the engine's cost accounting or
                        // the abstract interpretation is wrong — fail loudly
                        // rather than report a bound that cannot be trusted.
                        for (i, m) in c.completed.iter().enumerate() {
                            if let Err(violation) = envelope.check_packet(
                                m.est_cycles,
                                m.instructions,
                                m.loads + m.stores,
                                m.est_l3_misses,
                            ) {
                                panic!(
                                    "static envelope soundness violation: nf {}, packet {i}: {violation}",
                                    nf.name()
                                );
                            }
                        }
                        incumbent = incumbent.max(c.max_completed_cpp());
                        if let Some(t) = trace.as_deref_mut() {
                            t.completed_states += 1;
                        }
                        if best_finished
                            .as_ref()
                            .is_none_or(|best| cost_of(&c) >= cost_of(best))
                        {
                            best_finished = Some(c);
                        }
                    }
                    for mut child in r.children {
                        next_id += 1;
                        child.id = next_id;
                        if best_finished.is_none() {
                            maybe_update_partial(&mut best_partial, &child);
                        }
                        if let Some(reason) = engine.prune_reason(&child, incumbent) {
                            if let Some(t) = trace.as_deref_mut() {
                                t.prune(reason);
                            }
                            continue;
                        }
                        let s = engine.score(&child);
                        if let Some(t) = trace.as_deref_mut() {
                            t.pushes += 1;
                        }
                        strategy.push(child, s);
                    }
                    if let Some(surv) = r.survivor {
                        if best_finished.is_none() {
                            maybe_update_partial(&mut best_partial, &surv);
                        }
                        match engine.prune_reason(&surv, incumbent) {
                            Some(reason) => {
                                if let Some(t) = trace.as_deref_mut() {
                                    t.prune(reason);
                                }
                            }
                            None => {
                                let s = engine.score(&surv);
                                if let Some(t) = trace.as_deref_mut() {
                                    t.pushes += 1;
                                }
                                strategy.push(surv, s);
                            }
                        }
                    }
                }
                if let (Some(t), Some(t0)) = (trace.as_deref_mut(), merge_t0) {
                    t.merge_ns += t0.elapsed().as_nanos() as u64;
                }
                let dropped = strategy.truncate(self.config.state_cap);
                if let Some(t) = trace.as_deref_mut() {
                    t.truncated += dropped as u64;
                }
            }
        });

        if let Some(t) = trace.as_deref_mut() {
            t.states_explored += states_explored;
            t.steps += steps;
            t.forks += forks;
        }

        // Choose the most expensive completed state, or fall back to the
        // best partial state.
        let best = best_finished.or(best_partial);

        let synth_t0 = timing.then(Instant::now);
        let before_synth = (solver.stats(), solver.component_stats());
        let (packets, per_packet, havocs_total, havocs_reconciled, worst): (
            Vec<Packet>,
            Vec<crate::report::PathMetrics>,
            usize,
            usize,
            u64,
        ) = match &best {
            Some(state) => {
                let synth = synthesize(nf, state, &mut solver, &self.config.synth);
                if let Some(t) = trace.as_deref_mut() {
                    t.record_synthesis(&synth);
                }
                let worst = state.max_completed_cpp();
                let reconciled = synth.reconciled();
                (
                    synth.packets,
                    state.completed.clone(),
                    state.havocs.len(),
                    reconciled,
                    worst,
                )
            }
            None => (Vec::new(), Vec::new(), 0, 0, 0),
        };
        if let Some(t) = trace {
            t.record_site(SolverSite::Synthesis, solver.stats().since(before_synth.0));
            t.components
                .absorb(solver.component_stats().since(before_synth.1));
            if let Some(t0) = synth_t0 {
                t.synth_ns += t0.elapsed().as_nanos() as u64;
                t.span("synthesis", t0, 0);
            }
        }

        let report = AnalysisReport {
            nf_name: nf.name().to_string(),
            packets,
            per_packet,
            states_explored,
            steps,
            forks,
            analysis_time: start.elapsed(),
            havocs_total,
            havocs_reconciled,
            predicted_worst_cpp: worst,
        };
        (report, best)
    }
}

fn score_partial(max_cpp: u64, s: &ExecState) -> u64 {
    max_cpp + s.current.est_cycles + u64::from(s.packet_idx) * 10
}

fn maybe_update_partial(best: &mut Option<ExecState>, candidate: &ExecState) {
    let better = best
        .as_ref()
        .map(|b| {
            score_partial(candidate.max_completed_cpp(), candidate)
                > score_partial(b.max_completed_cpp(), b)
        })
        .unwrap_or(true);
    if better {
        *best = Some(candidate.clone());
    }
}

/// What one slot produced during its quantum.
struct SlotResult {
    /// Symbolic instructions executed.
    steps: u64,
    /// Forks performed.
    forks: u64,
    /// The state, if it completed all N packets.
    completed: Option<ExecState>,
    /// Forked children to reinsert into the frontier.
    children: Vec<ExecState>,
    /// The state, if its quantum expired while still runnable.
    survivor: Option<ExecState>,
    /// The slot's trace accumulator (absorbed at the barrier in slot
    /// order).
    trace: SlotTrace,
}

/// Runs one scheduling quantum for `state` on the executing thread's
/// `solver`, mirroring the sequential engine's inner loop.
fn run_slot(engine: &Engine, solver: &mut Solver, mut state: ExecState) -> SlotResult {
    let intern_before = engine.timing.then(intern_stats);
    let components_before = solver.component_stats();
    let mut ctx = SlotCtx {
        solver,
        forks: 0,
        components_before,
        trace: SlotTrace::new(engine.timing),
    };
    let mut res = SlotResult {
        steps: 0,
        forks: 0,
        completed: None,
        children: Vec::new(),
        survivor: None,
        trace: SlotTrace::default(),
    };
    for _ in 0..engine.config.quantum {
        res.steps += 1;
        match engine.step(&mut ctx, &mut state) {
            StepOutcome::Continue => {}
            StepOutcome::Forked(children) => {
                res.children = children;
                return finish_slot(res, ctx, intern_before);
            }
            StepOutcome::Completed => {
                res.completed = Some(state);
                return finish_slot(res, ctx, intern_before);
            }
            StepOutcome::Dead => {
                return finish_slot(res, ctx, intern_before);
            }
        }
    }
    res.survivor = Some(state);
    finish_slot(res, ctx, intern_before)
}

/// Closes out a slot: moves the context's accounting into the result and —
/// on traced runs — samples the worker thread's intern-table delta.
fn finish_slot(
    mut res: SlotResult,
    ctx: SlotCtx,
    intern_before: Option<InternStats>,
) -> SlotResult {
    res.forks = ctx.forks;
    res.trace = ctx.trace;
    res.trace.components = ctx.solver.component_stats().since(ctx.components_before);
    if let Some(before) = intern_before {
        let after = intern_stats();
        res.trace.intern_hits = after.hits.saturating_sub(before.hits);
        res.trace.intern_misses = after.misses.saturating_sub(before.misses);
        res.trace.intern_size = after.size;
    }
    res
}

/// The worker threads of one analysis. Slots go out over one shared queue
/// (whichever worker is free takes the next one) and come back tagged with
/// their index, so a round's results are in slot order however the slots
/// were distributed.
struct Workers {
    slots: mpsc::Sender<(usize, ExecState)>,
    results: mpsc::Receiver<(usize, std::thread::Result<SlotResult>)>,
}

impl Workers {
    /// Spawns `threads` workers that run slots until the `Workers` is
    /// dropped, which closes the queue.
    fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        engine: &'scope Engine,
        threads: usize,
    ) -> Workers {
        let (slots, queue) = mpsc::channel::<(usize, ExecState)>();
        let (done, results) = mpsc::channel();
        let queue = Arc::new(Mutex::new(queue));
        for _ in 0..threads {
            let (queue, done) = (Arc::clone(&queue), done.clone());
            scope.spawn(move || {
                let mut solver = Solver::new(engine.config.solver);
                loop {
                    // The lock is held while waiting: one idle worker waits on
                    // the queue, the others on the lock, and each slot wakes
                    // one.
                    let slot = queue.lock().expect("slot queue lock").recv();
                    let Ok((i, state)) = slot else { break };
                    // A panicking slot (an armed invariant) must reach the
                    // search thread, which would otherwise wait for it
                    // forever.
                    let result =
                        catch_unwind(AssertUnwindSafe(|| run_slot(engine, &mut solver, state)));
                    if done.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        Workers { slots, results }
    }

    /// Executes a round's slots and returns the results in slot order.
    fn run_round(&self, batch: Vec<ExecState>) -> Vec<SlotResult> {
        let mut results: Vec<Option<SlotResult>> = batch.iter().map(|_| None).collect();
        for slot in batch.into_iter().enumerate() {
            self.slots.send(slot).expect("workers outlive the search");
        }
        for _ in 0..results.len() {
            match self.results.recv().expect("workers outlive the search") {
                (i, Ok(result)) => results[i] = Some(result),
                (_, Err(panic)) => resume_unwind(panic),
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot ran exactly once"))
            .collect()
    }
}

enum StepOutcome {
    Continue,
    Forked(Vec<ExecState>),
    Completed,
    Dead,
}

/// Outcome of a path-feasibility query, carrying whatever satisfying model
/// became available so forked children can cache it as their witness.
enum Feasibility {
    /// Provably infeasible.
    No,
    /// The state's cached witness already satisfies the new constraint.
    Witness,
    /// The solver produced a fresh satisfying model.
    Fresh(Arc<Model>),
    /// Solver budget exhausted — treated as feasible (the engine would
    /// rather explore a possibly-infeasible path than prune a feasible one;
    /// synthesis re-checks everything at the end), but no witness survives.
    Unknown,
}

/// Per-slot mutable execution context: the executing thread's solver, fork
/// accounting, and the slot's trace accumulator. Shared, read-only program
/// structures live in [`Engine`].
struct SlotCtx<'a> {
    solver: &'a mut Solver,
    forks: u64,
    /// The solver's component counts when the slot started.
    components_before: ComponentStats,
    trace: SlotTrace,
}

/// Shared, immutable analysis context (safe to reference from workers).
struct Engine<'a> {
    nf: &'a NfSpec,
    program: &'a Program,
    icfg: &'a Icfg,
    costmap: &'a CostMap,
    envelope: &'a NfEnvelope,
    config: &'a AnalysisConfig,
    /// True when the run is traced: arms the advisory wall-clock samples
    /// (the deterministic counters are collected either way; they are
    /// simply discarded when no trace is attached).
    timing: bool,
}

impl Engine<'_> {
    /// The A*-style score: current cost plus potential cost (§3.1). The
    /// potential is either the paper's heuristic cost map or the sound
    /// static envelope's remaining upper bound, per configuration.
    fn score(&self, state: &ExecState) -> SearchScore {
        let mut potential = 0u64;
        for frame in &state.frames {
            let graph = self.icfg.func(frame.func);
            let block_len = self.program.functions[frame.func as usize].blocks
                [frame.block as usize]
                .insts
                .len();
            let node = graph.node_at(frame.block, frame.inst_idx.min(block_len));
            potential = potential.saturating_add(match self.config.potential {
                PotentialKind::CostMap => self.costmap.potential(frame.func, node),
                PotentialKind::StaticUpper => self.envelope.remaining_upper(frame.func, node),
            });
        }
        SearchScore::new(
            state.max_completed_cpp() + state.current.est_cycles,
            potential,
        )
    }

    /// The three ingredients of [`Engine::static_ub`]: the best packet
    /// already completed, the in-flight packet's sunk cost plus the
    /// envelope's remaining upper bound from every live frame, and whether
    /// whole packets are still ahead (which drags in the full program
    /// envelope).
    fn static_ub_parts(&self, state: &ExecState) -> (u64, u64, bool) {
        let mut in_flight = state.current.est_cycles;
        for frame in &state.frames {
            let graph = self.icfg.func(frame.func);
            let block_len = self.program.functions[frame.func as usize].blocks
                [frame.block as usize]
                .insts
                .len();
            let node = graph.node_at(frame.block, frame.inst_idx.min(block_len));
            in_flight = in_flight.saturating_add(self.envelope.remaining_upper(frame.func, node));
        }
        let pending = state.packet_idx + 1 < state.packets_target;
        (state.max_completed_cpp(), in_flight, pending)
    }

    /// Sound upper bound on the worst per-packet cost this state can still
    /// reach: the best packet already completed, the in-flight packet's
    /// sunk cost plus the static remaining upper bound, and — if whole
    /// packets are still ahead — the full program envelope. Admissible, so
    /// pruning on it never discards the true worst-case path.
    fn static_ub(&self, state: &ExecState) -> u64 {
        let (completed, in_flight, pending) = self.static_ub_parts(state);
        let mut ub = completed.max(in_flight);
        if pending {
            ub = ub.max(self.envelope.cycles.upper);
        }
        ub
    }

    /// The branch-and-bound prune decision — exactly
    /// `config.prune && incumbent > 0 && static_ub(state) < incumbent` —
    /// with the binding bound reported as the [`PruneReason`] when the
    /// state is pruned. States still facing whole packets bucket as
    /// [`PruneReason::EnvelopeUpper`] (the full program envelope was the
    /// applied bound); final-packet states bucket by whichever of their two
    /// bounds dominated. While the envelope soundness gate holds, the
    /// incumbent — itself a completed per-packet cost — can never exceed
    /// the envelope upper bound, so the envelope-upper bucket staying at
    /// zero is an observable soundness canary.
    fn prune_reason(&self, state: &ExecState, incumbent: u64) -> Option<PruneReason> {
        if !self.config.prune || incumbent == 0 {
            return None;
        }
        let (completed, in_flight, pending) = self.static_ub_parts(state);
        let mut ub = completed.max(in_flight);
        if pending {
            ub = ub.max(self.envelope.cycles.upper);
        }
        debug_assert_eq!(ub, self.static_ub(state));
        if ub >= incumbent {
            return None;
        }
        Some(if pending {
            PruneReason::EnvelopeUpper
        } else if completed >= in_flight {
            PruneReason::IncumbentVsCompleted
        } else {
            PruneReason::IncumbentVsInFlight
        })
    }

    fn fork_state(&self, ctx: &mut SlotCtx, state: &ExecState) -> ExecState {
        ctx.forks += 1;
        // Ids are provisional inside a round; the merge barrier renumbers
        // children in slot order so ids stay deterministic and unique.
        state.clone()
    }

    fn charge(&self, state: &mut ExecState, class: CostClass) {
        state.current.instructions += 1;
        state.current.est_cycles += class.base_cycles();
    }

    /// Executes one instruction or terminator of the given state.
    fn step(&self, ctx: &mut SlotCtx, state: &mut ExecState) -> StepOutcome {
        if state.status != StateStatus::Running {
            return match state.status {
                StateStatus::Completed => StepOutcome::Completed,
                _ => StepOutcome::Dead,
            };
        }
        let frame = state.top();
        let func = &self.program.functions[frame.func as usize];
        let block = &func.blocks[frame.block as usize];
        if frame.inst_idx < block.insts.len() {
            let inst = block.insts[frame.inst_idx].clone();
            self.exec_inst(ctx, state, inst)
        } else {
            let term = block.term.clone();
            self.exec_term(ctx, state, term)
        }
    }

    fn operand(frame: &Frame, op: &Operand) -> SymExpr {
        match op {
            Operand::Reg(r) => frame.regs[*r as usize].clone(),
            Operand::Imm(v) => SymExpr::constant(*v),
        }
    }

    fn advance(state: &mut ExecState) {
        state.top_mut().inst_idx += 1;
    }

    fn exec_inst(&self, ctx: &mut SlotCtx, state: &mut ExecState, inst: Inst) -> StepOutcome {
        match inst {
            Inst::Mov { dst, src } => {
                self.charge(state, CostClass::Mov);
                let v = Self::operand(state.top(), &src);
                state.top_mut().regs[dst as usize] = v;
                Self::advance(state);
                StepOutcome::Continue
            }
            Inst::Bin { dst, op, a, b } => {
                self.charge(state, CostClass::Alu);
                let av = Self::operand(state.top(), &a);
                let bv = Self::operand(state.top(), &b);
                state.top_mut().regs[dst as usize] = SymExpr::bin(op, av, bv);
                Self::advance(state);
                StepOutcome::Continue
            }
            Inst::Cmp { dst, op, a, b } => {
                self.charge(state, CostClass::Cmp);
                let av = Self::operand(state.top(), &a);
                let bv = Self::operand(state.top(), &b);
                state.top_mut().regs[dst as usize] = SymExpr::cmp(op, av, bv);
                Self::advance(state);
                StepOutcome::Continue
            }
            Inst::Select {
                dst,
                cond,
                then_v,
                else_v,
            } => {
                self.charge(state, CostClass::Select);
                let c = Self::operand(state.top(), &cond);
                let tv = Self::operand(state.top(), &then_v);
                let ev = Self::operand(state.top(), &else_v);
                match c.as_const() {
                    Some(v) => {
                        state.top_mut().regs[dst as usize] = if v != 0 { tv } else { ev };
                        Self::advance(state);
                        StepOutcome::Continue
                    }
                    None => {
                        // Fork on the condition so pointers derived from the
                        // select stay concrete (tree/trie descent).
                        let mut children = Vec::new();
                        for (expected, value) in [(true, tv), (false, ev)] {
                            let c_constraint = if expected {
                                Constraint::require_true(c.clone())
                            } else {
                                Constraint::require_false(c.clone())
                            };
                            match self.feasible(ctx, state, &c_constraint) {
                                Feasibility::No => {}
                                verdict => {
                                    let mut child = self.fork_state(ctx, state);
                                    apply_witness(&mut child, verdict);
                                    child.assume(c_constraint);
                                    child.top_mut().regs[dst as usize] = value.clone();
                                    Self::advance(&mut child);
                                    children.push(child);
                                }
                            }
                        }
                        if children.is_empty() {
                            StepOutcome::Dead
                        } else {
                            StepOutcome::Forked(children)
                        }
                    }
                }
            }
            Inst::PacketField { dst, field } => {
                self.charge(state, CostClass::PacketRead);
                let atom = state.atoms.field_atom(state.packet_idx, field);
                state.top_mut().regs[dst as usize] = SymExpr::atom(atom);
                Self::advance(state);
                StepOutcome::Continue
            }
            Inst::Hash { dst, func, args } => {
                self.charge(state, CostClass::Hash);
                let vals: Vec<SymExpr> =
                    args.iter().map(|a| Self::operand(state.top(), a)).collect();
                if vals.iter().all(SymExpr::is_concrete) {
                    let concrete: Vec<u64> =
                        vals.iter().map(|v| v.as_const().unwrap_or(0)).collect();
                    state.top_mut().regs[dst as usize] = SymExpr::constant(func.apply(&concrete));
                } else {
                    let atom = state.atoms.havoc_atom(hash_bits(func));
                    state.havocs.push(HavocRecord {
                        output: atom,
                        func,
                        inputs: vals,
                        packet: state.packet_idx,
                    });
                    state.top_mut().regs[dst as usize] = SymExpr::atom(atom);
                }
                Self::advance(state);
                StepOutcome::Continue
            }
            Inst::Load { dst, addr, width } => {
                self.charge(state, CostClass::Load);
                state.current.loads += 1;
                let addr_expr = Self::operand(state.top(), &addr);
                self.memory_op(ctx, state, addr_expr, width.bytes(), MemOp::Load { dst })
            }
            Inst::Store { addr, value, width } => {
                self.charge(state, CostClass::Store);
                state.current.stores += 1;
                let addr_expr = Self::operand(state.top(), &addr);
                let val = Self::operand(state.top(), &value);
                self.memory_op(
                    ctx,
                    state,
                    addr_expr,
                    width.bytes(),
                    MemOp::Store { value: val },
                )
            }
            Inst::Call { dst, func, args } => {
                self.charge(state, CostClass::Call);
                let vals: Vec<SymExpr> =
                    args.iter().map(|a| Self::operand(state.top(), a)).collect();
                Self::advance(state);
                let frame = Frame::call(self.program, func, vals, dst);
                state.frames.push(frame);
                StepOutcome::Continue
            }
            Inst::Native { dst, func, args } => {
                self.charge(state, CostClass::Native);
                let before = ctx.solver.stats();
                let t0 = ctx.trace.timing.then(Instant::now);
                let vals: Vec<u64> = args
                    .iter()
                    .map(|a| {
                        let e = Self::operand(state.top(), a);
                        self.concretize_now(ctx, state, &e)
                    })
                    .collect();
                let helper = match self.nf.natives.get(func) {
                    Some(h) => h.clone(),
                    None => return StepOutcome::Dead,
                };
                state.current.est_cycles += helper.estimated_cycles();
                let ret = {
                    let ExecState {
                        memory,
                        atoms,
                        constraints,
                        ..
                    } = state;
                    let mut view = ConcretizingMem {
                        mem: memory,
                        solver: ctx.solver,
                        atoms,
                        constraints,
                    };
                    let mut sink = NullNativeSink;
                    helper.call(&mut view, &vals, &mut sink)
                };
                if let Some(t0) = t0 {
                    ctx.trace.solve_ns += t0.elapsed().as_nanos() as u64;
                }
                ctx.trace
                    .record(SolverSite::Concretize, ctx.solver.stats().since(before));
                if let Some(d) = dst {
                    state.top_mut().regs[d as usize] = SymExpr::constant(ret);
                }
                Self::advance(state);
                StepOutcome::Continue
            }
        }
    }

    fn exec_term(&self, ctx: &mut SlotCtx, state: &mut ExecState, term: Terminator) -> StepOutcome {
        match term {
            Terminator::Jump(target) => {
                self.charge(state, CostClass::Jump);
                let top = state.top_mut();
                top.block = target;
                top.inst_idx = 0;
                StepOutcome::Continue
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                self.charge(state, CostClass::Branch);
                let c = Self::operand(state.top(), &cond);
                match c.as_const() {
                    Some(v) => {
                        let top = state.top_mut();
                        top.block = if v != 0 { then_bb } else { else_bb };
                        top.inst_idx = 0;
                        StepOutcome::Continue
                    }
                    None => {
                        let mut children = Vec::new();
                        for (expected, target) in [(true, then_bb), (false, else_bb)] {
                            let constraint = if expected {
                                Constraint::require_true(c.clone())
                            } else {
                                Constraint::require_false(c.clone())
                            };
                            match self.feasible(ctx, state, &constraint) {
                                Feasibility::No => {}
                                verdict => {
                                    let mut child = self.fork_state(ctx, state);
                                    apply_witness(&mut child, verdict);
                                    child.assume(constraint);
                                    let top = child.top_mut();
                                    top.block = target;
                                    top.inst_idx = 0;
                                    children.push(child);
                                }
                            }
                        }
                        if children.is_empty() {
                            StepOutcome::Dead
                        } else {
                            StepOutcome::Forked(children)
                        }
                    }
                }
            }
            Terminator::Return(v) => {
                let _ = ctx;
                self.charge(state, CostClass::Return);
                let ret_val = v.map(|op| Self::operand(state.top(), &op));
                let finished = state.frames.pop().expect("a frame is active");
                if state.frames.is_empty() {
                    state.finish_packet(self.program);
                    if state.status == StateStatus::Completed {
                        StepOutcome::Completed
                    } else {
                        StepOutcome::Continue
                    }
                } else {
                    if let (Some(dst), Some(val)) = (finished.ret_dst, ret_val) {
                        state.top_mut().regs[dst as usize] = val;
                    }
                    StepOutcome::Continue
                }
            }
        }
    }

    /// Is `constraint` compatible with the state's path constraint? The
    /// cached witness is tried first: a model that satisfies every path
    /// constraint *and* the new constraint proves the extended system
    /// satisfiable without a solver call (a few percent of queries on
    /// chains, under a third on single NFs). Unknown solver verdicts count
    /// as feasible (synthesis re-checks everything at the end).
    fn feasible(
        &self,
        ctx: &mut SlotCtx,
        state: &ExecState,
        constraint: &Constraint,
    ) -> Feasibility {
        if let Some(w) = &state.witness {
            if w.satisfies(constraint) {
                ctx.trace.witness_hits += 1;
                return Feasibility::Witness;
            }
        }
        ctx.trace.witness_misses += 1;
        let before = ctx.solver.stats();
        let t0 = ctx.trace.timing.then(Instant::now);
        let outcome = ctx.solver.solve_with_extra(
            &state.atoms,
            &state.constraints,
            std::slice::from_ref(constraint),
        );
        if let Some(t0) = t0 {
            ctx.trace.solve_ns += t0.elapsed().as_nanos() as u64;
        }
        ctx.trace.record(
            SolverSite::FeasibilityFork,
            ctx.solver.stats().since(before),
        );
        match outcome {
            SolveOutcome::Unsat => Feasibility::No,
            SolveOutcome::Sat(m) => Feasibility::Fresh(Arc::new(m)),
            SolveOutcome::Unknown => Feasibility::Unknown,
        }
    }

    fn concretize_now(&self, ctx: &mut SlotCtx, state: &ExecState, expr: &SymExpr) -> u64 {
        ctx.solver
            .concretize(&state.atoms, &state.constraints, expr)
            .unwrap_or(0)
    }

    /// Handles a load or store, concretizing symbolic pointers through the
    /// cache model (§3.3) and forking over the top candidates.
    fn memory_op(
        &self,
        ctx: &mut SlotCtx,
        state: &mut ExecState,
        addr: SymExpr,
        width: u64,
        op: MemOp,
    ) -> StepOutcome {
        match addr.as_const() {
            Some(a) => {
                self.apply_memory_access(ctx, state, a, width, &op);
                Self::advance(state);
                StepOutcome::Continue
            }
            None => {
                let before = ctx.solver.stats();
                let t0 = ctx.trace.timing.then(Instant::now);
                let candidates = self.resolve_symbolic_address(ctx, state, &addr);
                if let Some(t0) = t0 {
                    ctx.trace.solve_ns += t0.elapsed().as_nanos() as u64;
                }
                ctx.trace
                    .record(SolverSite::AddressResolve, ctx.solver.stats().since(before));
                if candidates.is_empty() {
                    return StepOutcome::Dead;
                }
                if candidates.len() == 1 {
                    let (a, model) = candidates.into_iter().next().expect("len checked");
                    state.witness = model;
                    state.assume(Constraint::require_true(SymExpr::cmp(
                        CmpOp::Eq,
                        addr,
                        SymExpr::constant(a),
                    )));
                    self.apply_memory_access(ctx, state, a, width, &op);
                    Self::advance(state);
                    return StepOutcome::Continue;
                }
                let mut children = Vec::new();
                for (a, model) in candidates {
                    let mut child = self.fork_state(ctx, state);
                    child.witness = model;
                    child.assume(Constraint::require_true(SymExpr::cmp(
                        CmpOp::Eq,
                        addr.clone(),
                        SymExpr::constant(a),
                    )));
                    self.apply_memory_access(ctx, &mut child, a, width, &op);
                    Self::advance(&mut child);
                    children.push(child);
                }
                StepOutcome::Forked(children)
            }
        }
    }

    /// Ranks and filters candidate concrete addresses for a symbolic
    /// pointer. Each candidate comes with the model that realises it (when
    /// one is known), so the taking state can cache it as its witness.
    fn resolve_symbolic_address(
        &self,
        ctx: &mut SlotCtx,
        state: &ExecState,
        addr: &SymExpr,
    ) -> Vec<(u64, Option<Arc<Model>>)> {
        let raw = state.cache.adversarial_candidates(
            &self.nf.data_regions,
            &state.recent_addrs,
            self.config.fork_candidates + 6,
        );
        let mut out: Vec<(u64, Option<Arc<Model>>)> = Vec::new();
        for line in raw {
            if out.len() >= self.config.fork_candidates {
                break;
            }
            // First try to pin the pointer exactly at the candidate line's
            // base (this is what the solver's affine inversion handles
            // directly); failing that, allow any address within the line.
            let exact = [(CmpOp::Eq, line)];
            let within = [
                (CmpOp::Uge, line),
                (CmpOp::Ult, line + castan_mem::LINE_SIZE),
            ];
            for bounds in [&exact[..], &within] {
                let extra: Vec<Constraint> = bounds
                    .iter()
                    .map(|&(op, bound)| {
                        Constraint::require_true(SymExpr::cmp(
                            op,
                            addr.clone(),
                            SymExpr::constant(bound),
                        ))
                    })
                    .collect();
                // The cached witness may already realise this candidate.
                let model: Option<Arc<Model>> = match &state.witness {
                    Some(w) if extra.iter().all(|c| w.satisfies(c)) => Some(w.clone()),
                    _ => match ctx
                        .solver
                        .solve_with_extra(&state.atoms, &state.constraints, &extra)
                    {
                        SolveOutcome::Sat(m) => Some(Arc::new(m)),
                        _ => None,
                    },
                };
                if let Some(m) = model {
                    let a = m.eval(addr);
                    if !out.iter().any(|(x, _)| *x == a) {
                        out.push((a, Some(m)));
                    }
                    break;
                }
            }
        }
        if out.is_empty() {
            // Fall back to any feasible concrete value.
            match ctx
                .solver
                .solve_with_extra(&state.atoms, &state.constraints, &[])
            {
                SolveOutcome::Sat(m) => {
                    let a = m.eval(addr);
                    out.push((a, Some(Arc::new(m))));
                }
                _ => {
                    // Last resort: evaluate under a default assignment so the
                    // exploration can continue; synthesis re-solves the final
                    // constraint set anyway.
                    out.push((addr.eval(&|_| 0), None));
                }
            }
        }
        out
    }

    fn apply_memory_access(
        &self,
        ctx: &mut SlotCtx,
        state: &mut ExecState,
        addr: u64,
        width: u64,
        op: &MemOp,
    ) {
        state.current.est_cycles += state.cache.record_access(addr);
        state.note_address(addr);
        match op {
            MemOp::Load { dst } => {
                let before = ctx.solver.stats();
                let t0 = ctx.trace.timing.then(Instant::now);
                let value = {
                    let ExecState {
                        memory,
                        atoms,
                        constraints,
                        ..
                    } = state;
                    let solver = &mut *ctx.solver;
                    memory.load(addr, width, &mut |e| {
                        solver.concretize(atoms, constraints, e).unwrap_or(0)
                    })
                };
                if let Some(t0) = t0 {
                    ctx.trace.solve_ns += t0.elapsed().as_nanos() as u64;
                }
                ctx.trace
                    .record(SolverSite::Concretize, ctx.solver.stats().since(before));
                state.top_mut().regs[*dst as usize] = mask_width(value, width);
            }
            MemOp::Store { value } => {
                state.memory.store(addr, width, value.clone());
            }
        }
    }
}

/// Installs the feasibility verdict's witness on a freshly forked child.
fn apply_witness(child: &mut ExecState, verdict: Feasibility) {
    match verdict {
        // The inherited witness satisfies the new constraint too: keep it.
        Feasibility::Witness => {}
        Feasibility::Fresh(m) => child.witness = Some(m),
        // Feasible-by-doubt: the inherited witness failed the constraint.
        Feasibility::Unknown => child.witness = None,
        Feasibility::No => unreachable!("infeasible branches are not forked"),
    }
}

fn hash_bits(func: HashFunc) -> u32 {
    func.output_bits()
}

/// Truncates a loaded value to the access width (mirrors the interpreter's
/// zero-extension semantics); symbolic values are masked symbolically.
fn mask_width(value: SymExpr, width: u64) -> SymExpr {
    if width >= 8 {
        return value;
    }
    let mask = (1u64 << (width * 8)) - 1;
    SymExpr::bin(castan_ir::BinOp::And, value, SymExpr::constant(mask))
}

enum MemOp {
    Load { dst: castan_ir::Reg },
    Store { value: SymExpr },
}

/// Memory view handed to native helpers during analysis: symbolic cells are
/// concretized on demand (the paper's treatment of external calls).
struct ConcretizingMem<'a> {
    mem: &'a mut SymMemory,
    solver: &'a mut Solver,
    atoms: &'a crate::expr::AtomTable,
    constraints: &'a crate::state::ConstraintSet,
}

impl MemAccess for ConcretizingMem<'_> {
    fn read(&mut self, addr: u64, len: u64) -> u64 {
        let ConcretizingMem {
            mem,
            solver,
            atoms,
            constraints,
        } = self;
        let e = mem.load(addr, len, &mut |sym| {
            solver.concretize(atoms, constraints, sym).unwrap_or(0)
        });
        match e.as_const() {
            Some(v) => v,
            None => {
                let v = solver.concretize(atoms, constraints, &e).unwrap_or(0);
                mem.store(addr, len, SymExpr::constant(v));
                v
            }
        }
    }

    fn write(&mut self, addr: u64, value: u64, len: u64) {
        self.mem.store(addr, len, SymExpr::constant(value));
    }
}

/// Native helpers report their cost through `estimated_cycles` during
/// analysis; their fine-grained sink events are ignored here (the concrete
/// testbed accounts for them exactly).
struct NullNativeSink;

impl ExecSink for NullNativeSink {
    fn retire(&mut self, _class: CostClass) {}
    fn mem_access(&mut self, _addr: u64, _width: u64, _is_write: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use castan_mem::{ContentionCatalog, HierarchyConfig, MemoryHierarchy};
    use castan_nf::NfId;
    use castan_packet::PacketField;

    fn catalog_for(nf: &NfSpec) -> ContentionCatalog {
        // Ground-truth catalogue over a slice of the NF's first data region
        // (fast; the discovery pipeline is exercised in castan-mem's tests).
        let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), 1);
        let lines: Vec<u64> = nf
            .data_regions
            .first()
            .map(|r| {
                (0..4096u64)
                    .map(|i| r.base + (i * 8 * 64) % r.len)
                    .collect()
            })
            .unwrap_or_default();
        ContentionCatalog::from_ground_truth(&mut hier, lines)
    }

    #[test]
    fn analyzes_the_nop_without_workload_content() {
        let nf = castan_nf::nf_by_id(NfId::Nop);
        let castan = Castan::new(AnalysisConfig::quick());
        let report = castan.analyze(&nf, &ContentionCatalog::default());
        assert_eq!(report.packets.len(), 6);
        assert!(report.states_explored >= 1);
        assert!(report.steps >= 1);
        assert_eq!(report.havocs_total, 0);
    }

    #[test]
    fn lpm_trie_workload_targets_the_deep_routes() {
        let nf = castan_nf::nf_by_id(NfId::LpmTrie);
        let mut cfg = AnalysisConfig::quick();
        cfg.packets = 4;
        cfg.step_budget = 40_000;
        let castan = Castan::new(cfg);
        let report = castan.analyze(&nf, &catalog_for(&nf));
        assert_eq!(report.packets.len(), 4);
        // The synthesized destinations should hit long prefixes: every /32
        // route in the table starts with first octet in 10..=17.
        let deep_hits = report
            .packets
            .iter()
            .filter(|p| {
                let dst = p.field(PacketField::DstIp) as u32;
                (10..=17).contains(&(dst >> 24))
            })
            .count();
        assert!(
            deep_hits >= report.packets.len() / 2,
            "expected most packets to target the routed space, got {deep_hits}/{}",
            report.packets.len()
        );
        assert!(report.predicted_worst_cpp > 0);
    }

    #[test]
    fn lpm_direct_workload_is_synthesized_with_distinct_flows() {
        let nf = castan_nf::nf_by_id(NfId::LpmDirect1);
        let mut cfg = AnalysisConfig::quick();
        cfg.packets = 5;
        cfg.step_budget = 20_000;
        let castan = Castan::new(cfg);
        let report = castan.analyze(&nf, &catalog_for(&nf));
        assert_eq!(report.packets.len(), 5);
        assert!(report.predicted_worst_cpp > 0);
        assert!(report.forks > 0, "branching on the guard must fork");
    }

    #[test]
    fn nat_hash_table_analysis_havocs_the_hash() {
        let nf = castan_nf::nf_by_id(NfId::NatHashTable);
        let mut cfg = AnalysisConfig::quick();
        cfg.packets = 3;
        cfg.step_budget = 30_000;
        let castan = Castan::new(cfg);
        let report = castan.analyze(&nf, &catalog_for(&nf));
        assert!(
            report.havocs_total >= 1,
            "the NAT path must havoc its flow hash at least once"
        );
        assert_eq!(report.packets.len(), 3);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let nf = castan_nf::nf_by_id(NfId::LpmTrie);
        let catalog = catalog_for(&nf);
        let run = |threads: usize| {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 3;
            cfg.step_budget = 12_000;
            cfg.threads = threads;
            Castan::new(cfg).analyze(&nf, &catalog)
        };
        let base = run(1);
        for threads in [2, 4] {
            let r = run(threads);
            assert_eq!(r.packets, base.packets, "{threads} threads: packets");
            assert_eq!(r.per_packet, base.per_packet, "{threads} threads: metrics");
            assert_eq!(r.states_explored, base.states_explored);
            assert_eq!(r.steps, base.steps);
            assert_eq!(r.forks, base.forks);
            assert_eq!(r.predicted_worst_cpp, base.predicted_worst_cpp);
        }
    }

    #[test]
    fn pruning_reduces_explored_states() {
        let nf = castan_nf::nf_by_id(NfId::NatHashTable);
        let catalog = catalog_for(&nf);
        let run = |prune: bool| {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 3;
            cfg.step_budget = 30_000;
            cfg.prune = prune;
            Castan::new(cfg).analyze(&nf, &catalog)
        };
        let pruned = run(true);
        let full = run(false);
        assert!(
            pruned.states_explored < full.states_explored,
            "branch-and-bound must discard dominated states: {} pruned vs {} full",
            pruned.states_explored,
            full.states_explored
        );
        assert!(pruned.predicted_worst_cpp > 0);
        // The bound is admissible: discarding dominated states must not
        // weaken the prediction a fixed budget reaches.
        assert!(
            pruned.predicted_worst_cpp >= full.predicted_worst_cpp,
            "pruning weakened the prediction: {} < {}",
            pruned.predicted_worst_cpp,
            full.predicted_worst_cpp
        );
    }

    #[test]
    fn static_upper_potential_synthesizes_with_every_strategy() {
        let nf = castan_nf::nf_by_id(NfId::LpmTrie);
        let catalog = catalog_for(&nf);
        for strategy in SearchStrategyKind::ALL {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 3;
            cfg.step_budget = 15_000;
            cfg.strategy = strategy;
            cfg.potential = PotentialKind::StaticUpper;
            let report = Castan::new(cfg).analyze(&nf, &catalog);
            assert_eq!(
                report.packets.len(),
                3,
                "strategy {} with the static potential must synthesize",
                strategy.name()
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_report_with_static_potential() {
        let nf = castan_nf::nf_by_id(NfId::NatHashTable);
        let catalog = catalog_for(&nf);
        let run = |threads: usize| {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 3;
            cfg.step_budget = 18_000;
            cfg.threads = threads;
            cfg.potential = PotentialKind::StaticUpper;
            Castan::new(cfg).analyze(&nf, &catalog)
        };
        let base = run(1);
        for threads in [2, 4] {
            let r = run(threads);
            assert_eq!(r.per_packet, base.per_packet, "{threads} threads: metrics");
            assert_eq!(r.states_explored, base.states_explored);
            assert_eq!(r.steps, base.steps);
            assert_eq!(r.forks, base.forks);
        }
    }

    #[test]
    fn envelope_gate_holds_across_the_catalog() {
        // Every completed state is checked against the static envelope at
        // the merge barrier; a violation panics. Sweep the whole catalog
        // with a small budget so the gate sees each NF's paths.
        for nf in castan_nf::all_nfs() {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 2;
            cfg.step_budget = 8_000;
            let report = Castan::new(cfg).analyze(&nf, &catalog_for(&nf));
            assert_eq!(report.nf_name, nf.name());
        }
    }

    /// Field-by-field report equality, excluding only the wall clock.
    fn assert_reports_identical(a: &AnalysisReport, b: &AnalysisReport, what: &str) {
        assert_eq!(a.nf_name, b.nf_name, "{what}: nf_name");
        assert_eq!(a.packets, b.packets, "{what}: packets");
        assert_eq!(a.per_packet, b.per_packet, "{what}: per_packet");
        assert_eq!(a.states_explored, b.states_explored, "{what}: states");
        assert_eq!(a.steps, b.steps, "{what}: steps");
        assert_eq!(a.forks, b.forks, "{what}: forks");
        assert_eq!(a.havocs_total, b.havocs_total, "{what}: havocs_total");
        assert_eq!(
            a.havocs_reconciled, b.havocs_reconciled,
            "{what}: havocs_reconciled"
        );
        assert_eq!(
            a.predicted_worst_cpp, b.predicted_worst_cpp,
            "{what}: predicted_worst_cpp"
        );
    }

    #[test]
    fn tracing_observes_but_never_steers() {
        // The tentpole invariant: a traced run's report is byte-identical
        // to an untraced run for every strategy × thread count.
        let nf = castan_nf::nf_by_id(NfId::LpmTrie);
        let catalog = catalog_for(&nf);
        for strategy in SearchStrategyKind::ALL {
            for threads in [1usize, 2, 4] {
                let mut cfg = AnalysisConfig::quick();
                cfg.packets = 3;
                cfg.step_budget = 10_000;
                cfg.strategy = strategy;
                cfg.threads = threads;
                let castan = Castan::new(cfg);
                let plain = castan.analyze(&nf, &catalog);
                let (traced, trace) = castan.analyze_traced(&nf, &catalog);
                let what = format!("{} × {threads} threads", strategy.name());
                assert_reports_identical(&plain, &traced, &what);
                assert_eq!(trace.states_explored, plain.states_explored, "{what}");
                assert_eq!(trace.steps, plain.steps, "{what}");
                assert_eq!(trace.forks, plain.forks, "{what}");
            }
        }
    }

    #[test]
    fn trace_deterministic_counters_are_thread_count_invariant() {
        let nf = castan_nf::nf_by_id(NfId::NatHashTable);
        let catalog = catalog_for(&nf);
        let run = |threads: usize| {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 3;
            cfg.step_budget = 18_000;
            cfg.threads = threads;
            let (_, trace) = Castan::new(cfg).analyze_traced(&nf, &catalog);
            trace.deterministic_json().render()
        };
        let base = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), base, "{threads} threads");
        }
    }

    #[test]
    fn trace_counters_describe_the_search() {
        let nf = castan_nf::nf_by_id(NfId::LpmTrie);
        let mut cfg = AnalysisConfig::quick();
        cfg.packets = 3;
        cfg.step_budget = 12_000;
        let (report, trace) = Castan::new(cfg).analyze_traced(&nf, &catalog_for(&nf));
        assert_eq!(trace.label, nf.name());
        assert_eq!(trace.strategy, "priority");
        assert!(trace.rounds > 0, "at least one round ran");
        assert_eq!(
            trace.frontier_hist.count(),
            trace.rounds,
            "one frontier sample per round"
        );
        assert_eq!(trace.occupancy_hist.count(), trace.rounds);
        assert!(trace.pops >= trace.states_explored);
        assert!(trace.pushes > 0);
        assert!(
            trace.witness_hits > 0,
            "the witness cache must serve some feasibility queries"
        );
        assert!(trace.solver_totals().total() > 0, "solver calls happened");
        assert!(
            trace.site(SolverSite::Synthesis).total() > 0,
            "synthesis consulted the solver"
        );
        // Conservation: pops + frontier remainder == pushes - truncated,
        // minus whatever was pruned at pop time; the weaker invariant
        // below is what must always hold.
        assert!(trace.pushes >= trace.pops.saturating_sub(trace.prunes_total()));
        assert_eq!(report.packets.len(), 3);
        // Wall-clock sampling was armed.
        assert!(trace.explore_ns > 0);
        assert!(!trace.spans.is_empty());
    }

    #[test]
    fn in_flight_prune_bucket_fires_on_the_unbalanced_lb() {
        // On the unbalanced-tree LB some states get pruned while their
        // in-flight bound (sunk cost plus static remainder) still exceeds
        // their completed record — the incumbent-vs-in-flight bucket must
        // catch exactly those, distinguishing them from states that lose
        // on their completed packets alone.
        let nf = castan_nf::nf_by_id(NfId::LbUnbalancedTree);
        let mut cfg = AnalysisConfig::quick();
        cfg.packets = 3;
        cfg.step_budget = 12_000;
        cfg.prune = true;
        let (_, trace) = Castan::new(cfg).analyze_traced(&nf, &catalog_for(&nf));
        use crate::trace::PruneReason;
        assert!(
            trace.prunes_for(PruneReason::IncumbentVsInFlight) > 0,
            "some LB states must prune on the in-flight bound"
        );
        assert!(
            trace.prunes_for(PruneReason::IncumbentVsCompleted) > 0,
            "and others on their completed record"
        );
        assert_eq!(trace.prunes_for(PruneReason::EnvelopeUpper), 0);
    }

    #[test]
    fn concretization_asks_the_solver_and_respects_the_path_constraint() {
        // No catalogue NF reaches `SolverSite::Concretize`: the one native
        // helper (the red-black fix-up) takes concrete pointers and reads
        // pointer cells only. This NF does everything that does — on the
        // path where 10 < port < 100 it parks the (symbolic) port in two
        // cells, loads one byte of the first, and calls a helper with the
        // port as argument that reads the second.
        use castan_ir::{
            DataMemory, FunctionBuilder, NativeHelper, NativeId, NativeRegistry, ProgramBuilder,
            Width,
        };
        const BYTE_CELL: u64 = 0x1000;
        const HELPER_CELL: u64 = 0x1040;
        const ARG_OUT: u64 = 0x1080;
        const READ_OUT: u64 = 0x10c0;

        struct Recorder;
        impl NativeHelper for Recorder {
            fn call(&self, mem: &mut dyn MemAccess, args: &[u64], _: &mut dyn ExecSink) -> u64 {
                mem.write(ARG_OUT, args[0], 8);
                let read = mem.read(HELPER_CELL, 8);
                mem.write(READ_OUT, read, 8);
                0
            }
        }

        let mut f = FunctionBuilder::new("process_packet", 0);
        let port = f.packet_field(PacketField::DstPort);
        let (above, inside, out) = (f.new_block(), f.new_block(), f.new_block());
        let gt = f.cmp(CmpOp::Ugt, port, 10u64);
        f.branch(gt, above, out);
        f.switch_to(above);
        let lt = f.ult(port, 100u64);
        f.branch(lt, inside, out);
        f.switch_to(inside);
        f.store(BYTE_CELL, port, Width::W4);
        f.store(HELPER_CELL, port, Width::W8);
        let low_byte = f.load(BYTE_CELL, Width::W1);
        let _ = f.native(NativeId(7), vec![Operand::Reg(port)]);
        f.ret(low_byte);
        f.switch_to(out);
        f.ret(0u64);
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let mut natives = NativeRegistry::new();
        natives.register(NativeId(7), Arc::new(Recorder));
        let nf = NfSpec {
            id: NfId::Nop,
            kind: castan_nf::NfKind::Nop,
            program: pb.finish(main),
            natives,
            initial_memory: DataMemory::new(),
            data_regions: vec![],
            hash_funcs: vec![],
        };

        let mut cfg = AnalysisConfig::quick();
        cfg.packets = 1;
        let (report, state, trace) =
            Castan::new(cfg).analyze_detailed_traced(&nf, &ContentionCatalog::default());
        let concretize = trace.site(SolverSite::Concretize);
        assert_eq!(
            (concretize.sat, concretize.unsat, concretize.unknown),
            (3, 0, 0),
            "the byte load, the helper's argument and the helper's read each ask once"
        );

        // The expensive path is the one through the helper; on it every
        // concretised value is a port the path constraint admits.
        let mut state = state.expect("a state completed the packet");
        let port_atom = state.atoms.field_atom(0, PacketField::DstPort);
        for (what, cell, width) in [
            ("the byte-loaded cell", BYTE_CELL, 4),
            ("the helper's argument", ARG_OUT, 8),
            ("the cell the helper read", READ_OUT, 8),
        ] {
            let v = state.memory.load_concrete(cell, width);
            assert!(
                state
                    .constraints
                    .iter()
                    .all(|c| c.holds(&|id| if id == port_atom { v } else { 0 })),
                "{what} was concretised to {v}, which the path constraint excludes"
            );
            assert!(10 < v && v < 100, "{what}: {v}");
        }
        assert_eq!(report.packets.len(), 1);
    }

    #[test]
    fn every_strategy_produces_a_workload() {
        let nf = castan_nf::nf_by_id(NfId::LpmDirect1);
        let catalog = catalog_for(&nf);
        for strategy in SearchStrategyKind::ALL {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 3;
            cfg.step_budget = 15_000;
            cfg.strategy = strategy;
            let report = Castan::new(cfg).analyze(&nf, &catalog);
            assert_eq!(
                report.packets.len(),
                3,
                "strategy {} must synthesize",
                strategy.name()
            );
        }
    }
}
