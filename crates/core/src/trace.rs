//! Search-engine tracing: a profiling and explanation layer for the
//! symbolic engine.
//!
//! A [`SearchTrace`] records what the directed search *did* — per-round
//! frontier sizes and slot occupancy, solver calls split by outcome and by
//! call-site, witness-cache hit/miss rates, prune events bucketed by the
//! bound that justified them, push/pop/truncate counts, and a per-phase
//! wall breakdown — without ever steering it. Tracing is observational by
//! construction: it never issues solver calls of its own, never touches an
//! RNG, and never changes an ordering, so a traced run's
//! [`crate::report::AnalysisReport`] is byte-identical to an untraced one
//! for every strategy and thread count (pinned by unit test and proptest).
//!
//! Two classes of data live side by side and are exported separately:
//!
//! * **Deterministic counters** — identical for any thread count and any
//!   host (the engine's round/merge discipline guarantees the same
//!   execution for any scheduling). These form the committed
//!   `TRACE_search.json` baseline gated by the `trace-drift` check.
//! * **Advisory data** — wall-clock phase times, chrome-trace spans, the
//!   per-thread `SymExpr` intern-table statistics and the per-worker solver's
//!   component solves and reuses (each worker thread owns its own table and
//!   its own solver, so totals depend on how slots were scheduled).
//!   Exported in the full `castan-search-trace-v1` snapshot but excluded
//!   from the drift-gated baseline, mirroring how `bench-drift` skips
//!   `*_wall_ms` fields.
//!
//! Export surfaces: [`SearchTrace::export_to_registry`] feeds a
//! `castan-telemetry` [`Registry`], [`SearchTrace::snapshot_json`] renders
//! the full `castan-search-trace-v1` document, and
//! [`SearchTrace::chrome_trace_json`] emits a `trace_events` span file
//! loadable in `chrome://tracing` / Perfetto.

use std::time::Instant;

use castan_telemetry::{json::Json, Histogram, Registry};

use crate::solve::{ComponentStats, SolverStats};
use crate::synth::{ModelSource, Synthesis};

/// Which engine call-site issued a solver query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverSite {
    /// Branch/select path-feasibility checks (the fork fast path).
    FeasibilityFork,
    /// Symbolic-pointer candidate resolution through the cache model.
    AddressResolve,
    /// On-demand concretization for native helpers and symbolic loads.
    Concretize,
    /// Final workload synthesis (hash reconciliation included).
    Synthesis,
    /// The chain analysis' greedy cross-stage constraint merge.
    ChainMerge,
}

impl SolverSite {
    /// Every call-site, in display order.
    pub const ALL: [SolverSite; 5] = [
        SolverSite::FeasibilityFork,
        SolverSite::AddressResolve,
        SolverSite::Concretize,
        SolverSite::Synthesis,
        SolverSite::ChainMerge,
    ];

    /// Stable lower-snake name (JSON keys, registry counter names).
    pub fn name(&self) -> &'static str {
        match self {
            SolverSite::FeasibilityFork => "feasibility_fork",
            SolverSite::AddressResolve => "address_resolve",
            SolverSite::Concretize => "concretize",
            SolverSite::Synthesis => "synthesis",
            SolverSite::ChainMerge => "chain_merge",
        }
    }
}

/// Which admissible bound justified discarding a frontier state during
/// branch-and-bound pruning (the dominant term of
/// `Engine::static_ub` at the moment the state was dropped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneReason {
    /// Final packet in flight; the state's own best *completed* packet was
    /// the binding bound and could not beat the incumbent.
    IncumbentVsCompleted,
    /// Final packet in flight; the in-flight packet's sunk cost plus the
    /// static remaining upper bound was the binding bound.
    IncumbentVsInFlight,
    /// Whole packets still ahead, so the bound includes the full program
    /// envelope upper. Since the incumbent is itself capped by the envelope
    /// (the soundness gate), this bucket stays empty unless the envelope
    /// tightens below an observed completed cost — which is exactly what
    /// the ROADMAP's envelope-tightening follow-on would change.
    EnvelopeUpper,
}

impl PruneReason {
    /// Every reason, in display order.
    pub const ALL: [PruneReason; 3] = [
        PruneReason::IncumbentVsCompleted,
        PruneReason::IncumbentVsInFlight,
        PruneReason::EnvelopeUpper,
    ];

    /// Stable lower-snake name (JSON keys, registry counter names).
    pub fn name(&self) -> &'static str {
        match self {
            PruneReason::IncumbentVsCompleted => "incumbent_vs_completed",
            PruneReason::IncumbentVsInFlight => "incumbent_vs_in_flight",
            PruneReason::EnvelopeUpper => "envelope_upper",
        }
    }
}

/// One completed wall-clock span for the chrome-trace export (advisory).
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Span label (e.g. `explore round 12`).
    pub name: String,
    /// Start offset from the trace's creation, in microseconds.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Chrome-trace thread lane the span renders on.
    pub tid: u64,
}

/// Cap on retained chrome-trace spans per trace (a long full-config run
/// has thousands of rounds; the flamegraph view saturates well before
/// that).
pub const MAX_SPANS: usize = 4096;

/// Per-slot trace accumulator, owned by one scheduling quantum. Plain
/// counters only — merged into the round's [`SearchTrace`] at the barrier
/// in slot order, so the aggregate is deterministic for any thread count.
#[derive(Clone, Debug, Default)]
pub struct SlotTrace {
    /// Feasibility queries answered by the cached witness (no solver call).
    pub witness_hits: u64,
    /// Feasibility queries that had to consult the solver.
    pub witness_misses: u64,
    /// Solver outcome counts per call-site (indexed by `SolverSite::ALL`
    /// order).
    pub solver: [SolverStats; SolverSite::ALL.len()],
    /// Advisory: wall nanoseconds spent inside solver calls (only sampled
    /// when the run is traced; always zero otherwise).
    pub solve_ns: u64,
    /// Advisory: per-thread intern-table hits attributable to this slot.
    pub intern_hits: u64,
    /// Advisory: per-thread intern-table misses attributable to this slot.
    pub intern_misses: u64,
    /// Advisory: the executing thread's intern-table size after the slot.
    pub intern_size: u64,
    /// Advisory: query components the executing thread's solver solved,
    /// reused and read off the path during this slot.
    pub components: ComponentStats,
    /// Whether wall-clock sampling is on (set iff the run is traced).
    pub timing: bool,
}

impl SlotTrace {
    /// A fresh accumulator; `timing` arms the advisory wall-clock samples.
    pub fn new(timing: bool) -> Self {
        SlotTrace {
            timing,
            ..Self::default()
        }
    }

    /// Adds a solver-stats delta to a call-site's outcome counts.
    pub fn record(&mut self, site: SolverSite, delta: SolverStats) {
        self.solver[site as usize].absorb(delta);
    }
}

/// The trace of one (or, after merging, several) directed-search runs.
///
/// Counters are documented as *deterministic* (identical for any thread
/// count; part of the committed baseline) or *advisory* (wall-clock or
/// scheduling dependent; full snapshot only).
#[derive(Clone, Debug)]
pub struct SearchTrace {
    /// What was analyzed (NF or chain name).
    pub label: String,
    /// Frontier discipline name.
    pub strategy: String,
    /// Configured worker threads (recorded for context; the deterministic
    /// counters do not depend on it).
    pub threads: u64,
    /// Deterministic: scheduling rounds executed.
    pub rounds: u64,
    /// Deterministic: largest frontier observed at a round start.
    pub frontier_peak: u64,
    /// Deterministic: histogram of frontier sizes at each round start.
    pub frontier_hist: Histogram,
    /// Deterministic: histogram of slot occupancy (batch size) per round.
    pub occupancy_hist: Histogram,
    /// Deterministic: states popped off the frontier (incl. pruned pops).
    pub pops: u64,
    /// Deterministic: states pushed onto the frontier.
    pub pushes: u64,
    /// Deterministic: states dropped by the per-round capacity truncation.
    pub truncated: u64,
    /// Deterministic: states that ran a quantum (the report's
    /// `states_explored`).
    pub states_explored: u64,
    /// Deterministic: symbolic instructions executed.
    pub steps: u64,
    /// Deterministic: forks performed.
    pub forks: u64,
    /// Deterministic: states that completed all N packets.
    pub completed_states: u64,
    /// Deterministic: prune events bucketed by reason (indexed by
    /// `PruneReason::ALL` order).
    pub prunes: [u64; PruneReason::ALL.len()],
    /// Deterministic: feasibility queries answered by the cached witness.
    pub witness_hits: u64,
    /// Deterministic: feasibility queries that consulted the solver.
    pub witness_misses: u64,
    /// Deterministic: solver outcome counts per call-site (indexed by
    /// `SolverSite::ALL` order).
    pub solver: [SolverStats; SolverSite::ALL.len()],
    /// Advisory: per-thread intern-table hits summed over slots.
    pub intern_hits: u64,
    /// Advisory: per-thread intern-table misses summed over slots.
    pub intern_misses: u64,
    /// Advisory: largest per-thread intern-table size observed.
    pub intern_size_peak: u64,
    /// Advisory: query components solved, answered from a solver's
    /// component cache and read off the path constraint, summed over slots,
    /// chain merge and synthesis.
    pub components: ComponentStats,
    /// Deterministic: synthesis runs by what their initial model was solved
    /// from (indexed by `ModelSource::ALL` order) — how often the workload
    /// rests on the whole path constraint, on its field constraints only,
    /// or on builder defaults.
    pub synth_models: [u64; ModelSource::ALL.len()],
    /// Deterministic: havocs synthesis left unreconciled.
    pub havocs_unreconciled: u64,
    /// Advisory: wall nanoseconds inside `run_round` (includes solving;
    /// summed over rounds).
    pub explore_ns: u64,
    /// Advisory: wall nanoseconds inside solver calls, summed across slots
    /// (can exceed the explore wall when slots run in parallel).
    pub solve_ns: u64,
    /// Advisory: wall nanoseconds merging results at round barriers (plus
    /// the chain's cross-stage constraint merge).
    pub merge_ns: u64,
    /// Advisory: wall nanoseconds synthesizing the final workload.
    pub synth_ns: u64,
    /// Advisory: completed chrome-trace spans (capped at [`MAX_SPANS`]).
    pub spans: Vec<TraceSpan>,
    /// Wall-clock origin for span offsets.
    epoch: Instant,
}

impl SearchTrace {
    /// An empty trace for one run.
    pub fn new(label: impl Into<String>, strategy: impl Into<String>, threads: u64) -> SearchTrace {
        SearchTrace {
            label: label.into(),
            strategy: strategy.into(),
            threads,
            rounds: 0,
            frontier_peak: 0,
            frontier_hist: Histogram::new(),
            occupancy_hist: Histogram::new(),
            pops: 0,
            pushes: 0,
            truncated: 0,
            states_explored: 0,
            steps: 0,
            forks: 0,
            completed_states: 0,
            prunes: [0; PruneReason::ALL.len()],
            witness_hits: 0,
            witness_misses: 0,
            solver: [SolverStats::default(); SolverSite::ALL.len()],
            intern_hits: 0,
            intern_misses: 0,
            intern_size_peak: 0,
            components: ComponentStats::default(),
            synth_models: [0; ModelSource::ALL.len()],
            havocs_unreconciled: 0,
            explore_ns: 0,
            solve_ns: 0,
            merge_ns: 0,
            synth_ns: 0,
            spans: Vec::new(),
            epoch: Instant::now(),
        }
    }

    /// Records one prune event.
    pub fn prune(&mut self, reason: PruneReason) {
        self.prunes[reason as usize] += 1;
    }

    /// Prune events for a reason.
    pub fn prunes_for(&self, reason: PruneReason) -> u64 {
        self.prunes[reason as usize]
    }

    /// Total prune events across all reasons.
    pub fn prunes_total(&self) -> u64 {
        self.prunes.iter().sum()
    }

    /// Adds a solver-stats delta to a call-site's outcome counts.
    pub fn record_site(&mut self, site: SolverSite, delta: SolverStats) {
        self.solver[site as usize].absorb(delta);
    }

    /// Records what one synthesis run had to fall back on.
    pub fn record_synthesis(&mut self, synth: &Synthesis) {
        self.synth_models[synth.model_source as usize] += 1;
        self.havocs_unreconciled += synth.unreconciled() as u64;
    }

    /// Synthesis runs whose initial model came from `source`.
    pub fn synth_models_from(&self, source: ModelSource) -> u64 {
        self.synth_models[source as usize]
    }

    /// A call-site's outcome counts.
    pub fn site(&self, site: SolverSite) -> SolverStats {
        self.solver[site as usize]
    }

    /// Solver outcome counts summed over every call-site.
    pub fn solver_totals(&self) -> SolverStats {
        let mut t = SolverStats::default();
        for s in &self.solver {
            t.absorb(*s);
        }
        t
    }

    /// Witness-cache hit rate over feasibility queries (`NaN` when none
    /// were issued).
    pub fn witness_hit_rate(&self) -> f64 {
        let total = self.witness_hits + self.witness_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.witness_hits as f64 / total as f64
        }
    }

    /// Mean states explored per round (`NaN` before the first round).
    pub fn states_per_round(&self) -> f64 {
        if self.rounds == 0 {
            f64::NAN
        } else {
            self.states_explored as f64 / self.rounds as f64
        }
    }

    /// Folds a slot's accumulator into the trace (called at the round
    /// barrier in slot order).
    pub fn absorb_slot(&mut self, slot: &SlotTrace) {
        self.witness_hits += slot.witness_hits;
        self.witness_misses += slot.witness_misses;
        for (site, d) in SolverSite::ALL.iter().zip(slot.solver) {
            self.record_site(*site, d);
        }
        self.solve_ns += slot.solve_ns;
        self.intern_hits += slot.intern_hits;
        self.intern_misses += slot.intern_misses;
        self.intern_size_peak = self.intern_size_peak.max(slot.intern_size);
        self.components.absorb(slot.components);
    }

    /// Sums another trace into this one (labels are joined; histograms
    /// merge bucket-wise, peaks take the max, spans are retained up to
    /// [`MAX_SPANS`] with offsets rebased onto this trace's origin).
    pub fn merge(&mut self, other: &SearchTrace) {
        if !other.label.is_empty() && self.label != other.label {
            if self.label.is_empty() {
                self.label = other.label.clone();
            } else {
                self.label.push('+');
                self.label.push_str(&other.label);
            }
        }
        self.rounds += other.rounds;
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.frontier_hist.merge(&other.frontier_hist);
        self.occupancy_hist.merge(&other.occupancy_hist);
        self.pops += other.pops;
        self.pushes += other.pushes;
        self.truncated += other.truncated;
        self.states_explored += other.states_explored;
        self.steps += other.steps;
        self.forks += other.forks;
        self.completed_states += other.completed_states;
        for (a, b) in self.prunes.iter_mut().zip(other.prunes) {
            *a += b;
        }
        self.witness_hits += other.witness_hits;
        self.witness_misses += other.witness_misses;
        for (a, b) in self.solver.iter_mut().zip(other.solver) {
            a.absorb(b);
        }
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.intern_size_peak = self.intern_size_peak.max(other.intern_size_peak);
        self.components.absorb(other.components);
        for (a, b) in self.synth_models.iter_mut().zip(other.synth_models) {
            *a += b;
        }
        self.havocs_unreconciled += other.havocs_unreconciled;
        self.explore_ns += other.explore_ns;
        self.solve_ns += other.solve_ns;
        self.merge_ns += other.merge_ns;
        self.synth_ns += other.synth_ns;
        let shift_us = other
            .epoch
            .saturating_duration_since(self.epoch)
            .as_micros() as u64;
        for s in &other.spans {
            if self.spans.len() >= MAX_SPANS {
                break;
            }
            self.spans.push(TraceSpan {
                name: s.name.clone(),
                ts_us: s.ts_us + shift_us,
                dur_us: s.dur_us,
                tid: s.tid,
            });
        }
    }

    /// Records a completed span starting at `since` (advisory; dropped once
    /// [`MAX_SPANS`] spans are retained).
    pub fn span(&mut self, name: impl Into<String>, since: Instant, tid: u64) {
        if self.spans.len() >= MAX_SPANS {
            return;
        }
        let ts_us = since.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur_us = since.elapsed().as_micros() as u64;
        self.spans.push(TraceSpan {
            name: name.into(),
            ts_us,
            dur_us,
            tid,
        });
    }

    /// The deterministic counter surface as a JSON object: exactly the
    /// fields the committed `TRACE_search.json` baseline pins and the
    /// `trace-drift` check compares. Wall-clock, span, intern and
    /// component-cache fields are deliberately absent.
    pub fn deterministic_json(&self) -> Json {
        let mut witness = Json::obj()
            .with("hits", Json::U64(self.witness_hits))
            .with("misses", Json::U64(self.witness_misses));
        if self.witness_hits + self.witness_misses > 0 {
            witness.set("hit_rate", Json::fixed(self.witness_hit_rate(), 4));
        }
        let mut solver = Json::obj();
        for site in SolverSite::ALL {
            let s = self.site(site);
            solver.set(
                site.name(),
                Json::obj()
                    .with("sat", Json::U64(s.sat))
                    .with("unsat", Json::U64(s.unsat))
                    .with("unknown", Json::U64(s.unknown)),
            );
        }
        let totals = self.solver_totals();
        solver.set(
            "total",
            Json::obj()
                .with("sat", Json::U64(totals.sat))
                .with("unsat", Json::U64(totals.unsat))
                .with("unknown", Json::U64(totals.unknown)),
        );
        let mut prunes = Json::obj();
        for reason in PruneReason::ALL {
            prunes.set(reason.name(), Json::U64(self.prunes_for(reason)));
        }
        let mut synthesis = Json::obj();
        for source in ModelSource::ALL {
            synthesis.set(source.name(), Json::U64(self.synth_models_from(source)));
        }
        synthesis.set("havocs_unreconciled", Json::U64(self.havocs_unreconciled));
        let mut doc = Json::obj()
            .with("rounds", Json::U64(self.rounds))
            .with("frontier_peak", Json::U64(self.frontier_peak))
            .with("states_explored", Json::U64(self.states_explored))
            .with("steps", Json::U64(self.steps))
            .with("forks", Json::U64(self.forks))
            .with("completed_states", Json::U64(self.completed_states))
            .with("pops", Json::U64(self.pops))
            .with("pushes", Json::U64(self.pushes))
            .with("truncated", Json::U64(self.truncated));
        if self.rounds > 0 {
            doc.set("states_per_round", Json::fixed(self.states_per_round(), 2));
        }
        doc.with("witness", witness)
            .with("solver", solver)
            .with("prunes", prunes)
            .with("synthesis", synthesis)
    }

    /// Renders the full `castan-search-trace-v1` snapshot: the
    /// deterministic counters plus the advisory intern-table and wall-time
    /// fields (named `*_wall_ms` so drift tooling skips them by
    /// convention).
    pub fn snapshot_json(&self) -> String {
        let advisory = Json::obj()
            .with("intern_hits", Json::U64(self.intern_hits))
            .with("intern_misses", Json::U64(self.intern_misses))
            .with("intern_size_peak", Json::U64(self.intern_size_peak))
            .with("components_solved", Json::U64(self.components.solved))
            .with("components_reused", Json::U64(self.components.reused))
            .with("components_carried", Json::U64(self.components.carried))
            .with("explore_wall_ms", Json::fixed(ms(self.explore_ns), 3))
            .with("solve_wall_ms", Json::fixed(ms(self.solve_ns), 3))
            .with("merge_wall_ms", Json::fixed(ms(self.merge_ns), 3))
            .with("synth_wall_ms", Json::fixed(ms(self.synth_ns), 3))
            .with("spans", Json::U64(self.spans.len() as u64));
        Json::obj()
            .with("schema", Json::str("castan-search-trace-v1"))
            .with("label", Json::str(self.label.clone()))
            .with("strategy", Json::str(self.strategy.clone()))
            .with("threads", Json::U64(self.threads))
            .with("deterministic", self.deterministic_json())
            .with("advisory", advisory)
            .render()
    }

    /// Renders the advisory spans as a chrome-trace (`trace_events`)
    /// document for `chrome://tracing` / Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| span_event(s, 1))
            .collect::<Vec<_>>();
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", Json::str("ms"))
            .render()
    }

    /// Exports every counter into a `castan-telemetry` [`Registry`] under
    /// the `search.` prefix (counters for the deterministic counts, gauges
    /// for the derived rates, histograms for the per-round distributions).
    /// The caller owns epoch sealing.
    pub fn export_to_registry(&self, reg: &mut Registry) {
        reg.count("search.rounds", self.rounds);
        reg.count("search.states_explored", self.states_explored);
        reg.count("search.steps", self.steps);
        reg.count("search.forks", self.forks);
        reg.count("search.completed_states", self.completed_states);
        reg.count("search.pops", self.pops);
        reg.count("search.pushes", self.pushes);
        reg.count("search.truncated", self.truncated);
        reg.count("search.witness.hits", self.witness_hits);
        reg.count("search.witness.misses", self.witness_misses);
        for site in SolverSite::ALL {
            let s = self.site(site);
            reg.count(&format!("search.solver.{}.sat", site.name()), s.sat);
            reg.count(&format!("search.solver.{}.unsat", site.name()), s.unsat);
            reg.count(&format!("search.solver.{}.unknown", site.name()), s.unknown);
        }
        for reason in PruneReason::ALL {
            reg.count(
                &format!("search.prune.{}", reason.name()),
                self.prunes_for(reason),
            );
        }
        reg.gauge("search.frontier_peak", self.frontier_peak as f64);
        if self.witness_hits + self.witness_misses > 0 {
            reg.gauge("search.witness.hit_rate", self.witness_hit_rate());
        }
        reg.merge_histogram("search.frontier_size", &self.frontier_hist);
        reg.merge_histogram("search.slot_occupancy", &self.occupancy_hist);
        reg.count("search.intern.hits", self.intern_hits);
        reg.count("search.intern.misses", self.intern_misses);
        reg.gauge("search.intern.size_peak", self.intern_size_peak as f64);
        reg.count("search.components.solved", self.components.solved);
        reg.count("search.components.reused", self.components.reused);
        reg.count("search.components.carried", self.components.carried);
        for source in ModelSource::ALL {
            reg.count(
                &format!("search.synthesis.{}", source.name()),
                self.synth_models_from(source),
            );
        }
        reg.count(
            "search.synthesis.havocs_unreconciled",
            self.havocs_unreconciled,
        );
    }
}

/// One chrome-trace complete event (`ph: "X"`).
fn span_event(s: &TraceSpan, pid: u64) -> Json {
    Json::obj()
        .with("name", Json::str(s.name.clone()))
        .with("ph", Json::str("X"))
        .with("ts", Json::U64(s.ts_us))
        .with("dur", Json::U64(s.dur_us))
        .with("pid", Json::U64(pid))
        .with("tid", Json::U64(s.tid))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SearchTrace {
        let mut t = SearchTrace::new("lpm-trie", "priority", 1);
        t.rounds = 3;
        t.frontier_peak = 12;
        t.frontier_hist.observe(4);
        t.frontier_hist.observe(12);
        t.occupancy_hist.observe(8);
        t.pops = 20;
        t.pushes = 25;
        t.truncated = 2;
        t.states_explored = 18;
        t.steps = 900;
        t.forks = 7;
        t.completed_states = 2;
        t.prune(PruneReason::IncumbentVsCompleted);
        t.prune(PruneReason::IncumbentVsInFlight);
        t.prune(PruneReason::IncumbentVsInFlight);
        t.witness_hits = 30;
        t.witness_misses = 10;
        t.record_site(
            SolverSite::FeasibilityFork,
            SolverStats {
                sat: 6,
                unsat: 3,
                unknown: 1,
            },
        );
        t.record_site(
            SolverSite::Synthesis,
            SolverStats {
                sat: 2,
                unsat: 0,
                unknown: 0,
            },
        );
        t
    }

    #[test]
    fn derived_rates_and_totals() {
        let t = sample();
        assert_eq!(t.prunes_total(), 3);
        assert_eq!(t.prunes_for(PruneReason::IncumbentVsInFlight), 2);
        assert_eq!(t.prunes_for(PruneReason::EnvelopeUpper), 0);
        assert_eq!(t.witness_hit_rate(), 0.75);
        assert_eq!(t.states_per_round(), 6.0);
        let totals = t.solver_totals();
        assert_eq!((totals.sat, totals.unsat, totals.unknown), (8, 3, 1));
        assert!(SearchTrace::new("x", "dfs", 1).witness_hit_rate().is_nan());
    }

    #[test]
    fn deterministic_json_excludes_wall_and_intern_fields() {
        let t = sample();
        let doc = Json::obj().with("run", t.deterministic_json()).render();
        assert!(doc.contains("\"rounds\": 3"));
        assert!(doc.contains("\"incumbent_vs_in_flight\": 2"));
        assert!(doc.contains("\"hit_rate\": 0.7500"));
        assert!(!doc.contains("wall"));
        assert!(!doc.contains("intern"));
        // The numeric surface parses back through the drift-check parser.
        let fields = castan_telemetry::json::numeric_fields(&doc).unwrap();
        assert!(fields
            .iter()
            .any(|(k, v)| k == "run.solver.feasibility_fork.sat" && *v == 6.0));
    }

    #[test]
    fn snapshot_carries_schema_and_advisory_wall_fields() {
        let s = sample().snapshot_json();
        assert!(s.contains("\"castan-search-trace-v1\""));
        assert!(s.contains("\"explore_wall_ms\""));
        assert!(s.contains("\"intern_size_peak\""));
    }

    #[test]
    fn merge_sums_counters_and_rebases_spans() {
        let mut a = sample();
        let t0 = Instant::now();
        let mut b = sample();
        b.label = "nat-hash".into();
        b.span("synthesis", t0, 0);
        a.merge(&b);
        assert_eq!(a.rounds, 6);
        assert_eq!(a.states_explored, 36);
        assert_eq!(a.prunes_total(), 6);
        assert_eq!(a.solver_totals().sat, 16);
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.label, "lpm-trie+nat-hash");
        assert_eq!(a.frontier_hist.count(), 4);
    }

    #[test]
    fn registry_export_round_trips_the_counters() {
        let t = sample();
        let mut reg = Registry::new();
        t.export_to_registry(&mut reg);
        assert_eq!(reg.counter_total("search.states_explored"), 18);
        assert_eq!(reg.counter_total("search.witness.hits"), 30);
        assert_eq!(reg.counter_total("search.solver.feasibility_fork.unsat"), 3);
        assert_eq!(reg.counter_total("search.prune.incumbent_vs_in_flight"), 2);
        assert_eq!(
            reg.histogram("search.frontier_size")
                .unwrap()
                .cumulative()
                .count(),
            2
        );
    }

    #[test]
    fn chrome_trace_is_a_trace_events_document() {
        let mut t = sample();
        let t0 = Instant::now();
        t.span("explore round 0", t0, 2);
        let doc = t.chrome_trace_json();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"explore round 0\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"tid\": 2"));
    }

    #[test]
    fn span_cap_bounds_memory() {
        let mut t = SearchTrace::new("x", "dfs", 1);
        let t0 = Instant::now();
        for i in 0..(MAX_SPANS + 10) {
            t.span(format!("s{i}"), t0, 0);
        }
        assert_eq!(t.spans.len(), MAX_SPANS);
    }
}
