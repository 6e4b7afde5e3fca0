//! Chained symbolic analysis: one adversarial packet sequence for a whole
//! service-function chain.
//!
//! The single-NF engine answers "which N packets make *this* NF slowest?".
//! For a chain the question is global — the same wire packets traverse every
//! stage, but each stage parses a *rewritten* packet (the NAT translates the
//! source endpoint, the LB maps the VIP to a backend DIP). The analysis
//! therefore proceeds in three steps:
//!
//! 1. **Per-stage exploration.** Each stage is explored by the existing
//!    directed engine over its own symbolic packet sequence, producing the
//!    most expensive execution state per stage (path constraint + havoc log
//!    over *stage-local* packet fields).
//!
//! 2. **Boundary translation.** Stage-local constraints are pulled back to
//!    the *origin* packet (what the traffic generator injects) through the
//!    chain's composed symbolic handoff models
//!    ([`castan_chain::upstream_models`]): a field the upstream stages pass
//!    through becomes the corresponding origin-field atom; a field an
//!    upstream stage rewrites becomes the rewrite's (per-packet) constant.
//!    Constraints that collapse to `false` under the rewrite — e.g. trying
//!    to steer an LPM through a destination the LB overwrites — are
//!    unsatisfiable at the origin and get dropped.
//!
//! 3. **Greedy merge + synthesis.** Stages are ranked by predicted
//!    worst-case cycles; the most expensive stage's translated constraint
//!    set is taken whole, then the remaining stages' constraints are added
//!    one by one, keeping each only if the merged system stays satisfiable.
//!    The merged system (plus all translated havoc records) is resolved
//!    into concrete packets by the existing synthesis machinery, so hash
//!    reconciliation through rainbow tables applies to chains unchanged.
//!
//! The result maximises *total chain* cycles greedily: the chain's dominant
//! stage is attacked outright, and every remaining degree of freedom is
//! spent on the next stages in cost order.

use std::time::Instant;

use castan_chain::{upstream_models, FieldRel, HandoffModel, NfChain};
use castan_mem::ContentionCatalog;
use castan_packet::Packet;

use crate::cache::NoCacheModel;
use crate::engine::Castan;
use crate::expr::{AtomKind, AtomTable, Constraint, SymExpr};
use crate::havoc::HavocRecord;
use crate::report::AnalysisReport;
use crate::solve::{SolveOutcome, Solver};
use crate::state::{ConstraintSet, ExecState};
use crate::symmem::SymMemory;
use crate::synth::synthesize;
use crate::trace::{SearchTrace, SolverSite};

/// The result of one chained analysis run.
#[derive(Clone, Debug)]
pub struct ChainAnalysisReport {
    /// Name of the analyzed chain.
    pub chain_name: String,
    /// The synthesized adversarial packet sequence (origin packets).
    pub packets: Vec<Packet>,
    /// The per-stage single-NF reports (stage order, not cost order).
    pub per_stage: Vec<AnalysisReport>,
    /// Sum of the stages' predicted worst cycles-per-packet: the chain-level
    /// cost the merged workload is aimed at.
    pub predicted_total_cpp: u64,
    /// Constraints merged into the origin system.
    pub merged_constraints: usize,
    /// Constraints dropped (unsatisfiable at the origin after translation,
    /// or conflicting with a more expensive stage's constraints).
    pub dropped_constraints: usize,
    /// Wall-clock analysis time for the whole chain.
    pub analysis_time: std::time::Duration,
}

impl ChainAnalysisReport {
    /// Total symbolic instructions executed across all stages
    /// (deterministic; independent of thread count and wall-clock speed).
    pub fn total_steps(&self) -> u64 {
        self.per_stage.iter().map(|r| r.steps).sum()
    }

    /// Total states explored across all stages (deterministic).
    pub fn total_states_explored(&self) -> u64 {
        self.per_stage.iter().map(|r| r.states_explored).sum()
    }

    /// Number of distinct flows in the synthesized workload.
    pub fn distinct_flows(&self) -> usize {
        let mut flows: Vec<_> = self.packets.iter().filter_map(Packet::flow).collect();
        flows.sort_unstable();
        flows.dedup();
        flows.len()
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} packets ({} flows), predicted total CPP {} cycles, {} constraints merged / {} dropped, {:.1}s",
            self.chain_name,
            self.packets.len(),
            self.distinct_flows(),
            self.predicted_total_cpp,
            self.merged_constraints,
            self.dropped_constraints,
            self.analysis_time.as_secs_f64(),
        )
    }
}

/// Rewrites `expr`, replacing every atom through `map`.
fn subst(expr: &SymExpr, map: &dyn Fn(u32) -> SymExpr) -> SymExpr {
    match expr {
        SymExpr::Const(v) => SymExpr::constant(*v),
        SymExpr::Atom(id) => map(*id),
        SymExpr::Bin(op, a, b) => SymExpr::bin(*op, subst(a, map), subst(b, map)),
        SymExpr::Cmp(op, a, b) => SymExpr::cmp(*op, subst(a, map), subst(b, map)),
    }
}

/// A stage's constraints and havocs, translated to origin atoms.
struct TranslatedStage {
    constraints: Vec<Constraint>,
    havocs: Vec<HavocRecord>,
    /// Stage rank key: predicted worst cycles-per-packet.
    worst_cpp: u64,
    /// Stage index (diagnostics and stable ordering).
    stage_idx: usize,
}

/// Translates one stage's chosen state through the upstream handoff model.
/// Every stage-local field atom becomes either the matching origin-field
/// atom or the upstream rewrite's per-packet constant; havoc atoms become
/// fresh origin havoc atoms.
fn translate_stage(
    state: &ExecState,
    model: &HandoffModel,
    origin_atoms: &mut AtomTable,
) -> (Vec<Constraint>, Vec<HavocRecord>) {
    // Atom-by-atom translation table (stage-local id → origin expression).
    let mut mapping: Vec<SymExpr> = Vec::with_capacity(state.atoms.len());
    for id in state.atoms.ids() {
        let e = match state.atoms.kind(id) {
            AtomKind::Field { packet, field } => match model.field_rel(field) {
                FieldRel::Same => SymExpr::atom(origin_atoms.field_atom(packet, field)),
                FieldRel::Const(c) => SymExpr::constant(c),
                FieldRel::PerPacket(rule) => SymExpr::constant(rule.value(packet)),
            },
            AtomKind::Havoc { bits, .. } => SymExpr::atom(origin_atoms.havoc_atom(bits)),
        };
        mapping.push(e);
    }
    let map = |id: u32| mapping[id as usize].clone();

    let constraints = state
        .constraints
        .iter()
        .map(|c| Constraint::new(subst(c.expr(), &map), c.expected()))
        .collect();
    let havocs = state
        .havocs
        .iter()
        .map(|h| HavocRecord {
            output: match map(h.output) {
                SymExpr::Atom(id) => id,
                // Havoc outputs always map to fresh havoc atoms.
                _ => unreachable!("havoc atoms translate to atoms"),
            },
            func: h.func,
            inputs: h.inputs.iter().map(|e| subst(e, &map)).collect(),
            packet: h.packet,
        })
        .collect();
    (constraints, havocs)
}

/// Analyzes a chain and synthesizes one adversarial origin-packet sequence.
///
/// `catalogs` holds one contention-set catalogue per stage (same order as
/// `chain.stages`).
pub fn analyze_chain(
    castan: &Castan,
    chain: &NfChain,
    catalogs: &[ContentionCatalog],
) -> ChainAnalysisReport {
    analyze_chain_inner(castan, chain, catalogs, None)
}

/// [`analyze_chain`] with a [`SearchTrace`] attached: one trace accumulates
/// across every stage's exploration plus the chain-level merge and synthesis
/// phases. Tracing is observational only — the returned report is identical
/// to the untraced one (modulo wall-clock timings).
pub fn analyze_chain_traced(
    castan: &Castan,
    chain: &NfChain,
    catalogs: &[ContentionCatalog],
) -> (ChainAnalysisReport, SearchTrace) {
    let mut trace = SearchTrace::new(
        chain.name(),
        castan.config().strategy.name(),
        castan.config().threads.max(1) as u64,
    );
    let report = analyze_chain_inner(castan, chain, catalogs, Some(&mut trace));
    (report, trace)
}

fn analyze_chain_inner(
    castan: &Castan,
    chain: &NfChain,
    catalogs: &[ContentionCatalog],
    mut trace: Option<&mut SearchTrace>,
) -> ChainAnalysisReport {
    assert_eq!(
        catalogs.len(),
        chain.len(),
        "one contention catalogue per stage"
    );
    let start = Instant::now();
    let models = upstream_models(chain);

    // Step 1: per-stage exploration.
    let mut per_stage = Vec::with_capacity(chain.len());
    let mut translated: Vec<TranslatedStage> = Vec::new();
    let mut origin_atoms = AtomTable::new();
    for (idx, (stage, catalog)) in chain.stages.iter().zip(catalogs).enumerate() {
        let (report, state) = castan.analyze_inner(&stage.nf, catalog, trace.as_deref_mut());
        if let Some(state) = &state {
            // Step 2: boundary translation.
            let (constraints, havocs) = translate_stage(state, &models[idx], &mut origin_atoms);
            translated.push(TranslatedStage {
                constraints,
                havocs,
                worst_cpp: report.predicted_worst_cpp.max(state.max_completed_cpp()),
                stage_idx: idx,
            });
        }
        per_stage.push(report);
    }
    let predicted_total_cpp: u64 = per_stage.iter().map(|r| r.predicted_worst_cpp).sum();

    // Soundness gate: the chain-level prediction composes per-stage worst
    // cases by summation, and the static chain envelope composes per-stage
    // upper bounds the same way — the former must never escape the latter.
    let chain_env = castan_analysis::chain_envelope(
        chain,
        &castan_analysis::EnvelopeParams::new(u64::from(castan.config().packets)),
    );
    assert!(
        predicted_total_cpp <= chain_env.cycles.upper,
        "static envelope soundness violation: chain {}: predicted total {} cycles/packet \
         exceeds the composed envelope upper bound {}",
        chain.name(),
        predicted_total_cpp,
        chain_env.cycles.upper,
    );

    // Step 3: greedy merge, most expensive stage first.
    translated.sort_by_key(|t| (std::cmp::Reverse(t.worst_cpp), t.stage_idx));
    let mut solver = Solver::new(castan.config().solver);
    let merge_t0 = trace.is_some().then(Instant::now);
    let stats_before_merge = solver.stats();
    let mut merged = ConstraintSet::new();
    let mut havocs: Vec<HavocRecord> = Vec::new();
    let mut merged_count = 0usize;
    let mut dropped_count = 0usize;
    for stage in &translated {
        for c in &stage.constraints {
            // Constant-folded falsehoods (a rewrite contradicts the branch)
            // are dropped without a solver call.
            if let Some(v) = c.expr().as_const() {
                if (v != 0) == c.expected() {
                    continue; // trivially true: no information left
                }
                dropped_count += 1;
                continue;
            }
            match solver.solve_with_extra(&origin_atoms, &merged, std::slice::from_ref(c)) {
                SolveOutcome::Unsat => dropped_count += 1,
                _ => {
                    merged.push(c.clone());
                    merged_count += 1;
                }
            }
        }
        havocs.extend(stage.havocs.iter().cloned());
    }
    if let Some(t) = trace.as_deref_mut() {
        t.record_site(
            SolverSite::ChainMerge,
            solver.stats().since(stats_before_merge),
        );
        if let Some(t0) = merge_t0 {
            t.merge_ns += t0.elapsed().as_nanos() as u64;
            t.span("chain merge", t0, 0);
        }
    }

    // Package the merged system as an execution state so the single-NF
    // synthesis machinery (solver + rainbow-table hash reconciliation)
    // applies unchanged. The entry stage's NF supplies the program (unused
    // beyond frame setup) and the key space for hash inversion.
    let entry_nf = &chain.stages[0].nf;
    let mut state = ExecState::initial(
        &entry_nf.program,
        SymMemory::new(std::sync::Arc::new(entry_nf.initial_memory.clone())),
        Box::new(NoCacheModel::default()),
        castan.config().packets,
    );
    state.atoms = origin_atoms;
    state.constraints = merged;
    state.havocs = havocs;
    let synth_t0 = trace.is_some().then(Instant::now);
    let stats_before_synth = solver.stats();
    let synth = synthesize(entry_nf, &state, &mut solver, &castan.config().synth);
    if let Some(t) = trace {
        t.record_site(
            SolverSite::Synthesis,
            solver.stats().since(stats_before_synth),
        );
        t.record_synthesis(&synth);
        // The solver is this function's own: merge and synthesis are all it
        // was ever asked.
        t.components.absorb(solver.component_stats());
        if let Some(t0) = synth_t0 {
            t.synth_ns += t0.elapsed().as_nanos() as u64;
            t.span("chain synthesis", t0, 0);
        }
    }

    ChainAnalysisReport {
        chain_name: chain.name().to_string(),
        packets: synth.packets,
        per_stage,
        predicted_total_cpp,
        merged_constraints: merged_count,
        dropped_constraints: dropped_count,
        analysis_time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisConfig;
    use castan_chain::{chain_by_id, ChainId};
    use castan_mem::{HierarchyConfig, MemoryHierarchy};
    use castan_nf::NfSpec;
    use castan_packet::PacketField;

    fn catalog_for(nf: &NfSpec) -> ContentionCatalog {
        let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), 1);
        let lines: Vec<u64> = nf
            .data_regions
            .first()
            .map(|r| {
                (0..2048u64)
                    .map(|i| r.base + (i * 8 * 64) % r.len)
                    .collect()
            })
            .unwrap_or_default();
        ContentionCatalog::from_ground_truth(&mut hier, lines)
    }

    fn quick(packets: u32, budget: u64) -> Castan {
        let mut cfg = AnalysisConfig::quick();
        cfg.packets = packets;
        cfg.step_budget = budget;
        Castan::new(cfg)
    }

    fn catalogs(chain: &NfChain) -> Vec<ContentionCatalog> {
        chain.stages.iter().map(|s| catalog_for(&s.nf)).collect()
    }

    #[test]
    fn nop_chain_analyzes_to_the_requested_packet_count() {
        let chain = chain_by_id(ChainId::Nop3);
        let report = analyze_chain(&quick(4, 6_000), &chain, &catalogs(&chain));
        assert_eq!(report.packets.len(), 4);
        assert_eq!(report.per_stage.len(), 3);
        assert_eq!(report.dropped_constraints, 0, "NOPs constrain nothing");
        assert!(report.summary().contains("nop3"));
    }

    #[test]
    fn nat_lpm_chain_targets_both_stages_at_the_origin() {
        let chain = chain_by_id(ChainId::NatLpm);
        let report = analyze_chain(&quick(5, 40_000), &chain, &catalogs(&chain));
        assert_eq!(report.packets.len(), 5);
        // The LPM's destination constraints survive translation (the NAT
        // passes the destination through), so synthesized packets should
        // steer the routed space like the single-NF trie workload does.
        let deep_hits = report
            .packets
            .iter()
            .filter(|p| {
                let dst = p.field(PacketField::DstIp) as u32;
                (10..=17).contains(&(dst >> 24))
            })
            .count();
        assert!(
            deep_hits >= 1,
            "at least some packets must target the routed space"
        );
        // And the NAT contributes real predicted cost.
        assert!(report.predicted_total_cpp > report.per_stage[1].predicted_worst_cpp);
    }

    #[test]
    fn pruning_reduces_explored_states_on_the_nat_lpm_chain() {
        // Branch-and-bound against the static envelope: once an incumbent
        // worst packet exists, frontier states whose sound upper bound
        // cannot beat it are discarded before they are popped. With a
        // budget generous enough that many states reach their final
        // packet, that must show up as fewer explored states on the
        // nat-lpm chain — while the synthesized worst case is untouched
        // (pruned states could never have been the argmax).
        let chain = chain_by_id(ChainId::NatLpm);
        let cats = catalogs(&chain);
        let mut cfg = AnalysisConfig::quick();
        cfg.packets = 3;
        cfg.step_budget = 30_000;
        cfg.prune = false;
        let full = analyze_chain(&Castan::new(cfg.clone()), &chain, &cats);
        cfg.prune = true;
        let pruned = analyze_chain(&Castan::new(cfg), &chain, &cats);
        assert!(
            pruned.total_states_explored() < full.total_states_explored(),
            "pruning must discard states on nat-lpm: {} vs {}",
            pruned.total_states_explored(),
            full.total_states_explored()
        );
        assert!(pruned.predicted_total_cpp >= full.predicted_total_cpp);
        assert!(pruned.predicted_total_cpp > 0);
    }

    #[test]
    fn chain_tracing_observes_but_never_steers() {
        let chain = chain_by_id(ChainId::NatLpm);
        let cats = catalogs(&chain);
        let castan = quick(3, 20_000);
        let plain = analyze_chain(&castan, &chain, &cats);
        let (traced, trace) = analyze_chain_traced(&castan, &chain, &cats);
        assert_eq!(plain.chain_name, traced.chain_name);
        assert_eq!(plain.packets, traced.packets);
        assert_eq!(plain.predicted_total_cpp, traced.predicted_total_cpp);
        assert_eq!(plain.merged_constraints, traced.merged_constraints);
        assert_eq!(plain.dropped_constraints, traced.dropped_constraints);
        assert_eq!(plain.per_stage.len(), traced.per_stage.len());
        for (a, b) in plain.per_stage.iter().zip(&traced.per_stage) {
            assert_eq!(a.nf_name, b.nf_name);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.states_explored, b.states_explored);
            assert_eq!(a.predicted_worst_cpp, b.predicted_worst_cpp);
            assert_eq!(a.packets, b.packets);
        }
        // The chain trace accumulates across every stage plus the
        // chain-level merge and synthesis phases.
        assert_eq!(trace.label, chain.name());
        assert_eq!(
            trace.states_explored,
            traced.total_states_explored(),
            "one parent trace sums the per-stage exploration"
        );
        assert_eq!(trace.steps, traced.total_steps());
        assert!(
            trace.site(SolverSite::ChainMerge).total() > 0,
            "the greedy merge issues solver queries on nat-lpm"
        );
        assert!(trace.site(SolverSite::Synthesis).total() > 0);
    }

    #[test]
    fn prune_reasons_distinguish_final_packet_from_in_flight_on_nat_lpm() {
        // The prune-reason histogram separates final-packet pruning (a
        // state on its last packet loses to the incumbent on its completed
        // record or its in-flight bound) from mid-sequence pruning (a
        // state with whole packets ahead would have to lose against the
        // full program envelope). On nat-lpm every prune must land in the
        // final-packet buckets: a mid-sequence state's bound includes the
        // envelope upper, and the incumbent — itself a completed per-packet
        // cost — can never exceed that envelope while the soundness gate
        // holds. A nonzero envelope-upper bucket is therefore a soundness
        // canary, and the histogram demonstrably shows that on nat-lpm the
        // branch-and-bound only ever kills states in flight on their final
        // packet, never whole pending packets.
        let chain = chain_by_id(ChainId::NatLpm);
        let cats = catalogs(&chain);
        let mut cfg = AnalysisConfig::quick();
        cfg.packets = 3;
        cfg.step_budget = 30_000;
        cfg.prune = true;
        let (_, trace) = analyze_chain_traced(&Castan::new(cfg), &chain, &cats);
        use crate::trace::PruneReason;
        assert!(trace.prunes_total() > 0, "pruning must fire on nat-lpm");
        let final_packet = trace.prunes_for(PruneReason::IncumbentVsCompleted)
            + trace.prunes_for(PruneReason::IncumbentVsInFlight);
        assert_eq!(
            final_packet,
            trace.prunes_total(),
            "every nat-lpm prune hits a state on its final packet"
        );
        assert_eq!(
            trace.prunes_for(PruneReason::EnvelopeUpper),
            0,
            "the envelope-upper bucket is a soundness canary: the incumbent \
             cannot exceed the static envelope, so pending states never prune"
        );
    }

    #[test]
    fn lb_rewrite_blocks_downstream_destination_steering() {
        // In lb→lpm the LB overwrites the destination with a backend DIP:
        // LPM constraints on the destination must translate to per-packet
        // constants (trivially true or dropped), never to origin atoms.
        let chain = chain_by_id(ChainId::LbLpm);
        let castan = quick(3, 25_000);
        let cats = catalogs(&chain);
        let (_, lpm_state) = castan.analyze_detailed(&chain.stages[1].nf, &cats[1]);
        let lpm_state = lpm_state.expect("LPM exploration completes");
        let models = upstream_models(&chain);
        let mut origin = AtomTable::new();
        let (constraints, _) = translate_stage(&lpm_state, &models[1], &mut origin);
        for c in &constraints {
            for &atom in c.atoms() {
                let kind = origin.kind(atom);
                if let AtomKind::Field { field, .. } = kind {
                    assert_ne!(
                        field,
                        PacketField::DstIp,
                        "the LB rewrite must hide the destination from downstream constraints"
                    );
                }
            }
        }
    }
}
