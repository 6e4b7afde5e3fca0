//! Workload synthesis: from the chosen execution state's path constraint to
//! concrete packets (§3.1 last step + §3.5 hash reconciliation).

use castan_ir::HashFunc;
use castan_nf::NfSpec;
use castan_packet::{IpProto, Ipv4Addr, Packet, PacketBuilder, PacketField};

use crate::expr::{AtomKind, Constraint, SymExpr};
use crate::havoc::HavocResolution;
use crate::rainbow::{ExhaustiveInverter, FlowKeySpace, HashInverter, RainbowTable};
use crate::solve::{Model, SolveOutcome, Solver};
use crate::state::ExecState;

/// Synthesis configuration (how hard to try to invert hashes).
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Key-space size for hash inversion tables.
    pub keyspace_size: u64,
    /// Use a chain-based rainbow table for 24-bit hashes (16-bit hashes use
    /// an exhaustive table either way).
    pub rainbow_chains: u64,
    /// Chain length of the rainbow table.
    pub rainbow_chain_len: u32,
    /// Pre-image candidates to test per havoc.
    pub candidates_per_havoc: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            keyspace_size: 200_000,
            rainbow_chains: 50_000,
            rainbow_chain_len: 16,
            candidates_per_havoc: 8,
        }
    }
}

/// Where the model synthesis starts from came from: how much of the path
/// constraint the solver could answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelSource {
    /// The solver satisfied the whole path constraint.
    Full,
    /// It gave up on the whole, but satisfied the constraints that mention
    /// packet fields only.
    FieldOnly,
    /// It gave up on both: every field takes its builder default.
    Empty,
}

impl ModelSource {
    /// Every source, in display order.
    pub const ALL: [ModelSource; 3] = [
        ModelSource::Full,
        ModelSource::FieldOnly,
        ModelSource::Empty,
    ];

    /// Stable lower-snake name (JSON keys, registry counter names).
    pub fn name(&self) -> &'static str {
        match self {
            ModelSource::Full => "full_model",
            ModelSource::FieldOnly => "field_only_model",
            ModelSource::Empty => "empty_model",
        }
    }
}

/// Result of synthesis.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The concrete packet sequence.
    pub packets: Vec<Packet>,
    /// Per-havoc resolution outcomes.
    pub havoc_resolutions: Vec<HavocResolution>,
    /// What the initial model was solved from.
    pub model_source: ModelSource,
}

impl Synthesis {
    /// Number of reconciled havocs.
    pub fn reconciled(&self) -> usize {
        self.havoc_resolutions
            .iter()
            .filter(|r| **r == HavocResolution::Reconciled)
            .count()
    }

    /// Number of havocs no tested pre-image reconciled: the packet then
    /// hashes to something other than the value the path assumed.
    pub fn unreconciled(&self) -> usize {
        self.havoc_resolutions.len() - self.reconciled()
    }
}

/// Builds the hash inverter for a function, tailored (as §3.5 recommends)
/// to the packet constraints the NF imposes: UDP keys toward a destination
/// the NF actually accepts.
fn build_inverter(nf: &NfSpec, func: HashFunc, cfg: &SynthConfig) -> Box<dyn HashInverter> {
    // LB NFs only exercise the flow table for VIP-addressed traffic, so the
    // key space is pinned to the VIP; anything else works for the NAT.
    let dst = match nf.kind {
        castan_nf::NfKind::Lb => Ipv4Addr(castan_nf::layout::LB_VIP),
        _ => Ipv4Addr::new(93, 184, 216, 34),
    };
    let space = FlowKeySpace::udp(dst, 80, cfg.keyspace_size);
    match func {
        HashFunc::Flow16 | HashFunc::Csum16 => Box::new(ExhaustiveInverter::build(func, space)),
        HashFunc::Flow24 => Box::new(RainbowTable::build(
            func,
            space,
            cfg.rainbow_chains,
            cfg.rainbow_chain_len,
        )),
    }
}

/// Resolves the state's path constraint into concrete packets, reconciling
/// havoced hashes with rainbow tables where possible.
pub fn synthesize(
    nf: &NfSpec,
    state: &ExecState,
    solver: &mut Solver,
    cfg: &SynthConfig,
) -> Synthesis {
    let mut constraints = state.constraints.clone();
    let (mut model, model_source) = best_effort_model(solver, state);
    let mut resolutions = Vec::with_capacity(state.havocs.len());

    // Build one inverter per hash function in use.
    let funcs: Vec<HashFunc> = {
        let mut f: Vec<HashFunc> = state.havocs.iter().map(|h| h.func).collect();
        f.sort_unstable();
        f.dedup();
        f
    };
    let inverters: Vec<(HashFunc, Box<dyn HashInverter>)> = funcs
        .into_iter()
        .map(|f| (f, build_inverter(nf, f, cfg)))
        .collect();

    // §3.5 three-step reconciliation, per havoc: (1) the solver proposed a
    // hash value (it is in the model); (2) the table proposes pre-images;
    // (3) the solver checks each pre-image against the packet constraints.
    for havoc in &state.havocs {
        let target = model.value(havoc.output);
        let inverter = inverters
            .iter()
            .find(|(f, _)| *f == havoc.func)
            .map(|(_, i)| i)
            .expect("inverter exists for every havoced function");
        let mut resolved = false;
        for key in inverter.invert(target, cfg.candidates_per_havoc) {
            // The pre-image must agree with the havoc's symbolic inputs.
            let mut extra: Vec<Constraint> = havoc
                .inputs
                .iter()
                .zip(key.iter())
                .map(|(input, k)| {
                    Constraint::require_true(SymExpr::cmp(
                        castan_ir::CmpOp::Eq,
                        input.clone(),
                        SymExpr::constant(*k),
                    ))
                })
                .collect();
            // And, of course, the havoced output must equal the hash of the
            // pre-image we are about to commit to.
            extra.push(Constraint::require_true(SymExpr::cmp(
                castan_ir::CmpOp::Eq,
                SymExpr::atom(havoc.output),
                SymExpr::constant(havoc.func.apply(&key)),
            )));
            if let SolveOutcome::Sat(m) =
                solver.solve_with_extra(&state.atoms, &constraints, &extra)
            {
                constraints.extend(extra);
                model = m;
                resolved = true;
                break;
            }
        }
        resolutions.push(if resolved {
            HavocResolution::Reconciled
        } else {
            HavocResolution::Unreconciled
        });
    }

    let packets = build_packets(state, &model);
    Synthesis {
        packets,
        havoc_resolutions: resolutions,
        model_source,
    }
}

/// Solves the path constraint, falling back to a partial model when the
/// solver gives up (the workload is then "partially symbolic": unconstrained
/// fields take defaults).
fn best_effort_model(solver: &mut Solver, state: &ExecState) -> (Model, ModelSource) {
    match solver.solve_with_extra(&state.atoms, &state.constraints, &[]) {
        SolveOutcome::Sat(m) => (m, ModelSource::Full),
        _ => {
            // Retry with only the constraints that mention packet fields;
            // havoc-only constraints are reconciled separately anyway.
            let field_only: Vec<Constraint> = state
                .constraints
                .iter()
                .filter(|c| {
                    c.atoms()
                        .iter()
                        .all(|a| matches!(state.atoms.kind(*a), AtomKind::Field { .. }))
                })
                .cloned()
                .collect();
            match solver.solve(&state.atoms, &field_only) {
                SolveOutcome::Sat(m) => (m, ModelSource::FieldOnly),
                _ => (Model::new(), ModelSource::Empty),
            }
        }
    }
}

/// Builds one packet per symbolic packet index from the model, using
/// builder defaults for unconstrained fields.
fn build_packets(state: &ExecState, model: &Model) -> Vec<Packet> {
    let n = state.packets_target;
    let mut packets = Vec::with_capacity(n as usize);
    for pkt in 0..n {
        let mut builder = PacketBuilder::new();
        let value_of = |field: PacketField| -> Option<u64> {
            state.atoms.ids().find_map(|id| match state.atoms.kind(id) {
                AtomKind::Field { packet, field: f } if packet == pkt && f == field => {
                    model.get(id)
                }
                _ => None,
            })
        };
        if let Some(v) = value_of(PacketField::SrcIp) {
            builder = builder.src_ip(Ipv4Addr(v as u32));
        } else {
            // Unconstrained source: vary it per packet so the workload still
            // spans distinct flows, as the tool's PCAP generator does.
            builder = builder.src_ip(Ipv4Addr(0x0a00_0100 + pkt));
        }
        if let Some(v) = value_of(PacketField::DstIp) {
            builder = builder.dst_ip(Ipv4Addr(v as u32));
        }
        if let Some(v) = value_of(PacketField::SrcPort) {
            builder = builder.src_port(v as u16);
        }
        if let Some(v) = value_of(PacketField::DstPort) {
            builder = builder.dst_port(v as u16);
        }
        if let Some(v) = value_of(PacketField::IpProto) {
            builder = builder.proto(IpProto::from_u8(v as u8));
        }
        if let Some(v) = value_of(PacketField::IpTtl) {
            builder = builder.ttl(v as u8);
        }
        if let Some(v) = value_of(PacketField::FrameLen) {
            builder = builder.frame_len(v as u16);
        }
        packets.push(builder.build());
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::NoCacheModel;
    use crate::expr::AtomTable;
    use crate::havoc::HavocRecord;
    use crate::symmem::SymMemory;
    use castan_ir::{CmpOp, DataMemory};
    use std::sync::Arc;

    fn state_with_constraints(n: u32) -> ExecState {
        let nf = castan_nf::nf_by_id(castan_nf::NfId::Nop);
        let mut s = ExecState::initial(
            &nf.program,
            SymMemory::new(Arc::new(DataMemory::new())),
            Box::new(NoCacheModel::default()),
            n,
        );
        s.atoms = AtomTable::new();
        s
    }

    #[test]
    fn constrained_fields_appear_in_packets() {
        let mut s = state_with_constraints(2);
        let dst0 = s.atoms.field_atom(0, PacketField::DstIp);
        let sport1 = s.atoms.field_atom(1, PacketField::SrcPort);
        s.assume(Constraint::require_true(SymExpr::cmp(
            CmpOp::Eq,
            SymExpr::atom(dst0),
            SymExpr::constant(u64::from(Ipv4Addr::new(10, 1, 1, 1).to_u32())),
        )));
        s.assume(Constraint::require_true(SymExpr::cmp(
            CmpOp::Eq,
            SymExpr::atom(sport1),
            SymExpr::constant(4242),
        )));
        let nf = castan_nf::nf_by_id(castan_nf::NfId::LpmTrie);
        let mut solver = Solver::default();
        let synth = synthesize(&nf, &s, &mut solver, &SynthConfig::default());
        assert_eq!(synth.packets.len(), 2);
        assert_eq!(
            synth.packets[0].field(PacketField::DstIp),
            u64::from(Ipv4Addr::new(10, 1, 1, 1).to_u32())
        );
        assert_eq!(synth.packets[1].field(PacketField::SrcPort), 4242);
        assert!(synth.havoc_resolutions.is_empty());
    }

    #[test]
    fn havocs_are_reconciled_for_16_bit_hashes() {
        let mut s = state_with_constraints(1);
        // The packet's 5-tuple feeds a Flow16 hash whose output the path
        // constrained to a specific bucket value.
        let fields: Vec<_> = [
            PacketField::SrcIp,
            PacketField::DstIp,
            PacketField::SrcPort,
            PacketField::DstPort,
            PacketField::IpProto,
        ]
        .iter()
        .map(|f| s.atoms.field_atom(0, *f))
        .collect();
        let h = s.atoms.havoc_atom(16);
        s.havocs.push(HavocRecord {
            output: h,
            func: HashFunc::Flow16,
            inputs: fields.iter().map(|&a| SymExpr::atom(a)).collect(),
            packet: 0,
        });
        // Pick a target value we know is reachable from the key space.
        let space = FlowKeySpace::udp(Ipv4Addr::new(93, 184, 216, 34), 80, 200_000);
        let target = HashFunc::Flow16.apply(&space.key(777));
        s.assume(Constraint::require_true(SymExpr::cmp(
            CmpOp::Eq,
            SymExpr::atom(h),
            SymExpr::constant(target),
        )));

        let nf = castan_nf::nf_by_id(castan_nf::NfId::NatHashTable);
        let mut solver = Solver::default();
        let cfg = SynthConfig {
            keyspace_size: 200_000,
            ..Default::default()
        };
        let synth = synthesize(&nf, &s, &mut solver, &cfg);
        assert_eq!(synth.havoc_resolutions.len(), 1);
        assert_eq!(synth.reconciled(), 1, "16-bit havoc should be reconciled");
        // The synthesized packet's 5-tuple must actually hash to the target.
        let p = &synth.packets[0];
        let key = [
            p.field(PacketField::SrcIp),
            p.field(PacketField::DstIp),
            p.field(PacketField::SrcPort),
            p.field(PacketField::DstPort),
            p.field(PacketField::IpProto),
        ];
        assert_eq!(HashFunc::Flow16.apply(&key), target);
    }
}
