//! Every call the benchmark makes into the workspace.
//!
//! No other file of the benchmark names a `castan_*` crate. The bindings
//! are deliberately limited to the APIs ROADMAP direction 3 keeps —
//! `ShardedDut`, `ClusterDut`, `Castan::analyze` / `analyze_chain` and their
//! `_traced` twins, `MultiCoreHierarchy::access`, `RssDispatcher`,
//! `Interpreter::run_packet`, `Packet::parse` — so when the parallel
//! hierarchies collapse, this is the one file to re-point (the README lists
//! each binding). `Dut`, `ChainDut`, the `measure_*` helpers and the
//! `castan-mem` probe/contention discovery are not used.
//!
//! Nothing here reads a clock: the callers time these functions from
//! outside.

use castan_chain::{chain_by_id, core_stage_base, ChainId};
use castan_cluster::{
    cluster_skew_workload, ClusterConfig, ClusterDut, ClusterMeasurement, ControllerConfig, NodeMap,
};
use castan_core::expr::Constraint;
use castan_core::rainbow::{FlowKeySpace, RainbowTable};
use castan_core::{
    analyze_chain, analyze_chain_traced, AnalysisConfig, AnalysisReport, AtomTable, Castan,
    ChainAnalysisReport, SearchTrace, Solver, SymExpr,
};
use castan_ir::{BinOp, CmpOp, CostClass, ExecSink, Interpreter, NullSink};
use castan_mem::{
    AccessKind, ContentionCatalog, DiscoveryConfig, HierarchyConfig, MemoryHierarchy,
    MultiCoreHierarchy,
};
use castan_nf::{nf_by_id, NfId};
use castan_packet::{FlowKey, Ipv4Addr, PacketBuilder, PacketField};
use castan_runtime::{rebalanced_table, skew_packets, RebalancePolicy, RssDispatcher};
use castan_testbed::{
    max_throughput_mpps, MeasurementConfig, MitigationConfig, ShardConfig, ShardedMeasurement,
    TelemetryConfig, ThroughputConfig,
};
use castan_workload::{
    castan_workload, chain_unirand_castan, generic_chain_workload, WorkloadConfig,
};
use castan_xcore::discover_catalog_from;

pub use castan_chain::NfChain;
pub use castan_cluster::ClusterConfig as FleetConfig;
pub use castan_mem::ContentionCatalog as Catalog;
pub use castan_nf::NfSpec;
pub use castan_packet::FlowKey as Flow;
pub use castan_packet::Packet;
pub use castan_telemetry::json::numeric_fields;
pub use castan_telemetry::Json;
pub use castan_testbed::ShardedDut;
pub use castan_workload::{Workload, WorkloadKind};

/// The two chains the benchmark analyses and replays.
pub const CHAINS: [&str; 2] = ["nat-lpm", "nat-lb-lpm"];
/// The four single NFs `synth-nf` analyses, by the benchmark's short names.
pub const NFS: [&str; 4] = ["lpm-dl1", "lpm-trie", "nat-hash", "nat-rbtree"];

pub fn chain(name: &str) -> NfChain {
    chain_by_id(match name {
        "nat-lpm" => ChainId::NatLpm,
        "nat-lb-lpm" => ChainId::NatLbLpm,
        other => panic!("no chain called {other}"),
    })
}

pub fn nf(name: &str) -> NfSpec {
    nf_by_id(match name {
        "lpm-dl1" => NfId::LpmDirect1,
        "lpm-trie" => NfId::LpmTrie,
        "nat-hash" => NfId::NatHashTable,
        "nat-rbtree" => NfId::NatRedBlackTree,
        other => panic!("no NF called {other}"),
    })
}

// ---------------------------------------------------------------------------
// Analysis (castan-core, castan-mem catalogues; castan-analysis and
// castan-chain::symbolic run underneath).

/// Candidate lines sampled per NF data region for the ground-truth
/// catalogue (the experiments' quick setting).
const CATALOG_LINES: u64 = 2_048;

/// Ground-truth contention catalogue of one NF, on a hierarchy booted from
/// `seed`.
pub fn catalog(nf: &NfSpec, seed: u64) -> ContentionCatalog {
    let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), seed);
    let mut lines = Vec::new();
    for region in &nf.data_regions {
        let stride = (region.len / CATALOG_LINES).max(64);
        let mut a = region.base;
        while a < region.end() && lines.len() < (2 * CATALOG_LINES) as usize {
            lines.push(a);
            a += stride;
        }
    }
    ContentionCatalog::from_ground_truth(&mut hier, lines)
}

pub fn chain_catalogs(chain: &NfChain, seed: u64) -> Vec<ContentionCatalog> {
    chain.stages.iter().map(|s| catalog(&s.nf, seed)).collect()
}

/// The analysis budget: the experiments' quick setting (10 packets, 30k
/// steps per stage). `scale` divides the step budget and the packet count
/// for the smoke run.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seed: u64,
    pub threads: usize,
    pub prune: bool,
    pub scale: u64,
}

impl Budget {
    pub fn new(seed: u64, scale: u64) -> Budget {
        Budget {
            seed,
            threads: 1,
            prune: true,
            scale,
        }
    }

    fn castan(&self) -> Castan {
        let mut cfg = AnalysisConfig {
            packets: if self.scale == 1 { 10 } else { 3 },
            step_budget: 30_000 / self.scale,
            threads: self.threads,
            prune: self.prune,
            ..AnalysisConfig::quick()
        };
        cfg.solver.seed = self.seed;
        Castan::new(cfg)
    }
}

/// What an analysis produced, reduced to what the benchmark checks and
/// counts.
#[derive(Clone, Debug, PartialEq)]
pub struct Synthesis {
    pub packets: Vec<Packet>,
    pub steps: u64,
    pub states_explored: u64,
    pub forks: u64,
    pub predicted_cpp: u64,
}

impl Synthesis {
    fn of_nf(r: AnalysisReport) -> Synthesis {
        Synthesis {
            steps: r.steps,
            states_explored: r.states_explored,
            forks: r.forks,
            predicted_cpp: r.predicted_worst_cpp,
            packets: r.packets,
        }
    }

    fn of_chain(r: ChainAnalysisReport) -> Synthesis {
        Synthesis {
            steps: r.total_steps(),
            states_explored: r.total_states_explored(),
            forks: r.per_stage.iter().map(|s| s.forks).sum(),
            predicted_cpp: r.predicted_total_cpp,
            packets: r.packets,
        }
    }

    pub fn distinct_flows(&self) -> u64 {
        castan_workload(self.packets.clone())
            .distinct_flows()
            .max(1) as u64
    }
}

/// The engine's own account of one or more traced analyses.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineCounters {
    pub explore_ns: u64,
    pub solve_ns: u64,
    pub merge_ns: u64,
    pub synth_ns: u64,
    pub steps: u64,
    pub states_explored: u64,
    pub forks: u64,
    pub prunes: u64,
    pub frontier_peak: u64,
    pub solver_queries: u64,
    pub solver_unknown: u64,
    pub witness_hits: u64,
    pub witness_misses: u64,
    pub intern_hits: u64,
    pub intern_misses: u64,
}

impl EngineCounters {
    fn of(t: &SearchTrace) -> EngineCounters {
        let solver = t.solver_totals();
        EngineCounters {
            explore_ns: t.explore_ns,
            solve_ns: t.solve_ns,
            merge_ns: t.merge_ns,
            synth_ns: t.synth_ns,
            steps: t.steps,
            states_explored: t.states_explored,
            forks: t.forks,
            prunes: t.prunes_total(),
            frontier_peak: t.frontier_peak,
            solver_queries: solver.total(),
            solver_unknown: solver.unknown,
            witness_hits: t.witness_hits,
            witness_misses: t.witness_misses,
            intern_hits: t.intern_hits,
            intern_misses: t.intern_misses,
        }
    }

    /// Sums the counters of another analysis in; the frontier peak is the
    /// larger of the two.
    pub fn absorb(&mut self, o: &EngineCounters) {
        self.explore_ns += o.explore_ns;
        self.solve_ns += o.solve_ns;
        self.merge_ns += o.merge_ns;
        self.synth_ns += o.synth_ns;
        self.steps += o.steps;
        self.states_explored += o.states_explored;
        self.forks += o.forks;
        self.prunes += o.prunes;
        self.frontier_peak = self.frontier_peak.max(o.frontier_peak);
        self.solver_queries += o.solver_queries;
        self.solver_unknown += o.solver_unknown;
        self.witness_hits += o.witness_hits;
        self.witness_misses += o.witness_misses;
        self.intern_hits += o.intern_hits;
        self.intern_misses += o.intern_misses;
    }
}

pub fn analyze_nf(budget: Budget, nf: &NfSpec, catalog: &ContentionCatalog) -> Synthesis {
    Synthesis::of_nf(budget.castan().analyze(nf, catalog))
}

pub fn analyze_nf_traced(
    budget: Budget,
    nf: &NfSpec,
    catalog: &ContentionCatalog,
) -> (Synthesis, EngineCounters) {
    let (report, trace) = budget.castan().analyze_traced(nf, catalog);
    (Synthesis::of_nf(report), EngineCounters::of(&trace))
}

pub fn analyze_chain_of(
    budget: Budget,
    chain: &NfChain,
    catalogs: &[ContentionCatalog],
) -> Synthesis {
    Synthesis::of_chain(analyze_chain(&budget.castan(), chain, catalogs))
}

pub fn analyze_chain_of_traced(
    budget: Budget,
    chain: &NfChain,
    catalogs: &[ContentionCatalog],
) -> (Synthesis, EngineCounters) {
    let (report, trace) = analyze_chain_traced(&budget.castan(), chain, catalogs);
    (Synthesis::of_chain(report), EngineCounters::of(&trace))
}

/// The affine-index query of `crates/bench/benches/solver.rs`: one base +
/// shifted-index address equality and one port equality.
pub struct SolverMicro {
    atoms: AtomTable,
    constraints: Vec<Constraint>,
    solver: Solver,
}

impl SolverMicro {
    pub fn new() -> SolverMicro {
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
        SolverMicro {
            atoms,
            constraints,
            solver: Solver::default(),
        }
    }

    /// One query; true when the solver found a model.
    pub fn solve(&mut self) -> bool {
        self.solver.solve(&self.atoms, &self.constraints).is_sat()
    }
}

/// Builds the rainbow table the quick analysis budget uses to invert the
/// NAT hash table's flow hash; returns the number of chains stored.
pub fn rainbow_build(nat: &NfSpec) -> usize {
    let synth = AnalysisConfig::quick().synth;
    let func = *nat.hash_funcs.first().expect("the NAT hashes its flows");
    let space = FlowKeySpace::udp(Ipv4Addr::new(93, 184, 216, 34), 80, synth.keyspace_size);
    RainbowTable::build(func, space, synth.rainbow_chains, synth.rainbow_chain_len).stored_chains()
}

// ---------------------------------------------------------------------------
// Traffic (castan-workload, castan-packet).

pub fn traffic(chain: &NfChain, kind: WorkloadKind, scale: f64, seed: u64) -> Workload {
    generic_chain_workload(chain, kind, &WorkloadConfig { scale, seed })
}

pub fn castan_traffic(packets: &[Packet]) -> Workload {
    castan_workload(packets.to_vec())
}

/// Uniform traffic over as many flows as the CASTAN trace has: the control
/// the adversarial slow-down is measured against.
pub fn flow_matched_uniform(chain: &NfChain, flows: u64, scale: f64, seed: u64) -> Workload {
    chain_unirand_castan(chain, flows, &WorkloadConfig { scale, seed })
}

pub fn build_packet(i: u64) -> Vec<u8> {
    PacketBuilder::udp_flow(flow(i)).build().to_bytes()
}

pub fn packet_bytes(p: &Packet) -> Vec<u8> {
    p.to_bytes()
}

pub fn parse(bytes: &[u8]) -> Option<Packet> {
    Packet::parse(bytes).ok()
}

fn flow(i: u64) -> FlowKey {
    FlowKey::udp(
        Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
        1024 + (i % 50_000) as u16,
        Ipv4Addr::new(93, 184, 216, 34),
        80,
    )
}

pub fn flows_of(packets: &[Packet]) -> Vec<FlowKey> {
    packets.iter().filter_map(Packet::flow).collect()
}

// ---------------------------------------------------------------------------
// Replay on one box (castan-testbed over castan-runtime, castan-ir,
// castan-mem, castan-chain).

/// Packets to inject, packets of warm-up, and the seed that feeds both the
/// measurement noise and the DUT's boot.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    pub total_packets: usize,
    pub warmup_packets: usize,
    pub seed: u64,
}

impl Replay {
    fn config(&self) -> MeasurementConfig {
        MeasurementConfig {
            total_packets: self.total_packets,
            warmup_packets: self.warmup_packets,
            seed: self.seed,
            boot_seed: self.seed,
        }
    }
}

pub fn boot_sharded(chain: &NfChain, cores: usize, replay: Replay) -> ShardedDut {
    ShardedDut::new(chain.clone(), ShardConfig::new(cores), &replay.config())
}

/// The simulated statistics of one replay: what must repeat exactly, and
/// what the conservation check reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Replayed {
    /// Packets in the measurement window (warm-up excluded, packets a stage
    /// dropped included).
    pub measured: u64,
    /// Packets a stage dropped mid-chain.
    pub dropped: u64,
    /// Packets that never reached a node (fleet front tier only).
    pub front_dropped: u64,
    /// Packets handed to a node, warm-up included (fleet only; equals the
    /// injected count on one box).
    pub delivered: u64,
    pub sim_mpps: f64,
    /// cycles, instructions, loads, stores, L3 misses over the window.
    pub counters: [u64; 5],
    pub migrated_flows: u64,
}

impl Replayed {
    pub fn cycles_per_packet(&self) -> f64 {
        self.counters[0] as f64 / self.measured as f64
    }

    /// The words the determinism check and the fingerprint cover.
    pub fn words(&self) -> Vec<u64> {
        let mut w = vec![
            self.measured,
            self.dropped,
            self.front_dropped,
            self.delivered,
            self.sim_mpps.to_bits(),
            self.migrated_flows,
        ];
        w.extend(self.counters);
        w
    }
}

fn counters_of(m: &ShardedMeasurement) -> [u64; 5] {
    let c = m.aggregate_counters();
    [c.cycles, c.instructions, c.loads, c.stores, c.l3_misses]
}

pub fn run_sharded(
    dut: &mut ShardedDut,
    workload: &Workload,
    replay: Replay,
) -> (Replayed, ShardedMeasurement) {
    let m = dut.run(workload, &replay.config());
    let out = Replayed {
        measured: m.measured_packets() as u64,
        dropped: m.dropped() as u64,
        front_dropped: 0,
        delivered: replay.total_packets as u64,
        sim_mpps: m.aggregate_mpps(),
        counters: counters_of(&m),
        migrated_flows: m.migrated_flows() as u64,
    };
    (out, m)
}

/// The maximum-throughput search of the tables (<1 % loss), in simulated
/// Mpps.
pub fn throughput_search(m: &ShardedMeasurement) -> f64 {
    max_throughput_mpps(&m.as_measurement(), &ThroughputConfig::default())
}

// ---------------------------------------------------------------------------
// The fleet (castan-cluster over castan-testbed, castan-telemetry).

pub const FLEET_NODES: usize = 4;
pub const FLEET_CORES: usize = 4;
/// The node the skewed trace pins and the failure schedule crashes.
const FLEET_TARGET_NODE: u32 = 1;

/// 4 nodes × 4 cores, least-loaded rebalancing with migration cost at both
/// levels every `epoch` packets, drain-on-fail, and the attacked node
/// crashing halfway through the run.
pub fn fleet_config(replay: Replay, epoch: usize) -> ClusterConfig {
    let shard = ShardConfig::new(FLEET_CORES).with_mitigation(
        MitigationConfig::rebalance(epoch, RebalancePolicy::LeastLoaded).with_migration_cost(),
    );
    ClusterConfig::new(FLEET_NODES, shard)
        .with_controller(
            ControllerConfig::rebalance(epoch, RebalancePolicy::LeastLoaded).with_migration_cost(),
        )
        .with_drain_on_fail()
        .with_failure(FLEET_TARGET_NODE, replay.total_packets / 2)
}

/// `base` steered through both hash layers onto core 0 of the target node.
pub fn fleet_skew(base: &Workload, fleet: &ClusterConfig) -> Workload {
    cluster_skew_workload(
        base,
        &fleet.boot_map(),
        &RssDispatcher::new(fleet.shard.rss),
        FLEET_TARGET_NODE,
        0,
    )
}

pub struct Fleet {
    dut: ClusterDut,
}

pub fn boot_fleet(
    chain: &NfChain,
    fleet: ClusterConfig,
    replay: Replay,
    telemetry_epoch: Option<usize>,
) -> Fleet {
    let mut dut = ClusterDut::new(chain, fleet, &replay.config());
    if let Some(epoch) = telemetry_epoch {
        dut.attach_telemetry(TelemetryConfig::new(epoch));
        dut.attach_node_telemetry(TelemetryConfig::new(epoch));
    }
    Fleet { dut }
}

impl Fleet {
    pub fn run(&mut self, workload: &Workload, replay: Replay) -> Replayed {
        let m: ClusterMeasurement = self.dut.run(workload, &replay.config());
        let mut counters = [0u64; 5];
        for node in &m.per_node {
            for (total, c) in counters.iter_mut().zip(counters_of(node)) {
                *total += c;
            }
        }
        Replayed {
            measured: m.measured_packets() as u64,
            dropped: m.dropped() as u64,
            front_dropped: m.front_dropped as u64,
            delivered: m.delivered() as u64,
            sim_mpps: m.aggregate_mpps(),
            counters,
            migrated_flows: (m.migrated_flows() + m.rebuilt_flows()) as u64,
        }
    }

    /// Renders the front tier's registry of the last run; returns the
    /// document's length (0 when telemetry was not attached).
    pub fn telemetry_snapshot(&mut self) -> usize {
        self.dut
            .take_telemetry()
            .map_or(0, |reg| reg.snapshot_json().len())
    }
}

pub fn fleet_map(fleet: &ClusterConfig) -> NodeMap {
    fleet.boot_map()
}

pub fn node_of(map: &NodeMap, packet: &Packet) -> u32 {
    map.node_of_packet(packet)
}

// ---------------------------------------------------------------------------
// Single layers, called the way the DUT calls them.

pub fn dispatcher(cores: usize) -> RssDispatcher {
    RssDispatcher::for_queues(cores)
}

pub fn queue_of(d: &RssDispatcher, packet: &Packet) -> usize {
    d.queue_of_packet(packet)
}

pub fn queues_of(d: &RssDispatcher, flows: &[FlowKey]) -> usize {
    d.queues_of_flows(flows).len()
}

/// Steers every flow of `packets` onto queue 0; returns how many moved.
pub fn skew_steer(packets: &[Packet], d: &RssDispatcher) -> usize {
    skew_packets(packets, d, 0).steered
}

/// The defender's per-epoch table rewrite on a fully skewed epoch: 512
/// entries over 16 queues, all load on queue 0 (the shape that always
/// triggers a rewrite).
pub struct RebalanceMicro {
    current: Vec<u32>,
    loads: Vec<u64>,
}

impl RebalanceMicro {
    const ENTRIES: usize = 512;
    const QUEUES: usize = 16;

    pub fn new() -> RebalanceMicro {
        let current: Vec<u32> = (0..Self::ENTRIES)
            .map(|i| (i % Self::QUEUES) as u32)
            .collect();
        let loads = current
            .iter()
            .enumerate()
            .map(|(e, &q)| if q == 0 { 1 + (e as u64 % 7) } else { 0 })
            .collect();
        RebalanceMicro { current, loads }
    }

    pub fn rewrite(&self, epoch: u64) -> usize {
        rebalanced_table(
            RebalancePolicy::LeastLoaded,
            &self.loads,
            &self.current,
            Self::QUEUES,
            epoch,
        )
        .len()
    }
}

/// One chain execution taken apart: what each stage was handed, what it
/// answered, and every data address it touched, in order. Recorded once
/// (untimed) so each layer can then be driven alone on the workload's own
/// stream.
pub struct Recorded {
    /// (stage, packet handed to the stage, the stage's verdict).
    pub stage_inputs: Vec<(usize, Packet, u64)>,
    /// Address with the write flag in bit 63.
    pub accesses: Vec<u64>,
    pub packets: usize,
}

const WRITE_BIT: u64 = 1 << 63;

struct RecordingSink<'a> {
    base: u64,
    out: &'a mut Vec<u64>,
}

impl ExecSink for RecordingSink<'_> {
    fn retire(&mut self, _class: CostClass) {}

    fn mem_access(&mut self, addr: u64, _width: u64, is_write: bool) {
        let flag = if is_write { WRITE_BIT } else { 0 };
        self.out.push((self.base + addr) | flag);
    }
}

/// Runs the first `total` packets of the looped `workload` through core 0's
/// chain instance exactly as the sharded DUT does, recording instead of
/// charging.
pub fn record_chain_execution(chain: &NfChain, workload: &Workload, total: usize) -> Recorded {
    let mut mems: Vec<_> = chain
        .stages
        .iter()
        .map(|s| s.nf.initial_memory.clone())
        .collect();
    let mut handoffs = chain.handoffs();
    let mut rec = Recorded {
        stage_inputs: Vec::with_capacity(total * chain.len()),
        accesses: Vec::new(),
        packets: total,
    };
    for i in 0..total {
        let mut pkt = workload.packets[i % workload.len()];
        for (s, stage) in chain.stages.iter().enumerate() {
            let mut sink = RecordingSink {
                base: core_stage_base(0, 0) + stage.addr_base,
                out: &mut rec.accesses,
            };
            let verdict = Interpreter::new(&stage.nf.program, &stage.nf.natives)
                .run_packet(&mut mems[s], &pkt, &mut sink)
                .expect("stage execution failed while recording")
                .return_value
                .unwrap_or(castan_nf::layout::VERDICT_DROP);
            rec.stage_inputs.push((s, pkt, verdict));
            match handoffs[s].apply(&pkt, verdict) {
                Some(next) => pkt = next,
                None => break,
            }
        }
    }
    rec
}

/// The interpreter alone (`NullSink`) on the recorded stage inputs; returns
/// the IR steps executed.
pub fn replay_interpreter(chain: &NfChain, rec: &Recorded) -> u64 {
    let mut mems: Vec<_> = chain
        .stages
        .iter()
        .map(|s| s.nf.initial_memory.clone())
        .collect();
    let interps: Vec<_> = chain
        .stages
        .iter()
        .map(|s| Interpreter::new(&s.nf.program, &s.nf.natives))
        .collect();
    let mut steps = 0;
    for (s, pkt, _) in &rec.stage_inputs {
        steps += interps[*s]
            .run_packet(&mut mems[*s], pkt, &mut NullSink)
            .expect("stage execution failed on replay")
            .steps;
    }
    steps
}

/// The stage handoffs alone on the recorded (packet, verdict) pairs;
/// returns how many packets they forwarded.
pub fn replay_handoffs(chain: &NfChain, rec: &Recorded) -> usize {
    let mut handoffs = chain.handoffs();
    rec.stage_inputs
        .iter()
        .filter(|(s, pkt, verdict)| handoffs[*s].apply(pkt, *verdict).is_some())
        .count()
}

/// The cache hierarchy alone on the recorded address stream; returns the
/// L3 misses it counted.
pub fn replay_accesses(rec: &Recorded, seed: u64) -> u64 {
    let mut hier = MultiCoreHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), seed, 1);
    for &a in &rec.accesses {
        let kind = if a & WRITE_BIT != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        hier.access(0, a & !WRITE_BIT, kind);
    }
    hier.aggregate_stats().l3_misses
}

/// Cross-core contention discovery on the tiny two-core hierarchy, over
/// candidates spanning two cores' windows; returns the sets found.
pub fn xcore_discover(seed: u64) -> usize {
    let cfg = HierarchyConfig::tiny_for_tests();
    let page = 1u64 << cfg.page_bits;
    let mut candidates: Vec<u64> = (0..20).map(|i| 0x10_0000 + i * page).collect();
    candidates.extend((0..20).map(|i| 0x4000_0000 + i * page));
    let mut hier = MultiCoreHierarchy::new(cfg, seed, 2);
    discover_catalog_from(&mut hier, 1, &candidates, &DiscoveryConfig::default()).len()
}
