//! The cluster under test: an ECMP/L4 front tier over N sharded nodes.
//!
//! Each node is a full [`ShardedDut`] — its own RSS dispatcher, its own
//! per-core chain instances, its own private caches and shared L3 — i.e. a
//! separate simulated server. The front tier hashes every packet's 5-tuple
//! through the [`NodeMap`] bucket table and delivers it to the owning
//! node; within the node, the existing RSS machinery takes over. Because
//! nodes share nothing, the cluster run first *routes* the whole trace
//! into per-node sub-traces (in arrival order) and then replays each
//! sub-trace through its node — exact, since cross-node interaction exists
//! only at the front tier.
//!
//! **Controller plane.** With a [`ControllerConfig`], every
//! `epoch_packets` input packets the controller consumes the epoch's
//! per-bucket load summary (a `castan-runtime` [`LoadTracker`] over
//! buckets instead of indirection entries) and rewrites the bucket table
//! with the same [`RebalancePolicy`] machinery the nodes use one level
//! down. Rewrites only ever name serving nodes, so a rebalance doubles as
//! recovery: buckets stranded on a retired node are pulled back in.
//!
//! **Cross-node flow migration.** When a bucket changes nodes, every flow
//! active on it this epoch has per-flow NF state (NAT translation, LB
//! assignment) that must follow it. The move generalises the node-internal
//! `MitigationConfig` migration cost model: the *destination* node is
//! charged [`NODE_MIGRATION_LINES_PER_FLOW`] state lines at
//! [`NODE_MIGRATION_CYCLES_PER_LINE`] each — priced as a cross-machine
//! transfer (NIC + wire + remote read) rather than the shared-L3 hit an
//! intra-node move costs. A node *failure* loses the state outright: if
//! drain-on-fail is enabled the destinations rebuild each flow from
//! scratch at [`NODE_REBUILD_FACTOR`]× the transfer price.
//!
//! **Failure semantics.** A scheduled [`FailureSchedule`] retires a node
//! mid-run. Without drain-on-fail the bucket table keeps naming the dead
//! node and its traffic blackholes at the front tier
//! ([`ClusterMeasurement::front_dropped`]) until a controller rewrite (if
//! any) pulls the buckets back. With drain-on-fail the map reassigns the
//! dead node's buckets immediately, at rebuild cost.
//!
//! **Throughput.** Nodes run concurrently, and within a node cores run
//! concurrently, so the aggregate forwarding rate is bounded by the
//! busiest core anywhere in the fleet plus its node's migration overhead:
//! `aggregate Mpps = measured packets / busy time of the bottleneck node`,
//! where a node's busy time is its bottleneck core's busy cycles plus the
//! node-level migration/rebuild cycles it was charged.
//!
//! **Host execution.** The host replays the nodes concurrently too. Each
//! node is one job: its own [`ShardedDut`], the sub-trace routed to it and
//! its measurement config. Jobs share nothing, so every schedule computes
//! the same per-node results, and the results land in a `Vec` indexed by
//! node id — the only thing the rest of the run reads. The pool has
//! `std::thread::available_parallelism()` workers, capped at the number of
//! nodes with packets, and the calling thread is one of them: a one-core
//! host or a one-node cluster spawns no thread. Jobs are dealt up front,
//! longest sub-trace first, each to the worker with the fewest packets dealt
//! so far (LPT, longest processing time first), so the pool needs no lock
//! and no atomic. Workers stop at the host's cores rather than one per
//! node because every replay in flight holds its node's per-core NF state:
//! on a 2-core host, one thread per node measured +10–17 % peak RSS on the
//! benchmark's 4-node fleet, one per core +2–4 %. A node that panics
//! re-raises its own payload on the calling thread, so the message (say, a
//! frame pool's exhaustion and its size) survives the thread boundary.

use std::cmp::Reverse;
use std::panic;
use std::thread;

use castan_chain::NfChain;
use castan_packet::Packet;
use castan_runtime::{
    rebalanced_table, record_rebalance, LoadMetric, LoadTracker, RebalancePolicy, RssDispatcher,
};
use castan_telemetry::{EventKind, Registry};
use castan_testbed::{
    CoreMeasurement, MeasurementConfig, PacketCounters, ShardConfig, ShardedDut,
    ShardedMeasurement, TelemetryConfig,
};
use castan_workload::Workload;

use crate::map::{NodeMap, DEFAULT_NODE_BUCKETS};

/// Cache lines of per-flow NF state pulled across machines when a bucket
/// move migrates a flow — same state footprint as the node-internal
/// `castan_testbed::MIGRATION_LINES_PER_FLOW`.
pub const NODE_MIGRATION_LINES_PER_FLOW: u64 = 8;

/// Cycles per state line for a cross-node transfer. Flow records are
/// pulled in bulk after a bucket move, so the per-line cost reflects the
/// streaming bandwidth of an RDMA-style pipelined read — a handful of
/// DRAM-class latencies per flow, not a full round trip per line.
/// Deliberately a constant of the simulation (not derived from a node's
/// cache profile): the wire dominates, not the memory hierarchy.
pub const NODE_MIGRATION_CYCLES_PER_LINE: u64 = 100;

/// Cluster rebalance trigger numerator: the controller rewrites only when
/// the busiest node's epoch load exceeds `NUM/DEN` of the fair share —
/// 50 % over, deliberately stricter than the node-level
/// `castan_runtime::REBALANCE_TRIGGER_NUM` (25 % over), because acting on
/// a cluster imbalance ships flow state across the wire while a node-level
/// queue remap only re-pulls it through the shared L3.
pub const CLUSTER_REBALANCE_TRIGGER_NUM: u64 = 3;
/// Cluster rebalance trigger denominator. See
/// [`CLUSTER_REBALANCE_TRIGGER_NUM`].
pub const CLUSTER_REBALANCE_TRIGGER_DEN: u64 = 2;

/// Rebuild multiplier for flows whose state died with a failed node: the
/// destination re-derives the state (re-NAT, re-balance, table inserts)
/// instead of copying it.
pub const NODE_REBUILD_FACTOR: u64 = 2;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The cluster controller plane: epoch-based bucket-table rebalancing,
/// reusing the node-level [`RebalancePolicy`] semantics one level up.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Epoch length in cluster input packets. At every boundary the
    /// controller sees the epoch's per-bucket packet loads and may rewrite
    /// the bucket table.
    pub epoch_packets: usize,
    /// The table rewrite policy (the same enum the nodes use for their
    /// indirection tables).
    pub policy: RebalancePolicy,
    /// Charge cross-node state transfer for every flow whose bucket moved
    /// (see [`NODE_MIGRATION_LINES_PER_FLOW`]).
    pub migration_cost: bool,
}

impl ControllerConfig {
    /// Plain epoch rebalancing with no migration cost model.
    pub fn rebalance(epoch_packets: usize, policy: RebalancePolicy) -> Self {
        assert!(epoch_packets > 0, "epochs must contain packets");
        ControllerConfig {
            epoch_packets,
            policy,
            migration_cost: false,
        }
    }

    /// Adds the cross-node flow-migration cost model.
    pub fn with_migration_cost(self) -> Self {
        ControllerConfig {
            migration_cost: true,
            ..self
        }
    }
}

/// A scheduled node failure: `node` crashes just before cluster packet
/// `at_packet` is dispatched.
#[derive(Clone, Copy, Debug)]
pub struct FailureSchedule {
    /// The node that crashes.
    pub node: u32,
    /// The cluster packet index at which it crashes.
    pub at_packet: usize,
}

/// Cluster configuration: the fleet geometry plus the control plane.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of nodes behind the front tier.
    pub n_nodes: usize,
    /// ECMP bucket count (power of two).
    pub n_buckets: usize,
    /// Seed of the front tier's ECMP hash and the node map's rendezvous
    /// weights.
    pub seed: u64,
    /// Per-node runtime (cores, batching, RSS, node-internal mitigation) —
    /// every node runs the same image, as real fleets do.
    pub shard: ShardConfig,
    /// Optional controller plane; `None` leaves the boot bucket table in
    /// place for the whole run.
    pub controller: Option<ControllerConfig>,
    /// React to a failure by immediately reassigning the dead node's
    /// buckets (at state-rebuild cost). Without it the dead node's traffic
    /// blackholes until a controller rewrite happens to move the buckets.
    pub drain_on_fail: bool,
    /// Optional scheduled failure.
    pub failure: Option<FailureSchedule>,
}

impl ClusterConfig {
    /// A cluster of `n_nodes` identical nodes running `shard`, with the
    /// default bucket table and no control plane.
    pub fn new(n_nodes: usize, shard: ShardConfig) -> Self {
        ClusterConfig {
            n_nodes,
            n_buckets: DEFAULT_NODE_BUCKETS,
            seed: 0xECB0_5EED,
            shard,
            controller: None,
            drain_on_fail: false,
            failure: None,
        }
    }

    /// The same cluster with a controller plane.
    pub fn with_controller(self, controller: ControllerConfig) -> Self {
        ClusterConfig {
            controller: Some(controller),
            ..self
        }
    }

    /// The same cluster with drain-on-fail recovery.
    pub fn with_drain_on_fail(self) -> Self {
        ClusterConfig {
            drain_on_fail: true,
            ..self
        }
    }

    /// The same cluster with a scheduled failure.
    pub fn with_failure(self, node: u32, at_packet: usize) -> Self {
        ClusterConfig {
            failure: Some(FailureSchedule { node, at_packet }),
            ..self
        }
    }

    /// The boot-time node map this configuration deploys — what an
    /// attacker fingerprints and steers against.
    pub fn boot_map(&self) -> NodeMap {
        NodeMap::with_buckets(self.n_nodes, self.n_buckets, self.seed)
    }
}

/// The result of one cluster run: per-node sharded measurements plus the
/// front tier's own accounting.
#[derive(Clone, Debug)]
pub struct ClusterMeasurement {
    /// One sharded measurement per node, indexed by node id. A node that
    /// served no packets has empty per-core measurements.
    pub per_node: Vec<ShardedMeasurement>,
    /// Packets the front tier delivered to each node (warm-up included).
    pub assigned: Vec<usize>,
    /// Of [`ClusterMeasurement::assigned`], how many fell inside the
    /// warm-up prefix of the cluster trace.
    pub warmup: Vec<usize>,
    /// Packets dropped at the front tier because their bucket named a
    /// failed node (zero unless a failure goes unhandled).
    pub front_dropped: usize,
    /// Cross-node migration/rebuild cycles charged to each node (as the
    /// destination of bucket moves).
    pub node_migration_cycles: Vec<u64>,
    /// Flows whose state arrived at each node via graceful migration.
    pub migrated_to_node: Vec<usize>,
    /// Flows each node rebuilt from scratch after a failure.
    pub rebuilt_on_node: Vec<usize>,
    /// The bucket table active during each controller interval (entry 0 is
    /// the boot table; a new entry is pushed per epoch boundary and per
    /// drain-on-fail reassignment).
    pub bucket_history: Vec<Vec<u32>>,
}

impl ClusterMeasurement {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Total measured packets over every core of every node.
    pub fn measured_packets(&self) -> usize {
        self.per_node
            .iter()
            .map(ShardedMeasurement::measured_packets)
            .sum()
    }

    /// Total packets the front tier delivered (warm-up included).
    pub fn delivered(&self) -> usize {
        self.assigned.iter().sum()
    }

    /// Total packets dropped mid-chain on any node.
    pub fn dropped(&self) -> usize {
        self.per_node.iter().map(ShardedMeasurement::dropped).sum()
    }

    /// Total flows migrated across nodes (graceful moves).
    pub fn migrated_flows(&self) -> usize {
        self.migrated_to_node.iter().sum()
    }

    /// Total flows rebuilt after failures.
    pub fn rebuilt_flows(&self) -> usize {
        self.rebuilt_on_node.iter().sum()
    }

    /// A node's busy time in nanoseconds: its bottleneck core's busy
    /// cycles plus the node-level migration/rebuild cycles it was charged,
    /// at the node's clock.
    pub fn node_busy_ns(&self, node: usize) -> f64 {
        let m = &self.per_node[node];
        let core_busy = m
            .per_core
            .iter()
            .map(|c| c.busy_cycles())
            .max()
            .unwrap_or(0);
        let busy = core_busy + self.node_migration_cycles[node];
        if busy == 0 {
            return 0.0;
        }
        busy as f64 / (m.clock_hz as f64 / 1e9)
    }

    /// The node that bounds the run (largest busy time).
    pub fn bottleneck_node(&self) -> usize {
        (0..self.n_nodes())
            .max_by(|&a, &b| {
                self.node_busy_ns(a)
                    .partial_cmp(&self.node_busy_ns(b))
                    .unwrap_or(core::cmp::Ordering::Equal)
            })
            .unwrap_or(0)
    }

    /// Fraction of measured packets handled by the busiest single core in
    /// the fleet (`1 / (n_nodes * n_cores)` under perfect balance, → 1.0
    /// when a composed skew pins everything on one core).
    pub fn bottleneck_core_share(&self) -> f64 {
        let total = self.measured_packets();
        if total == 0 {
            return 0.0;
        }
        let max = self
            .per_node
            .iter()
            .flat_map(|m| m.per_core.iter().map(|c| c.packets()))
            .max()
            .unwrap_or(0);
        max as f64 / total as f64
    }

    /// Aggregate forwarding rate in Mpps: every node (and every core) runs
    /// concurrently, so the run completes when the bottleneck node
    /// finishes its share.
    pub fn aggregate_mpps(&self) -> f64 {
        let busy_ns = self.node_busy_ns(self.bottleneck_node());
        if busy_ns == 0.0 {
            return 0.0;
        }
        self.measured_packets() as f64 / busy_ns * 1e3
    }
}

/// The cluster device under test.
pub struct ClusterDut {
    cluster: ClusterConfig,
    nodes: Vec<ShardedDut>,
    telemetry: Option<TelemetryConfig>,
    last_registry: Option<Registry>,
}

impl ClusterDut {
    /// Boots `n_nodes` sharded DUTs, each its own simulated server: node
    /// `n` gets a boot seed derived from `cfg.boot_seed` (node 0 keeps the
    /// base seed, so a 1-node cluster boots the exact single-box DUT).
    pub fn new(chain: &NfChain, cluster: ClusterConfig, cfg: &MeasurementConfig) -> Self {
        assert!(cluster.n_nodes > 0, "need at least one node");
        if let Some(f) = cluster.failure {
            assert!(
                (f.node as usize) < cluster.n_nodes,
                "scheduled failure names a node that does not exist"
            );
        }
        let nodes = (0..cluster.n_nodes)
            .map(|n| {
                let node_cfg = MeasurementConfig {
                    boot_seed: cfg.boot_seed ^ (n as u64).wrapping_mul(GOLDEN),
                    ..*cfg
                };
                ShardedDut::new(chain.clone(), cluster.shard, &node_cfg)
            })
            .collect();
        ClusterDut {
            cluster,
            nodes,
            telemetry: None,
            last_registry: None,
        }
    }

    /// This cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The nodes behind the front tier.
    pub fn nodes(&self) -> &[ShardedDut] {
        &self.nodes
    }

    /// Attaches front-tier/controller telemetry: every subsequent run
    /// records per-node delivery series, controller decisions and
    /// failure/drain/rebuild events into a fresh registry (readable via
    /// [`ClusterDut::telemetry`]). Observational only — the routing and
    /// execution phases are unchanged.
    pub fn attach_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = Some(cfg);
    }

    /// Additionally attaches node-level telemetry to every node's
    /// [`ShardedDut`] (same epoch length), so per-node registries are
    /// available after a run via `nodes()[n].telemetry()` — what the
    /// cluster-wide reconciliation tests read.
    pub fn attach_node_telemetry(&mut self, cfg: TelemetryConfig) {
        for node in &mut self.nodes {
            node.attach_telemetry(cfg);
        }
    }

    /// The last run's front-tier registry (`None` before the first
    /// telemetry-enabled run).
    pub fn telemetry(&self) -> Option<&Registry> {
        self.last_registry.as_ref()
    }

    /// Takes ownership of the last run's front-tier registry.
    pub fn take_telemetry(&mut self) -> Option<Registry> {
        self.last_registry.take()
    }

    /// Replays a workload through the front tier and every node.
    ///
    /// The run has two phases. The *routing* phase walks the trace packet
    /// by packet: scheduled failures and controller epochs take effect at
    /// their cluster packet index, each packet is hashed through the
    /// current node map, front-tier drops are accounted, and surviving
    /// packets are appended (in arrival order) to their node's sub-trace.
    /// The *execution* phase then replays each sub-trace through its
    /// node's [`ShardedDut`] — node `n` runs with measurement seed
    /// `cfg.seed ^ n·φ` (node 0 keeps the base seed) and a warm-up count
    /// equal to the cluster warm-up packets it was routed, so the cluster
    /// measurement window is exactly the per-node windows glued together.
    /// A node routed no packets reports idle cores under its boot table.
    /// The nodes replay concurrently on a pool of at most one worker per
    /// host core (see the module doc's *Host execution*); the measurement
    /// is the same at every worker count.
    pub fn run(&mut self, workload: &Workload, cfg: &MeasurementConfig) -> ClusterMeasurement {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        self.run_on(workload, cfg, cores)
    }

    /// [`ClusterDut::run`] with the execution phase on at most `workers`
    /// workers.
    fn run_on(
        &mut self,
        workload: &Workload,
        cfg: &MeasurementConfig,
        workers: usize,
    ) -> ClusterMeasurement {
        assert!(!workload.is_empty(), "cannot replay an empty workload");
        let n_nodes = self.cluster.n_nodes;
        let mut map = self.cluster.boot_map();
        let mut bucket_history = vec![map.buckets().to_vec()];
        let controller = self.cluster.controller;
        let mut tracker = controller.map(|_| LoadTracker::new(self.cluster.n_buckets));
        let mut epoch = 0u64;

        let mut sub: Vec<Vec<Packet>> = vec![Vec::new(); n_nodes];
        let mut assigned = vec![0usize; n_nodes];
        let mut warmup = vec![0usize; n_nodes];
        let mut front_dropped = 0usize;
        let mut node_migration_cycles = vec![0u64; n_nodes];
        let mut migrated_to_node = vec![0usize; n_nodes];
        let mut rebuilt_on_node = vec![0usize; n_nodes];
        let mut failure_pending = self.cluster.failure;

        // Front-tier telemetry: per-node delivery accounting for the open
        // epoch, sealed every `epoch_packets` cluster packets. All `None`
        // without an attached registry — the plain routing path is exactly
        // the pre-telemetry code.
        let telemetry_cfg = self.telemetry;
        let mut registry = telemetry_cfg.map(|t| Registry::with_event_capacity(t.event_capacity));
        let mut delivered_epoch = vec![0u64; n_nodes];
        let mut dropped_epoch = 0u64;

        for i in 0..cfg.total_packets {
            if let Some(f) = failure_pending {
                if i >= f.at_packet {
                    failure_pending = None;
                    let old = map.buckets().to_vec();
                    map.fail(f.node);
                    if let Some(reg) = registry.as_mut() {
                        reg.count("failures.nodes", 1);
                        reg.event(EventKind::NodeFail, format!("node={}", f.node));
                    }
                    if self.cluster.drain_on_fail {
                        map.reassign(f.node);
                        // The dead node's per-flow state is gone: every
                        // flow seen this epoch on a moved bucket is
                        // rebuilt from scratch at its new home.
                        if let Some(t) = tracker.as_mut() {
                            let moved = t.moved_flows_per_queue(&old, map.buckets(), n_nodes);
                            for (n, &flows) in moved.iter().enumerate() {
                                let cycles = flows as u64
                                    * NODE_MIGRATION_LINES_PER_FLOW
                                    * NODE_MIGRATION_CYCLES_PER_LINE
                                    * NODE_REBUILD_FACTOR;
                                node_migration_cycles[n] += cycles;
                                rebuilt_on_node[n] += flows;
                            }
                            if let Some(reg) = registry.as_mut() {
                                let flows: usize = moved.iter().sum();
                                reg.count("failures.rebuilt_flows", flows as u64);
                                reg.event(
                                    EventKind::NodeRebuild,
                                    format!("node={} flows={flows}", f.node),
                                );
                            }
                            // The drain rewrite restarts the epoch: the
                            // loads recorded so far describe the dead
                            // topology, and letting the next boundary act
                            // on them would charge a second, stale
                            // reshuffle on top of the recovery.
                            t.reset();
                        }
                        if let Some(reg) = registry.as_mut() {
                            reg.event(EventKind::NodeDrain, format!("node={}", f.node));
                        }
                        bucket_history.push(map.buckets().to_vec());
                    }
                }
            }
            if let (Some(c), Some(t)) = (controller, tracker.as_mut()) {
                if i > 0 && i % c.epoch_packets == 0 {
                    epoch += 1;
                    let old = map.buckets().to_vec();
                    let new = rebalanced_buckets(c.policy, t, &old, &map, epoch);
                    if new != old {
                        if let Some(reg) = registry.as_mut() {
                            record_rebalance(reg, &old, &new);
                        }
                        if c.migration_cost {
                            let moved = t.moved_flows_per_queue(&old, &new, n_nodes);
                            for (n, &flows) in moved.iter().enumerate() {
                                let cycles = flows as u64
                                    * NODE_MIGRATION_LINES_PER_FLOW
                                    * NODE_MIGRATION_CYCLES_PER_LINE;
                                node_migration_cycles[n] += cycles;
                                migrated_to_node[n] += flows;
                            }
                            if let Some(reg) = registry.as_mut() {
                                let flows: usize = moved.iter().sum();
                                reg.count("migration.flows", flows as u64);
                                reg.event(EventKind::Migration, format!("flows={flows}"));
                            }
                        }
                        map.set_buckets(new);
                    }
                    bucket_history.push(map.buckets().to_vec());
                    t.reset();
                }
            }
            if let (Some(t), Some(reg)) = (telemetry_cfg, registry.as_mut()) {
                if i > 0 && i % t.epoch_packets == 0 {
                    seal_front_tier(reg, &mut delivered_epoch, &mut dropped_epoch);
                }
            }

            let pkt = workload.packets[i % workload.packets.len()];
            let bucket = map.bucket_of_packet(&pkt);
            let node = match bucket {
                Some(b) => map.buckets()[b],
                None => map.buckets()[0],
            };
            if let (Some(t), Some(b)) = (tracker.as_mut(), bucket) {
                t.record(b, pkt.flow().map(|f| f.to_u128()));
            }
            if !map.state(node).serves_traffic() {
                front_dropped += 1;
                if registry.is_some() {
                    dropped_epoch += 1;
                }
                continue;
            }
            assigned[node as usize] += 1;
            if registry.is_some() {
                delivered_epoch[node as usize] += 1;
            }
            if i < cfg.warmup_packets {
                warmup[node as usize] += 1;
            }
            sub[node as usize].push(pkt);
        }

        let shard = self.cluster.shard;
        let jobs = self
            .nodes
            .iter_mut()
            .zip(sub)
            .enumerate()
            .map(|(n, (dut, packets))| (packets.len(), (n, dut, packets)))
            .collect();
        let per_node = run_pooled(jobs, workers, |(n, dut, packets)| {
            if packets.is_empty() {
                return idle_measurement(dut, &shard);
            }
            let node_workload = Workload {
                kind: workload.kind,
                packets,
            };
            let node_cfg = MeasurementConfig {
                total_packets: node_workload.len(),
                warmup_packets: warmup[n],
                seed: cfg.seed ^ (n as u64).wrapping_mul(GOLDEN),
                boot_seed: cfg.boot_seed ^ (n as u64).wrapping_mul(GOLDEN),
            };
            dut.run(&node_workload, &node_cfg)
        });

        if let Some(reg) = registry.as_mut() {
            // Per-node run summaries land in the final epoch together with
            // the tail of the delivery accounting, so front-tier delivery
            // and node-level execution reconcile off one registry.
            for (n, m) in per_node.iter().enumerate() {
                reg.count(
                    &format!("node{n}.measured_packets"),
                    m.measured_packets() as u64,
                );
                reg.count(
                    &format!("node{n}.exec_cycles"),
                    m.aggregate_counters().cycles,
                );
                if node_migration_cycles[n] > 0 {
                    reg.count(
                        &format!("node{n}.migration_cycles"),
                        node_migration_cycles[n],
                    );
                }
                reg.gauge(&format!("node{n}.mpps"), m.aggregate_mpps());
            }
            seal_front_tier(reg, &mut delivered_epoch, &mut dropped_epoch);
        }
        self.last_registry = registry;

        ClusterMeasurement {
            per_node,
            assigned,
            warmup,
            front_dropped,
            node_migration_cycles,
            migrated_to_node,
            rebuilt_on_node,
            bucket_history,
        }
    }
}

/// What a node routed no packets measured, built the way
/// [`ShardedDut::run`] builds a measurement: idle cores with one zero per
/// chain stage, under the boot table — not whatever table an earlier run's
/// rebalancing left in the dispatcher. Cluster nodes never install a boot
/// table override, so the boot table is the round-robin fill.
fn idle_measurement(dut: &ShardedDut, shard: &ShardConfig) -> ShardedMeasurement {
    let idle_core = CoreMeasurement {
        stage_totals: vec![PacketCounters::default(); dut.chain().len()],
        ..CoreMeasurement::default()
    };
    ShardedMeasurement {
        per_core: vec![idle_core; shard.n_cores],
        batch_size: shard.batch_size,
        clock_hz: dut.clock_hz(),
        table_history: vec![RssDispatcher::new(shard.rss).table().to_vec()],
    }
}

/// Runs `(weight, job)` pairs on at most `workers` workers and returns the
/// results in job order. The calling thread is worker 0; only jobs of
/// non-zero weight earn a worker of their own, so one such job (or one
/// worker) runs everything inline and spawns nothing. Jobs are dealt up
/// front, heaviest first, each to the worker with the least weight dealt so
/// far (ties to the lower index). A job's panic reaches the caller with its
/// own payload.
fn run_pooled<J: Send, R: Send>(
    jobs: Vec<(usize, J)>,
    workers: usize,
    run: impl Fn(J) -> R + Sync,
) -> Vec<R> {
    let weighted = jobs.iter().filter(|(w, _)| *w > 0).count();
    let workers = workers.min(weighted).max(1);
    let mut order: Vec<_> = jobs.into_iter().enumerate().collect();
    order.sort_by_key(|&(i, (w, _))| (Reverse(w), i));
    let mut dealt = vec![0; workers];
    let mut shares: Vec<Vec<(usize, J)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, (w, job)) in order {
        let worker = (0..workers)
            .min_by_key(|&k| (dealt[k], k))
            .expect("at least one worker");
        dealt[worker] += w;
        shares[worker].push((i, job));
    }

    let work = |share: Vec<(usize, J)>| -> Vec<(usize, R)> {
        share.into_iter().map(|(i, job)| (i, run(job))).collect()
    };
    let mut shares = shares.into_iter();
    let own = shares.next().expect("at least one worker");
    let mut done = thread::scope(|s| {
        let spawned: Vec<_> = shares.map(|share| s.spawn(move || work(share))).collect();
        let mut done = work(own);
        for handle in spawned {
            done.extend(handle.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        done
    });
    // Each job index occurs exactly once: sorting places results by job.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Seals one front-tier telemetry epoch: per-node delivery counters
/// (`node{n}.delivered`), the front drop counter, and the
/// delivery-concentration gauge (`front.max_node_share`), then resets the
/// per-epoch accumulators. Purely observational — called only when a
/// registry is attached.
fn seal_front_tier(reg: &mut Registry, delivered: &mut [u64], dropped: &mut u64) {
    let total: u64 = delivered.iter().sum();
    let max = delivered.iter().copied().max().unwrap_or(0);
    for (n, d) in delivered.iter_mut().enumerate() {
        if *d > 0 {
            reg.count(&format!("node{n}.delivered"), *d);
        }
        *d = 0;
    }
    if total > 0 {
        reg.count("front.delivered", total);
        reg.gauge("front.max_node_share", max as f64 / total as f64);
    }
    if *dropped > 0 {
        reg.count("front.dropped", *dropped);
    }
    reg.gauge("front.epoch_packets", (total + *dropped) as f64);
    *dropped = 0;
    reg.event(EventKind::EpochBoundary, format!("delivered={total}"));
    reg.seal_epoch();
}

/// A minimal-transfer least-loaded rewrite: starting from the current
/// assignment, heaviest buckets of overloaded nodes move to the least
/// loaded node, and nothing else moves.
///
/// The node-level `rebalanced_table` re-deals the whole table from
/// scratch once triggered — fine when a moved flow costs a few shared-L3
/// hits, but at the cluster level every moved flow ships its state across
/// the wire, so a wholesale re-deal after a marginal trigger would charge
/// far more migration than the imbalance it cures. Uses the stricter
/// cluster-level trigger hysteresis
/// ([`CLUSTER_REBALANCE_TRIGGER_NUM`]/[`CLUSTER_REBALANCE_TRIGGER_DEN`]
/// over the fair share) and is fully deterministic (stable heaviest-first
/// order, smallest-id tie-breaks).
fn least_loaded_minimal_moves(loads: &[u64], current: &[u32], n_nodes: usize) -> Vec<u32> {
    let total: u64 = loads.iter().sum();
    let mut node_load = vec![0u64; n_nodes];
    for (b, &n) in current.iter().enumerate() {
        node_load[n as usize] += loads[b];
    }
    let max_load = node_load.iter().copied().max().unwrap_or(0);
    let triggered = max_load * CLUSTER_REBALANCE_TRIGGER_DEN * (n_nodes as u64)
        > total * CLUSTER_REBALANCE_TRIGGER_NUM;
    if total == 0 || n_nodes == 1 || !triggered {
        return current.to_vec();
    }
    let fair = total / n_nodes as u64;
    let mut new = current.to_vec();
    let mut order: Vec<usize> = (0..loads.len()).filter(|&b| loads[b] > 0).collect();
    order.sort_by_key(|&b| (core::cmp::Reverse(loads[b]), b));
    for &b in &order {
        let from = new[b] as usize;
        let (to, min_load) = node_load
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(n, l)| (l, n))
            .expect("at least one node");
        // Move only while the source is over fair share and the move
        // strictly improves the pair — the loop terminates with every
        // node within one bucket of fair.
        if to != from && node_load[from] > fair && min_load + loads[b] < node_load[from] {
            node_load[from] -= loads[b];
            node_load[to] += loads[b];
            new[b] = to as u32;
        }
    }
    new
}

/// Applies the rebalancing policy to the bucket table: the current table
/// is densified over the *serving* nodes (buckets stranded on retired
/// nodes are treated as belonging to the first serving node, so a
/// triggered rewrite reclaims them), rewritten, and mapped back to node
/// ids. `LeastLoaded` uses the cluster's own minimal-transfer variant
/// ([`least_loaded_minimal_moves`]); other policies delegate to the
/// node-level `castan_runtime::rebalanced_table`.
fn rebalanced_buckets(
    policy: RebalancePolicy,
    tracker: &LoadTracker,
    current: &[u32],
    map: &NodeMap,
    epoch: u64,
) -> Vec<u32> {
    let active = map.active_nodes();
    if active.len() <= 1 {
        return current.to_vec();
    }
    let dense_of: Vec<Option<u32>> = (0..map.n_nodes() as u32)
        .map(|n| active.iter().position(|&a| a == n).map(|p| p as u32))
        .collect();
    let dense_current: Vec<u32> = current
        .iter()
        .map(|&n| dense_of[n as usize].unwrap_or(0))
        .collect();
    let loads = tracker.loads(LoadMetric::Packets);
    let dense_new = match policy {
        RebalancePolicy::LeastLoaded => {
            least_loaded_minimal_moves(loads, &dense_current, active.len())
        }
        _ => rebalanced_table(policy, loads, &dense_current, active.len(), epoch),
    };
    if dense_new == dense_current {
        // Not triggered: keep the real table, including any stranded
        // buckets — the controller saw no imbalance worth acting on.
        return current.to_vec();
    }
    dense_new.into_iter().map(|d| active[d as usize]).collect()
}

/// Boots a cluster and replays one workload — the cluster-level analogue
/// of `castan_testbed::measure_sharded`.
pub fn measure_cluster(
    chain: &NfChain,
    cluster: ClusterConfig,
    workload: &Workload,
    cfg: &MeasurementConfig,
) -> ClusterMeasurement {
    ClusterDut::new(chain, cluster, cfg).run(workload, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skew::cluster_skew_workload;
    use castan_chain::{chain_by_id, ChainId};
    use castan_testbed::MitigationConfig;
    use castan_workload::{generic_chain_workload, WorkloadConfig, WorkloadKind};

    /// Everything a run leaves behind, as text: the measurement (every
    /// field of every node's `ShardedMeasurement`; its `f64` samples are
    /// bit-identical or the run is not), the front tier's registry and
    /// each node's.
    fn fingerprint(dut: &ClusterDut, m: &ClusterMeasurement) -> Vec<String> {
        let mut out = vec![format!("{m:?}")];
        out.push(dut.telemetry().expect("front registry").snapshot_json());
        for node in dut.nodes() {
            out.push(node.telemetry().expect("node registry").snapshot_json());
        }
        out
    }

    #[test]
    fn pooled_execution_is_identical_at_every_worker_count() {
        // The benchmark fleet's shape at 4 nodes x 2 cores: rebalancing
        // with migration cost at both levels, a failure drained halfway,
        // telemetry at both levels, and a composed skew that makes the
        // sub-traces uneven.
        let chain = chain_by_id(ChainId::NatLpm);
        let cfg = MeasurementConfig {
            total_packets: 800,
            warmup_packets: 64,
            seed: 7,
            boot_seed: 1,
        };
        let epoch = cfg.total_packets / 8;
        let shard = ShardConfig::new(2).with_mitigation(
            MitigationConfig::rebalance(epoch, RebalancePolicy::LeastLoaded).with_migration_cost(),
        );
        let cluster = ClusterConfig::new(4, shard)
            .with_controller(
                ControllerConfig::rebalance(epoch, RebalancePolicy::LeastLoaded)
                    .with_migration_cost(),
            )
            .with_drain_on_fail()
            .with_failure(1, cfg.total_packets / 2);
        let base = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig {
                scale: 0.002,
                seed: 3,
            },
        );
        let trace = cluster_skew_workload(
            &base,
            &cluster.boot_map(),
            &RssDispatcher::new(shard.rss),
            1,
            0,
        );
        let run = |workers: usize| {
            let mut dut = ClusterDut::new(&chain, cluster, &cfg);
            dut.attach_telemetry(TelemetryConfig::new(epoch));
            dut.attach_node_telemetry(TelemetryConfig::new(epoch));
            let m = dut.run_on(&trace, &cfg, workers);
            (fingerprint(&dut, &m), m)
        };

        let (serial, m) = run(1);
        // The pin needs the deal to differ from node order: sub-traces of
        // pairwise distinct lengths whose longest is not node 0's.
        let mut lpt: Vec<usize> = (0..m.n_nodes()).collect();
        lpt.sort_by_key(|&n| (Reverse(m.assigned[n]), n));
        assert_ne!(lpt, [0, 1, 2, 3], "assigned {:?}", m.assigned);
        let mut lengths = m.assigned.clone();
        lengths.sort_unstable();
        lengths.dedup();
        assert_eq!(lengths.len(), 4, "assigned {:?}", m.assigned);
        // Every node's result sits at its own index: its cores dispatched
        // exactly what the front tier routed to it.
        for (n, node) in m.per_node.iter().enumerate() {
            let dispatched: usize = node.per_core.iter().map(|c| c.dispatched).sum();
            assert_eq!(dispatched, m.assigned[n], "node {n}");
        }
        for workers in 2..=5 {
            assert!(run(workers).0 == serial, "{workers} workers diverged");
        }
    }

    #[test]
    fn jobs_come_back_in_job_order_and_the_caller_works_too() {
        let caller = thread::current().id();
        for workers in 1..=5 {
            let jobs = vec![(1, 0), (5, 1), (3, 2), (0, 3)];
            let got = run_pooled(jobs, workers, |j| (j, thread::current().id()));
            let order: Vec<usize> = got.iter().map(|&(j, _)| j).collect();
            assert_eq!(order, [0, 1, 2, 3], "{workers} workers");
            // The heaviest job is dealt first, to the calling thread; one
            // worker spawns nothing.
            assert_eq!(got[1].1, caller, "{workers} workers");
            if workers == 1 {
                assert!(got.iter().all(|&(_, t)| t == caller));
            }
        }
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_with_its_message() {
        for bad in 0..3 {
            for workers in 1..=3 {
                let jobs = vec![(3, 0), (2, 1), (1, 2)];
                let caught = panic::catch_unwind(|| {
                    run_pooled(jobs, workers, |j| {
                        assert!(j != bad, "frame pool exhausted: {} frames", 64 + j);
                        j
                    })
                });
                let payload = caught.expect_err("a job panicked");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(format!("frame pool exhausted: {} frames", 64 + bad).as_str()),
                    "job {bad} on {workers} workers"
                );
            }
        }
    }
}
