//! # castan-cluster
//!
//! The fleet tier of the CASTAN reproduction: an ECMP/L4 front tier that
//! hashes 5-tuples across N sharded nodes, each a full
//! [`castan_testbed::ShardedDut`] (its own RSS dispatcher, per-core chain
//! instances, private caches and shared L3 — a separate simulated server).
//!
//! The crate has three parts:
//!
//! - [`map`] — the consistent-hashing [`NodeMap`]: a bucket table over
//!   nodes (capacity-capped rendezvous hashing) with add/drain/fail and
//!   bounded flow disruption, plus the node-steering attacker primitive.
//! - [`cluster`] — the [`ClusterDut`]: the front tier, the epoch-driven
//!   controller plane (reusing `castan-runtime`'s rebalance machinery one
//!   level up) and the cross-node flow-migration cost model.
//! - [`skew`] — cluster-level adversarial synthesis: ECMP skew (pin a
//!   node) and ECMP×RSS composed skew (pin a single core of a single
//!   node), the workloads behind `castan-core`'s
//!   `analyze_chain_cluster_skew` and the `cluster-skew` experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod map;
pub mod skew;

pub use cluster::{
    measure_cluster, ClusterConfig, ClusterDut, ClusterMeasurement, ControllerConfig,
    FailureSchedule, CLUSTER_REBALANCE_TRIGGER_DEN, CLUSTER_REBALANCE_TRIGGER_NUM,
    NODE_MIGRATION_CYCLES_PER_LINE, NODE_MIGRATION_LINES_PER_FLOW, NODE_REBUILD_FACTOR,
};
pub use map::{NodeMap, NodeState, DEFAULT_NODE_BUCKETS};
pub use skew::{
    cluster_skew_packets, cluster_skew_workload, ecmp_skew_packets, ecmp_skew_workload,
    ClusterSkewSynthesis,
};

#[cfg(test)]
mod tests {
    use super::*;
    use castan_chain::{chain_by_id, ChainId};
    use castan_packet::{FlowKey, Ipv4Addr, Packet, PacketBuilder};
    use castan_runtime::{RebalancePolicy, RssDispatcher};
    use castan_testbed::{measure_sharded, MeasurementConfig, ShardConfig};
    use castan_workload::{Workload, WorkloadKind};

    fn uniform_workload(n: u64) -> Workload {
        let packets: Vec<Packet> = (0..n)
            .map(|i| {
                PacketBuilder::udp_flow(FlowKey::udp(
                    Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 2),
                    3000 + (i % 40_000) as u16,
                    Ipv4Addr::new(93, 184, 216, 34),
                    80,
                ))
                .build()
            })
            .collect();
        Workload {
            kind: WorkloadKind::UniRand,
            packets,
        }
    }

    fn tiny_cfg() -> MeasurementConfig {
        MeasurementConfig {
            total_packets: 600,
            warmup_packets: 64,
            seed: 7,
            boot_seed: 1,
        }
    }

    #[test]
    fn one_node_cluster_matches_the_plain_sharded_dut() {
        // The front tier over a single node is a pass-through: every
        // packet lands on node 0 in arrival order, so the cluster run must
        // reproduce the plain sharded run byte for byte.
        let chain = chain_by_id(ChainId::Nop3);
        let cfg = tiny_cfg();
        let workload = uniform_workload(128);
        let shard = ShardConfig::new(2);
        let solo = measure_sharded(&chain, shard, &workload, &cfg);
        let fleet = measure_cluster(&chain, ClusterConfig::new(1, shard), &workload, &cfg);
        assert_eq!(fleet.front_dropped, 0);
        assert_eq!(fleet.delivered(), cfg.total_packets);
        let node = &fleet.per_node[0];
        assert_eq!(node.measured_packets(), solo.measured_packets());
        for (a, b) in node.per_core.iter().zip(&solo.per_core) {
            assert_eq!(a.dispatched, b.dispatched);
            assert_eq!(a.end_to_end, b.end_to_end);
            assert_eq!(a.latency_ns, b.latency_ns);
        }
    }

    #[test]
    fn per_core_counters_reconcile_with_cluster_totals() {
        // The cross-level reconciliation bar: per-core dispatch counters
        // summed across every node equal the cluster-level totals exactly,
        // with warm-up, front drops and migration accounting closed.
        let chain = chain_by_id(ChainId::NatLpm);
        let cfg = tiny_cfg();
        let workload = uniform_workload(200);
        let epoch = cfg.total_packets / 4;
        let cluster = ClusterConfig::new(3, ShardConfig::new(2))
            .with_controller(
                ControllerConfig::rebalance(epoch, RebalancePolicy::LeastLoaded)
                    .with_migration_cost(),
            )
            .with_drain_on_fail()
            .with_failure(1, cfg.total_packets / 2);
        let m = measure_cluster(&chain, cluster, &workload, &cfg);

        // Every offered packet is either delivered to a node or dropped at
        // the front tier; drain-on-fail leaves no blackhole window.
        assert_eq!(m.delivered() + m.front_dropped, cfg.total_packets);
        assert_eq!(m.front_dropped, 0);
        for n in 0..m.n_nodes() {
            let node = &m.per_node[n];
            let dispatched: usize = node.per_core.iter().map(|c| c.dispatched).sum();
            assert_eq!(
                dispatched, m.assigned[n],
                "node {n}: front-tier delivery does not reconcile with core dispatch"
            );
            assert_eq!(
                node.measured_packets(),
                m.assigned[n] - m.warmup[n],
                "node {n}: measured window does not reconcile"
            );
        }
        assert_eq!(
            m.measured_packets(),
            cfg.total_packets - cfg.warmup_packets - m.front_dropped,
            "cluster measured window does not reconcile"
        );
        // Migration accounting is closed: per-node charges sum to the
        // cluster totals, and flows rebuilt after the failure were charged
        // at the rebuild price.
        assert_eq!(m.migrated_to_node.iter().sum::<usize>(), m.migrated_flows());
        assert_eq!(m.rebuilt_on_node.iter().sum::<usize>(), m.rebuilt_flows());
        assert!(
            m.rebuilt_flows() > 0,
            "the failed node's flows were rebuilt"
        );
        let charged: u64 = m.node_migration_cycles.iter().sum();
        let expected: u64 = (m.migrated_flows() as u64
            + m.rebuilt_flows() as u64 * NODE_REBUILD_FACTOR)
            * NODE_MIGRATION_LINES_PER_FLOW
            * NODE_MIGRATION_CYCLES_PER_LINE;
        assert_eq!(charged, expected, "migration cycles do not reconcile");
    }

    #[test]
    fn controller_plane_is_seeded_deterministic() {
        let chain = chain_by_id(ChainId::Nop3);
        let cfg = tiny_cfg();
        let workload = uniform_workload(160);
        let cluster = ClusterConfig::new(4, ShardConfig::new(2)).with_controller(
            ControllerConfig::rebalance(cfg.total_packets / 4, RebalancePolicy::PowerOfTwoChoices),
        );
        let a = measure_cluster(&chain, cluster, &workload, &cfg);
        let b = measure_cluster(&chain, cluster, &workload, &cfg);
        assert_eq!(a.bucket_history, b.bucket_history);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.measured_packets(), b.measured_packets());
        assert_eq!(a.aggregate_mpps(), b.aggregate_mpps());
    }

    #[test]
    fn affinity_is_stable_between_controller_epochs() {
        // Without a controller the bucket table never changes; with one,
        // it changes only at epoch boundaries — never mid-epoch.
        let chain = chain_by_id(ChainId::Nop3);
        let cfg = tiny_cfg();
        let workload = uniform_workload(160);
        let plain = measure_cluster(
            &chain,
            ClusterConfig::new(3, ShardConfig::new(2)),
            &workload,
            &cfg,
        );
        assert_eq!(plain.bucket_history.len(), 1, "no controller, no rewrites");
        let epoch = cfg.total_packets / 4;
        let governed = measure_cluster(
            &chain,
            ClusterConfig::new(3, ShardConfig::new(2)).with_controller(
                ControllerConfig::rebalance(epoch, RebalancePolicy::LeastLoaded),
            ),
            &workload,
            &cfg,
        );
        // One boot table plus one entry per epoch boundary.
        let boundaries = (cfg.total_packets - 1) / epoch;
        assert_eq!(governed.bucket_history.len(), 1 + boundaries);
    }

    #[test]
    fn failure_without_drain_blackholes_at_the_front_tier() {
        let chain = chain_by_id(ChainId::Nop3);
        let cfg = tiny_cfg();
        let workload = uniform_workload(160);
        let fail_at = cfg.total_packets / 2;
        let m = measure_cluster(
            &chain,
            ClusterConfig::new(2, ShardConfig::new(2)).with_failure(0, fail_at),
            &workload,
            &cfg,
        );
        assert!(m.front_dropped > 0, "dead node's buckets must blackhole");
        assert_eq!(m.delivered() + m.front_dropped, cfg.total_packets);
        // Node 0 served its pre-failure share and nothing after.
        assert!(m.assigned[0] > 0);
        assert!(m.assigned[0] < fail_at);
    }

    #[test]
    fn cluster_telemetry_reconciles_delivery_and_execution() {
        use castan_telemetry::EventKind;
        use castan_testbed::TelemetryConfig;

        // The fleet-wide reconciliation bar: the front-tier registry's
        // delivery totals equal the measurement's assignment accounting,
        // each node's own registry confirms it executed exactly what the
        // front tier delivered, and recording all of it never perturbs the
        // run.
        let chain = chain_by_id(ChainId::NatLpm);
        let cfg = tiny_cfg();
        let workload = uniform_workload(200);
        let epoch = cfg.total_packets / 4;
        let config = ClusterConfig::new(3, ShardConfig::new(2))
            .with_controller(
                ControllerConfig::rebalance(epoch, RebalancePolicy::LeastLoaded)
                    .with_migration_cost(),
            )
            .with_drain_on_fail()
            .with_failure(1, cfg.total_packets / 2);
        let mut dut = ClusterDut::new(&chain, config, &cfg);
        dut.attach_telemetry(TelemetryConfig::new(epoch));
        dut.attach_node_telemetry(TelemetryConfig::new(64));
        let m = dut.run(&workload, &cfg);
        let reg = dut.telemetry().expect("front registry");

        assert_eq!(reg.counter_total("front.delivered"), m.delivered() as u64);
        assert_eq!(reg.counter_total("front.dropped"), m.front_dropped as u64);
        for n in 0..m.n_nodes() {
            assert_eq!(
                reg.counter_total(&format!("node{n}.delivered")),
                m.assigned[n] as u64,
                "node {n} delivery"
            );
            assert_eq!(
                reg.counter_total(&format!("node{n}.measured_packets")),
                m.per_node[n].measured_packets() as u64
            );
            assert_eq!(
                reg.counter_total(&format!("node{n}.exec_cycles")),
                m.per_node[n].aggregate_counters().cycles
            );
            assert_eq!(
                reg.counter_total(&format!("node{n}.migration_cycles")),
                m.node_migration_cycles[n]
            );
        }
        // The failure episode is narrated.
        let kinds: Vec<EventKind> = reg.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::NodeFail));
        assert!(kinds.contains(&EventKind::NodeDrain));
        assert!(kinds.contains(&EventKind::NodeRebuild));
        // Node registries close the loop: each node executed exactly what
        // the front tier delivered to it.
        for (n, node) in dut.nodes().iter().enumerate() {
            let nreg = node.telemetry().expect("node registry");
            assert_eq!(
                nreg.counter_total("exec.packets"),
                m.assigned[n] as u64,
                "node {n} executed == delivered"
            );
        }
        // Recording never perturbed the run: byte-identical to the plain
        // cluster measurement.
        let plain = measure_cluster(&chain, config, &workload, &cfg);
        assert_eq!(plain.bucket_history, m.bucket_history);
        for (n, (a, b)) in plain.per_node.iter().zip(&m.per_node).enumerate() {
            for (c, (x, y)) in a.per_core.iter().zip(&b.per_core).enumerate() {
                assert_eq!(x.end_to_end, y.end_to_end, "node {n} core {c}");
                assert_eq!(x.latency_ns, y.latency_ns, "node {n} core {c}");
            }
        }
    }

    #[test]
    fn an_idle_node_reports_its_boot_table_not_the_last_rewrite() {
        use castan_testbed::MitigationConfig;

        // Run 1 skews everything onto node 2's core 0, so node-level
        // rebalancing rewrites node 2's table; run 2 steers everything onto
        // node 0 and leaves node 2 idle. Its report must be what an empty
        // `ShardedDut::run` would give: the boot table, and one zero per
        // chain stage on every core.
        let chain = chain_by_id(ChainId::NatLpm);
        let cfg = tiny_cfg();
        let shard = ShardConfig::new(2).with_mitigation(MitigationConfig::rebalance(
            cfg.total_packets / 4,
            RebalancePolicy::LeastLoaded,
        ));
        let cluster = ClusterConfig::new(3, shard);
        let map = cluster.boot_map();
        let base = uniform_workload(200);
        let mut dut = ClusterDut::new(&chain, cluster, &cfg);
        let boot = RssDispatcher::new(shard.rss).table().to_vec();

        let pinned = cluster_skew_workload(&base, &map, &RssDispatcher::new(shard.rss), 2, 0);
        let first = dut.run(&pinned, &cfg);
        assert!(
            first.per_node[2].table_history.len() > 1
                && first.per_node[2].table_history.last() != Some(&boot),
            "node 2's table was rewritten"
        );

        let elsewhere = ecmp_skew_workload(&base, &map, 0);
        let second = dut.run(&elsewhere, &cfg);
        assert_eq!(second.assigned[2], 0, "node 2 is idle");
        let idle = &second.per_node[2];
        assert_eq!(idle.table_history, [boot]);
        for core in &idle.per_core {
            assert_eq!(core.stage_totals.len(), chain.len());
        }
    }

    #[test]
    fn composed_skew_serialises_the_fleet_behind_one_core() {
        let chain = chain_by_id(ChainId::Nop3);
        let cfg = tiny_cfg();
        let base = uniform_workload(160);
        let cluster = ClusterConfig::new(2, ShardConfig::new(2));
        let map = cluster.boot_map();
        let dispatcher = RssDispatcher::for_queues(2);
        let attack = cluster_skew_workload(&base, &map, &dispatcher, 0, 0);
        let m = measure_cluster(&chain, cluster, &attack, &cfg);
        assert!(
            m.bottleneck_core_share() > 0.99,
            "composed skew should pin one core, got share {}",
            m.bottleneck_core_share()
        );
        let uniform = measure_cluster(&chain, cluster, &base, &cfg);
        assert!(
            uniform.aggregate_mpps() > 1.5 * m.aggregate_mpps(),
            "pinning one of four cores must cost real throughput"
        );
    }
}
