//! Property-based tests (proptest) on the core data structures and
//! invariants that the rest of the system leans on.

use proptest::prelude::*;

use castan_suite::ir::{BinOp, CmpOp, DataMemory};
use castan_suite::mem::cache::SetAssocCache;
use castan_suite::mem::{line_of, LINE_SIZE};
use castan_suite::packet::ip::internet_checksum;
use castan_suite::packet::{FlowKey, IpProto, Ipv4Addr, Packet, PacketBuilder, PacketField};

proptest! {
    /// Any UDP/TCP packet built from a 5-tuple survives a wire round trip
    /// with all CASTAN-relevant fields intact.
    #[test]
    fn packet_wire_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        tcp in any::<bool>(),
        ttl in 1u8..=255,
    ) {
        let proto = if tcp { IpProto::Tcp } else { IpProto::Udp };
        let p = PacketBuilder::new()
            .src_ip(Ipv4Addr(src))
            .dst_ip(Ipv4Addr(dst))
            .src_port(sport)
            .dst_port(dport)
            .proto(proto)
            .ttl(ttl)
            .build();
        let q = Packet::parse(&p.to_bytes()).unwrap();
        for field in PacketField::ALL {
            prop_assert_eq!(p.field(field), q.field(field), "field {}", field);
        }
    }

    /// The internet checksum written by the IPv4 header serialiser always
    /// verifies, for arbitrary header contents.
    #[test]
    fn ipv4_checksum_always_verifies(
        src in any::<u32>(),
        dst in any::<u32>(),
        ident in any::<u16>(),
        ttl in any::<u8>(),
    ) {
        let h = castan_suite::packet::Ipv4Header {
            dscp_ecn: 0,
            total_len: 60,
            identification: ident,
            flags_frag: 0,
            ttl,
            proto: IpProto::Udp,
            src: Ipv4Addr(src),
            dst: Ipv4Addr(dst),
        };
        let mut buf = [0u8; 20];
        h.write(&mut buf);
        prop_assert_eq!(internet_checksum(&buf), 0);
    }

    /// Flow-key reversal is an involution and never equals the original for
    /// asymmetric endpoints.
    #[test]
    fn flow_key_reversal(src in any::<u32>(), dst in any::<u32>(), sp in any::<u16>(), dp in any::<u16>()) {
        let k = FlowKey::udp(Ipv4Addr(src), sp, Ipv4Addr(dst), dp);
        prop_assert_eq!(k.reversed().reversed(), k);
        if src != dst || sp != dp {
            prop_assert_ne!(k.reversed(), k);
        }
    }

    /// DataMemory behaves like a flat byte array: interleaved writes of
    /// arbitrary widths read back exactly like a shadow model.
    #[test]
    fn data_memory_matches_shadow_model(
        ops in proptest::collection::vec((0u64..4096, any::<u64>(), 1u64..=8), 1..60)
    ) {
        let mut mem = DataMemory::new();
        let mut shadow = vec![0u8; 5000];
        for (addr, value, width) in ops {
            mem.write(addr, value, width);
            for i in 0..width {
                shadow[(addr + i) as usize] = (value >> (8 * i)) as u8;
            }
        }
        for addr in (0..4096).step_by(7) {
            let expect = u64::from_le_bytes([
                shadow[addr], shadow[addr + 1], shadow[addr + 2], shadow[addr + 3],
                shadow[addr + 4], shadow[addr + 5], shadow[addr + 6], shadow[addr + 7],
            ]);
            prop_assert_eq!(mem.read(addr as u64, 8), expect);
        }
    }

    /// The set-associative cache never reports more resident lines than its
    /// capacity, and a line just accessed is always resident.
    #[test]
    fn cache_capacity_and_residency(
        accesses in proptest::collection::vec(0u64..(1 << 20), 1..300)
    ) {
        let mut cache = SetAssocCache::new(16, 4);
        for addr in &accesses {
            cache.access(line_of(*addr));
            prop_assert!(cache.contains(line_of(*addr)));
        }
        let resident = cache.resident_lines();
        prop_assert!(resident.len() <= 16 * 4);
        for line in resident {
            prop_assert_eq!(line % LINE_SIZE, 0);
        }
    }

    /// IR binary/compare operators agree with a reference big-integer model.
    #[test]
    fn binop_semantics_match_reference(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(BinOp::Add.eval(a, b), a.wrapping_add(b));
        prop_assert_eq!(BinOp::Sub.eval(a, b), a.wrapping_sub(b));
        prop_assert_eq!(BinOp::Xor.eval(a, b), a ^ b);
        prop_assert_eq!(BinOp::Shl.eval(a, b), a.wrapping_shl((b & 63) as u32));
        prop_assert_eq!(CmpOp::Ult.eval(a, b), a < b);
        prop_assert_eq!(CmpOp::Eq.eval(a, b), a == b);
        // Negation is a true complement for every operator.
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Ult, CmpOp::Ule, CmpOp::Ugt, CmpOp::Uge] {
            prop_assert_eq!(op.eval(a, b), !op.negated().eval(a, b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A nop→nop chain costs exactly one NOP plus one extra stage: per
    /// measured packet, the chained datapath's counters equal the single-NOP
    /// DUT's counters plus the second NOP stage's single `Return`
    /// instruction (and its base cycles). Nothing else — no hidden per-stage
    /// forwarding overhead, no cache interaction (the NOP touches no data
    /// memory).
    #[test]
    fn nop_nop_chain_is_one_nop_plus_one_stage(
        src in any::<u32>(),
        sport in any::<u16>(),
        extra_packets in 0u16..200,
    ) {
        use castan_suite::chain::NfChain;
        use castan_suite::ir::CostClass;
        use castan_suite::nf::{nf_by_id, NfId};
        use castan_suite::testbed::{measure, MeasurementConfig};
        use castan_suite::workload::{Workload, WorkloadKind};

        let pkt = PacketBuilder::new()
            .src_ip(Ipv4Addr(src))
            .src_port(sport)
            .build();
        let wl = Workload { kind: WorkloadKind::OnePacket, packets: vec![pkt] };
        let cfg = MeasurementConfig {
            total_packets: 300 + usize::from(extra_packets),
            warmup_packets: 30,
            ..MeasurementConfig::quick()
        };
        let chain = NfChain::new("nop-nop", vec![nf_by_id(NfId::Nop), nf_by_id(NfId::Nop)]);
        let m_chain = castan_suite::testbed::measure_chain(&chain, &wl, &cfg).as_measurement();
        let m_single = measure(&nf_by_id(NfId::Nop), &wl, &cfg);

        prop_assert_eq!(m_chain.counters.len(), m_single.counters.len());
        let stage_instructions = 1; // the NOP program is a single `ret`
        let stage_cycles = CostClass::Return.base_cycles();
        for (c, s) in m_chain.counters.iter().zip(&m_single.counters) {
            prop_assert_eq!(c.instructions, s.instructions + stage_instructions);
            prop_assert_eq!(c.cycles, s.cycles + stage_cycles);
            prop_assert_eq!(c.l3_misses, s.l3_misses);
            prop_assert_eq!(c.loads, s.loads);
            prop_assert_eq!(c.stores, s.stores);
        }
    }

    /// Chain workload generation is a pure function of the seed: the same
    /// seed reproduces the trace byte for byte, for every canonical chain.
    #[test]
    fn chain_workloads_are_deterministic_given_a_seed(seed in any::<u64>()) {
        use castan_suite::chain::all_chains;
        use castan_suite::workload::{generic_chain_workload, WorkloadConfig, WorkloadKind};

        let cfg = WorkloadConfig { scale: 0.003, seed };
        for chain in all_chains() {
            for kind in [WorkloadKind::Zipfian, WorkloadKind::UniRand] {
                let a = generic_chain_workload(&chain, kind, &cfg);
                let b = generic_chain_workload(&chain, kind, &cfg);
                prop_assert_eq!(&a.packets, &b.packets, "{} {}", chain.name(), kind);
                prop_assert!(!a.packets.is_empty());
            }
        }
    }
}

proptest! {
    /// RSS dispatch is per-flow: every packet of a flow lands on the same
    /// core, for any core count, and always on a core that exists. With a
    /// single queue, everything lands on core 0.
    #[test]
    fn rss_dispatch_pins_flows_to_one_core(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        n_cores in 1usize..=16,
    ) {
        use castan_suite::runtime::RssDispatcher;

        let flow = FlowKey::udp(Ipv4Addr(src), sport, Ipv4Addr(dst), dport);
        let dispatcher = RssDispatcher::for_queues(n_cores);
        let queue = dispatcher.queue_of_flow(&flow);
        prop_assert!(queue < n_cores);
        if n_cores == 1 {
            prop_assert_eq!(queue, 0);
        }
        // Every packet of the flow — whatever its other fields — follows it.
        for ttl in [1u8, 64, 255] {
            let pkt = PacketBuilder::udp_flow(flow).ttl(ttl).build();
            prop_assert_eq!(dispatcher.queue_of_packet(&pkt), queue);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A seeded sharded run is deterministic: repeating the identical run
    /// reproduces every per-core counter and latency sample exactly.
    #[test]
    fn sharded_runs_are_deterministic(seed in any::<u64>(), n_cores in 1usize..=4) {
        use castan_suite::chain::{chain_by_id, ChainId};
        use castan_suite::testbed::{measure_sharded, MeasurementConfig, ShardConfig};
        use castan_suite::workload::{generic_chain_workload, WorkloadConfig, WorkloadKind};

        let chain = chain_by_id(ChainId::Nop3);
        let wl_cfg = WorkloadConfig { scale: 0.002, seed };
        let wl = generic_chain_workload(&chain, WorkloadKind::UniRand, &wl_cfg);
        let cfg = MeasurementConfig {
            total_packets: 600,
            warmup_packets: 60,
            seed,
            ..MeasurementConfig::quick()
        };
        let a = measure_sharded(&chain, ShardConfig::new(n_cores), &wl, &cfg);
        let b = measure_sharded(&chain, ShardConfig::new(n_cores), &wl, &cfg);
        prop_assert_eq!(a.n_cores(), n_cores);
        for core in 0..n_cores {
            prop_assert_eq!(&a.per_core[core].end_to_end, &b.per_core[core].end_to_end);
            prop_assert_eq!(&a.per_core[core].latency_ns, &b.per_core[core].latency_ns);
            prop_assert_eq!(a.per_core[core].mem, b.per_core[core].mem);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `steer_flow` never offers the same candidate twice. A reject-all
    /// filter forces the full enumeration (then one accept-anything pass
    /// confirms the search still succeeds): under a single queue every
    /// candidate reaches the `distinct` filter, so the flat scan must
    /// cover all 65535 non-zero source ports exactly once — the historical
    /// bug clamped a wrapped port 0 onto port 1, re-offering a duplicate
    /// while silently skipping a real port.
    #[test]
    fn steer_flow_offers_no_duplicate_candidates(
        src in any::<u32>(),
        // Port 0 is excluded: the *scan* never generates it, but the
        // original flow is always offered as-is first (real traffic with a
        // zero source port still deserves steering), so starting from 0
        // would legitimately offer one zero-port candidate.
        sport in 1u16..=u16::MAX,
        n_queues in 1usize..=4,
    ) {
        use castan_suite::runtime::RssDispatcher;

        let flow = FlowKey::udp(
            Ipv4Addr(src), sport, Ipv4Addr::new(93, 184, 216, 34), 443,
        );
        let dispatcher = RssDispatcher::for_queues(n_queues);
        let mut offered: Vec<(u32, u16)> = Vec::new();
        let exhausted = dispatcher.steer_flow(&flow, 0, |c| {
            offered.push((c.src_ip.0, c.src_port));
            false
        });
        prop_assert!(exhausted.is_none());
        prop_assert!(offered.iter().all(|&(_, p)| p != 0));
        let mut dedup = offered.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(
            dedup.len(),
            offered.len(),
            "a candidate was offered twice (n_queues {})",
            n_queues
        );
        if n_queues == 1 {
            // Every candidate hits the target, so the flat portion of the
            // enumeration is exactly the non-zero port space.
            let flat: Vec<u16> = offered
                .iter()
                .filter(|&&(ip, _)| ip == flow.src_ip.0)
                .map(|&(_, p)| p)
                .collect();
            let mut sorted = flat.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (1..=u16::MAX).collect::<Vec<u16>>());
        }
        // And with an accept-all filter the search succeeds immediately.
        prop_assert!(dispatcher.steer_flow(&flow, 0, |_| true).is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Epoch rebalancing preserves flow→core consistency *within* an
    /// epoch: reconstructing the dispatch from the recorded table history
    /// matches the DUT's per-core dispatch counts exactly, and no flow's
    /// packets split across cores inside one epoch (batches are drained at
    /// the boundary before the table swap).
    #[test]
    fn rebalancing_preserves_flow_to_core_consistency_within_an_epoch(seed in any::<u64>()) {
        use std::collections::BTreeMap;
        use castan_suite::chain::{chain_by_id, ChainId};
        use castan_suite::runtime::{RebalancePolicy, RssDispatcher};
        use castan_suite::testbed::{
            measure_sharded, MeasurementConfig, MitigationConfig, ShardConfig,
        };
        use castan_suite::workload::{generic_chain_workload, WorkloadConfig, WorkloadKind};

        const EPOCH: usize = 60;
        let chain = chain_by_id(ChainId::Nop3);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig { scale: 0.0005, seed },
        );
        let cfg = MeasurementConfig {
            total_packets: 480,
            warmup_packets: 48,
            seed,
            ..MeasurementConfig::quick()
        };
        let shard = ShardConfig::new(4).with_mitigation(MitigationConfig::rebalance(
            EPOCH,
            RebalancePolicy::LeastLoaded,
        ));
        let m = measure_sharded(&chain, shard, &wl, &cfg);
        prop_assert_eq!(m.table_history.len(), cfg.total_packets.div_ceil(EPOCH));

        // Reconstruct the dispatch: entry_of_flow is table-independent, the
        // epoch's recorded table maps it to a queue.
        let reference = RssDispatcher::new(shard.rss);
        let mut dispatched = [0usize; 4];
        // (epoch, flow) → the set of queues its packets were sent to.
        let mut queues_per_flow: BTreeMap<(usize, u128), Vec<usize>> = BTreeMap::new();
        for i in 0..cfg.total_packets {
            let pkt = &wl.packets[i % wl.packets.len()];
            let epoch = i / EPOCH;
            let queue = match pkt.flow() {
                None => 0,
                Some(flow) => {
                    let entry = reference.entry_of_flow(&flow);
                    let q = m.table_history[epoch][entry] as usize;
                    queues_per_flow
                        .entry((epoch, flow.to_u128()))
                        .or_default()
                        .push(q);
                    q
                }
            };
            dispatched[queue] += 1;
        }
        for (c, &expected) in dispatched.iter().enumerate() {
            prop_assert_eq!(
                m.per_core[c].dispatched,
                expected,
                "core {}'s dispatch count must match the table-history \
                 reconstruction",
                c
            );
        }
        for ((epoch, flow), queues) in queues_per_flow {
            let first = queues[0];
            prop_assert!(
                queues.iter().all(|&q| q == first),
                "flow {flow:#x} split across cores in epoch {epoch}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The chaining hash-table NF state machine (LB over the hash table)
    /// pins every flow to a stable backend no matter the interleaving.
    #[test]
    fn lb_assigns_flows_consistently(flow_ids in proptest::collection::vec(0u64..40, 10..60)) {
        use castan_suite::ir::{Interpreter, NullSink};
        use castan_suite::nf::{layout, nf_by_id, NfId};

        let nf = nf_by_id(NfId::LbHashTable);
        let interp = Interpreter::new(&nf.program, &nf.natives);
        let mut mem = nf.initial_memory.clone();
        let mut assigned: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for id in flow_ids {
            let pkt = PacketBuilder::new()
                .src_ip(Ipv4Addr(0x0a00_0000 + id as u32))
                .src_port(1000 + id as u16)
                .dst_ip(Ipv4Addr(layout::LB_VIP))
                .build();
            let backend = interp
                .run_packet(&mut mem, &pkt, &mut NullSink)
                .unwrap()
                .return_value
                .unwrap();
            prop_assert!((1..=layout::LB_NUM_BACKENDS).contains(&backend));
            let prev = assigned.insert(id, backend);
            if let Some(prev) = prev {
                prop_assert_eq!(prev, backend, "flow {} moved backends", id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cross-core §3.2 discovery (castan-xcore), probed from a random core
    /// of a random boot: recovers at least 90% of every oracle bucket's
    /// member lines per slice, is deterministic under a fixed shuffle
    /// seed, and agrees with every other prober core.
    #[test]
    fn cross_core_discovery_recovers_ground_truth_from_any_core(
        boot in 1u64..1_000,
        prober in 0usize..4,
    ) {
        use castan_suite::mem::contention::DiscoveryConfig;
        use castan_suite::mem::{HierarchyConfig, MultiCoreHierarchy};
        use castan_suite::xcore::{discover_catalog_from, ground_truth_catalog_on};

        let cfg = HierarchyConfig::tiny_for_tests();
        // One candidate per page across two cores' address windows: the
        // set-index bits agree, so the only unknown is the hidden slice.
        let page = 1u64 << cfg.page_bits;
        let mut candidates: Vec<u64> = (0..20u64).map(|i| 0x10_0000 + i * page).collect();
        candidates.extend((0..20u64).map(|i| 0x4000_0000 + i * page));

        let mut h = MultiCoreHierarchy::new(cfg, boot, 4);
        let truth = ground_truth_catalog_on(&mut h, candidates.iter().copied());
        let dcfg = DiscoveryConfig::default();
        let discovered = discover_catalog_from(&mut h, prober, &candidates, &dcfg);
        prop_assert!(!discovered.is_empty());

        // >= 90% of every discoverable oracle bucket, grouped correctly.
        for (i, truth_set) in truth.sets().iter().enumerate() {
            if truth_set.len() <= h.l3_associativity() as usize {
                continue; // cannot cross the probing threshold
            }
            let recovered = truth_set
                .lines
                .iter()
                .filter(|&&l| {
                    discovered
                        .set_of(l)
                        .is_some_and(|d| discovered.members(d).len() > 1)
                })
                .count();
            prop_assert!(
                recovered * 10 >= truth_set.len() * 9,
                "boot {}, bucket {}: recovered {}/{}",
                boot, i, recovered, truth_set.len()
            );
        }
        for set in discovered.sets() {
            let bucket = truth.set_of(set.lines[0]);
            prop_assert!(bucket.is_some());
            for &l in &set.lines {
                prop_assert_eq!(truth.set_of(l), bucket, "line {:#x} misgrouped", l);
            }
        }

        // Deterministic under the same seed, and prober-independent. The
        // replica must replay the oracle queries first: frame assignment
        // is first-touch ordered, so a hierarchy whose pages were first
        // mapped in probe order would genuinely hold different slices
        // (the audit finding premapping exists to fix).
        let mut replica = MultiCoreHierarchy::new(cfg, boot, 4);
        let _ = ground_truth_catalog_on(&mut replica, candidates.iter().copied());
        let again = discover_catalog_from(&mut replica, prober, &candidates, &dcfg);
        prop_assert_eq!(discovered.sets(), again.sets());
        let other_core = (prober + 1) % 4;
        let other = discover_catalog_from(&mut h, other_core, &candidates, &dcfg);
        prop_assert_eq!(discovered.sets(), other.sets(), "prober cores disagree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Every search strategy, at every thread count, synthesizes a workload
    /// at least as expensive as the sequential priority-search baseline.
    /// The exploration budget is generous enough that the frontier drains
    /// completely, so every discipline visits the same completed states and
    /// the engine's max-cost selection makes the final costs coincide — and
    /// the thread count can never change them at all.
    #[test]
    fn strategies_and_threads_never_lose_to_the_priority_baseline(seed in 0u64..64) {
        use castan_suite::analysis::engine::AnalysisConfig;
        use castan_suite::analysis::{Castan, SearchStrategyKind};
        use castan_suite::mem::ContentionCatalog;

        let nf = castan_suite::nf::nf_by_id(castan_suite::nf::NfId::LpmDirect1);
        let catalog = ContentionCatalog::default();
        let mut base = AnalysisConfig::quick();
        base.packets = 2;
        base.step_budget = 40_000;
        base.state_cap = 4_096;
        base.solver.seed = seed;
        let baseline = Castan::new(base.clone()).analyze(&nf, &catalog).predicted_worst_cpp;
        for strategy in SearchStrategyKind::ALL {
            for threads in [1usize, 2, 4] {
                let mut cfg = base.clone();
                cfg.strategy = strategy;
                cfg.threads = threads;
                let got = Castan::new(cfg).analyze(&nf, &catalog).predicted_worst_cpp;
                prop_assert!(
                    got >= baseline,
                    "{} at {} threads synthesized {} < baseline {}",
                    strategy.name(), threads, got, baseline
                );
            }
        }
    }

    /// For a fixed seed the analysis report is identical — packet bytes,
    /// metrics, and exploration counters — no matter how many worker
    /// threads execute the rounds, each behind a solver of its own, and
    /// most components are answered by the path constraint they belong to —
    /// from a slot whichever worker asked first has filled. Which worker
    /// that was depends on the scheduling; what a query answers must not.
    #[test]
    fn reports_are_byte_identical_across_thread_counts(seed in 0u64..1_000) {
        use castan_suite::analysis::engine::AnalysisConfig;
        use castan_suite::analysis::Castan;
        use castan_suite::mem::ContentionCatalog;

        let nf = castan_suite::nf::nf_by_id(castan_suite::nf::NfId::NatHashTable);
        let catalog = ContentionCatalog::default();
        let fingerprint = |threads: usize| {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 2;
            cfg.step_budget = 10_000;
            cfg.solver.seed = seed;
            cfg.threads = threads;
            let (r, trace) = Castan::new(cfg).analyze_traced(&nf, &catalog);
            let components = trace.components;
            assert!(
                components.carried > components.reused,
                "{threads} threads: the paths do not carry their answers ({components:?})"
            );
            let wire: Vec<Vec<u8>> = r.packets.iter().map(|p| p.to_bytes()).collect();
            format!(
                "{wire:?} {:?} {} {} {} {} {} {}",
                r.per_packet, r.states_explored, r.steps, r.forks,
                r.havocs_total, r.havocs_reconciled, r.predicted_worst_cpp
            )
        };
        let one = fingerprint(1);
        prop_assert_eq!(&fingerprint(2), &one, "2 threads diverged");
        prop_assert_eq!(&fingerprint(4), &one, "4 threads diverged");
    }
}

proptest! {
    /// Forking an execution state is copy-on-write but semantically a deep
    /// copy: stores and assumptions in one fork never leak into its sibling
    /// or its parent.
    #[test]
    fn cow_fork_mutations_never_leak_into_siblings(
        addr in 0u64..4096,
        before in any::<u64>(),
        delta in any::<u64>(),
        width_idx in 0u64..4,
    ) {
        use castan_suite::analysis::cache::NoCacheModel;
        use castan_suite::analysis::state::ExecState;
        use castan_suite::analysis::symmem::SymMemory;
        use castan_suite::analysis::SymExpr;
        use castan_suite::ir::{FunctionBuilder, ProgramBuilder};
        use std::sync::Arc;

        let after = before ^ (delta | 1);
        let width = [1u64, 2, 4, 8][width_idx as usize];
        let mut f = FunctionBuilder::new("main", 0);
        f.ret_void();
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);
        let mut parent = ExecState::initial(
            &program,
            SymMemory::new(Arc::new(DataMemory::new())),
            Box::new(NoCacheModel::default()),
            1,
        );
        parent.memory.store(addr, width, SymExpr::constant(before));

        let mut fork_a = parent.clone();
        let mut fork_b = parent.clone();
        fork_a.memory.store(addr, width, SymExpr::constant(after));
        fork_a.assume(castan_suite::analysis::expr::Constraint::require_true(
            SymExpr::cmp(CmpOp::Eq, SymExpr::constant(1), SymExpr::constant(1)),
        ));

        let mask = if width >= 8 { u64::MAX } else { (1u64 << (width * 8)) - 1 };
        prop_assert_eq!(fork_a.memory.load_concrete(addr, width), after & mask);
        prop_assert_eq!(fork_b.memory.load_concrete(addr, width), before & mask, "sibling saw the store");
        prop_assert_eq!(parent.memory.load_concrete(addr, width), before & mask, "parent saw the store");
        prop_assert_eq!(fork_a.constraints.len(), 1);
        prop_assert_eq!(fork_b.constraints.len(), 0, "sibling saw the assumption");
        prop_assert_eq!(parent.constraints.len(), 0, "parent saw the assumption");
    }
}

/// The serial execution phase, spelled out with public parts only: routes
/// the trace the way `ClusterDut::run` documents it (the tables of
/// `bucket_history` in force between controller epochs and the drain, a
/// failed node's packets dropped at the front tier) and replays each
/// node's sub-trace alone on a fresh node booted as the cluster boots it.
/// Returns each node's measurement as `Debug` text.
fn node_by_node(
    chain: &castan_suite::chain::NfChain,
    cluster: &castan_suite::cluster::ClusterConfig,
    wl: &castan_suite::workload::Workload,
    cfg: &castan_suite::testbed::MeasurementConfig,
    m: &castan_suite::cluster::ClusterMeasurement,
) -> Vec<String> {
    use castan_suite::runtime::RssDispatcher;
    use castan_suite::testbed::{
        CoreMeasurement, MeasurementConfig, PacketCounters, ShardedDut, ShardedMeasurement,
    };
    use castan_suite::workload::Workload;

    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let map = cluster.boot_map();
    let mut table = 0;
    let mut failed = None;
    let mut sub = vec![Vec::new(); cluster.n_nodes];
    for i in 0..cfg.total_packets {
        if let Some(f) = cluster.failure {
            if failed.is_none() && i >= f.at_packet {
                failed = Some(f.node);
                table += usize::from(cluster.drain_on_fail);
            }
        }
        if let Some(c) = cluster.controller {
            table += usize::from(i > 0 && i % c.epoch_packets == 0);
        }
        let pkt = wl.packets[i % wl.packets.len()];
        let node = m.bucket_history[table][map.bucket_of_packet(&pkt).unwrap_or(0)];
        if failed != Some(node) {
            sub[node as usize].push(pkt);
        }
    }
    sub.into_iter()
        .enumerate()
        .map(|(n, packets)| {
            let mix = (n as u64).wrapping_mul(PHI);
            let boot = MeasurementConfig {
                boot_seed: cfg.boot_seed ^ mix,
                ..*cfg
            };
            let mut dut = ShardedDut::new(chain.clone(), cluster.shard, &boot);
            if packets.is_empty() {
                let idle = CoreMeasurement {
                    stage_totals: vec![PacketCounters::default(); chain.len()],
                    ..CoreMeasurement::default()
                };
                return format!(
                    "{:?}",
                    ShardedMeasurement {
                        per_core: vec![idle; cluster.shard.n_cores],
                        batch_size: cluster.shard.batch_size,
                        clock_hz: dut.clock_hz(),
                        table_history: vec![RssDispatcher::new(cluster.shard.rss).table().to_vec()],
                    }
                );
            }
            let run = MeasurementConfig {
                total_packets: packets.len(),
                warmup_packets: m.warmup[n],
                seed: cfg.seed ^ mix,
                boot_seed: boot.boot_seed,
            };
            let trace = Workload {
                kind: wl.kind,
                packets,
            };
            format!("{:?}", dut.run(&trace, &run))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fleet run loses no packet and invents none, under any geometry,
    /// controller, failure and node-level mitigation: every injected packet
    /// is delivered or dropped at the front tier, each node's cores
    /// dispatch exactly what it was delivered and measure exactly its
    /// post-warm-up share, and the cross-node migration cycles are the
    /// priced flow counts. The concurrent execution phase measures what a
    /// serial node-by-node replay measures.
    #[test]
    fn fleet_runs_conserve_packets_and_replay_as_serial_nodes(
        geometry in (1usize..=4, 1usize..=3, 0usize..3, any::<bool>(), any::<bool>()),
        failure in (any::<bool>(), any::<u32>(), 0usize..600),
        traffic in (any::<bool>(), 0usize..3, any::<u64>()),
        stealing in any::<bool>(),
    ) {
        use castan_suite::chain::{chain_by_id, ChainId};
        use castan_suite::cluster::{
            cluster_skew_workload, ecmp_skew_workload, measure_cluster, ClusterConfig,
            ControllerConfig, NODE_MIGRATION_CYCLES_PER_LINE, NODE_MIGRATION_LINES_PER_FLOW,
            NODE_REBUILD_FACTOR,
        };
        use castan_suite::runtime::{RebalancePolicy, RssDispatcher};
        use castan_suite::testbed::{MeasurementConfig, MitigationConfig, ShardConfig};
        use castan_suite::workload::{generic_chain_workload, WorkloadConfig, WorkloadKind};

        let (n_nodes, n_cores, policy, migration_cost, drain) = geometry;
        let (fails, fail_node, fail_at) = failure;
        let (nat, skew, seed) = traffic;
        let chain = chain_by_id(if nat { ChainId::NatLpm } else { ChainId::Nop3 });
        let cfg = MeasurementConfig {
            total_packets: 600,
            warmup_packets: 60,
            seed,
            ..MeasurementConfig::quick()
        };
        let epoch = 150;
        let mut mitigation = MitigationConfig::rebalance(epoch, RebalancePolicy::LeastLoaded);
        if stealing {
            mitigation = mitigation.with_work_stealing();
        }
        let mut cluster =
            ClusterConfig::new(n_nodes, ShardConfig::new(n_cores).with_mitigation(mitigation));
        let policy = [None, Some(RebalancePolicy::LeastLoaded), Some(RebalancePolicy::PowerOfTwoChoices)]
            [policy];
        if let Some(policy) = policy {
            let mut controller = ControllerConfig::rebalance(epoch, policy);
            if migration_cost {
                controller = controller.with_migration_cost();
            }
            cluster = cluster.with_controller(controller);
        }
        // Draining the only node would leave nothing to drain onto.
        if drain && n_nodes > 1 {
            cluster = cluster.with_drain_on_fail();
        }
        if fails {
            cluster = cluster.with_failure(fail_node % n_nodes as u32, fail_at);
        }
        // Uniform traffic, or all of it steered onto one node (the other
        // nodes idle and the controller has an imbalance to act on), or
        // onto one core of one node.
        let mut uniform = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig { scale: 0.002, seed },
        );
        uniform.packets.truncate(cfg.total_packets);
        let target = (seed % n_nodes as u64) as u32;
        let map = cluster.boot_map();
        let wl = match skew {
            0 => uniform,
            1 => ecmp_skew_workload(&uniform, &map, target),
            _ => cluster_skew_workload(
                &uniform, &map, &RssDispatcher::new(cluster.shard.rss), target, 0,
            ),
        };
        let m = measure_cluster(&chain, cluster, &wl, &cfg);

        prop_assert_eq!(m.delivered() + m.front_dropped, cfg.total_packets);
        for n in 0..n_nodes {
            let node = &m.per_node[n];
            let dispatched: usize = node.per_core.iter().map(|c| c.dispatched).sum();
            prop_assert_eq!(dispatched, m.assigned[n], "node {} dispatch", n);
            prop_assert_eq!(node.measured_packets(), m.assigned[n] - m.warmup[n], "node {} window", n);
            let flows = m.migrated_to_node[n] as u64 + m.rebuilt_on_node[n] as u64 * NODE_REBUILD_FACTOR;
            prop_assert_eq!(
                m.node_migration_cycles[n],
                flows * NODE_MIGRATION_LINES_PER_FLOW * NODE_MIGRATION_CYCLES_PER_LINE,
                "node {} migration", n
            );
        }
        if !migration_cost || policy.is_none() {
            prop_assert_eq!(m.migrated_flows(), 0);
        }
        if !cluster.drain_on_fail || policy.is_none() {
            prop_assert_eq!(m.rebuilt_flows(), 0);
        }
        let serial = node_by_node(&chain, &cluster, &wl, &cfg, &m);
        for (n, expected) in serial.iter().enumerate() {
            prop_assert_eq!(&format!("{:?}", m.per_node[n]), expected, "node {}", n);
        }
    }
}
