//! RSS dispatch: flow hash → indirection table → receive queue, and its
//! adversarial inverse (steering a flow onto a chosen queue).

use castan_packet::{FlowKey, Ipv4Addr, L4Header, Packet};

use crate::toeplitz::{ToeplitzTable, RSS_KEY_LEN, RSS_MS_DEFAULT_KEY};

/// RSS configuration of the simulated NIC.
#[derive(Clone, Copy, Debug)]
pub struct RssConfig {
    /// Number of receive queues (one per core).
    pub n_queues: usize,
    /// The Toeplitz hash key.
    pub key: [u8; RSS_KEY_LEN],
    /// Indirection-table size (must be a power of two; real NICs use 128
    /// or 512 entries).
    pub table_size: usize,
}

impl RssConfig {
    /// The default NIC setup for `n_queues` cores: Microsoft's default key
    /// and a 128-entry indirection table filled round-robin. Deployments
    /// with more than 128 queues get the large 512-entry table real NICs
    /// offer (X710/E810 style), so no queue is ever left out of the table.
    ///
    /// Whenever `table_size % n_queues != 0` a round-robin fill must give
    /// `table_size % n_queues` queues one extra entry each (e.g. 128
    /// entries over 3 queues is one queue at 42 and two at 43) — a ±1
    /// imbalance no static fill can remove. Which queues carry the extra
    /// entry is decided by a deterministic offset seeded from the config
    /// (key and table geometry, see [`RssDispatcher::new`]), so the
    /// under-provisioned queue is not always the last one across
    /// deployments.
    pub fn for_queues(n_queues: usize) -> Self {
        let table_size = if n_queues > 128 {
            n_queues.next_power_of_two().max(512)
        } else {
            128
        };
        RssConfig {
            n_queues,
            key: RSS_MS_DEFAULT_KEY,
            table_size,
        }
    }
}

/// The dispatcher: maps flows (and packets) to receive queues.
#[derive(Clone, Debug)]
pub struct RssDispatcher {
    config: RssConfig,
    /// `indirection[hash % table_size]` is the queue.
    indirection: Vec<u32>,
    /// Precomputed per-byte Toeplitz tables for the configured key (rebuilt
    /// on key rotation): hashing costs 12 lookups instead of 96 bit tests.
    hasher: ToeplitzTable,
}

/// The rotation applied to the round-robin boot fill when the table does
/// not divide evenly over the queues. `0` for divisible configs (the fill
/// stays the exact `i % n_queues` the rest of the workspace pins against);
/// otherwise a deterministic offset seeded from the key and the table
/// geometry, so the `table_size % n_queues` queues that carry one extra
/// entry vary per configuration instead of always being the first ones.
fn boot_fill_offset(config: &RssConfig) -> usize {
    if config.table_size.is_multiple_of(config.n_queues) {
        return 0;
    }
    let mut x = (config.table_size as u64) ^ ((config.n_queues as u64) << 32);
    for chunk in config.key.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        x ^= u64::from_le_bytes(word);
    }
    // splitmix64 finalizer: spreads the seed over the queue range.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % config.n_queues as u64) as usize
}

impl RssDispatcher {
    /// Builds a dispatcher with a round-robin indirection table. When the
    /// table size is not a multiple of the queue count, the fill is rotated
    /// by `boot_fill_offset` so the remainder entries land on a
    /// config-seeded run of queues rather than always on the first ones.
    pub fn new(config: RssConfig) -> Self {
        assert!(config.n_queues > 0, "need at least one queue");
        assert!(
            config.table_size.is_power_of_two(),
            "indirection table size must be a power of two"
        );
        // A table smaller than the queue count would silently blackhole
        // queues >= table_size: no hash index could ever name them, so they
        // would simply never receive traffic. Reject the config instead.
        assert!(
            config.table_size >= config.n_queues,
            "indirection table too small: {} entries cannot address {} queues \
             (queues >= {} would never receive traffic); use \
             RssConfig::for_queues, which grows the table",
            config.table_size,
            config.n_queues,
            config.table_size,
        );
        let offset = boot_fill_offset(&config);
        let indirection = (0..config.table_size)
            .map(|i| ((i + offset) % config.n_queues) as u32)
            .collect();
        RssDispatcher {
            hasher: ToeplitzTable::new(&config.key),
            config,
            indirection,
        }
    }

    /// Builds a dispatcher with an explicit indirection table (e.g. one
    /// produced by a [`crate::rebalance`] policy, or a table observed from
    /// a defender in a previous attack–defense round).
    pub fn with_table(config: RssConfig, table: Vec<u32>) -> Self {
        let mut d = Self::new(config);
        d.set_table(table);
        d
    }

    /// The default dispatcher for `n_queues` cores.
    pub fn for_queues(n_queues: usize) -> Self {
        Self::new(RssConfig::for_queues(n_queues))
    }

    /// Number of receive queues.
    pub fn n_queues(&self) -> usize {
        self.config.n_queues
    }

    /// This dispatcher's configuration.
    pub fn config(&self) -> &RssConfig {
        &self.config
    }

    /// The current indirection table (`table()[entry]` is the queue).
    pub fn table(&self) -> &[u32] {
        &self.indirection
    }

    /// Replaces the indirection table — the rebalancing primitive real NICs
    /// expose (`ethtool -X` / `ETH_RSS` reprogramming). The new table must
    /// keep the configured size and only name existing queues; flows are
    /// re-dispatched under the new table from the next packet on.
    pub fn set_table(&mut self, table: Vec<u32>) {
        assert_eq!(
            table.len(),
            self.config.table_size,
            "indirection table must keep its configured size"
        );
        assert!(
            table.iter().all(|&q| (q as usize) < self.config.n_queues),
            "indirection table names a queue that does not exist"
        );
        self.indirection = table;
    }

    /// Replaces the Toeplitz key — the key-rotation primitive real NICs
    /// expose (`ethtool -X ... hkey`). Every flow's hash, indirection entry
    /// and queue change from the next packet on; the indirection table
    /// itself is untouched. An attacker who fingerprinted the old key must
    /// re-fingerprint before it can steer again.
    pub fn set_key(&mut self, key: [u8; RSS_KEY_LEN]) {
        self.config.key = key;
        self.hasher = ToeplitzTable::new(&key);
    }

    /// RSS hash of a flow (precomputed-table fast path).
    pub fn hash_of(&self, flow: &FlowKey) -> u32 {
        self.hasher.hash_flow(flow)
    }

    /// Queues for a whole batch of flows in one pass (the receive-side hot
    /// path: one table-driven hash and one indirection lookup per flow).
    pub fn queues_of_flows(&self, flows: &[FlowKey]) -> Vec<usize> {
        let mask = self.config.table_size - 1;
        self.hasher
            .hash_flows(flows)
            .into_iter()
            .map(|h| self.indirection[(h as usize) & mask] as usize)
            .collect()
    }

    /// The indirection-table entry a flow indexes (stable under table
    /// rewrites — only the entry→queue mapping changes, never the entry).
    pub fn entry_of_flow(&self, flow: &FlowKey) -> usize {
        (self.hash_of(flow) as usize) & (self.config.table_size - 1)
    }

    /// The indirection-table entry a packet indexes, or `None` for packets
    /// without a tracked TCP/UDP flow (which bypass the table and land on
    /// queue 0 regardless of any rebalance).
    pub fn entry_of_packet(&self, packet: &Packet) -> Option<usize> {
        packet.flow().map(|f| self.entry_of_flow(&f))
    }

    /// The queue a flow is dispatched to.
    pub fn queue_of_flow(&self, flow: &FlowKey) -> usize {
        self.indirection[self.entry_of_flow(flow)] as usize
    }

    /// The queue a packet is dispatched to. Packets without a tracked
    /// TCP/UDP flow (ARP, ICMP, …) carry no RSS hash and fall back to
    /// queue 0, as real NICs do.
    pub fn queue_of_packet(&self, packet: &Packet) -> usize {
        match packet.flow() {
            Some(flow) => self.queue_of_flow(&flow),
            None => 0,
        }
    }

    /// Searches the free 5-tuple dimensions for a variant of `flow` that
    /// lands on `target` *and* is accepted by `distinct`, trying source
    /// ports first (scanning outward from the current port) and then
    /// source-address low bits. Destination address, destination port and
    /// protocol are never touched — those are what the traffic is *for*.
    ///
    /// This is the attacker primitive behind queue-skew workloads: with a
    /// known key, on average `n_queues` candidates suffice, so the search
    /// is cheap. Returns `None` only if every candidate is rejected.
    pub fn steer_flow(
        &self,
        flow: &FlowKey,
        target: usize,
        mut distinct: impl FnMut(&FlowKey) -> bool,
    ) -> Option<FlowKey> {
        assert!(target < self.config.n_queues, "target queue out of range");
        let mut check = |candidate: FlowKey| -> Option<FlowKey> {
            (self.queue_of_flow(&candidate) == target && distinct(&candidate)).then_some(candidate)
        };
        if let Some(found) = check(*flow) {
            return Some(found);
        }
        // Source-port scan: wrap around the full 16-bit space, visiting
        // every non-zero source port exactly once. A wrapped port of 0 (not
        // a valid source port on the wire) is skipped, never clamped —
        // clamping would alias it onto port 1, re-testing a duplicate
        // candidate while silently skipping a real one. `1..=u16::MAX`
        // covers all 65535 deltas; the original port was tried above.
        for delta in 1..=u16::MAX {
            let port = flow.src_port.wrapping_add(delta);
            if port == 0 {
                continue;
            }
            let mut candidate = *flow;
            candidate.src_port = port;
            if let Some(found) = check(candidate) {
                return Some(found);
            }
        }
        // Source-address low-byte scan (e.g. a /24 of attack sources), with
        // a 256-port scan nested per address — again skipping a wrapped
        // port 0 instead of aliasing it onto port 1.
        for ip_delta in 1..=u8::MAX {
            let mut octets = flow.src_ip.octets();
            octets[3] = octets[3].wrapping_add(ip_delta);
            for delta in 0..256u16 {
                let port = flow.src_port.wrapping_add(delta);
                if port == 0 {
                    continue;
                }
                let mut candidate = *flow;
                candidate.src_ip = Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]);
                candidate.src_port = port;
                if let Some(found) = check(candidate) {
                    return Some(found);
                }
            }
        }
        None
    }
}

/// Rewrites `packet` so that its flow becomes `flow` (source endpoint
/// only — destination and protocol are asserted unchanged, matching what
/// [`RssDispatcher::steer_flow`] produces). Non-flow packets are returned
/// unchanged.
pub fn steer_packet(packet: &Packet, flow: &FlowKey) -> Packet {
    let mut out = *packet;
    let Some(current) = packet.flow() else {
        return out;
    };
    assert_eq!(current.dst_ip, flow.dst_ip, "steering must not retarget");
    assert_eq!(
        current.dst_port, flow.dst_port,
        "steering must not retarget"
    );
    assert_eq!(current.proto, flow.proto, "steering must not retarget");
    if let Some(ip) = out.ipv4.as_mut() {
        ip.src = flow.src_ip;
    }
    match &mut out.l4 {
        L4Header::Udp(u) => u.src_port = flow.src_port,
        L4Header::Tcp(t) => t.src_port = flow.src_port,
        L4Header::None => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use castan_packet::PacketBuilder;

    fn flow(i: u64) -> FlowKey {
        FlowKey::udp(
            Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
            1024 + (i % 50_000) as u16,
            Ipv4Addr::new(93, 184, 216, 34),
            80,
        )
    }

    #[test]
    fn queues_cover_all_cores_roughly_evenly() {
        let d = RssDispatcher::for_queues(4);
        let mut counts = [0usize; 4];
        for i in 0..4096 {
            counts[d.queue_of_flow(&flow(i))] += 1;
        }
        for (q, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1400).contains(&c),
                "queue {q} got {c} of 4096 flows — dispatch is badly skewed"
            );
        }
    }

    #[test]
    fn uneven_tables_spread_the_remainder_deterministically() {
        // Divisible configs keep the exact `i % n_queues` boot fill the
        // pinned byte-identical results depend on.
        for n in [1usize, 2, 4, 8] {
            let d = RssDispatcher::for_queues(n);
            for (i, &q) in d.table().iter().enumerate() {
                assert_eq!(q as usize, i % n, "divisible fill must stay i % n");
            }
        }
        // Non-divisible configs stay within one entry of each other, are
        // reproducible, and the under-provisioned queues are not pinned to
        // the tail of the queue range for every configuration.
        let mut light_is_always_last = true;
        for n in [3usize, 5, 6, 7, 12] {
            let d = RssDispatcher::for_queues(n);
            assert_eq!(d.table(), RssDispatcher::for_queues(n).table());
            let mut counts = vec![0usize; n];
            for &q in d.table() {
                counts[q as usize] += 1;
            }
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert!(
                max - min <= 1,
                "{n} queues: fill spread {counts:?} exceeds the unavoidable ±1"
            );
            if counts[n - 1] != min {
                light_is_always_last = false;
            }
        }
        assert!(
            !light_is_always_last,
            "the seeded offset never moved the remainder off the default run"
        );
    }

    #[test]
    fn one_queue_sends_everything_to_core_zero() {
        let d = RssDispatcher::for_queues(1);
        for i in 0..256 {
            assert_eq!(d.queue_of_flow(&flow(i)), 0);
        }
    }

    #[test]
    fn batched_queues_match_per_flow_dispatch() {
        let mut d = RssDispatcher::for_queues(8);
        let flows: Vec<FlowKey> = (0..512).map(flow).collect();
        let batched = d.queues_of_flows(&flows);
        for (f, q) in flows.iter().zip(&batched) {
            assert_eq!(*q, d.queue_of_flow(f));
        }
        // And the fast path tracks key rotations.
        d.set_key(crate::toeplitz::rotate_key(&RSS_MS_DEFAULT_KEY, 5));
        let rotated = d.queues_of_flows(&flows);
        for (f, q) in flows.iter().zip(&rotated) {
            assert_eq!(*q, d.queue_of_flow(f));
        }
        assert_ne!(batched, rotated, "rotation must re-dispatch flows");
    }

    #[test]
    fn packets_follow_their_flow() {
        let d = RssDispatcher::for_queues(8);
        for i in 0..256 {
            let f = flow(i);
            let p = PacketBuilder::udp_flow(f).build();
            assert_eq!(d.queue_of_packet(&p), d.queue_of_flow(&f));
        }
        // Non-flow packets land on queue 0.
        let arp = PacketBuilder::new()
            .ethertype(castan_packet::EtherType::Arp)
            .build();
        assert_eq!(d.queue_of_packet(&arp), 0);
    }

    #[test]
    fn steering_lands_every_flow_on_the_victim_queue() {
        let d = RssDispatcher::for_queues(4);
        for target in 0..4 {
            for i in 0..128 {
                let f = flow(i);
                let steered = d.steer_flow(&f, target, |_| true).expect("steerable");
                assert_eq!(d.queue_of_flow(&steered), target);
                assert_eq!(steered.dst_ip, f.dst_ip);
                assert_eq!(steered.dst_port, f.dst_port);
                assert_eq!(steered.proto, f.proto);
            }
        }
    }

    #[test]
    fn steering_respects_the_distinctness_filter() {
        let d = RssDispatcher::for_queues(2);
        let f = flow(7);
        let first = d.steer_flow(&f, 0, |_| true).unwrap();
        let second = d.steer_flow(&f, 0, |c| *c != first).unwrap();
        assert_ne!(first, second);
        assert_eq!(d.queue_of_flow(&second), 0);
    }

    #[test]
    fn steering_enumerates_every_nonzero_port_exactly_once() {
        // One queue, reject-all filter: every candidate reaches `distinct`.
        // The flat scan must offer all 65535 non-zero source ports exactly
        // once — no duplicate from a wrapped port aliasing onto port 1, no
        // silently skipped port — even when the scan wraps past 0.
        let d = RssDispatcher::for_queues(1);
        for start_port in [1u16, 80, u16::MAX, 1024] {
            let f = FlowKey::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                start_port,
                Ipv4Addr::new(93, 184, 216, 34),
                80,
            );
            let mut offered: Vec<u16> = Vec::new();
            let result = d.steer_flow(&f, 0, |c| {
                if c.src_ip == f.src_ip {
                    offered.push(c.src_port);
                }
                false // reject everything: force the full enumeration
            });
            assert!(result.is_none(), "reject-all must exhaust the search");
            let mut sorted = offered.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                offered.len(),
                "no source port may be offered twice (start {start_port})"
            );
            assert_eq!(
                sorted,
                (1..=u16::MAX).collect::<Vec<u16>>(),
                "every non-zero source port must be offered (start {start_port})"
            );
        }
    }

    #[test]
    fn per_ip_scan_skips_port_zero_without_aliasing() {
        // Start at a port whose 256-delta window wraps past 0: the nested
        // per-IP scan must skip the wrapped 0, not clamp it onto port 1.
        let d = RssDispatcher::for_queues(1);
        let f = FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            u16::MAX - 10,
            Ipv4Addr::new(93, 184, 216, 34),
            80,
        );
        let mut per_ip: std::collections::BTreeMap<u32, Vec<u16>> = Default::default();
        let _ = d.steer_flow(&f, 0, |c| {
            if c.src_ip != f.src_ip {
                per_ip.entry(c.src_ip.0).or_default().push(c.src_port);
            }
            false
        });
        assert_eq!(per_ip.len(), 255, "255 neighbour addresses scanned");
        for (ip, ports) in per_ip {
            let mut sorted = ports.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), ports.len(), "duplicate port on ip {ip:#x}");
            assert_eq!(ports.len(), 255, "window wraps past 0, so one skipped");
            assert!(ports.iter().all(|&p| p != 0));
        }
    }

    #[test]
    #[should_panic(expected = "indirection table too small")]
    fn tables_smaller_than_the_queue_count_are_rejected() {
        // 256 queues cannot be addressed by a 128-entry table: queues >= 128
        // would silently never receive traffic.
        let _ = RssDispatcher::new(RssConfig {
            n_queues: 256,
            key: RSS_MS_DEFAULT_KEY,
            table_size: 128,
        });
    }

    #[test]
    fn for_queues_grows_the_table_past_128_queues() {
        let d = RssDispatcher::for_queues(256);
        assert_eq!(d.config().table_size, 512);
        // Every queue appears in the table — nothing is blackholed.
        let mut seen = vec![false; 256];
        for &q in d.table() {
            seen[q as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every queue receives table entries"
        );
        // And the small default is untouched.
        assert_eq!(RssDispatcher::for_queues(4).config().table_size, 128);
    }

    #[test]
    fn set_table_redirects_flows_immediately() {
        let mut d = RssDispatcher::for_queues(4);
        let f = flow(11);
        let entry = d.entry_of_flow(&f);
        let before = d.queue_of_flow(&f);
        let mut table = d.table().to_vec();
        let new_queue = (before + 1) % 4;
        table[entry] = new_queue as u32;
        d.set_table(table);
        assert_eq!(d.queue_of_flow(&f), new_queue);
        assert_eq!(d.entry_of_flow(&f), entry, "entries are table-independent");
        let p = PacketBuilder::udp_flow(f).build();
        assert_eq!(d.entry_of_packet(&p), Some(entry));
    }

    #[test]
    #[should_panic(expected = "names a queue that does not exist")]
    fn set_table_rejects_out_of_range_queues() {
        let mut d = RssDispatcher::for_queues(2);
        let mut table = d.table().to_vec();
        table[0] = 7;
        d.set_table(table);
    }

    #[test]
    fn steer_packet_rewrites_only_the_source_endpoint() {
        let f = flow(3);
        let p = PacketBuilder::udp_flow(f).ttl(17).build();
        let d = RssDispatcher::for_queues(4);
        let steered_flow = d.steer_flow(&f, 2, |_| true).unwrap();
        let q = steer_packet(&p, &steered_flow);
        assert_eq!(q.flow(), Some(steered_flow));
        assert_eq!(q.ipv4.unwrap().ttl, 17, "unrelated fields survive");
        assert_eq!(
            q.field(castan_packet::PacketField::DstIp),
            p.field(castan_packet::PacketField::DstIp)
        );
    }
}
