//! The device under test: an RSS dispatcher in front of N simulated cores,
//! each running its own instance of an NF chain, all contending for one
//! shared L3. This is the testbed's only run loop; the paper's §5.1 setup
//! and every extension are parameter values of it:
//!
//! * one NF is an [`NfChain`] of one stage ([`measure`]);
//! * one core without batching is [`ShardConfig::unbatched`]`(1)`
//!   ([`measure_chain`]) — every packet pays the whole forwarding overhead;
//! * mitigation, telemetry, detection and the noisy neighbour are off
//!   unless configured.
//!
//! Packets are Toeplitz-hashed over their 5-tuple onto per-core receive
//! queues (`castan-runtime`), buffered into batches, and each core executes
//! its batch on private L1/L2 levels in front of the shared last-level
//! cache ([`castan_mem::MultiCoreHierarchy`]). Every core owns a *private*
//! chain instance — its own stage memories, handoff state and address
//! region — so cores never share NF state (exactly the share-nothing
//! RSS deployment model), but they do evict each other's lines from the
//! inclusive L3.
//!
//! **Cost model.** A chain is deliberately *not* "measure each NF alone and
//! add the numbers": all stages of a core execute on the same cache
//! hierarchy (same L1/L2/L3, same page table), each stage's data structures
//! in a disjoint slice of the address space
//! ([`core_stage_base`]`(core, stage)`), so stages evict each other's lines
//! exactly as co-located NFs on a real core do. Per packet, each stage's
//! retired instructions and memory cycles are charged through the shared
//! hierarchy; a packet's end-to-end counters are the exact sum of its
//! stages plus one forwarding overhead — the chain runs in a single
//! process, so the DPDK/NIC path is paid once per packet, not once per
//! stage. The per-stage sums over the measured packets are kept in
//! [`CoreMeasurement::stage_totals`]. The forwarding overhead is split: the
//! per-packet share ([`PACKET_FORWARD_CYCLES`]) is paid by every packet,
//! while the dispatch share ([`BATCH_DISPATCH_CYCLES`]) is paid once per
//! *batch* and distributed exactly over the batch's packets (the first
//! `BATCH_DISPATCH_CYCLES mod n` packets carry the remainder cycle), so a
//! batch of one pays [`crate::FORWARDING_OVERHEAD_CYCLES`] per packet.
//!
//! **Throughput.** Cores run concurrently, so the aggregate forwarding
//! rate is bounded by the *busiest* core:
//! `aggregate Mpps = measured packets / busy time of the bottleneck core`.
//! Uniform traffic spreads flows evenly and scales near-linearly with the
//! core count; a queue-skew workload (all 5-tuples on one RSS queue)
//! saturates one core while the rest idle, collapsing the aggregate to
//! roughly the single-core rate. That collapse is the adversarial target
//! of `castan-core`'s queue-skew synthesis.
//!
//! **Mitigation.** With a [`MitigationConfig`] the DUT fights back: every
//! `epoch_packets` input packets it drains the in-flight batches, feeds
//! the epoch's per-entry loads (packet counts or execution cycles, per
//! [`LoadMetric`]) to a `castan-runtime::rebalance` policy, and installs
//! the rewritten indirection table (recording the schedule in
//! [`ShardedMeasurement::table_history`]); with key rotation enabled it
//! additionally installs the epoch's Toeplitz key
//! (`castan_runtime::rotate_key`), so an attacker who fingerprinted the
//! boot key must re-fingerprint mid-attack. The optional migration cost
//! model charges every moved flow's state pull through the shared L3 to
//! the destination core, and the optional work-stealing sink lets idle
//! cores execute batches from a core that has fallen far behind —
//! trading flow→core affinity for throughput. The `rss-mitigation`
//! experiment in `castan-experiments` evaluates all of it against static
//! and adaptive queue-skew attackers.
//!
//! **Noisy neighbour.** The measurement side of the cross-core contention
//! attack (`castan-xcore`): boot the DUT with a [`victim_table`]
//! ([`ShardedDut::set_boot_table`]) so victim traffic is dispatched over
//! every queue except the attacker core's, and install a
//! [`NeighborReplay`] ([`ShardedDut::set_neighbor`]): between executed
//! batches the attacker core replays a line list — an eviction plan's
//! colliding lines, or an equal-rate random control — through its private
//! levels into the shared L3, back-invalidating the victims' lines. Replay
//! cycles are attributed to the attacker ([`ShardedDut::neighbor_cost`],
//! never victim busy time), so [`ShardedMeasurement::aggregate_mpps`]
//! remains the *victims'* throughput and per-core hit/miss deltas isolate
//! the cross-core eviction.

use castan_chain::{chain_page_anchors, core_stage_base, NfChain, StageHandoff};
use castan_ir::{DataMemory, Interpreter, RunLimits};
use castan_mem::{HierarchyConfig, HierarchyStats, MultiCoreHierarchy};
use castan_nf::NfSpec;
use castan_runtime::{
    rebalanced_table, rotate_key, Batcher, LoadMetric, LoadTracker, RebalancePolicy,
};
use castan_runtime::{record_key_rotation, record_rebalance, DispatchInstrument};
use castan_runtime::{RssConfig, RssDispatcher};
use castan_telemetry::detector::{
    Alarm, Detector, DetectorConfig, SIG_CYCLES_PER_PACKET, SIG_EPOCH_PACKETS,
    SIG_INSTRUCTIONS_PER_PACKET, SIG_MAX_CORE_SHARE, SIG_MISSES_PER_PACKET,
};
use castan_telemetry::{EventKind, Histogram, Registry};
use castan_workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use castan_packet::Packet;

use crate::cpu::{MultiCoreCpu, PacketCounters};
use crate::dut::{Measurement, MeasurementConfig};
use crate::stats::Cdf;
use crate::{
    BATCH_DISPATCH_CYCLES, FORWARDING_OVERHEAD_INSTRUCTIONS, FORWARDING_OVERHEAD_MISSES,
    PACKET_FORWARD_CYCLES, WIRE_LATENCY_NS,
};

/// Address-space stride between cores (re-exported from `castan-chain`,
/// where the canonical per-core/per-stage layout now lives so that the
/// cross-core eviction planner of `castan-xcore` and this DUT derive their
/// address views from one definition). Each core's chain instance occupies
/// [`core_stage_base`]`(core, stage)`, so distinct cores (and distinct
/// stages within a core) never alias in the shared cache.
pub use castan_chain::CORE_ADDR_STRIDE;

/// Cache lines of per-flow NF state (NAT translation entry, LB assignment,
/// connection bookkeeping) pulled across when a rebalance moves a flow's
/// indirection entry to another core. Each line is priced at the shared-L3
/// hit latency: the state was resident on the old core, so the new core
/// fetches it through the inclusive L3 rather than from DRAM.
pub const MIGRATION_LINES_PER_FLOW: u64 = 8;

/// Fixed cycles a thief core pays per stolen batch: the cross-core ring
/// doorbell plus pulling the victim queue's descriptors and packet headers
/// through the shared L3.
pub const STEAL_BATCH_CYCLES: u64 = 1_200;

/// A batch is stolen only when its home core's accumulated busy time
/// exceeds the idlest core's by this many cycles — enough to never trigger
/// under balanced traffic, and a small fraction of a skewed core's backlog.
pub const STEAL_THRESHOLD_CYCLES: u64 = 50_000;

/// Cycles each core pays per detector poll (once per sealed telemetry
/// epoch while online detection is active): the control plane reading the
/// core's epoch counters through the shared hierarchy plus the threshold
/// comparisons. Charged to every core's busy time — the honestly-charged
/// detection overhead the `detect` experiment reports.
pub const DETECT_POLL_CYCLES: u64 = 2_000;

/// Passive telemetry recording on the sharded DUT: epoch length of the
/// sealed series and the event-ring size. Attaching telemetry never
/// perturbs the measurement — sealing is observational (no drains, no RNG
/// draws, no charged cycles), which a pin test asserts byte-for-byte.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Telemetry epoch length in input packets: every `epoch_packets`
    /// packets the per-core accumulators are sealed into the registry's
    /// epoch series. Unlike mitigation epochs, telemetry boundaries do
    /// *not* drain in-flight batches.
    pub epoch_packets: usize,
    /// Capacity of the bounded event ring.
    pub event_capacity: usize,
}

impl TelemetryConfig {
    /// Telemetry sealed every `epoch_packets` packets with the default
    /// event-ring capacity.
    pub fn new(epoch_packets: usize) -> Self {
        assert!(epoch_packets > 0, "epochs must contain packets");
        TelemetryConfig {
            epoch_packets,
            event_capacity: castan_telemetry::DEFAULT_EVENT_CAPACITY,
        }
    }
}

/// Online detection on the sharded DUT: a [`Detector`] polls the registry
/// at every sealed telemetry epoch (each poll charges every core
/// [`DETECT_POLL_CYCLES`] of busy time), and — in the closed loop — the
/// first alarm activates `response` as the run's mitigation from the next
/// epoch boundary on, instead of the mitigation being configured up front.
#[derive(Clone, Copy, Debug)]
pub struct DetectionConfig {
    /// Thresholds over the learned benign baseline.
    pub detector: DetectorConfig,
    /// Closed-loop response: the mitigation to activate at the first
    /// alarm (`None` = detect-only). Its `epoch_packets` must equal the
    /// telemetry epoch length so rebalance boundaries align with polls.
    pub response: Option<MitigationConfig>,
}

/// What online detection did during one run.
#[derive(Clone, Debug, Default)]
pub struct DetectionReport {
    /// Every alarm raised, in epoch order.
    pub alarms: Vec<Alarm>,
    /// The sealed epoch whose alarm activated the closed-loop response
    /// (`None`: no alarm, or no response configured).
    pub activated_epoch: Option<u64>,
    /// Total detector-poll cycles charged across all cores.
    pub overhead_cycles: u64,
    /// Detector polls performed.
    pub polls: u64,
}

impl DetectionReport {
    /// Epochs of data needed until the first alarm (`None` = never
    /// flagged).
    pub fn epochs_to_detect(&self) -> Option<u64> {
        self.alarms.first().map(|a| a.epoch + 1)
    }
}

/// Queue-skew mitigation run by the sharded DUT: epoch-based indirection
/// table rebalancing, optionally with an explicit flow-migration cost
/// model and a work-stealing sink.
#[derive(Clone, Copy, Debug)]
pub struct MitigationConfig {
    /// Epoch length in input packets. At every epoch boundary the in-flight
    /// batches are drained, the rebalance policy sees the epoch's per-entry
    /// loads, and a new indirection table (if any) takes effect.
    pub epoch_packets: usize,
    /// The table rewrite policy.
    pub policy: RebalancePolicy,
    /// Which per-entry load signal the policy weighs: dispatched packet
    /// counts (the classic driver view) or execution cycles (which stop
    /// under-weighing heavy flows).
    pub metric: LoadMetric,
    /// Rotate the Toeplitz key at every epoch boundary
    /// (`castan_runtime::rotate_key` applied to the boot key): every flow's
    /// queue re-randomises per epoch, so a skew attacker who fingerprinted
    /// the boot key loses its steering from epoch 1 on.
    pub key_rotation: bool,
    /// Charge the flow-state move of every rebalanced flow: each flow whose
    /// entry changes queues costs the *destination* core
    /// [`MIGRATION_LINES_PER_FLOW`] shared-L3 hits of busy time.
    pub migration_cost: bool,
    /// Enable the work-stealing sink: a full batch whose home core is more
    /// than [`STEAL_THRESHOLD_CYCLES`] busier than the idlest core executes
    /// on that idlest core instead (paying [`STEAL_BATCH_CYCLES`]). This
    /// breaks flow→core affinity — the price real work-stealing runtimes
    /// pay — so it is off unless explicitly requested.
    pub work_stealing: bool,
}

impl MitigationConfig {
    /// Plain epoch rebalancing: no migration cost, no work stealing.
    pub fn rebalance(epoch_packets: usize, policy: RebalancePolicy) -> Self {
        assert!(epoch_packets > 0, "epochs must contain packets");
        MitigationConfig {
            epoch_packets,
            policy,
            metric: LoadMetric::Packets,
            key_rotation: false,
            migration_cost: false,
            work_stealing: false,
        }
    }

    /// Adds the flow-migration cost model.
    pub fn with_migration_cost(self) -> Self {
        MitigationConfig {
            migration_cost: true,
            ..self
        }
    }

    /// Adds the work-stealing sink.
    pub fn with_work_stealing(self) -> Self {
        MitigationConfig {
            work_stealing: true,
            ..self
        }
    }

    /// Weighs entries by execution cycles instead of packet counts.
    pub fn with_cycle_metric(self) -> Self {
        MitigationConfig {
            metric: LoadMetric::Cycles,
            ..self
        }
    }

    /// Adds per-epoch Toeplitz key rotation.
    pub fn with_key_rotation(self) -> Self {
        MitigationConfig {
            key_rotation: true,
            ..self
        }
    }
}

/// Sharded-runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of simulated cores (= RSS queues).
    pub n_cores: usize,
    /// Packets per dispatch batch.
    pub batch_size: usize,
    /// The NIC's RSS setup (key + indirection table).
    pub rss: RssConfig,
    /// Optional queue-skew mitigation; `None` reproduces the plain sharded
    /// runtime byte for byte.
    pub mitigation: Option<MitigationConfig>,
    /// Premap every page of the deployment's data regions at boot, in the
    /// canonical `castan_chain::chain_page_anchors` order — the
    /// simulation's equivalent of DPDK reserving its hugepages at EAL init.
    /// Frame assignment (and therefore every line's hidden L3 slice)
    /// becomes a pure function of the boot seed and the layout, which is
    /// what lets `castan-xcore`'s premapped bucket oracle predict this
    /// DUT's (slice, set) buckets exactly. Off by default: premapping
    /// changes the frame order, so it would perturb the pinned plain-DUT
    /// results.
    pub premap_pages: bool,
}

impl ShardConfig {
    /// The default runtime for `n_cores` cores: DPDK-style bursts of 32,
    /// no mitigation.
    pub fn new(n_cores: usize) -> Self {
        ShardConfig {
            n_cores,
            batch_size: 32,
            rss: RssConfig::for_queues(n_cores),
            mitigation: None,
            premap_pages: false,
        }
    }

    /// A runtime with no batching (batch of one): every packet pays the
    /// whole forwarding overhead. `unbatched(1)` is the paper's §5.1 setup.
    pub fn unbatched(n_cores: usize) -> Self {
        ShardConfig {
            batch_size: 1,
            ..Self::new(n_cores)
        }
    }

    /// The same runtime with a mitigation enabled.
    pub fn with_mitigation(self, mitigation: MitigationConfig) -> Self {
        ShardConfig {
            mitigation: Some(mitigation),
            ..self
        }
    }

    /// The same runtime with canonical page premapping at boot.
    pub fn with_premapped_pages(self) -> Self {
        ShardConfig {
            premap_pages: true,
            ..self
        }
    }
}

/// Everything measured on one core during a sharded run.
#[derive(Clone, Debug, Default)]
pub struct CoreMeasurement {
    /// End-to-end latency samples of the packets this core forwarded.
    pub latency_ns: Vec<f64>,
    /// Per-packet end-to-end counters (stage sum + forwarding + dispatch
    /// share).
    pub end_to_end: Vec<PacketCounters>,
    /// Per-packet service time in nanoseconds.
    pub service_ns: Vec<f64>,
    /// Per stage, the summed counters of this core's measured packets
    /// (no forwarding overhead): with the overhead of
    /// [`CoreMeasurement::packets`] packets they add up exactly to the sum
    /// of `end_to_end`. A stage after a mid-chain drop never ran for that
    /// packet and adds nothing.
    pub stage_totals: Vec<PacketCounters>,
    /// Packets dropped mid-chain on this core during the measured window.
    pub dropped: usize,
    /// Packets dispatched to this core's queue over the whole run
    /// (including warm-up), counted at dispatch time — with work stealing
    /// a batch may *execute* elsewhere, so this can differ from
    /// [`CoreMeasurement::packets`] even ignoring warm-up.
    pub dispatched: usize,
    /// Cycles this core spent pulling migrated flow state through the
    /// shared L3 after rebalances (whole run; zero without the migration
    /// cost model).
    pub migration_cycles: u64,
    /// Distinct flows whose state this core pulled across at rebalances.
    pub migrated_flows: usize,
    /// Cycles this core spent on stolen-batch overhead (whole run; zero
    /// without work stealing).
    pub steal_cycles: u64,
    /// Batches this core stole from busier cores.
    pub stolen_batches: usize,
    /// Cycles this core spent on online detector polls (whole run; zero
    /// unless a [`DetectionConfig`] is set — passive telemetry is free).
    pub detection_cycles: u64,
    /// This core's view of the shared memory hierarchy (whole run,
    /// including warm-up).
    pub mem: HierarchyStats,
}

impl CoreMeasurement {
    /// Measured packets processed by this core.
    pub fn packets(&self) -> usize {
        self.end_to_end.len()
    }

    /// Total cycles this core spent serving measured packets plus its
    /// mitigation and detection overheads (flow migration, steal
    /// bookkeeping, detector polls). Cores run concurrently, so the
    /// busiest core bounds aggregate throughput.
    pub fn busy_cycles(&self) -> u64 {
        self.end_to_end.iter().map(|c| c.cycles).sum::<u64>()
            + self.migration_cycles
            + self.steal_cycles
            + self.detection_cycles
    }
}

/// The result of one sharded run: per-core measurements plus aggregate
/// views.
#[derive(Clone, Debug)]
pub struct ShardedMeasurement {
    /// One measurement per core, indexed by core id.
    pub per_core: Vec<CoreMeasurement>,
    /// Batch size the run used.
    pub batch_size: usize,
    /// Clock frequency (Hz) of the simulated cores.
    pub clock_hz: u64,
    /// The indirection table active during each rebalance epoch
    /// (`table_history[e]` served epoch `e`; entry 0 is always the
    /// boot-time round-robin table). A single entry when no mitigation is
    /// configured. This is exactly what an adaptive attacker learns from a
    /// probe round and re-steers against.
    pub table_history: Vec<Vec<u32>>,
}

impl ShardedMeasurement {
    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.per_core.len()
    }

    /// Total measured packets over all cores.
    pub fn measured_packets(&self) -> usize {
        self.per_core.iter().map(CoreMeasurement::packets).sum()
    }

    /// Total packets dropped mid-chain over all cores.
    pub fn dropped(&self) -> usize {
        self.per_core.iter().map(|c| c.dropped).sum()
    }

    /// Exact sum of every core's per-packet counters.
    pub fn aggregate_counters(&self) -> PacketCounters {
        let mut total = PacketCounters::default();
        for c in self.per_core.iter().flat_map(|core| &core.end_to_end) {
            total += *c;
        }
        total
    }

    /// Sum of every core's memory-hierarchy statistics.
    pub fn aggregate_mem(&self) -> HierarchyStats {
        let mut total = HierarchyStats::default();
        for core in &self.per_core {
            total.merge(&core.mem);
        }
        total
    }

    /// The core with the largest busy time (the throughput bottleneck).
    pub fn bottleneck_core(&self) -> usize {
        (0..self.n_cores())
            .max_by_key(|&c| self.per_core[c].busy_cycles())
            .unwrap_or(0)
    }

    /// Fraction of measured packets handled by the busiest-loaded core
    /// (1/n_cores under perfect balance, → 1.0 under full skew).
    pub fn bottleneck_share(&self) -> f64 {
        let total = self.measured_packets();
        if total == 0 {
            return 0.0;
        }
        let max = self
            .per_core
            .iter()
            .map(CoreMeasurement::packets)
            .max()
            .unwrap_or(0);
        max as f64 / total as f64
    }

    /// Aggregate forwarding rate in Mpps: all cores run concurrently, so
    /// the run completes when the bottleneck core finishes its share.
    pub fn aggregate_mpps(&self) -> f64 {
        let bottleneck = &self.per_core[self.bottleneck_core()];
        let busy_cycles = bottleneck.busy_cycles();
        if busy_cycles == 0 {
            return 0.0;
        }
        let clock_ghz = self.clock_hz as f64 / 1e9;
        let busy_ns = busy_cycles as f64 / clock_ghz;
        self.measured_packets() as f64 / busy_ns * 1e3
    }

    /// Total flows whose state was migrated by rebalances.
    pub fn migrated_flows(&self) -> usize {
        self.per_core.iter().map(|c| c.migrated_flows).sum()
    }

    /// Total batches executed away from their home queue by work stealing.
    pub fn stolen_batches(&self) -> usize {
        self.per_core.iter().map(|c| c.stolen_batches).sum()
    }

    /// One end-to-end latency CDF per core (empty CDFs — all-NaN
    /// quantiles — for cores that served no measured packets, e.g. the
    /// idle cores under full queue skew).
    pub fn per_core_latency_cdfs(&self) -> Vec<Cdf> {
        self.per_core
            .iter()
            .map(|c| Cdf::new(c.latency_ns.clone()))
            .collect()
    }

    /// A merged single-stream [`Measurement`] view (per-core samples
    /// concatenated in core order), so the CDF tooling applies unchanged.
    pub fn as_measurement(&self) -> Measurement {
        let mut m = Measurement {
            latency_ns: Vec::new(),
            counters: Vec::new(),
            service_ns: Vec::new(),
        };
        for core in &self.per_core {
            m.latency_ns.extend_from_slice(&core.latency_ns);
            m.counters.extend_from_slice(&core.end_to_end);
            m.service_ns.extend_from_slice(&core.service_ns);
        }
        m
    }
}

/// One core's private chain instance: per-stage data memories and handoff
/// state.
struct CoreState {
    mems: Vec<DataMemory>,
    handoffs: Vec<Box<dyn StageHandoff>>,
}

/// One core's telemetry accumulator for the open epoch: plain counters the
/// hot path bumps, handed to the registry only at epoch boundaries. The
/// `packets`/`cycles`/`l3_misses` view covers *every* executed packet
/// (warm-up included — the detector judges steady-state behaviour, not the
/// measurement window); the `measured_*` view covers exactly the packets
/// in [`CoreMeasurement::end_to_end`], so registry totals reconcile with
/// [`ShardedMeasurement::aggregate_counters`] to the cycle.
#[derive(Clone, Debug, Default)]
struct CoreEpochStats {
    packets: u64,
    cycles: u64,
    instructions: u64,
    l3_misses: u64,
    measured_packets: u64,
    measured_cycles: u64,
    measured_instructions: u64,
    measured_l3_misses: u64,
    latency: Histogram,
}

/// What an online-detection run carries: the configuration, the detector
/// and the report it fills in.
struct RunDetection {
    cfg: DetectionConfig,
    detector: Detector,
    report: DetectionReport,
}

/// What a telemetry-attached run carries besides the measurement. The hot
/// path accumulates into the plain per-core structs; the registry (and its
/// name allocations) is touched only at epoch boundaries.
struct RunTelemetry {
    cfg: TelemetryConfig,
    registry: Registry,
    entries: DispatchInstrument,
    epoch_stats: Vec<CoreEpochStats>,
    /// Packets dispatched to each queue during the open epoch.
    dispatched: Vec<u64>,
    detection: Option<RunDetection>,
}

impl RunTelemetry {
    /// Seals one telemetry epoch into the registry: per-core counters and
    /// latency histograms, whole-DUT totals, the detector's gauge signals,
    /// the epoch-boundary event — then advances the registry epoch and
    /// resets the accumulators. Purely observational: no drains, no RNG
    /// draws, no charged cycles.
    fn seal(&mut self) {
        let reg = &mut self.registry;
        let mut packets = 0u64;
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        let mut misses = 0u64;
        let mut measured_packets = 0u64;
        let mut measured_cycles = 0u64;
        let mut measured_instructions = 0u64;
        let mut measured_misses = 0u64;
        for (c, s) in self.epoch_stats.iter_mut().enumerate() {
            if s.packets > 0 {
                reg.count(&format!("core{c}.packets"), s.packets);
                reg.count(&format!("core{c}.cycles"), s.cycles);
                reg.count(&format!("core{c}.l3_misses"), s.l3_misses);
            }
            if s.measured_packets > 0 {
                reg.count(&format!("core{c}.measured_packets"), s.measured_packets);
                reg.count(&format!("core{c}.measured_cycles"), s.measured_cycles);
            }
            if s.latency.count() > 0 {
                reg.merge_histogram(&format!("core{c}.latency_ns"), &s.latency);
            }
            packets += s.packets;
            cycles += s.cycles;
            instructions += s.instructions;
            misses += s.l3_misses;
            measured_packets += s.measured_packets;
            measured_cycles += s.measured_cycles;
            measured_instructions += s.measured_instructions;
            measured_misses += s.measured_l3_misses;
            *s = CoreEpochStats::default();
        }
        reg.count("exec.packets", packets);
        reg.count("exec.cycles", cycles);
        reg.count("exec.l3_misses", misses);
        reg.count("exec.measured_packets", measured_packets);
        reg.count("exec.measured_cycles", measured_cycles);
        reg.count("exec.measured_instructions", measured_instructions);
        reg.count("exec.measured_l3_misses", measured_misses);
        let disp: u64 = self.dispatched.iter().sum();
        reg.count("dispatch.packets", disp);
        if disp > 0 {
            let max = self.dispatched.iter().copied().max().unwrap_or(0);
            reg.gauge(SIG_MAX_CORE_SHARE, max as f64 / disp as f64);
        }
        self.entries.seal_into(reg);
        reg.gauge(SIG_EPOCH_PACKETS, packets as f64);
        if packets > 0 {
            reg.gauge(SIG_MISSES_PER_PACKET, misses as f64 / packets as f64);
            reg.gauge(SIG_CYCLES_PER_PACKET, cycles as f64 / packets as f64);
            reg.gauge(
                SIG_INSTRUCTIONS_PER_PACKET,
                instructions as f64 / packets as f64,
            );
        }
        self.dispatched.fill(0);
        reg.event(EventKind::EpochBoundary, format!("packets={packets}"));
        reg.seal_epoch();
    }
}

/// The noisy-neighbour replay [`ShardedDut::set_neighbor`] installs: one
/// core cyclically touching a fixed line list between executed batches.
#[derive(Clone, Debug)]
pub struct NeighborReplay {
    /// The core running the replay (receives no victim traffic).
    pub attacker_core: usize,
    /// Absolute virtual line addresses to touch, in replay order — an
    /// `castan-xcore` eviction plan's `replay_lines`, or an equal-rate
    /// random control.
    pub lines: Vec<u64>,
    /// Lines touched between two consecutive executed batches (the replay
    /// cursor wraps around `lines`).
    pub lines_per_batch: usize,
}

/// Replay bookkeeping of one run.
#[derive(Clone, Debug, Default)]
struct NeighborState {
    cursor: usize,
    touches: u64,
    cycles: u64,
}

/// One packet waiting in a dispatch batch: its index in the replay, its
/// indirection-table entry (`None` for a non-flow packet) and the packet.
type Queued = (usize, Option<usize>, Packet);

/// The device under test.
pub struct ShardedDut {
    chain: NfChain,
    shard: ShardConfig,
    cpu: MultiCoreCpu,
    cores: Vec<CoreState>,
    dispatcher: RssDispatcher,
    limits: RunLimits,
    /// Boot-time indirection table override (e.g. [`victim_table`]); `None`
    /// boots the round-robin fill, byte-identical to the plain DUT.
    boot_table: Option<Vec<u32>>,
    neighbor: Option<NeighborReplay>,
    neighbor_state: NeighborState,
    telemetry: Option<TelemetryConfig>,
    detection: Option<DetectionConfig>,
    last_registry: Option<Registry>,
    last_detection: Option<DetectionReport>,
}

impl ShardedDut {
    /// Boots a sharded DUT running one instance of `chain` per core on the
    /// Xeon E5-2667v2 profile (per-core L1/L2, shared L3).
    pub fn new(chain: NfChain, shard: ShardConfig, cfg: &MeasurementConfig) -> Self {
        assert!(shard.n_cores > 0, "need at least one core");
        assert!(
            (chain.len() as u64) * castan_chain::STAGE_ADDR_STRIDE <= CORE_ADDR_STRIDE,
            "chain has too many stages for the per-core address stride \
             ({} stages; at most {} fit without aliasing the next core)",
            chain.len(),
            CORE_ADDR_STRIDE / castan_chain::STAGE_ADDR_STRIDE,
        );
        let mut hierarchy = MultiCoreHierarchy::new(
            HierarchyConfig::xeon_e5_2667v2(),
            cfg.boot_seed,
            shard.n_cores,
        );
        if shard.premap_pages {
            let page_bits = hierarchy.config().page_bits;
            for anchor in chain_page_anchors(&chain, shard.n_cores, page_bits) {
                hierarchy.map_page(anchor);
            }
        }
        let cores = (0..shard.n_cores)
            .map(|_| CoreState {
                mems: chain
                    .stages
                    .iter()
                    .map(|s| s.nf.initial_memory.clone())
                    .collect(),
                handoffs: chain.handoffs(),
            })
            .collect();
        let dispatcher = RssDispatcher::new(shard.rss);
        assert_eq!(
            dispatcher.n_queues(),
            shard.n_cores,
            "one RSS queue per core"
        );
        ShardedDut {
            chain,
            cpu: MultiCoreCpu::new(hierarchy),
            cores,
            dispatcher,
            limits: RunLimits::default(),
            shard,
            boot_table: None,
            neighbor: None,
            neighbor_state: NeighborState::default(),
            telemetry: None,
            detection: None,
            last_registry: None,
            last_detection: None,
        }
    }

    /// Attaches passive telemetry: every subsequent run records its
    /// epoch-indexed series into a fresh [`Registry`], readable afterwards
    /// via [`ShardedDut::telemetry`]. Recording is observational — the
    /// measurement stays byte-identical to a run without telemetry
    /// (pinned by test).
    pub fn attach_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = Some(cfg);
    }

    /// Detaches telemetry (and with it any detection), restoring the
    /// plain DUT.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
        self.detection = None;
        self.last_registry = None;
        self.last_detection = None;
    }

    /// Enables (or disables) online detection on the attached telemetry
    /// stream. Panics if no telemetry is attached, or if a closed-loop
    /// response's epoch length disagrees with the telemetry epochs.
    pub fn set_detection(&mut self, detection: Option<DetectionConfig>) {
        if let Some(d) = &detection {
            let t = self
                .telemetry
                .expect("attach_telemetry before set_detection");
            if let Some(r) = d.response {
                assert_eq!(
                    r.epoch_packets, t.epoch_packets,
                    "closed-loop response epochs must match telemetry epochs"
                );
            }
        }
        self.detection = detection;
    }

    /// The last run's telemetry registry (`None` before the first
    /// telemetry-enabled run).
    pub fn telemetry(&self) -> Option<&Registry> {
        self.last_registry.as_ref()
    }

    /// Takes ownership of the last run's telemetry registry.
    pub fn take_telemetry(&mut self) -> Option<Registry> {
        self.last_registry.take()
    }

    /// The last run's detection report (`None` unless detection was on).
    pub fn detection_report(&self) -> Option<&DetectionReport> {
        self.last_detection.as_ref()
    }

    /// The chain this DUT runs (one instance per core).
    pub fn chain(&self) -> &NfChain {
        &self.chain
    }

    /// The dispatcher in front of the cores.
    pub fn dispatcher(&self) -> &RssDispatcher {
        &self.dispatcher
    }

    /// Clock frequency (Hz) of the simulated cores — what a caller that
    /// aggregates several DUTs (the cluster tier) needs to convert busy
    /// cycles to time even for a node that served no packets.
    pub fn clock_hz(&self) -> u64 {
        self.cpu.clock_hz()
    }

    /// Installs a boot-time indirection table (validated against the RSS
    /// config) that every subsequent [`ShardedDut::run`] starts from — the
    /// deployment knob ([`victim_table`]) that keeps a core out of RSS.
    /// `None` restores the plain round-robin boot table.
    pub fn set_boot_table(&mut self, table: Option<Vec<u32>>) {
        self.dispatcher = match &table {
            Some(t) => RssDispatcher::with_table(self.shard.rss, t.clone()),
            None => RssDispatcher::new(self.shard.rss),
        };
        self.boot_table = table;
    }

    /// Installs (or clears) the noisy-neighbour replay; see
    /// [`NeighborReplay`]. With `None` the DUT is byte-identical to a plain
    /// sharded DUT.
    pub fn set_neighbor(&mut self, neighbor: Option<NeighborReplay>) {
        if let Some(n) = &neighbor {
            assert!(
                n.attacker_core < self.shard.n_cores,
                "attacker core out of range"
            );
        }
        self.neighbor = neighbor;
        self.neighbor_state = NeighborState::default();
    }

    /// `(touches, cycles)` the neighbour replay spent during the last run.
    pub fn neighbor_cost(&self) -> (u64, u64) {
        (self.neighbor_state.touches, self.neighbor_state.cycles)
    }

    /// Profiles the victim's per-line heat: replays `workload` exactly like
    /// [`ShardedDut::run`] while counting, per virtual cache line, how many
    /// accesses `victim_core` issues (warm-up included — heat is about the
    /// steady state of the caches, not the measurement window). The
    /// returned pairs are hottest-first and feed
    /// `castan_xcore::HotLineMap`.
    pub fn profile_heat(
        &mut self,
        workload: &Workload,
        cfg: &MeasurementConfig,
        victim_core: usize,
    ) -> Vec<(u64, u64)> {
        self.cpu.hierarchy_mut().track_heat(victim_core);
        self.run_without_neighbor(workload, cfg)
    }

    /// [`ShardedDut::profile_heat`] over every core at once: the striped
    /// per-core address windows keep the counts unambiguous, so one run
    /// profiles every victim core of a deployment.
    pub fn profile_heat_all(
        &mut self,
        workload: &Workload,
        cfg: &MeasurementConfig,
    ) -> Vec<(u64, u64)> {
        self.cpu.hierarchy_mut().track_heat_all();
        self.run_without_neighbor(workload, cfg)
    }

    /// Runs the workload with any installed neighbour replay suspended and
    /// returns the recorded heat: a profile is about what the *victims*
    /// touch, and counting the attacker's own replay lines would let the
    /// plan rank buckets by the attacker's self-collisions.
    fn run_without_neighbor(
        &mut self,
        workload: &Workload,
        cfg: &MeasurementConfig,
    ) -> Vec<(u64, u64)> {
        let neighbor = self.neighbor.take();
        let _ = self.run(workload, cfg);
        self.neighbor = neighbor;
        self.cpu.hierarchy_mut().take_heat()
    }

    /// Replays a workload through the dispatcher and all cores, measuring
    /// per-core and aggregate behaviour. The NFs' state persists across the
    /// whole run (stateful NFs accumulate flow-table entries exactly as on
    /// the real testbed); each call starts from freshly initialised chain
    /// instances, cold caches and the boot-time indirection table.
    ///
    /// With a [`MitigationConfig`], every `epoch_packets` input packets the
    /// DUT drains the in-flight batches, hands the epoch's per-entry loads
    /// to the rebalance policy, and installs the rewritten table; the table
    /// active in each epoch is recorded in
    /// [`ShardedMeasurement::table_history`]. When the migration cost model
    /// is on, each flow whose entry changed queues charges the destination
    /// core [`MIGRATION_LINES_PER_FLOW`] shared-L3 hits of busy time. With
    /// work stealing, a full batch whose home core has fallen
    /// [`STEAL_THRESHOLD_CYCLES`] behind the idlest core executes there
    /// instead (on that core's chain instance — affinity is broken, which
    /// is the point), paying [`STEAL_BATCH_CYCLES`].
    pub fn run(&mut self, workload: &Workload, cfg: &MeasurementConfig) -> ShardedMeasurement {
        assert!(!workload.is_empty(), "cannot replay an empty workload");
        let n_cores = self.shard.n_cores;
        for core in &mut self.cores {
            for (mem, stage) in core.mems.iter_mut().zip(&self.chain.stages) {
                *mem = stage.nf.initial_memory.clone();
            }
            for h in &mut core.handoffs {
                h.reset();
            }
        }
        self.cpu.flush_caches();
        self.cpu.reset_stats();
        self.neighbor_state = NeighborState::default();
        // A previous mitigated run may have rewritten the table or rotated
        // the key; every run starts from the boot-time dispatcher (the
        // round-robin fill, or the installed boot-table override).
        self.dispatcher = match &self.boot_table {
            Some(t) => RssDispatcher::with_table(self.shard.rss, t.clone()),
            None => RssDispatcher::new(self.shard.rss),
        };

        let table_size = self.shard.rss.table_size;
        let limits = self.limits;
        let clock_ghz = self.cpu.clock_hz() as f64 / 1e9;
        let table_history = vec![self.dispatcher.table().to_vec()];
        let mut run = Run {
            chain: &self.chain,
            interps: self
                .chain
                .stages
                .iter()
                .map(|s| Interpreter::new(&s.nf.program, &s.nf.natives).with_limits(limits))
                .collect(),
            rss: &self.shard.rss,
            cpu: &mut self.cpu,
            cores: &mut self.cores,
            dispatcher: &mut self.dispatcher,
            neighbor: self.neighbor.as_ref(),
            neighbor_state: &mut self.neighbor_state,
            cfg,
            clock_ghz,
            // One measurement-noise RNG per core, core 0 on the configured
            // seed itself.
            rngs: (0..n_cores)
                .map(|c| {
                    StdRng::seed_from_u64(cfg.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                })
                .collect(),
            out: (0..n_cores)
                .map(|_| CoreMeasurement {
                    stage_totals: vec![PacketCounters::default(); self.chain.len()],
                    ..CoreMeasurement::default()
                })
                .collect(),
            busy: vec![0; n_cores],
            table_history,
            mitigation: self.shard.mitigation,
            tracker: self.shard.mitigation.map(|_| LoadTracker::new(table_size)),
            epoch: 0,
            telemetry: self.telemetry.map(|t| RunTelemetry {
                cfg: t,
                registry: Registry::with_event_capacity(t.event_capacity),
                entries: DispatchInstrument::new(table_size),
                epoch_stats: vec![CoreEpochStats::default(); n_cores],
                dispatched: vec![0; n_cores],
                detection: self.detection.map(|d| RunDetection {
                    cfg: d,
                    detector: Detector::new(d.detector),
                    report: DetectionReport::default(),
                }),
            }),
        };

        let mut batcher: Batcher<Queued> = Batcher::new(n_cores, self.shard.batch_size);
        for i in 0..cfg.total_packets {
            if run
                .mitigation
                .is_some_and(|m| i > 0 && i % m.epoch_packets == 0)
            {
                // Epoch boundary: drain in-flight batches first, so no
                // packet dispatched under the old table executes after the
                // rewrite.
                for (queue, batch) in batcher.flush() {
                    run.exec(queue, &batch);
                }
                run.rebalance();
            }
            // Telemetry epoch boundary: observational (no drain; any
            // mitigation boundary work above already landed in this epoch's
            // series). The closed loop activates the configured response at
            // the first alarm, so the *next* mitigation boundary is the
            // first one that rebalances.
            if run
                .telemetry
                .as_ref()
                .is_some_and(|t| i > 0 && i % t.cfg.epoch_packets == 0)
            {
                run.seal_epoch(true);
            }

            let pkt = workload.packets[i % workload.packets.len()];
            let (queue, entry) = run.dispatch(&pkt);
            if let Some(batch) = batcher.push(queue, (i, entry, pkt)) {
                let core = run.executing_core(queue);
                run.exec(core, &batch);
            }
        }
        // End of trace: drain the partial batches in core order.
        for (queue, batch) in batcher.flush() {
            run.exec(queue, &batch);
        }
        // Seal the final (possibly partial) telemetry epoch, with a last
        // detector poll over it — its packet count guard keeps short tails
        // from being judged, and nothing is left for a response to act on.
        run.seal_epoch(false);

        let Run {
            mut out,
            table_history,
            telemetry,
            ..
        } = run;
        let (registry, detection) = match telemetry {
            Some(t) => (Some(t.registry), t.detection),
            None => (None, None),
        };
        self.last_registry = registry;
        self.last_detection = detection.map(|d| DetectionReport {
            alarms: d.detector.alarms().to_vec(),
            ..d.report
        });
        for (c, core) in out.iter_mut().enumerate() {
            core.mem = self.cpu.hierarchy().core_stats(c);
        }
        ShardedMeasurement {
            per_core: out,
            batch_size: self.shard.batch_size,
            clock_hz: self.cpu.clock_hz(),
            table_history,
        }
    }
}

/// One [`ShardedDut::run`] in flight: the parts of the DUT the packet loop
/// works on plus everything that lives only as long as the run. The closed
/// loop may install a mitigation mid-run (first detector alarm), so the
/// active mitigation and its load tracker are run state, not configuration.
struct Run<'a> {
    chain: &'a NfChain,
    /// One interpreter per stage, shared by every core's instance.
    interps: Vec<Interpreter<'a>>,
    rss: &'a RssConfig,
    cpu: &'a mut MultiCoreCpu,
    cores: &'a mut [CoreState],
    dispatcher: &'a mut RssDispatcher,
    neighbor: Option<&'a NeighborReplay>,
    neighbor_state: &'a mut NeighborState,
    cfg: &'a MeasurementConfig,
    clock_ghz: f64,
    rngs: Vec<StdRng>,
    out: Vec<CoreMeasurement>,
    /// Whole-run busy time per core (warm-up included): the work-stealing
    /// trigger compares these, and mitigation overheads accrue here too.
    busy: Vec<u64>,
    table_history: Vec<Vec<u32>>,
    mitigation: Option<MitigationConfig>,
    tracker: Option<LoadTracker>,
    epoch: u64,
    telemetry: Option<RunTelemetry>,
}

impl Run<'_> {
    /// Dispatches one arriving packet: one Toeplitz hash, the queue is the
    /// entry's table cell (non-flow packets bypass the table onto queue 0,
    /// as in `RssDispatcher::queue_of_packet`).
    fn dispatch(&mut self, pkt: &Packet) -> (usize, Option<usize>) {
        let entry = self.dispatcher.entry_of_packet(pkt);
        let queue = match entry {
            Some(e) => self.dispatcher.table()[e] as usize,
            None => 0,
        };
        if let (Some(t), Some(entry)) = (self.tracker.as_mut(), entry) {
            t.record(entry, pkt.flow().map(|f| f.to_u128()));
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.dispatched[queue] += 1;
            if let Some(entry) = entry {
                t.entries.record(entry);
            }
        }
        self.out[queue].dispatched += 1;
        (queue, entry)
    }

    /// The core that executes a full batch of `queue`: the queue's own,
    /// unless work stealing is on and the idlest core is far enough behind
    /// to steal it (and pay for the steal).
    fn executing_core(&mut self, queue: usize) -> usize {
        if !self.mitigation.is_some_and(|m| m.work_stealing) {
            return queue;
        }
        let busy = &self.busy;
        let idlest = (0..busy.len())
            .min_by_key(|&c| (busy[c], c))
            .unwrap_or(queue);
        if idlest == queue || busy[queue] < busy[idlest] + STEAL_THRESHOLD_CYCLES {
            return queue;
        }
        self.out[idlest].stolen_batches += 1;
        self.out[idlest].steal_cycles += STEAL_BATCH_CYCLES;
        self.busy[idlest] += STEAL_BATCH_CYCLES;
        if let Some(t) = self.telemetry.as_mut() {
            t.registry.count("steal.batches", 1);
            t.registry.count("steal.cycles", STEAL_BATCH_CYCLES);
            t.registry
                .event(EventKind::WorkSteal, format!("home={queue} thief={idlest}"));
        }
        idlest
    }

    /// Executes one batch on one core — every stage of the core's chain
    /// instance per packet, the per-packet forwarding overhead, and the
    /// batch's dispatch overhead distributed exactly over its packets —
    /// followed by the neighbour's replay slice. The batch's cycles (warm-up
    /// packets included) go to the core's busy time and, when a load tracker
    /// is active, each packet's cycles to its indirection entry (the
    /// cycle-metric rebalancing signal).
    fn exec(&mut self, core: usize, batch: &[Queued]) {
        let n = batch.len() as u64;
        let dispatch_share = BATCH_DISPATCH_CYCLES / n;
        let dispatch_rem = BATCH_DISPATCH_CYCLES % n;
        let core_base = core_stage_base(core, 0);
        let state = &mut self.cores[core];
        let out = &mut self.out[core];
        let rng = &mut self.rngs[core];
        let mut epoch_stats = self.telemetry.as_mut().map(|t| &mut t.epoch_stats[core]);

        for (k, (i, entry, pkt)) in batch.iter().enumerate() {
            let measured = *i >= self.cfg.warmup_packets;
            let mut pkt = *pkt;
            let mut total = PacketCounters::default();
            let mut was_dropped = false;

            for (s, (stage, interp)) in self.chain.stages.iter().zip(&self.interps).enumerate() {
                self.cpu.begin_packet();
                let verdict = {
                    let mut sink = self.cpu.sink(core, core_base + stage.addr_base);
                    interp
                        .run_packet(&mut state.mems[s], &pkt, &mut sink)
                        .expect("stage execution failed on the DUT")
                        .return_value
                        .unwrap_or(castan_nf::layout::VERDICT_DROP)
                };
                let c = self.cpu.packet_counters();
                total += c;
                if measured {
                    out.stage_totals[s] += c;
                }
                match state.handoffs[s].apply(&pkt, verdict) {
                    Some(next) => pkt = next,
                    None => {
                        was_dropped = true;
                        break;
                    }
                }
            }

            total.cycles +=
                PACKET_FORWARD_CYCLES + dispatch_share + u64::from((k as u64) < dispatch_rem);
            total.instructions += FORWARDING_OVERHEAD_INSTRUCTIONS;
            total.l3_misses += FORWARDING_OVERHEAD_MISSES;
            self.busy[core] += total.cycles;
            if let (Some(t), Some(entry)) = (self.tracker.as_mut(), entry) {
                t.record_cycles(*entry, total.cycles);
            }
            if let Some(s) = epoch_stats.as_deref_mut() {
                s.packets += 1;
                s.cycles += total.cycles;
                s.instructions += total.instructions;
                s.l3_misses += total.l3_misses;
            }

            if !measured {
                continue;
            }
            if was_dropped {
                out.dropped += 1;
            }
            // End-to-end latency: wire/NIC path plus DUT service time plus a
            // small amount of measurement noise with an occasional longer
            // tail (interrupts, PCIe jitter) so the CDFs have realistic
            // spread.
            let service = total.cycles as f64 / self.clock_ghz; // ns
            let base_jitter: f64 = rng.random_range(0.0..60.0);
            let tail: f64 = if rng.random_bool(0.02) {
                rng.random_range(100.0..400.0)
            } else {
                0.0
            };
            let latency = WIRE_LATENCY_NS + service + base_jitter + tail;
            if let Some(s) = epoch_stats.as_deref_mut() {
                s.measured_packets += 1;
                s.measured_cycles += total.cycles;
                s.measured_instructions += total.instructions;
                s.measured_l3_misses += total.l3_misses;
                s.latency.observe_f64(latency);
            }
            out.latency_ns.push(latency);
            out.service_ns.push(service);
            out.end_to_end.push(total);
        }

        // The neighbour's slice: the next `lines_per_batch` lines of the
        // installed replay, charged to the attacker core (in the shared
        // hierarchy and the replay counters — never to victim busy time).
        if let Some(n) = self.neighbor.filter(|n| !n.lines.is_empty()) {
            let hier = self.cpu.hierarchy_mut();
            for _ in 0..n.lines_per_batch {
                let addr = n.lines[self.neighbor_state.cursor];
                self.neighbor_state.cursor = (self.neighbor_state.cursor + 1) % n.lines.len();
                self.neighbor_state.cycles += hier.read(n.attacker_core, addr).cycles;
                self.neighbor_state.touches += 1;
            }
        }
    }

    /// The mitigation's epoch boundary, after the in-flight batches were
    /// drained: rotates the key, hands the epoch's per-entry loads to the
    /// policy, charges the flows a rewritten table moves and installs it.
    fn rebalance(&mut self) {
        let (Some(m), Some(tracker)) = (self.mitigation, self.tracker.as_mut()) else {
            return;
        };
        let n_cores = self.busy.len();
        let mut registry = self.telemetry.as_mut().map(|t| &mut t.registry);
        self.epoch += 1;
        if m.key_rotation {
            self.dispatcher
                .set_key(rotate_key(&self.rss.key, self.epoch));
            if let Some(reg) = registry.as_deref_mut() {
                record_key_rotation(reg, self.epoch);
            }
        }
        let old = self.dispatcher.table().to_vec();
        let new = rebalanced_table(m.policy, tracker.loads(m.metric), &old, n_cores, self.epoch);
        if new != old {
            if let Some(reg) = registry.as_deref_mut() {
                record_rebalance(reg, &old, &new);
            }
            if m.migration_cost {
                let l3_hit = self.cpu.hierarchy().config().latencies.l3;
                let moved = tracker.moved_flows_per_queue(&old, &new, n_cores);
                for (q, &flows) in moved.iter().enumerate() {
                    let cycles = flows as u64 * MIGRATION_LINES_PER_FLOW * l3_hit;
                    self.out[q].migration_cycles += cycles;
                    self.out[q].migrated_flows += flows;
                    self.busy[q] += cycles;
                }
                if let Some(reg) = registry {
                    let flows: usize = moved.iter().sum();
                    let cycles: u64 = flows as u64 * MIGRATION_LINES_PER_FLOW * l3_hit;
                    reg.count("migration.flows", flows as u64);
                    reg.count("migration.cycles", cycles);
                    reg.event(EventKind::Migration, format!("flows={flows}"));
                }
            }
            self.dispatcher.set_table(new);
        }
        self.table_history.push(self.dispatcher.table().to_vec());
        tracker.reset();
    }

    /// Seals the open telemetry epoch and, with online detection, polls the
    /// detector over it: every poll charges every core
    /// [`DETECT_POLL_CYCLES`]. With `respond`, an alarm is logged and — in
    /// the closed loop, if no mitigation is active yet — activates the
    /// configured response.
    fn seal_epoch(&mut self, respond: bool) {
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        t.seal();
        let Some(d) = t.detection.as_mut() else {
            return;
        };
        let n_cores = self.busy.len() as u64;
        for (busy, out) in self.busy.iter_mut().zip(self.out.iter_mut()) {
            *busy += DETECT_POLL_CYCLES;
            out.detection_cycles += DETECT_POLL_CYCLES;
        }
        d.report.polls += 1;
        d.report.overhead_cycles += DETECT_POLL_CYCLES * n_cores;
        t.registry
            .count("detection.cycles", DETECT_POLL_CYCLES * n_cores);
        let Some(alarm) = d.detector.poll(&t.registry).filter(|_| respond) else {
            return;
        };
        t.registry.event(
            EventKind::DetectorAlarm,
            format!(
                "signature={} value={:.4} threshold={:.4}",
                alarm.signature.name(),
                alarm.value,
                alarm.threshold
            ),
        );
        if let (None, Some(response)) = (self.mitigation, d.cfg.response) {
            self.mitigation = Some(response);
            self.tracker = Some(LoadTracker::new(self.rss.table_size));
            d.report.activated_epoch = Some(alarm.epoch);
            t.registry.event(
                EventKind::MitigationActivated,
                format!("epoch={}", alarm.epoch),
            );
        }
    }
}

/// Convenience: measure one chain under one workload with a fresh DUT.
pub fn measure_sharded(
    chain: &NfChain,
    shard: ShardConfig,
    workload: &Workload,
    cfg: &MeasurementConfig,
) -> ShardedMeasurement {
    let mut dut = ShardedDut::new(chain.clone(), shard, cfg);
    dut.run(workload, cfg)
}

/// [`measure_sharded`] in the paper's §5.1 setup: one core, no batching.
pub fn measure_chain(
    chain: &NfChain,
    workload: &Workload,
    cfg: &MeasurementConfig,
) -> ShardedMeasurement {
    measure_sharded(chain, ShardConfig::unbatched(1), workload, cfg)
}

/// [`measure_chain`] for a single NF (a chain of one), as the flat view.
pub fn measure(nf: &NfSpec, workload: &Workload, cfg: &MeasurementConfig) -> Measurement {
    let chain = NfChain::new(nf.name(), vec![nf.clone()]);
    measure_chain(&chain, workload, cfg).as_measurement()
}

/// The indirection table of a deployment that keeps `attacker_queue` out of
/// RSS (the operator dedicating that core to another tenant): the remaining
/// queues are filled round-robin, preserving entry order. With 5-tuple
/// traffic no packet ever reaches the attacker core — its work comes only
/// from the tenant's own replay.
pub fn victim_table(rss: &RssConfig, attacker_queue: usize) -> Vec<u32> {
    assert!(attacker_queue < rss.n_queues, "attacker queue out of range");
    let victims: Vec<u32> = (0..rss.n_queues as u32)
        .filter(|&q| q as usize != attacker_queue)
        .collect();
    assert!(!victims.is_empty(), "need at least one victim queue");
    (0..rss.table_size)
        .map(|i| victims[i % victims.len()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use castan_chain::{chain_by_id, ChainId};
    use castan_workload::{generic_chain_workload, WorkloadConfig, WorkloadKind};

    fn quick() -> MeasurementConfig {
        MeasurementConfig::quick()
    }

    /// The noisy-neighbour deployment: victim traffic on every core but
    /// `attacker`, no replay installed yet.
    fn noisy_neighbor_dut(
        chain: &NfChain,
        shard: ShardConfig,
        attacker: usize,
        cfg: &MeasurementConfig,
    ) -> ShardedDut {
        let mut dut = ShardedDut::new(chain.clone(), shard, cfg);
        dut.set_boot_table(Some(victim_table(&shard.rss, attacker)));
        dut
    }

    fn replay(attacker_core: usize, lines: Vec<u64>, lines_per_batch: usize) -> NeighborReplay {
        NeighborReplay {
            attacker_core,
            lines,
            lines_per_batch,
        }
    }

    #[test]
    fn end_to_end_counters_are_the_stage_sum_plus_one_overhead() {
        let chain = chain_by_id(ChainId::NatLpm);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::Zipfian,
            &WorkloadConfig::scaled(0.005),
        );
        let m = measure_chain(&chain, &wl, &quick());
        let core = &m.per_core[0];
        assert_eq!(core.stage_totals.len(), 2);
        let packets = core.packets() as u64;
        let mut expected = PacketCounters {
            cycles: packets * crate::FORWARDING_OVERHEAD_CYCLES,
            instructions: packets * FORWARDING_OVERHEAD_INSTRUCTIONS,
            l3_misses: packets * FORWARDING_OVERHEAD_MISSES,
            ..PacketCounters::default()
        };
        for stage in &core.stage_totals {
            expected += *stage;
        }
        assert_eq!(m.aggregate_counters(), expected);
    }

    #[test]
    fn stages_share_the_l3_so_chain_misses_exceed_isolated_sums() {
        // A destination-diverse workload through nat→lpm: the trie's pool
        // and the NAT's buckets/pool now compete for the same L3.
        let chain = chain_by_id(ChainId::NatLpm);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.003),
        );
        let m = measure_chain(&chain, &wl, &quick());
        assert!(m.as_measurement().median_cycles() > 0.0);
        let core = &m.per_core[0];
        let packets = core.packets() as u64;
        for stage in &core.stage_totals {
            // Each stage contributes real work (no stage sits idle), and
            // end-to-end instructions exceed either stage alone.
            assert!(stage.instructions > 5 * packets);
            assert!(m.aggregate_counters().instructions > stage.instructions);
        }
    }

    #[test]
    fn nat_drops_stray_return_traffic_mid_chain() {
        use castan_packet::{Ipv4Addr, PacketBuilder};
        let chain = chain_by_id(ChainId::NatLpm);
        let stray = PacketBuilder::new()
            .src_ip(Ipv4Addr::new(8, 8, 8, 8))
            .dst_ip(Ipv4Addr(castan_nf::layout::NAT_EXTERNAL_IP))
            .dst_port(40_000)
            .build();
        let wl = castan_workload::Workload {
            kind: WorkloadKind::Manual,
            packets: vec![stray],
        };
        let cfg = MeasurementConfig {
            total_packets: 100,
            warmup_packets: 10,
            ..MeasurementConfig::quick()
        };
        let m = measure_chain(&chain, &wl, &cfg);
        assert_eq!(
            m.dropped(),
            90,
            "every measured packet is dropped by the NAT"
        );
        // The LPM stage never ran: its counters are all zero.
        assert_eq!(m.per_core[0].stage_totals[1], PacketCounters::default());
    }

    #[test]
    fn batching_amortises_dispatch_cycles() {
        // Same traffic, batch of 32 vs batch of 1: the batched run saves
        // close to BATCH_DISPATCH_CYCLES * (1 - 1/32) cycles per packet.
        let chain = chain_by_id(ChainId::Nop3);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::Zipfian,
            &WorkloadConfig::scaled(0.005),
        );
        let cfg = quick();
        let unbatched = measure_sharded(&chain, ShardConfig::unbatched(1), &wl, &cfg);
        let batched = measure_sharded(
            &chain,
            ShardConfig {
                batch_size: 32,
                ..ShardConfig::new(1)
            },
            &wl,
            &cfg,
        );
        let cpp = |m: &ShardedMeasurement| {
            m.aggregate_counters().cycles as f64 / m.measured_packets() as f64
        };
        let saved = cpp(&unbatched) - cpp(&batched);
        let expected = BATCH_DISPATCH_CYCLES as f64 * (1.0 - 1.0 / 32.0);
        assert!(
            (saved - expected).abs() < 20.0,
            "batching should save ≈{expected:.0} cycles/packet, saved {saved:.0}"
        );
    }

    #[test]
    fn per_core_counters_reconcile_with_the_aggregate() {
        // Mirrors PR 1's per-stage reconciliation: per-core packet and
        // cycle counters must sum exactly to the aggregate measurement,
        // and the per-core hierarchy statistics to the hierarchy total.
        let chain = chain_by_id(ChainId::NatLpm);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.002),
        );
        let cfg = quick();
        let m = measure_sharded(&chain, ShardConfig::new(4), &wl, &cfg);

        assert_eq!(
            m.measured_packets(),
            cfg.total_packets - cfg.warmup_packets,
            "every non-warmup packet is measured on exactly one core"
        );
        let agg = m.aggregate_counters();
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        let mut misses = 0u64;
        for core in &m.per_core {
            cycles += core.busy_cycles();
            instructions += core.end_to_end.iter().map(|c| c.instructions).sum::<u64>();
            misses += core.end_to_end.iter().map(|c| c.l3_misses).sum::<u64>();
        }
        assert_eq!(agg.cycles, cycles);
        assert_eq!(agg.instructions, instructions);
        assert_eq!(agg.l3_misses, misses);

        let mem = m.aggregate_mem();
        let mut accesses = 0u64;
        for core in &m.per_core {
            accesses += core.mem.accesses;
        }
        assert_eq!(mem.accesses, accesses);
        assert!(accesses > 0, "the run exercised the shared hierarchy");
    }

    #[test]
    #[should_panic(expected = "too many stages")]
    fn overlong_chains_are_rejected_instead_of_aliasing_cores() {
        use castan_nf::{nf_by_id, NfId};
        let nine =
            castan_chain::NfChain::new("nop9", (0..9).map(|_| nf_by_id(NfId::Nop)).collect());
        let _ = ShardedDut::new(nine, ShardConfig::new(2), &quick());
    }

    #[test]
    fn rebalancing_spreads_a_static_skew_after_one_epoch() {
        use castan_runtime::{skew_packets, RebalancePolicy, RssDispatcher};

        let chain = chain_by_id(ChainId::Nop3);
        let cfg = MeasurementConfig {
            total_packets: 480,
            warmup_packets: 48,
            ..quick()
        };
        let shard = ShardConfig::new(4);
        let base = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.0005),
        );
        let skew = skew_packets(&base.packets, &RssDispatcher::new(shard.rss), 0);
        let wl = castan_workload::Workload {
            kind: WorkloadKind::RssSkew,
            packets: skew.packets,
        };

        // No mitigation: everything lands (and stays) on core 0.
        let none = measure_sharded(&chain, shard, &wl, &cfg);
        assert_eq!(none.table_history.len(), 1, "no rebalance, boot table only");
        assert!(none.bottleneck_share() > 0.99);

        // Least-loaded rebalancing every 60 packets: from epoch 1 on, the
        // hot entries are spread over all four cores.
        let mitigated = shard.with_mitigation(MitigationConfig::rebalance(
            60,
            RebalancePolicy::LeastLoaded,
        ));
        let m = measure_sharded(&chain, mitigated, &wl, &cfg);
        assert_eq!(m.table_history.len(), 8, "one table per 60-packet epoch");
        assert_ne!(m.table_history[1], m.table_history[0], "epoch 1 rebalanced");
        assert!(
            m.bottleneck_share() < 0.5,
            "rebalancing must spread the skew: share {}",
            m.bottleneck_share()
        );
        assert!(
            m.aggregate_mpps() > 2.0 * none.aggregate_mpps(),
            "rebalanced skew {:.2} Mpps must beat unmitigated {:.2} Mpps",
            m.aggregate_mpps(),
            none.aggregate_mpps()
        );
        // Same run with the migration cost model: flows moved, the
        // destination cores paid for them, throughput dips but survives.
        let paid = measure_sharded(
            &chain,
            shard.with_mitigation(
                MitigationConfig::rebalance(60, RebalancePolicy::LeastLoaded).with_migration_cost(),
            ),
            &wl,
            &cfg,
        );
        assert!(paid.migrated_flows() > 0, "the rebalance moved flow state");
        assert_eq!(
            paid.table_history, m.table_history,
            "the cost model must not change the rebalance schedule"
        );
        assert!(paid.aggregate_mpps() <= m.aggregate_mpps());
        assert!(paid.aggregate_mpps() > 2.0 * none.aggregate_mpps());
    }

    #[test]
    fn one_core_mitigation_is_a_no_op() {
        use castan_runtime::RebalancePolicy;

        // With a single queue every policy is a no-op (nothing to move to),
        // so a mitigated 1-core run is byte-identical to the plain one.
        // Unbatched: the epoch boundary drains in-flight batches, which
        // with larger bursts re-shapes the dispatch-cost amortisation —
        // that drain is deliberate mitigation behaviour, not a bug.
        let chain = chain_by_id(ChainId::NatLpm);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::Zipfian,
            &WorkloadConfig::scaled(0.002),
        );
        let cfg = MeasurementConfig {
            total_packets: 400,
            warmup_packets: 40,
            ..quick()
        };
        let plain = measure_sharded(&chain, ShardConfig::unbatched(1), &wl, &cfg);
        let mitigated = measure_sharded(
            &chain,
            ShardConfig::unbatched(1).with_mitigation(
                MitigationConfig::rebalance(50, RebalancePolicy::LeastLoaded)
                    .with_migration_cost()
                    .with_work_stealing()
                    .with_cycle_metric()
                    .with_key_rotation(),
            ),
            &wl,
            &cfg,
        );
        assert_eq!(
            plain.per_core[0].end_to_end,
            mitigated.per_core[0].end_to_end
        );
        assert_eq!(
            plain.per_core[0].latency_ns,
            mitigated.per_core[0].latency_ns
        );
        assert_eq!(mitigated.migrated_flows(), 0);
        assert_eq!(mitigated.stolen_batches(), 0);
        assert!(mitigated
            .table_history
            .iter()
            .all(|t| t.iter().all(|&q| q == 0)));
    }

    #[test]
    fn work_stealing_moves_batches_off_a_skewed_core() {
        use castan_runtime::{skew_packets, RebalancePolicy, RssDispatcher};

        let chain = chain_by_id(ChainId::Nop3);
        let cfg = MeasurementConfig {
            total_packets: 480,
            warmup_packets: 48,
            ..quick()
        };
        let shard = ShardConfig::new(4);
        let base = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.0005),
        );
        let skew = skew_packets(&base.packets, &RssDispatcher::new(shard.rss), 0);
        let wl = castan_workload::Workload {
            kind: WorkloadKind::RssSkew,
            packets: skew.packets,
        };
        // Round-robin "rebalancing" never changes the table, so only the
        // work-stealing sink can spread this skew.
        let m = measure_sharded(
            &chain,
            shard.with_mitigation(
                MitigationConfig::rebalance(1_000_000, RebalancePolicy::RoundRobin)
                    .with_work_stealing(),
            ),
            &wl,
            &cfg,
        );
        assert!(m.stolen_batches() > 0, "idle cores must steal batches");
        assert!(
            m.bottleneck_share() < 0.9,
            "stealing must offload the victim core: share {}",
            m.bottleneck_share()
        );
        // Every dispatched packet still went to queue 0 — stealing happens
        // after dispatch.
        assert_eq!(m.per_core[0].dispatched, cfg.total_packets);
    }

    #[test]
    fn key_rotation_scatters_a_fingerprinted_static_skew() {
        use castan_runtime::{skew_packets, RebalancePolicy, RssDispatcher};

        // The attacker fingerprinted the boot key and steers everything to
        // queue 0. A rotation-enabled defender re-keys at every epoch
        // boundary: epoch 0 (boot key) stays pinned, but from epoch 1 on
        // the steered 5-tuples hash pseudo-uniformly again — the attack
        // needs re-fingerprinting mid-run.
        let chain = chain_by_id(ChainId::Nop3);
        let cfg = MeasurementConfig {
            total_packets: 480,
            warmup_packets: 48,
            ..quick()
        };
        let shard = ShardConfig::new(4);
        let base = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.0005),
        );
        let skew = skew_packets(&base.packets, &RssDispatcher::new(shard.rss), 0);
        let wl = castan_workload::Workload {
            kind: WorkloadKind::RssSkew,
            packets: skew.packets,
        };
        // Rotation alone (round-robin policy never rewrites the table):
        // the share drop is attributable to the key schedule only.
        let rotated = measure_sharded(
            &chain,
            shard.with_mitigation(
                MitigationConfig::rebalance(60, RebalancePolicy::RoundRobin).with_key_rotation(),
            ),
            &wl,
            &cfg,
        );
        let plain = measure_sharded(&chain, shard, &wl, &cfg);
        assert!(plain.bottleneck_share() > 0.99, "the fingerprint works");
        assert!(
            rotated.bottleneck_share() < 0.6,
            "rotation must scatter the steered flows: share {}",
            rotated.bottleneck_share()
        );
        assert!(
            rotated.aggregate_mpps() > 2.0 * plain.aggregate_mpps(),
            "scattered flows spread the load again: {:.2} vs {:.2} Mpps",
            rotated.aggregate_mpps(),
            plain.aggregate_mpps()
        );
        // Epoch 0 runs under the boot key: its 60 packets all dispatched
        // to queue 0.
        assert!(rotated.per_core[0].dispatched >= 60);
    }

    #[test]
    fn cycle_metric_rebalances_a_static_skew_end_to_end() {
        use castan_runtime::{skew_packets, RebalancePolicy, RssDispatcher};

        let chain = chain_by_id(ChainId::Nop3);
        let cfg = MeasurementConfig {
            total_packets: 480,
            warmup_packets: 48,
            ..quick()
        };
        let shard = ShardConfig::new(4);
        let base = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.0005),
        );
        let skew = skew_packets(&base.packets, &RssDispatcher::new(shard.rss), 0);
        let wl = castan_workload::Workload {
            kind: WorkloadKind::RssSkew,
            packets: skew.packets,
        };
        let m = measure_sharded(
            &chain,
            shard.with_mitigation(
                MitigationConfig::rebalance(60, RebalancePolicy::LeastLoaded).with_cycle_metric(),
            ),
            &wl,
            &cfg,
        );
        assert_ne!(m.table_history[1], m.table_history[0], "epoch 1 rebalanced");
        assert!(
            m.bottleneck_share() < 0.5,
            "cycle-weighted rebalancing must spread the skew: share {}",
            m.bottleneck_share()
        );
    }

    #[test]
    fn neighbor_replay_is_charged_to_the_attacker_only() {
        // Replay accounting: the attacker pays for every touch (visible in
        // its hierarchy view and the replay counters), victim busy time
        // never includes replay cycles, and an *unplanned* same-set-index
        // storm — whose lines spread over all L3 slices, leaving fewer than
        // α per (slice, set) bucket — leaves the victims' measured counters
        // untouched in the steady state. Actually evicting victim lines
        // needs the `castan-xcore` eviction plan's oracle-backed bucket
        // targeting; that end-to-end effect is asserted by the
        // `xcore-contention` experiment tests.
        let chain = chain_by_id(ChainId::NatLpm);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::Zipfian,
            &WorkloadConfig::scaled(0.002),
        );
        let cfg = quick();
        let shard = ShardConfig::new(2).with_premapped_pages();
        let attacker = 1;
        let mut quiet = noisy_neighbor_dut(&chain, shard, attacker, &cfg);
        let baseline = quiet.run(&wl, &cfg);
        assert_eq!(quiet.neighbor_cost(), (0, 0));

        // Lines of the attacker's own NAT stage region sharing one L3 set
        // index (one per slice_span bytes) — a control storm with no slice
        // knowledge.
        let slice_span = castan_mem::HierarchyConfig::xeon_e5_2667v2()
            .l3_slice_geometry()
            .sets()
            * castan_mem::LINE_SIZE;
        let region = &chain.stages[0].nf.data_regions[0];
        let base = castan_chain::core_stage_base(attacker, 0) + region.base;
        let lines: Vec<u64> = (0..64u64).map(|i| base + i * slice_span).collect();
        let mut noisy = noisy_neighbor_dut(&chain, shard, attacker, &cfg);
        noisy.set_neighbor(Some(replay(attacker, lines.clone(), 64)));
        let attacked = noisy.run(&wl, &cfg);

        let (touches, replay_cycles) = noisy.neighbor_cost();
        assert!(touches > 0);
        assert!(replay_cycles > 0);
        // Victim busy time excludes the replay: any throughput change can
        // only come from the victims' own cache behaviour.
        let victim_busy: u64 = attacked.per_core[0].busy_cycles();
        let victim_cycles: u64 = attacked.per_core[0]
            .end_to_end
            .iter()
            .map(|c| c.cycles)
            .sum();
        assert_eq!(victim_busy, victim_cycles);
        // The attacker's hierarchy view shows the replay traffic; the
        // quiet run's attacker never saw a packet or accessed memory at all.
        assert!(attacked.per_core[attacker].mem.accesses >= touches);
        assert_eq!(baseline.per_core[attacker].dispatched, 0);
        assert_eq!(baseline.per_core[attacker].packets(), 0);
        assert_eq!(baseline.per_core[attacker].mem.accesses, 0);
        // The blind storm leaves the victims' measured work unchanged —
        // the bar a *planned* storm has to beat.
        assert_eq!(
            attacked.aggregate_counters().l3_misses,
            baseline.aggregate_counters().l3_misses
        );
        // Replay runs are deterministic.
        let mut again = noisy_neighbor_dut(&chain, shard, attacker, &cfg);
        again.set_neighbor(Some(replay(attacker, lines, 64)));
        let repeat = again.run(&wl, &cfg);
        assert_eq!(again.neighbor_cost(), (touches, replay_cycles));
        assert_eq!(
            repeat.aggregate_counters().l3_misses,
            attacked.aggregate_counters().l3_misses
        );
    }

    #[test]
    fn heat_profiling_suspends_the_neighbor_replay() {
        // A profile is about what the victims touch: an installed replay
        // must neither pollute the heat map with attacker-window lines nor
        // run at all during the profiling pass — and must survive it.
        let chain = chain_by_id(ChainId::NatLpm);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::Zipfian,
            &WorkloadConfig::scaled(0.001),
        );
        let cfg = MeasurementConfig {
            total_packets: 200,
            warmup_packets: 20,
            ..quick()
        };
        let shard = ShardConfig::new(2).with_premapped_pages();
        let attacker = 1;
        let mut noisy = noisy_neighbor_dut(&chain, shard, attacker, &cfg);
        let replay_lines: Vec<u64> = (0..4u64)
            .map(|i| castan_chain::core_stage_base(attacker, 0) + 0x1000 + i * 64)
            .collect();
        noisy.set_neighbor(Some(replay(attacker, replay_lines, 4)));
        let heat = noisy.profile_heat_all(&wl, &cfg);
        assert!(!heat.is_empty());
        let window = castan_chain::CORE_ADDR_STRIDE;
        assert!(
            heat.iter().all(|&(line, _)| line < window),
            "attacker-window lines leaked into the victim profile"
        );
        assert_eq!(noisy.neighbor_cost(), (0, 0), "no replay ran");
        // The replay is still installed: the next measured run uses it.
        noisy.run(&wl, &cfg);
        assert!(noisy.neighbor_cost().0 > 0);
    }

    #[test]
    fn uniform_traffic_spreads_over_all_cores() {
        let chain = chain_by_id(ChainId::Nop3);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.002),
        );
        let cfg = quick();
        let m = measure_sharded(&chain, ShardConfig::new(4), &wl, &cfg);
        for (c, core) in m.per_core.iter().enumerate() {
            assert!(
                core.packets() > 0,
                "core {c} received no packets under uniform traffic"
            );
        }
        assert!(
            m.bottleneck_share() < 0.45,
            "uniform traffic should spread: bottleneck share {}",
            m.bottleneck_share()
        );
    }

    #[test]
    fn telemetry_recording_is_byte_identical_to_the_plain_run() {
        use castan_runtime::RebalancePolicy;

        // Attaching telemetry must never perturb the measurement: sealing
        // is observational (no drains, no RNG draws, no charged cycles),
        // so the recorded run reproduces the plain run byte for byte —
        // the same pin the no-mitigation path carries.
        let chain = chain_by_id(ChainId::NatLpm);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::Zipfian,
            &WorkloadConfig::scaled(0.002),
        );
        let cfg = quick();
        let shard = ShardConfig::new(4);
        let plain = measure_sharded(&chain, shard, &wl, &cfg);

        let mut dut = ShardedDut::new(chain.clone(), shard, &cfg);
        dut.attach_telemetry(TelemetryConfig::new(256));
        let recorded = dut.run(&wl, &cfg);
        for (c, (a, b)) in plain.per_core.iter().zip(&recorded.per_core).enumerate() {
            assert_eq!(a.end_to_end, b.end_to_end, "core {c} counters");
            assert_eq!(a.latency_ns, b.latency_ns, "core {c} latencies");
            assert_eq!(a.mem, b.mem, "core {c} hierarchy view");
            assert_eq!(a.dispatched, b.dispatched, "core {c} dispatch");
        }
        let reg = dut.telemetry().expect("registry recorded");
        assert!(reg.epoch() > 0, "epochs were sealed");

        // Same pin with every mitigation feature on: the rebalance, key
        // rotation, migration and stealing events are recorded without
        // changing what those mechanisms do.
        let mitigated = shard.with_mitigation(
            MitigationConfig::rebalance(500, RebalancePolicy::LeastLoaded)
                .with_migration_cost()
                .with_work_stealing()
                .with_key_rotation(),
        );
        let plain_mit = measure_sharded(&chain, mitigated, &wl, &cfg);
        let mut dut = ShardedDut::new(chain, mitigated, &cfg);
        dut.attach_telemetry(TelemetryConfig::new(500));
        let recorded_mit = dut.run(&wl, &cfg);
        assert_eq!(plain_mit.table_history, recorded_mit.table_history);
        for (c, (a, b)) in plain_mit
            .per_core
            .iter()
            .zip(&recorded_mit.per_core)
            .enumerate()
        {
            assert_eq!(a.end_to_end, b.end_to_end, "core {c} counters");
            assert_eq!(a.latency_ns, b.latency_ns, "core {c} latencies");
            assert_eq!(a.migration_cycles, b.migration_cycles, "core {c} migration");
            assert_eq!(a.steal_cycles, b.steal_cycles, "core {c} stealing");
        }
    }

    #[test]
    fn telemetry_totals_reconcile_with_the_measurement_exactly() {
        let chain = chain_by_id(ChainId::NatLpm);
        let wl = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.002),
        );
        let cfg = quick();
        let mut dut = ShardedDut::new(chain, ShardConfig::new(4), &cfg);
        dut.attach_telemetry(TelemetryConfig::new(256));
        let m = dut.run(&wl, &cfg);
        let reg = dut.telemetry().expect("registry recorded");

        // The measured view reconciles with the measurement surface to the
        // cycle: registry totals == aggregate counters.
        let agg = m.aggregate_counters();
        assert_eq!(
            reg.counter_total("exec.measured_packets"),
            m.measured_packets() as u64
        );
        assert_eq!(reg.counter_total("exec.measured_cycles"), agg.cycles);
        assert_eq!(
            reg.counter_total("exec.measured_instructions"),
            agg.instructions
        );
        assert_eq!(reg.counter_total("exec.measured_l3_misses"), agg.l3_misses);
        // The all-packet view covers every input packet exactly once.
        assert_eq!(reg.counter_total("exec.packets"), cfg.total_packets as u64);
        assert_eq!(
            reg.counter_total("dispatch.packets"),
            cfg.total_packets as u64
        );
        // Per-core counters reconcile with the per-core measurements.
        for (c, core) in m.per_core.iter().enumerate() {
            assert_eq!(
                reg.counter_total(&format!("core{c}.measured_packets")),
                core.packets() as u64,
                "core {c} measured packets"
            );
            assert_eq!(
                reg.counter_total(&format!("core{c}.measured_cycles")),
                core.end_to_end.iter().map(|x| x.cycles).sum::<u64>(),
                "core {c} measured cycles"
            );
            assert_eq!(
                reg.counter_total(&format!("core{c}.packets")),
                core.dispatched as u64,
                "core {c} executed == dispatched without stealing"
            );
            // The latency histogram saw exactly the measured samples.
            let h = reg
                .histogram(&format!("core{c}.latency_ns"))
                .expect("latency histogram")
                .cumulative();
            assert_eq!(h.count(), core.latency_ns.len() as u64);
        }
        // Per-epoch deltas sum back to the totals. Dispatch is counted at
        // arrival, so every full epoch carries exactly the configured
        // packet count; execution lags by the in-flight batches (telemetry
        // seals do not drain), so only its sum is pinned.
        let dispatch = reg.counter("dispatch.packets").expect("series");
        let full_epochs = cfg.total_packets / 256;
        for e in 0..full_epochs as u64 {
            assert_eq!(dispatch.delta_at(e), 256, "epoch {e} dispatch delta");
        }
        let exec = reg.counter("exec.packets").expect("series");
        assert_eq!(
            exec.epochs().iter().map(|&(_, d)| d).sum::<u64>(),
            cfg.total_packets as u64
        );
    }

    #[test]
    fn closed_loop_detection_catches_skew_and_recovers() {
        use castan_runtime::{skew_packets, RebalancePolicy, RssDispatcher};
        use castan_telemetry::detector::{AttackSignature, Baseline, DetectorConfig};

        let chain = chain_by_id(ChainId::Nop3);
        let cfg = MeasurementConfig {
            total_packets: 480,
            warmup_packets: 48,
            ..quick()
        };
        let shard = ShardConfig::new(4);
        let telemetry = TelemetryConfig::new(60);

        // Learn the benign envelope from a uniform reference run.
        let base = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig::scaled(0.0005),
        );
        let mut benign = ShardedDut::new(chain.clone(), shard, &cfg);
        benign.attach_telemetry(telemetry);
        benign.run(&base, &cfg);
        let benign_reg = benign.take_telemetry().expect("benign registry");
        let detector = DetectorConfig::with_baseline(Baseline::learn(&[&benign_reg], 32));

        // Zero false positives on a *different* benign trace.
        let other = generic_chain_workload(
            &chain,
            WorkloadKind::UniRand,
            &WorkloadConfig {
                seed: 0xBEEF,
                ..WorkloadConfig::scaled(0.0005)
            },
        );
        let mut honest = ShardedDut::new(chain.clone(), shard, &cfg);
        honest.attach_telemetry(telemetry);
        honest.set_detection(Some(DetectionConfig {
            detector,
            response: None,
        }));
        honest.run(&other, &cfg);
        let rep = honest.detection_report().expect("report");
        assert!(
            rep.alarms.is_empty(),
            "benign traffic must not alarm: {:?}",
            rep.alarms
        );
        assert!(rep.polls > 0);
        assert_eq!(
            rep.overhead_cycles,
            rep.polls * 4 * DETECT_POLL_CYCLES,
            "every poll charges every core"
        );

        // The fingerprinted skew: detect-only flags it within 3 epochs.
        let skew = skew_packets(&base.packets, &RssDispatcher::new(shard.rss), 0);
        let wl = castan_workload::Workload {
            kind: WorkloadKind::RssSkew,
            packets: skew.packets,
        };
        let plain = measure_sharded(&chain, shard, &wl, &cfg);
        let mut watched = ShardedDut::new(chain.clone(), shard, &cfg);
        watched.attach_telemetry(telemetry);
        watched.set_detection(Some(DetectionConfig {
            detector,
            response: None,
        }));
        let detect_only = watched.run(&wl, &cfg);
        let rep = watched.detection_report().expect("report");
        let epochs = rep.epochs_to_detect().expect("skew must be flagged");
        assert!(epochs <= 3, "took {epochs} epochs");
        assert!(rep
            .alarms
            .iter()
            .any(|a| a.signature == AttackSignature::QueueSkew));
        assert!(
            rep.activated_epoch.is_none(),
            "no response configured, nothing to activate"
        );
        // Detect-only still pins the whole skew on one core.
        assert!(detect_only.bottleneck_share() > 0.99);

        // Closed loop: the first alarm switches rebalancing on mid-run and
        // recovers real throughput over the unmitigated attacked arm.
        let mut closed = ShardedDut::new(chain, shard, &cfg);
        closed.attach_telemetry(telemetry);
        closed.set_detection(Some(DetectionConfig {
            detector,
            response: Some(MitigationConfig::rebalance(
                60,
                RebalancePolicy::LeastLoaded,
            )),
        }));
        let m = closed.run(&wl, &cfg);
        let rep = closed.detection_report().expect("report");
        assert!(
            rep.activated_epoch.is_some(),
            "the alarm activated the response"
        );
        assert!(
            m.table_history.len() > 1,
            "the activated mitigation rebalanced the table"
        );
        assert!(
            m.bottleneck_share() < 0.7,
            "activated rebalancing spreads the skew: share {}",
            m.bottleneck_share()
        );
        assert!(
            m.aggregate_mpps() > 1.5 * plain.aggregate_mpps(),
            "closed loop {:.2} Mpps must recover over unmitigated {:.2} Mpps",
            m.aggregate_mpps(),
            plain.aggregate_mpps()
        );
        // The detector's work is charged, and visible in busy time.
        assert!(rep.overhead_cycles > 0);
        let detection: u64 = m.per_core.iter().map(|c| c.detection_cycles).sum();
        assert_eq!(detection, rep.overhead_cycles);
        // The registry narrates the episode: alarm, activation, rebalance.
        let reg = closed.telemetry().expect("registry");
        let kinds: Vec<EventKind> = reg.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::DetectorAlarm));
        assert!(kinds.contains(&EventKind::MitigationActivated));
        assert!(kinds.contains(&EventKind::Rebalance));
    }

    #[test]
    fn per_core_latency_cdfs_pin_the_idle_core_contract() {
        // Pinned contract: an idle core (no measured packets, e.g. under
        // full queue skew) yields an *empty* CDF whose quantiles are all
        // NaN, and a one-packet core answers that packet's latency at
        // every quantile — downstream plotting code must not have to
        // special-case either.
        let m = ShardedMeasurement {
            per_core: vec![
                CoreMeasurement {
                    latency_ns: vec![100.0, 300.0, 200.0],
                    ..CoreMeasurement::default()
                },
                CoreMeasurement::default(),
                CoreMeasurement {
                    latency_ns: vec![42.0],
                    ..CoreMeasurement::default()
                },
            ],
            batch_size: 32,
            clock_hz: 3_200_000_000,
            table_history: vec![vec![0, 1, 2]],
        };
        let cdfs = m.per_core_latency_cdfs();
        assert_eq!(cdfs.len(), 3);
        assert_eq!(cdfs[0].median(), 200.0);
        assert!(cdfs[1].is_empty());
        assert!(cdfs[1].quantile(0.5).is_nan() && cdfs[1].max().is_nan());
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(cdfs[2].quantile(p), 42.0, "quantile({p})");
        }
    }
}
