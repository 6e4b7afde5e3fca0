//! # castan-testbed
//!
//! The simulated measurement testbed standing in for the paper's hardware
//! setup (§5.1): a device under test (DUT) on a simulated Xeon E5-2667v2
//! (CPU cost model + `castan-mem` cache hierarchy), and a traffic generator
//! (TG) that replays workload traces, measures per-packet end-to-end
//! latency against a NOP baseline, derives the maximum throughput at <1 %
//! loss, and reads back the per-packet performance counters (reference
//! cycles, instructions retired, L3 misses).
//!
//! There is one DUT, [`ShardedDut`]: an RSS dispatcher (`castan-runtime`)
//! flow-hashes packets onto N simulated cores, each running a private
//! instance of an NF chain on per-core L1/L2 levels in front of one shared
//! L3 ([`castan_mem::MultiCoreHierarchy`]), with batched dispatch and
//! per-core + aggregate measurements. The paper's setup — one NF, one core,
//! every packet paying the whole forwarding overhead — is its smallest
//! configuration: a chain of one at [`ShardConfig::unbatched`]`(1)`, which
//! is what [`measure`] runs.
//!
//! Absolute numbers are calibrated only loosely against the paper's testbed
//! (the NOP forwarding overhead and the 3.3 GHz clock); what the
//! reproduction targets is the *relative* behaviour of workloads per NF —
//! who is slower, by roughly what factor, and why (instructions vs misses).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod dut;
pub mod shard;
pub mod stats;
pub mod throughput;

pub use cpu::{CoreSink, MultiCoreCpu, PacketCounters};
pub use dut::{Measurement, MeasurementConfig};
pub use shard::{
    measure, measure_chain, measure_sharded, victim_table, CoreMeasurement, DetectionConfig,
    DetectionReport, MitigationConfig, NeighborReplay, ShardConfig, ShardedDut, ShardedMeasurement,
    TelemetryConfig, DETECT_POLL_CYCLES, MIGRATION_LINES_PER_FLOW, STEAL_BATCH_CYCLES,
    STEAL_THRESHOLD_CYCLES,
};
pub use stats::Cdf;
pub use throughput::{max_throughput_mpps, ThroughputConfig};

/// Fixed per-packet forwarding overhead (DPDK + driver + NIC) in CPU cycles,
/// calibrated so the NOP NF forwards at ≈3.45 Mpps as in Table 1.
///
/// Decomposed as [`BATCH_DISPATCH_CYCLES`] + [`PACKET_FORWARD_CYCLES`]: the
/// unbatched DUTs pay both per packet (a batch of one), the sharded runtime
/// pays the dispatch component once per batch.
pub const FORWARDING_OVERHEAD_CYCLES: u64 = 950;

/// The dispatch share of [`FORWARDING_OVERHEAD_CYCLES`]: RX-queue doorbell,
/// descriptor refill and RSS-queue bookkeeping, paid once per *batch* by the
/// batched runtime (`castan_testbed::shard`).
pub const BATCH_DISPATCH_CYCLES: u64 = 600;

/// The remaining per-packet share of [`FORWARDING_OVERHEAD_CYCLES`]: header
/// fetch, mbuf handling and TX, paid per packet regardless of batching.
pub const PACKET_FORWARD_CYCLES: u64 = FORWARDING_OVERHEAD_CYCLES - BATCH_DISPATCH_CYCLES;

/// Fixed per-packet overhead in retired instructions (Table 2 reports 271
/// instructions per packet for the NOP).
pub const FORWARDING_OVERHEAD_INSTRUCTIONS: u64 = 270;

/// Fixed per-packet L3 misses of the forwarding path (Table 3: NOP = 1).
pub const FORWARDING_OVERHEAD_MISSES: u64 = 1;

/// Wire, NIC and timestamping latency included in every end-to-end latency
/// sample (the NOP CDF sits around 4.3 µs in Figs. 4–15).
pub const WIRE_LATENCY_NS: f64 = 4_050.0;
