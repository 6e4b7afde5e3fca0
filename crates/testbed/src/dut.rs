//! What a measurement run is configured with and the flat, single-stream
//! view of what it measured — the input of the CDF tooling and the
//! throughput search. The run loop itself is [`crate::shard::ShardedDut`].

use crate::cpu::PacketCounters;
use crate::stats::Cdf;

/// Measurement parameters.
#[derive(Clone, Copy, Debug)]
pub struct MeasurementConfig {
    /// Total packets to run through the DUT (the trace is replayed in a loop
    /// if it is shorter, exactly like the paper's 20-second replays).
    pub total_packets: usize,
    /// Packets at the start excluded from the reported statistics (cache
    /// warm-up; the hardware testbed's first seconds play the same role).
    pub warmup_packets: usize,
    /// Measurement-noise seed (latency jitter of the NIC/driver path).
    pub seed: u64,
    /// Boot seed of the DUT's page table.
    pub boot_seed: u64,
}

impl Default for MeasurementConfig {
    fn default() -> Self {
        MeasurementConfig {
            total_packets: 60_000,
            warmup_packets: 5_000,
            seed: 7,
            boot_seed: 1,
        }
    }
}

impl MeasurementConfig {
    /// A small configuration for tests.
    pub fn quick() -> Self {
        MeasurementConfig {
            total_packets: 3_000,
            warmup_packets: 300,
            ..Default::default()
        }
    }
}

/// Everything measured from one workload run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// End-to-end latency samples in nanoseconds.
    pub latency_ns: Vec<f64>,
    /// Per-packet counters (cycles, instructions, loads/stores, L3 misses).
    pub counters: Vec<PacketCounters>,
    /// Per-packet DUT service time in nanoseconds (input to the throughput
    /// search).
    pub service_ns: Vec<f64>,
}

impl Measurement {
    /// Latency CDF.
    pub fn latency_cdf(&self) -> Cdf {
        Cdf::new(self.latency_ns.clone())
    }

    /// Reference-cycles CDF.
    pub fn cycles_cdf(&self) -> Cdf {
        Cdf::new(self.counters.iter().map(|c| c.cycles as f64).collect())
    }

    /// Median reference cycles per packet.
    pub fn median_cycles(&self) -> f64 {
        crate::stats::median_u64(&self.counters.iter().map(|c| c.cycles).collect::<Vec<_>>())
    }

    /// Median instructions retired per packet.
    pub fn median_instructions(&self) -> f64 {
        crate::stats::median_u64(
            &self
                .counters
                .iter()
                .map(|c| c.instructions)
                .collect::<Vec<_>>(),
        )
    }

    /// Median L3 misses per packet.
    pub fn median_l3_misses(&self) -> f64 {
        crate::stats::median_u64(
            &self
                .counters
                .iter()
                .map(|c| c.l3_misses)
                .collect::<Vec<_>>(),
        )
    }

    /// Median latency in nanoseconds.
    pub fn median_latency_ns(&self) -> f64 {
        self.latency_cdf().median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use castan_nf::{nf_by_id, NfId};
    use castan_workload::{generic_workload, WorkloadConfig, WorkloadKind};

    fn quick() -> MeasurementConfig {
        MeasurementConfig::quick()
    }

    #[test]
    fn nop_latency_sits_at_the_wire_baseline() {
        let nf = nf_by_id(NfId::Nop);
        let w = generic_workload(&nf, WorkloadKind::OnePacket, &WorkloadConfig::scaled(0.01));
        let m = measure(&nf, &w, &quick());
        let median = m.median_latency_ns();
        assert!(
            (4_000.0..4_800.0).contains(&median),
            "NOP median latency should sit near the wire baseline, got {median}"
        );
        assert_eq!(m.median_instructions(), 271.0);
        assert_eq!(m.median_l3_misses(), 1.0);
    }

    #[test]
    fn unirand_hurts_the_direct_lookup_lpm_more_than_zipf() {
        // The core result of Fig. 4: uniform traffic over the 512 MiB table
        // misses the L3 while Zipfian traffic does not.
        let nf = nf_by_id(NfId::LpmDirect1);
        let wl_cfg = WorkloadConfig::scaled(0.02);
        let zipf = generic_workload(&nf, WorkloadKind::Zipfian, &wl_cfg);
        let uni = generic_workload(&nf, WorkloadKind::UniRand, &wl_cfg);
        let cfg = quick();
        let m_zipf = measure(&nf, &zipf, &cfg);
        let m_uni = measure(&nf, &uni, &cfg);
        assert!(
            m_uni.median_l3_misses() > m_zipf.median_l3_misses(),
            "uniform traffic must miss more: {} vs {}",
            m_uni.median_l3_misses(),
            m_zipf.median_l3_misses()
        );
        assert!(m_uni.median_latency_ns() > m_zipf.median_latency_ns());
    }

    #[test]
    fn skewed_manual_workload_hurts_the_unbalanced_tree_nat() {
        let nf = nf_by_id(NfId::NatUnbalancedTree);
        let wl_cfg = WorkloadConfig::scaled(0.01);
        let zipf = generic_workload(&nf, WorkloadKind::Zipfian, &wl_cfg);
        let manual = castan_workload::manual_workload(&nf).unwrap();
        let cfg = quick();
        let m_zipf = measure(&nf, &zipf, &cfg);
        let m_manual = measure(&nf, &manual, &cfg);
        assert!(
            m_manual.median_instructions() > 1.5 * m_zipf.median_instructions(),
            "tree skew should blow up the instruction count: {} vs {}",
            m_manual.median_instructions(),
            m_zipf.median_instructions()
        );
    }
}
