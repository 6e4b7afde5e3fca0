//! Maximum-throughput search (§5.1: "we vary the rate at which the TG sends
//! packets to the DUT and identify the highest rate at which the DUT drops
//! less than 1% of the packets it receives").
//!
//! The DUT is modelled as a single server with the measured per-packet
//! service times and a finite NIC/driver queue; the TG offers evenly paced
//! traffic at a candidate rate; a binary search finds the highest rate whose
//! simulated drop ratio stays below 1 %.

use crate::dut::Measurement;

/// Throughput-search parameters.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputConfig {
    /// RX-queue capacity in packets (DPDK default-ish ring size).
    pub queue_capacity: usize,
    /// Packets offered per trial rate.
    pub packets_per_trial: usize,
    /// Acceptable drop ratio (the paper uses 1 %).
    pub max_drop_ratio: f64,
    /// Binary-search iterations.
    pub iterations: u32,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            queue_capacity: 512,
            packets_per_trial: 40_000,
            max_drop_ratio: 0.01,
            iterations: 18,
        }
    }
}

/// Simulates offering `rate_mpps` to a server with the measurement's service
/// times; returns the drop ratio.
fn drop_ratio(measurement: &Measurement, rate_mpps: f64, cfg: &ThroughputConfig) -> f64 {
    let service = &measurement.service_ns;
    if service.is_empty() || rate_mpps <= 0.0 {
        return 0.0;
    }
    let inter_arrival_ns = 1e3 / rate_mpps; // 1/(Mpps) in ns
    let n = cfg.packets_per_trial;
    let mut server_free_at: f64 = 0.0;
    let mut dropped: usize = 0;
    let mut in_queue: usize = 0;
    let mut arrivals_done = 0usize;
    // Event loop: arrivals are evenly paced; the server drains the queue
    // one packet at a time with the measured (cyclic) service times.
    let mut next_service_idx = 0usize;
    while arrivals_done < n {
        let now = arrivals_done as f64 * inter_arrival_ns;
        // Drain departures that happened before this arrival.
        while in_queue > 0 && server_free_at <= now {
            in_queue -= 1;
            let s = measurement.service_ns[next_service_idx % service.len()];
            next_service_idx += 1;
            server_free_at += s;
        }
        if in_queue >= cfg.queue_capacity {
            dropped += 1;
        } else {
            if in_queue == 0 && server_free_at < now {
                server_free_at = now;
            }
            in_queue += 1;
        }
        arrivals_done += 1;
    }
    dropped as f64 / n as f64
}

/// Finds the maximum throughput (Mpps) sustaining less than the configured
/// drop ratio.
pub fn max_throughput_mpps(measurement: &Measurement, cfg: &ThroughputConfig) -> f64 {
    // Upper bound: the service-rate implied by the mean service time, plus
    // headroom; lower bound 0.
    let mean_service_ns: f64 =
        measurement.service_ns.iter().sum::<f64>() / measurement.service_ns.len().max(1) as f64;
    if mean_service_ns <= 0.0 {
        return 0.0;
    }
    let mut lo = 0.0f64;
    let mut hi = 1.2e3 / mean_service_ns; // Mpps, 20 % above the fluid limit
    for _ in 0..cfg.iterations {
        let mid = (lo + hi) / 2.0;
        if drop_ratio(measurement, mid, cfg) <= cfg.max_drop_ratio {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure, MeasurementConfig};
    use castan_nf::{nf_by_id, NfId};
    use castan_workload::{generic_workload, WorkloadConfig, WorkloadKind};

    fn quick_tp() -> ThroughputConfig {
        ThroughputConfig {
            packets_per_trial: 8_000,
            iterations: 14,
            ..Default::default()
        }
    }

    #[test]
    fn nop_throughput_matches_the_calibration_target() {
        let nf = nf_by_id(NfId::Nop);
        let w = generic_workload(&nf, WorkloadKind::OnePacket, &WorkloadConfig::scaled(0.01));
        let m = measure(&nf, &w, &MeasurementConfig::quick());
        let mpps = max_throughput_mpps(&m, &quick_tp());
        assert!(
            (3.0..3.9).contains(&mpps),
            "NOP should forward at ≈3.45 Mpps, got {mpps:.2}"
        );
    }

    #[test]
    fn slower_nfs_have_lower_throughput() {
        let cfg = MeasurementConfig::quick();
        let wl = WorkloadConfig::scaled(0.01);
        let nop = nf_by_id(NfId::Nop);
        let nat = nf_by_id(NfId::NatUnbalancedTree);
        let m_nop = measure(
            &nop,
            &generic_workload(&nop, WorkloadKind::Zipfian, &wl),
            &cfg,
        );
        let m_nat = measure(
            &nat,
            &generic_workload(&nat, WorkloadKind::Zipfian, &wl),
            &cfg,
        );
        let t_nop = max_throughput_mpps(&m_nop, &quick_tp());
        let t_nat = max_throughput_mpps(&m_nat, &quick_tp());
        assert!(
            t_nat < t_nop,
            "NAT {t_nat:.2} must be slower than NOP {t_nop:.2}"
        );
        assert!(t_nat > 0.5);
    }
}
