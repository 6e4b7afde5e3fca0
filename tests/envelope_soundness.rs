//! Envelope soundness, pinned by property tests.
//!
//! The static cost envelopes of `castan-analysis` claim to bracket every
//! execution the system can produce. Two independent consumers check that
//! claim here, over randomized inputs:
//!
//! * the **testbed**: concrete measured per-packet counters (cycles,
//!   instructions, memory accesses, L3 misses) of random traffic-profile
//!   workloads must lie inside the envelope, for every NF and every chain;
//! * the **engine**: the symbolic engine's predicted per-packet metrics
//!   must lie inside the envelope for every NF and any solver seed (the
//!   engine also re-checks this itself at every merge barrier and panics on
//!   violation — these tests pin the gate from the outside).

use proptest::prelude::*;

use castan_suite::analysis::engine::AnalysisConfig;
use castan_suite::analysis::Castan;
use castan_suite::chain::all_chains;
use castan_suite::envelope::{analyze_nf, chain_envelope, EnvelopeParams};
use castan_suite::mem::ContentionCatalog;
use castan_suite::nf::all_nfs;
use castan_suite::testbed::{
    measure, measure_chain, MeasurementConfig, FORWARDING_OVERHEAD_CYCLES,
    FORWARDING_OVERHEAD_INSTRUCTIONS, FORWARDING_OVERHEAD_MISSES,
};
use castan_suite::workload::{
    generic_chain_workload, generic_workload, Workload, WorkloadConfig, WorkloadKind,
};

/// Flow budget for an observed workload: the packets replay cyclically, so
/// the distinct flows of the trace bound every table's insertions.
fn flow_budget(wl: &Workload) -> u64 {
    (wl.distinct_flows() as u64).max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Measured per-packet counters of a random generic workload stay
    /// inside the static envelope, for every NF in the catalog.
    #[test]
    fn measured_nf_counters_stay_inside_the_envelope(
        seed in any::<u64>(),
        zipf in any::<bool>(),
    ) {
        let kind = if zipf { WorkloadKind::Zipfian } else { WorkloadKind::UniRand };
        let wl_cfg = WorkloadConfig { scale: 0.002, seed };
        let cfg = MeasurementConfig {
            total_packets: 400,
            warmup_packets: 40,
            seed,
            ..MeasurementConfig::quick()
        };
        for nf in all_nfs() {
            let wl = generic_workload(&nf, kind, &wl_cfg);
            let env = analyze_nf(&nf, &EnvelopeParams::new(flow_budget(&wl)));
            let m = measure(&nf, &wl, &cfg);
            for (i, c) in m.counters.iter().enumerate() {
                // The DUT charges a fixed NIC/forwarding cost on top of the
                // NF program the envelope brackets; peel it off exactly.
                let verdict = env.check_packet(
                    c.cycles - FORWARDING_OVERHEAD_CYCLES,
                    c.instructions - FORWARDING_OVERHEAD_INSTRUCTIONS,
                    c.loads + c.stores,
                    c.l3_misses - FORWARDING_OVERHEAD_MISSES,
                );
                prop_assert!(
                    verdict.is_ok(),
                    "{} ({} seed {seed}) packet {i}: {}",
                    nf.name(),
                    kind.name(),
                    verdict.unwrap_err()
                );
            }
        }
    }

    /// Measured end-to-end chain counters of a random workload stay inside
    /// the composed chain envelope, for every canonical chain: cycles and
    /// instructions within [stage-0 lower, sum-of-stages upper], memory
    /// accesses and L3 misses below the summed upper bounds.
    #[test]
    fn measured_chain_counters_stay_inside_the_composed_envelope(
        seed in any::<u64>(),
        zipf in any::<bool>(),
    ) {
        let kind = if zipf { WorkloadKind::Zipfian } else { WorkloadKind::UniRand };
        let wl_cfg = WorkloadConfig { scale: 0.002, seed };
        let cfg = MeasurementConfig {
            total_packets: 400,
            warmup_packets: 40,
            seed,
            ..MeasurementConfig::quick()
        };
        for chain in all_chains() {
            let wl = generic_chain_workload(&chain, kind, &wl_cfg);
            let env = chain_envelope(&chain, &EnvelopeParams::new(flow_budget(&wl)));
            let m = measure_chain(&chain, &wl, &cfg).as_measurement();
            for (i, c) in m.counters.iter().enumerate() {
                // The fixed NIC/forwarding cost is charged once per packet
                // for the whole chain; peel it off before checking.
                let cycles = c.cycles - FORWARDING_OVERHEAD_CYCLES;
                let instructions = c.instructions - FORWARDING_OVERHEAD_INSTRUCTIONS;
                let l3_misses = c.l3_misses - FORWARDING_OVERHEAD_MISSES;
                prop_assert!(
                    env.cycles.contains(cycles),
                    "{} packet {i}: {} cycles outside [{}, {}]",
                    chain.name(), cycles, env.cycles.lower, env.cycles.upper
                );
                prop_assert!(
                    env.instructions.contains(instructions),
                    "{} packet {i}: {} instructions outside [{}, {}]",
                    chain.name(), instructions, env.instructions.lower, env.instructions.upper
                );
                prop_assert!(
                    c.loads + c.stores <= env.mem_accesses.upper,
                    "{} packet {i}: {} accesses exceed the bound {}",
                    chain.name(), c.loads + c.stores, env.mem_accesses.upper
                );
                prop_assert!(
                    l3_misses <= env.l3_miss_upper,
                    "{} packet {i}: {} L3 misses exceed the bound {}",
                    chain.name(), l3_misses, env.l3_miss_upper
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The engine's synthesized predictions stay inside the envelope for
    /// every NF and any solver seed. The engine enforces this itself at
    /// every merge barrier (a violation panics the analysis); checking the
    /// final report from the outside pins the gate end to end.
    #[test]
    fn engine_predictions_stay_inside_the_envelope(seed in any::<u64>()) {
        for nf in all_nfs() {
            let mut cfg = AnalysisConfig::quick();
            cfg.packets = 2;
            cfg.step_budget = 6_000;
            cfg.solver.seed = seed;
            let packets = cfg.packets;
            let report = Castan::new(cfg).analyze(&nf, &ContentionCatalog::default());
            let env = analyze_nf(&nf, &EnvelopeParams::new(u64::from(packets)));
            for (i, m) in report.per_packet.iter().enumerate() {
                let verdict = env.check_packet(
                    m.est_cycles,
                    m.instructions,
                    m.loads + m.stores,
                    m.est_l3_misses,
                );
                prop_assert!(
                    verdict.is_ok(),
                    "{} (seed {seed}) packet {i}: {}",
                    nf.name(),
                    verdict.unwrap_err()
                );
            }
            prop_assert!(
                report.predicted_worst_cpp <= env.cycles.upper,
                "{}: predicted worst {} exceeds the envelope upper {}",
                nf.name(), report.predicted_worst_cpp, env.cycles.upper
            );
        }
    }
}
