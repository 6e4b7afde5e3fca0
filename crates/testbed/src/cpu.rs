//! The DUT's CPU cost model: an [`ExecSink`] ([`CoreSink`]) that charges
//! instruction base costs and routes every data-memory access through the
//! simulated cache hierarchy, accumulating the per-packet counters the
//! evaluation reports (reference cycles, instructions retired, L3 misses).

use castan_ir::{BlockCost, CostClass, ExecSink};
use castan_mem::{AccessKind, MultiCoreHierarchy};

/// Per-packet performance counters (what libPAPI reads out in §5.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketCounters {
    /// Reference cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// L3 misses (DRAM accesses).
    pub l3_misses: u64,
}

impl std::ops::AddAssign for PacketCounters {
    fn add_assign(&mut self, other: PacketCounters) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.loads += other.loads;
        self.stores += other.stores;
        self.l3_misses += other.l3_misses;
    }
}

/// The CPU model: one [`MultiCoreHierarchy`] shared by N simulated cores
/// (N = 1 is the paper's single-core DUT) and the in-flight per-packet
/// counters. The simulation executes one packet at a time (cores interleave
/// at packet granularity), so a single in-flight counter block suffices;
/// per-core attribution happens in the hierarchy (memory statistics) and in
/// the DUT (packet counters).
#[derive(Debug)]
pub struct MultiCoreCpu {
    hierarchy: MultiCoreHierarchy,
    current: PacketCounters,
}

impl MultiCoreCpu {
    /// Creates a multi-core CPU model around a shared hierarchy.
    pub fn new(hierarchy: MultiCoreHierarchy) -> Self {
        MultiCoreCpu {
            hierarchy,
            current: PacketCounters::default(),
        }
    }

    /// Clock frequency in Hz (all cores share one clock domain).
    pub fn clock_hz(&self) -> u64 {
        self.hierarchy.config().clock_hz
    }

    /// Number of simulated cores.
    pub fn n_cores(&self) -> usize {
        self.hierarchy.n_cores()
    }

    /// Starts a new packet: clears the per-packet counters (cache state is
    /// deliberately retained).
    pub fn begin_packet(&mut self) {
        self.current = PacketCounters::default();
    }

    /// Counters accumulated since `begin_packet`.
    pub fn packet_counters(&self) -> PacketCounters {
        self.current
    }

    /// Flushes every cache level of every core.
    pub fn flush_caches(&mut self) {
        self.hierarchy.flush_caches();
    }

    /// Resets the hierarchy's per-core statistics.
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
    }

    /// Access to the underlying hierarchy (read-only statistics).
    pub fn hierarchy(&self) -> &MultiCoreHierarchy {
        &self.hierarchy
    }

    /// Mutable access to the underlying hierarchy — what the sharded DUT's
    /// page premapping, line-heat profiling and noisy-neighbour replay go
    /// through (accesses issued here are charged to their core exactly like
    /// packet work, but bypass the per-packet counters).
    pub fn hierarchy_mut(&mut self) -> &mut MultiCoreHierarchy {
        &mut self.hierarchy
    }

    /// An [`ExecSink`] view bound to one core and one address-space base:
    /// instruction costs accrue to the shared per-packet counters, memory
    /// accesses are shifted by `base` and charged to `core` in the shared
    /// hierarchy.
    pub fn sink(&mut self, core: usize, base: u64) -> CoreSink<'_> {
        debug_assert!(core < self.hierarchy.n_cores());
        CoreSink {
            cpu: self,
            core,
            base,
        }
    }
}

/// The per-(core, stage) execution sink of a [`MultiCoreCpu`].
pub struct CoreSink<'a> {
    cpu: &'a mut MultiCoreCpu,
    core: usize,
    base: u64,
}

impl ExecSink for CoreSink<'_> {
    fn retire(&mut self, class: CostClass) {
        self.cpu.current.instructions += 1;
        self.cpu.current.cycles += class.base_cycles();
    }

    fn retire_block(&mut self, cost: &BlockCost) {
        self.cpu.current.instructions += cost.instructions();
        self.cpu.current.cycles += cost.base_cycles();
    }

    fn mem_access(&mut self, addr: u64, _width: u64, is_write: bool) {
        if is_write {
            self.cpu.current.stores += 1;
        } else {
            self.cpu.current.loads += 1;
        }
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let outcome = self.cpu.hierarchy.access(self.core, self.base + addr, kind);
        self.cpu.current.cycles += outcome.cycles;
        if outcome.served_by == castan_mem::hierarchy::ServedBy::Dram {
            self.cpu.current.l3_misses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castan_mem::HierarchyConfig;

    #[test]
    fn multicore_sinks_charge_the_issuing_core() {
        let hierarchy = MultiCoreHierarchy::new(HierarchyConfig::tiny_for_tests(), 1, 2);
        let mut cpu = MultiCoreCpu::new(hierarchy);
        cpu.begin_packet();
        cpu.sink(0, 0).mem_access(0x1000, 8, false);
        let c0 = cpu.packet_counters();
        assert_eq!(c0.l3_misses, 1, "cold access on core 0 goes to DRAM");
        cpu.begin_packet();
        cpu.sink(1, 0).mem_access(0x1000, 8, false);
        let c1 = cpu.packet_counters();
        assert_eq!(c1.l3_misses, 0, "core 1 hits the shared L3");
        assert_eq!(cpu.hierarchy().core_stats(0).accesses, 1);
        assert_eq!(cpu.hierarchy().core_stats(1).accesses, 1);
        assert_eq!(cpu.hierarchy().aggregate_stats().l3_misses, 1);
    }

    #[test]
    fn sink_base_offsets_separate_address_spaces() {
        let hierarchy = MultiCoreHierarchy::new(HierarchyConfig::tiny_for_tests(), 1, 2);
        let mut cpu = MultiCoreCpu::new(hierarchy);
        cpu.begin_packet();
        cpu.sink(0, 0).mem_access(0x2000, 8, false);
        cpu.begin_packet();
        // Same stage-local address, different base: a distinct line.
        cpu.sink(1, 1 << 30).mem_access(0x2000, 8, false);
        assert_eq!(cpu.packet_counters().l3_misses, 1, "offset access is cold");
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let hierarchy = MultiCoreHierarchy::new(HierarchyConfig::xeon_e5_2667v2(), 1, 1);
        let mut cpu = MultiCoreCpu::new(hierarchy);
        cpu.begin_packet();
        let mut sink = cpu.sink(0, 0);
        sink.retire(CostClass::Alu);
        sink.retire(CostClass::Load);
        sink.mem_access(0x5000_0000, 8, false);
        let c = cpu.packet_counters();
        assert_eq!(c.instructions, 2);
        assert_eq!(c.loads, 1);
        assert_eq!(c.l3_misses, 1, "cold access goes to DRAM");
        assert!(c.cycles >= 200);

        cpu.begin_packet();
        cpu.sink(0, 0).mem_access(0x5000_0000, 8, false);
        let c2 = cpu.packet_counters();
        assert_eq!(c2.l3_misses, 0, "cache state persists across packets");
        assert!(c2.cycles < c.cycles);
        assert_eq!(cpu.clock_hz(), 3_300_000_000);
    }
}
