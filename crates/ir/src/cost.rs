//! Instruction cost classes and the execution-sink interface.
//!
//! The paper's analysis assigns "a fixed per-instruction cost learned
//! empirically" to non-memory instructions and "a fixed per-memory-level
//! cost" to memory accesses (§3.3). The concrete testbed charges the same
//! per-instruction base costs and routes memory accesses through the
//! `castan-mem` hierarchy; the analysis-time cost heuristic in `castan-core`
//! reuses the identical table so that estimated and measured cycles are
//! directly comparable.

/// Coarse instruction classes with distinct base costs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CostClass {
    /// Register move / constant materialisation.
    Mov,
    /// ALU operation.
    Alu,
    /// Comparison producing a flag.
    Cmp,
    /// Conditional select.
    Select,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// Function call overhead.
    Call,
    /// Function return overhead.
    Return,
    /// Hash-function application (modelled as a short fixed sequence of ALU
    /// work, like the inlined flow hashes in DPDK NFs).
    Hash,
    /// Packet header field read (served from the NIC-filled cache line via
    /// DDIO, hence cheap and uniform across workloads — §3.3).
    PacketRead,
    /// A load; the memory system adds the level-dependent latency on top.
    Load,
    /// A store; the memory system adds the level-dependent latency on top.
    Store,
    /// A native helper invocation (its internal work reports separately).
    Native,
}

impl CostClass {
    /// Base cost in cycles, excluding any memory-hierarchy latency.
    pub fn base_cycles(self) -> u64 {
        match self {
            CostClass::Mov => 1,
            CostClass::Alu => 1,
            CostClass::Cmp => 1,
            CostClass::Select => 1,
            CostClass::Branch => 2,
            CostClass::Jump => 1,
            CostClass::Call => 3,
            CostClass::Return => 3,
            CostClass::Hash => 12,
            CostClass::PacketRead => 2,
            CostClass::Load => 1,
            CostClass::Store => 1,
            CostClass::Native => 2,
        }
    }

    /// True for classes that retire as "instructions" in the per-packet
    /// instruction counter (all of them do; kept for clarity at call sites).
    pub fn counts_as_instruction(self) -> bool {
        true
    }
}

/// Receives execution events from the interpreter (and from native helpers).
///
/// Implementations: the testbed's CPU model (charges cycles and walks the
/// cache hierarchy), plain counters for tests, and [`NullSink`].
pub trait ExecSink {
    /// An instruction of the given class retired.
    fn retire(&mut self, class: CostClass);
    /// A data-memory access of `width` bytes at `addr` occurred.
    fn mem_access(&mut self, addr: u64, width: u64, is_write: bool);
    /// The interpreter is about to run a native helper; every event until
    /// the matching [`native_exit`](ExecSink::native_exit) originates inside
    /// it. Sinks that separate IR-level from helper-internal accounting
    /// override these; the defaults keep both mixed (the historical
    /// behaviour).
    fn native_enter(&mut self) {}
    /// The native helper returned.
    fn native_exit(&mut self) {}
}

/// A borrowed sink is a sink: lets code generic over `S: ExecSink` hand its
/// sink on as `&mut dyn ExecSink` (native helpers take one).
impl<S: ExecSink + ?Sized> ExecSink for &mut S {
    #[inline]
    fn retire(&mut self, class: CostClass) {
        (**self).retire(class)
    }
    #[inline]
    fn mem_access(&mut self, addr: u64, width: u64, is_write: bool) {
        (**self).mem_access(addr, width, is_write)
    }
    fn native_enter(&mut self) {
        (**self).native_enter()
    }
    fn native_exit(&mut self) {
        (**self).native_exit()
    }
}

/// A sink that ignores everything (pure functional execution).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ExecSink for NullSink {
    fn retire(&mut self, _class: CostClass) {}
    fn mem_access(&mut self, _addr: u64, _width: u64, _is_write: bool) {}
}

/// A sink that counts events; convenient in tests and micro-benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Instructions retired.
    pub instructions: u64,
    /// Loads observed.
    pub loads: u64,
    /// Stores observed.
    pub stores: u64,
    /// Sum of base cycles of retired instructions.
    pub base_cycles: u64,
}

impl ExecSink for CountingSink {
    fn retire(&mut self, class: CostClass) {
        self.instructions += 1;
        self.base_cycles += class.base_cycles();
    }

    fn mem_access(&mut self, _addr: u64, _width: u64, is_write: bool) {
        if is_write {
            self.stores += 1;
        } else {
            self.loads += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_costs_are_positive_and_hash_is_expensive() {
        let classes = [
            CostClass::Mov,
            CostClass::Alu,
            CostClass::Cmp,
            CostClass::Select,
            CostClass::Branch,
            CostClass::Jump,
            CostClass::Call,
            CostClass::Return,
            CostClass::Hash,
            CostClass::PacketRead,
            CostClass::Load,
            CostClass::Store,
            CostClass::Native,
        ];
        for c in classes {
            assert!(c.base_cycles() >= 1);
            assert!(c.counts_as_instruction());
        }
        assert!(CostClass::Hash.base_cycles() > CostClass::Alu.base_cycles());
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        s.retire(CostClass::Alu);
        s.retire(CostClass::Load);
        s.mem_access(0x10, 8, false);
        s.mem_access(0x18, 8, true);
        assert_eq!(s.instructions, 2);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.base_cycles, 2);
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut s = NullSink;
        s.retire(CostClass::Hash);
        s.mem_access(0, 8, true);
    }
}
