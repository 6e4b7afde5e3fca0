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
}

/// What one basic block retires when it runs to its end: the class of each
/// instruction in block order, then the terminator's, and their sums.
///
/// Built once per program, by [`Program::new`]; the interpreter hands it to
/// [`ExecSink::retire_block`] as the block is entered.
///
/// [`Program::new`]: crate::Program::new
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockCost {
    classes: Box<[CostClass]>,
    base_cycles: u64,
}

impl BlockCost {
    /// Instructions the block retires, its terminator included.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.classes.len() as u64
    }

    /// Sum of the base cycles of every class the block retires.
    #[inline]
    pub fn base_cycles(&self) -> u64 {
        self.base_cycles
    }

    /// The retired classes, instructions in block order, then the
    /// terminator.
    pub(crate) fn classes(&self) -> &[CostClass] {
        &self.classes
    }
}

impl FromIterator<CostClass> for BlockCost {
    fn from_iter<I: IntoIterator<Item = CostClass>>(iter: I) -> Self {
        let classes: Box<[CostClass]> = iter.into_iter().collect();
        let base_cycles = classes.iter().map(|c| c.base_cycles()).sum();
        BlockCost {
            classes,
            base_cycles,
        }
    }
}

/// Receives execution events from the interpreter (and from native helpers).
///
/// The contract: the interpreter charges IR instructions a whole basic block
/// at a time, through one [`retire_block`](ExecSink::retire_block) as the
/// block is entered — before any of the block's memory accesses, calls or
/// native helpers run — while a native helper reports its internal work one
/// instruction at a time through [`retire`](ExecSink::retire), between
/// [`native_enter`](ExecSink::native_enter) and
/// [`native_exit`](ExecSink::native_exit). A sink that only sums what it is
/// charged sees the same totals per packet either way; a sink that needs
/// each retirement in program order relative to memory accesses cannot have
/// it from the interpreter.
///
/// Implementations: the testbed's CPU model (charges cycles and walks the
/// cache hierarchy), plain counters for tests, and [`NullSink`].
pub trait ExecSink {
    /// An instruction of the given class retired.
    fn retire(&mut self, class: CostClass);
    /// A basic block was entered and will retire every class in `cost`.
    /// The default reports each class to [`retire`](ExecSink::retire) in
    /// block order; sinks that only sum override it with the totals.
    fn retire_block(&mut self, cost: &BlockCost) {
        for &class in cost.classes() {
            self.retire(class);
        }
    }
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
    fn retire_block(&mut self, cost: &BlockCost) {
        (**self).retire_block(cost)
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
    fn retire_block(&mut self, _cost: &BlockCost) {}
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

    fn retire_block(&mut self, cost: &BlockCost) {
        self.instructions += cost.instructions();
        self.base_cycles += cost.base_cycles();
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
    fn a_block_charge_is_its_classes_retired_in_order() {
        let cost: BlockCost = [CostClass::Load, CostClass::Hash, CostClass::Branch]
            .into_iter()
            .collect();
        assert_eq!(cost.instructions(), 3);
        assert_eq!(cost.base_cycles(), 1 + 12 + 2);

        /// Keeps only the per-class calls, so it sees the default.
        struct Classes(Vec<CostClass>);
        impl ExecSink for Classes {
            fn retire(&mut self, class: CostClass) {
                self.0.push(class);
            }
            fn mem_access(&mut self, _addr: u64, _width: u64, _is_write: bool) {}
        }
        let mut seen = Classes(Vec::new());
        seen.retire_block(&cost);
        assert_eq!(seen.0, cost.classes());

        let mut summed = CountingSink::default();
        summed.retire_block(&cost);
        let mut per_class = CountingSink::default();
        for &class in cost.classes() {
            per_class.retire(class);
        }
        assert_eq!(summed, per_class);
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut s = NullSink;
        s.retire(CostClass::Hash);
        s.mem_access(0, 8, true);
    }
}
