//! # castan-ir
//!
//! The packet-processing intermediate representation (IR) that stands in for
//! the LLVM bitcode the original CASTAN consumes.
//!
//! The paper feeds the LLVM code of C/DPDK network functions to a modified
//! KLEE. Rust has no mature symbolic-execution stack for C targets, so this
//! workspace instead defines a compact register-based IR with exactly the
//! features the analysis cares about:
//!
//! * ordinary ALU instructions, comparisons and selects;
//! * loads and stores against a flat simulated data memory ([`memory`]);
//! * reads of symbolic packet header fields ([`inst::Inst::PacketField`]);
//! * explicit hash-function applications ([`inst::Inst::Hash`]) — the
//!   equivalent of the paper's `castan_havoc(input, output, expr)` annotation
//!   (§4): the concrete interpreter evaluates the hash, the symbolic engine
//!   havocs it;
//! * function calls, plus a small set of *native helpers* ([`native`]) for
//!   operations that are executed concretely even under analysis (the same
//!   role external/unanalyzed library calls play for KLEE);
//! * branches and returns, from which an interprocedural control-flow graph
//!   is extracted ([`mod@cfg`]) for the §3.4 potential-cost annotation.
//!
//! The same IR program is executed two ways: concretely by [`interp`] inside
//! the simulated testbed (to measure latency, cycles, instructions and L3
//! misses), and symbolically by `castan-core` (to synthesize adversarial
//! workloads). That mirrors the paper, where the deployed NF binary and the
//! analyzed LLVM bitcode come from the same source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cfg;
pub mod cost;
pub mod hashes;
pub mod inst;
pub mod interp;
pub mod memory;
pub mod native;
pub mod program;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use cfg::{Icfg, NodeId};
pub use cost::{BlockCost, CostClass, ExecSink, NullSink};
pub use hashes::HashFunc;
pub use inst::{BinOp, BlockId, CmpOp, FuncId, Inst, Operand, Reg, Terminator, Width};
pub use interp::{BlockTrace, ExecError, ExecResult, Interpreter, RunLimits};
pub use memory::DataMemory;
pub use native::{MemAccess, NativeBounds, NativeHelper, NativeId, NativeRegistry};
pub use program::{Block, Function, Program, ValidationError};
