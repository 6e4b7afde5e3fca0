//! # castan-core
//!
//! CASTAN itself: Cycle Approximating Symbolic Timing Analysis for Network
//! Functions — the paper's primary contribution.
//!
//! Given an NF (as a `castan-ir` program plus its initial memory) and a
//! processor cache model (contention sets discovered by `castan-mem`), the
//! analysis symbolically executes a sequence of N symbolic packets,
//! prioritising the execution states expected to consume the most CPU cycles
//! per packet, and finally resolves the best state's path constraint into a
//! concrete adversarial packet sequence (a PCAP-ready workload).
//!
//! Module map (paper section → module):
//!
//! | paper | module |
//! |-------|--------|
//! | §3.1 overview, A*-like search (pluggable strategies, parallel rounds) | [`engine`], [`search`] |
//! | §3.2 cache contention sets | `castan-mem::contention` (input), [`cache`] (consumption) |
//! | §3.3 current cost & adversarial memory access | [`cache`], [`state`] |
//! | §3.4 potential cost via annotated ICFG, loop bound M | [`costmap`] |
//! | §3.5 hash functions, havocing, rainbow tables | [`havoc`], [`rainbow`], [`synth`] |
//! | §4 per-path CPU-model metrics output | [`report`] |
//! | service-function chains (beyond the paper) | [`chain`] |
//! | RSS queue-skew synthesis (beyond the paper) | [`rss`] |
//! | search observability (beyond the paper) | [`trace`] |
//!
//! Chain analysis entry points: [`chain::analyze_chain`] runs the per-stage
//! engine, translates stage-local path constraints to the origin packet
//! through `castan-chain`'s symbolic handoff models, greedily merges them
//! (most expensive stage first), and synthesizes one origin-packet sequence
//! maximizing total chain cycles; [`engine::Castan::analyze_detailed`]
//! exposes the chosen per-stage execution state the translation consumes.
//! [`rss::analyze_chain_rss_skew`] composes that with queue-skew steering:
//! the synthesized origin packets are additionally rewritten (source
//! endpoint only, via `castan-runtime`'s Toeplitz steering) so every flow
//! hashes to one victim RSS queue, collapsing a multi-core deployment to
//! roughly single-core aggregate throughput.
//!
//! The symbolic substrate (expressions, constraints, the purpose-built
//! solver, copy-on-write symbolic memory) lives in [`expr`], [`solve`], and
//! [`symmem`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chain;
pub mod costmap;
pub mod engine;
pub mod expr;
pub mod havoc;
pub mod rainbow;
pub mod report;
pub mod rss;
pub mod search;
pub mod solve;
pub mod state;
pub mod symmem;
pub mod synth;
pub mod trace;

pub use cache::{CacheModel, CacheModelKind, ContentionCacheModel, NoCacheModel};
pub use chain::{analyze_chain, analyze_chain_traced, ChainAnalysisReport};
pub use engine::{AnalysisConfig, Castan, PotentialKind};
pub use expr::{intern_stats, AtomId, AtomKind, AtomTable, InternStats, SymExpr};
pub use report::{AnalysisReport, PathMetrics};
pub use rss::{
    analyze_chain_cluster_skew, analyze_chain_cross_core, analyze_chain_rss_skew,
    ClusterSkewReport, CrossCoreChainReport, RssSkewReport,
};
pub use search::{SearchScore, SearchStrategy, SearchStrategyKind};
pub use solve::{ComponentStats, Model, SolveOutcome, Solver, SolverStats};
pub use trace::{PruneReason, SearchTrace, SlotTrace, SolverSite, TraceSpan};
