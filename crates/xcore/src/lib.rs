//! # castan-xcore
//!
//! Cross-core contention discovery and eviction planning over the shared,
//! inclusive, sliced L3 of the multi-core runtime.
//!
//! The paper's §3.2 reverse-engineers *contention sets* — groups of
//! addresses that collide in one (slice, set) bucket of the L3 — by timing
//! pointer-chase probes on a single core. Since the testbed grew a
//! multi-core RSS runtime (`castan-mem::multicore`, `castan-testbed::shard`),
//! the same physical L3 is shared by every core, and inclusivity makes it a
//! *second adversarial surface*: filling a bucket from one core
//! back-invalidates the colliding lines out of every other core's private
//! L1/L2. This crate weaponizes that:
//!
//! * Discovery — the §3.2 pointer-chase probe and three-step discovery
//!   algorithm are `castan-mem`'s, which run from an arbitrary *prober
//!   core* of a [`MultiCoreHierarchy`](castan_mem::MultiCoreHierarchy):
//!   probes charge through the prober's private levels into the shared L3,
//!   which is how a neighbour core observes contention with a victim
//!   core's lines. They are re-exported here ([`discover_catalog_from`],
//!   [`ground_truth_catalog_on`]); [`discover`] adds the cross-core
//!   consistency check — catalogues probed from different cores agree.
//! * [`plan`] — the chain-aware feedback into analysis: map a victim
//!   chain's hot state (per-line heat of the striped per-core stage
//!   regions the sharded DUT assigns) onto the discovered buckets and emit
//!   a ranked [`EvictionPlan`] — which attacker-core lines to touch to
//!   evict which victim-stage lines. The plan drives both the
//!   noisy-neighbour replay mode of `castan-testbed::shard` and the
//!   packet-only synthesis of `castan-core::rss::analyze_chain_cross_core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discover;
pub mod plan;

pub use castan_mem::contention::{
    discover_catalog as discover_catalog_from, ground_truth_catalog_on,
};
pub use discover::consistent_across_cores;
pub use plan::{
    build_eviction_plan, premap_deployment, random_neighbor_lines, EvictionPlan, HotLineMap,
    PlanEntry, XCoreConfig,
};
