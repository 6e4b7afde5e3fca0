//! # castan-mem
//!
//! Memory-hierarchy simulation and cache-contention-set reverse engineering
//! for the CASTAN reproduction.
//!
//! The original paper measures on an Intel Xeon E5-2667v2 whose L3 slice
//! selection hash is proprietary; CASTAN therefore reverse-engineers
//! *contention sets* empirically by timing pointer-chase probes (§3.2 of the
//! paper). This crate rebuilds that whole stack in simulation:
//!
//! * [`config`] — cache geometry and latency parameters, including the
//!   Xeon E5-2667v2 profile used throughout the evaluation.
//! * [`page`] — 1 GiB page translation from virtual to physical addresses;
//!   remapping the page table models a process restart / machine reboot.
//! * [`cache`] — set-associative, LRU cache levels.
//! * [`mod@slice`] — the "proprietary" L3 slice-selection hash. The analysis
//!   side of the workspace never reads it; only the simulator does.
//! * [`hierarchy`] — the full L1d/L2/sliced-L3/DRAM hierarchy with cycle
//!   accounting and access statistics.
//! * [`multicore`] — N per-core private L1/L2 hierarchies in front of one
//!   shared, inclusive, sliced L3 (the substrate of the RSS runtime's
//!   sharded chain execution); the single-core [`MemoryHierarchy`] is a
//!   one-core instance of this type. Supports canonical page premapping
//!   (`map_page`) and per-core line-heat profiling (`track_heat`), the
//!   inputs of `castan-xcore`'s cross-core contention discovery.
//! * [`probe`] — pointer-chase probing-time measurement, from any prober
//!   core of a [`MultiCoreHierarchy`].
//! * [`contention`] — the three-step contention-set discovery algorithm
//!   (the workspace's only one: the paper's single-core procedure is prober
//!   0 of a one-core hierarchy, `castan-xcore` probes from an attacker
//!   core) and the multi-page / multi-reboot consistency filter, plus a
//!   ground-truth catalogue builder used as a fast path and as an accuracy
//!   oracle.
//!
//! Everything here is deterministic given the configured seeds, so tests and
//! experiments are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod contention;
pub mod hierarchy;
pub mod multicore;
pub mod page;
pub mod probe;
pub mod slice;

pub use config::{CacheGeometry, HierarchyConfig, Latencies};
pub use contention::{ContentionCatalog, ContentionSet, DiscoveryConfig};
pub use hierarchy::{AccessKind, AccessOutcome, HierarchyStats, MemoryHierarchy};
pub use multicore::MultiCoreHierarchy;
pub use page::PageTable;

/// Cache-line size used throughout the workspace (bytes).
pub const LINE_SIZE: u64 = 64;

/// Returns the cache-line address (line-aligned byte address) of `addr`.
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_SIZE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_masks_low_bits() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(0x1234_5678), 0x1234_5640);
    }
}
