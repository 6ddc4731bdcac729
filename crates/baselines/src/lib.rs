#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # baselines — the comparison schemes of the paper's frontier (§1.3)
//!
//! Four reference points the experiments measure the AGM scheme
//! against:
//!
//! | id | scheme | model | stretch | space/node | scale-free |
//! |----|--------|-------|---------|------------|------------|
//! | B1 | [`ShortestPathTables`] | name-indep. | 1 | Ω(n log n) | yes |
//! | B2 | [`HierarchicalScheme`] | name-indep. | O(k) | Õ(n^{1/k} **log Δ**) | **no** |
//! | B3 | [`LandmarkChaining`] | name-indep. | **O(2^k)-shaped** | Õ(n^{1/k}) | yes |
//! | B4 | [`TzLabeled`] | **labeled** | 4k−5 | Õ(n^{1/k}) | yes |
//!
//! B2 is the Awerbuch–Peleg \[10\] / AGM DISC'04 \[3\] line the paper
//! de-scales; B3 is the pre-2006 scale-free line (\[6, 7, 8\]) whose
//! exponential stretch Theorem 1 eliminates; B4 is the labeled-model
//! bound \[29\] that name-independent schemes chase.

pub mod exponential;
pub mod hierarchical;
pub mod shortest_path;
pub mod tz_labeled;

pub use exponential::LandmarkChaining;
pub use hierarchical::HierarchicalScheme;
pub use shortest_path::ShortestPathTables;
pub use tz_labeled::{TzLabel, TzLabeled};

// Every baseline router must stay shareable across threads so
// `sim::evaluate_parallel` can shard pair workloads over them.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<ShortestPathTables>();
    assert_sync::<HierarchicalScheme>();
    assert_sync::<LandmarkChaining>();
    assert_sync::<TzLabeled>();
};
