#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # treeroute — tree routing schemes
//!
//! The three tree-routing building blocks of the AGM SPAA'06 scheme:
//!
//! * [`labeled`] — exact routing with topology-dependent labels
//!   (Lemma 5; heavy-path variant of Fraigniaud–Gavoille /
//!   Thorup–Zwick);
//! * [`laing`] — name-independent *error-reporting* routing with
//!   j-bounded searches (Lemma 4), used on the landmark trees of sparse
//!   levels;
//! * [`cover_router`] — name-independent routing with a fixed
//!   `4·rad + 2k·maxE` budget (Lemma 7), used on the cover trees of
//!   dense levels; a [`CoverScale`] holds one scale's routers and the
//!   home table the dense strategy starts from;
//!
//! plus the shared machinery: [`names`] (Σ-ary distance-rank naming)
//! and [`hashing`] (Θ(log n)-wise independent polynomial hashing).

pub mod cover_router;
pub mod hashing;
pub mod labeled;
pub mod laing;
pub mod names;

pub use cover_router::{CoverScale, CoverTreeRouter};
pub use hashing::PolyHash;
pub use labeled::{
    LabelRef, LabeledRead, LabeledStore, LabeledTree, LabeledView, RouteLabel, Step, TreeLabel,
};
pub use laing::{ErrorReportingTree, ErtLayout, ErtRead, ErtStore, ErtView, SearchOutcome};
pub use names::{Name, Naming};

/// Nodes a route's path is allocated for up front, so one allocation
/// serves nearly every walk: on the n = 3 000 pref-attach instance the
/// scheme's routes are at most 40 nodes long at k = 2 and 74 at k = 3
/// (99th percentiles 31 and 54). Grown push by push, a path would be
/// reallocated several times per route, and glibc's `realloc` takes
/// the lock of the arena that owns the block; serving workers' blocks
/// can all sit in the main arena, and then every growth step of every
/// route in every worker queues on that one lock.
pub const PATH_CAPACITY: usize = 64;
