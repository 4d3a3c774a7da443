//! # laminar-difc — the decentralized information flow control model
//!
//! A faithful, standalone implementation of the DIFC model used by
//! *Laminar: Practical Fine-Grained Decentralized Information Flow
//! Control* (Roy, Porter, Bond, McKinley, Witchel — PLDI 2009), §3.
//!
//! The model has three abstractions:
//!
//! * [`Tag`] — a short, opaque 64-bit token with no inherent meaning.
//! * [`Label`] — an immutable set of tags; subset ordering forms a
//!   lattice whose bottom is the implicit empty label of every unlabeled
//!   resource. Every data object and principal carries a [`SecPair`] of a
//!   secrecy label and an integrity label.
//! * [`Capability`] / [`CapSet`] — per-tag `t+` (classify/endorse) and
//!   `t-` (declassify/drop-endorsement) privileges held by principals.
//!
//! Information flow from `x` to `y` is legal iff `Sx ⊆ Sy` (secrecy —
//! Bell–LaPadula) and `Iy ⊆ Ix` (integrity — Biba); see
//! [`SecPair::can_flow_to`]. Principals change their own labels only
//! explicitly, under the label-change rule checked by
//! [`check_label_change`].
//!
//! This crate is pure model: it has no threads, no OS and no runtime.
//! The [`laminar-os`](https://docs.rs/laminar-os) and `laminar` crates
//! build the enforcement machinery on top of it.
//!
//! ## The hot path: interning and the flow-check cache
//!
//! Mirroring the §5 prototype's label-comparison memoization, labels
//! and pairs are *interned* ([`intern`]): each distinct tag-set has one
//! canonical allocation and a stable 32-bit id ([`LabelId`]/[`PairId`]),
//! so equality and hashing are O(1). Subset and flow verdicts are
//! memoized in a global sharded cache ([`cache`]) keyed on those ids —
//! [`Label::is_subset_of_cached`], [`SecPair::flows_to_cached`] and
//! [`SecPair::can_flow_to_cached`] are the entry points the VM
//! barriers, LSM hooks and syscall checks use, with hit/miss/insert
//! counters observable via [`flow_cache_stats`].
//!
//! ## Example: the calendar scenario of §3.3
//!
//! ```
//! use laminar_difc::{CapSet, Capability, Label, SecPair, TagAllocator};
//!
//! let tags = TagAllocator::new();
//! let a = tags.fresh(); // Alice's secrecy tag
//!
//! // Alice's calendar file is labeled {S(a)}.
//! let calendar = SecPair::secrecy_only(Label::singleton(a));
//!
//! // The scheduling server holds only a+ (it may taint itself, but
//! // never declassify).
//! let server_caps = CapSet::from_caps([Capability::plus(a)]);
//!
//! // The server thread taints itself with {S(a)} to read the file...
//! let thread = SecPair::secrecy_only(Label::singleton(a));
//! assert!(calendar.can_flow_to(&thread).is_ok());
//!
//! // ...and afterwards cannot write to the unlabeled network:
//! assert!(thread.can_flow_to(&SecPair::unlabeled()).is_err());
//!
//! // Nor can it shed the taint — it lacks a-:
//! assert!(laminar_difc::check_label_change(
//!     thread.secrecy(), &Label::empty(), &server_caps).is_err());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
mod caps;
mod error;
pub mod intern;
mod label;
mod pair;
mod tag;

pub use cache::{flow_cache_stats, reset_flow_cache, CheckKind, FlowCacheStats};
pub use caps::{CapKind, CapSet, Capability};
pub use error::{FlowError, LabelChangeError};
pub use intern::{intern_stats, InternStats, LabelId, PairId};
pub use label::{Label, LabelType};
pub use pair::{check_label_change, check_pair_change, check_region_entry, SecPair};
pub use tag::{Tag, TagAllocator};
