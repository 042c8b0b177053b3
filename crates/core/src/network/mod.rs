//! The planes an assembled DOSN is built from, one per survey axis, and
//! the storage types callers compose them over.
//!
//! [`crate::engine::Engine`] is the request API; it owns one of each
//! plane:
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!                 │        Engine (batched requests:           │
//!                 │        prepare / commit / finish)          │
//!                 │  register · befriend · post · read · …     │
//!                 └──────┬───────────────┬──────────────┬──────┘
//!                        │               │              │
//!          ┌─────────────▼───┐   ┌───────▼────────┐  ┌──▼──────────────┐
//!          │  PrivacyPlane   │   │ IntegrityPlane │  │ ReplicatedStore │
//!          │  (§III, per     │   │ (§IV, sharded  │  │ R-way placement │
//!          │   user)         │   │  per user)     │  │ quorum reads    │
//!          │ any AccessScheme│   │ envelopes      │  │ read-repair     │
//!          │ as trait object │   │ timelines      │  └──┬──────────────┘
//!          │ + body codec    │   │ relation keys  │     │ StoragePlane
//!          └─────────────────┘   └────────────────┘  ┌──▼──────────────┐
//!                                                    │ Chord │ Kademlia│
//!                                                    │ Super │ Federa- │
//!                                                    │ -peer │ tion    │
//!                                                    └─────────────────┘
//! ```
//!
//! Posts are encrypted by the author's privacy plane, signed and chained by
//! the integrity plane, and written R-way by the replicated store; reads
//! run a quorum fetch whose per-copy verifier is the envelope check itself,
//! then decrypt.
//!
//! The survey's §II-B structured-overlay baseline is
//! `Engine::new(ReplicatedStore::new(ChordPlane::build(n, seed), 3), seed)`
//! with the symmetric friends-group scheme that [`crate::engine::Engine::register`]
//! installs; any [`StoragePlane`] slots in for `ChordPlane`, and any
//! [`crate::privacy::AccessScheme`] via
//! [`crate::engine::Engine::register_with_plane`] and [`PrivacyPlane::new`].

pub(crate) mod integrity_plane;
pub(crate) mod privacy_plane;
pub(crate) mod storage_glue;
pub(crate) mod user;

pub use integrity_plane::IntegrityPlane;
pub use privacy_plane::PrivacyPlane;

pub use dosn_overlay::adversary::{reader_parity, AdversaryConfig, AdversaryMode, AdversaryPlane};
pub use dosn_overlay::placement::{SocialPlacement, SocialPlane};
pub use dosn_overlay::replication::{apply_crash_schedule, QuorumOutcome, ReplicatedStore};
// The overlay's scale-free workload graph; aliased because `dosn-core` has
// its own user-level `crate::graph::SocialGraph` for access control.
pub use dosn_overlay::social::{SocialGraph as WorkloadGraph, SocialGraphConfig};
pub use dosn_overlay::storage::{
    ChordPlane, FederationPlane, KademliaPlane, StorageError, StoragePlane, SuperPeerPlane,
};

pub use crate::feed::{FeedCache, FeedItem};
