//! Per-user engine state: identity plus the user's privacy plane.
//!
//! Integrity state (timeline, sequence counter, relation keys, comments)
//! deliberately does *not* live here — it belongs to the network-wide
//! [`crate::network::IntegrityPlane`], which any verifier consults without
//! holding the user's keys.

use crate::identity::Identity;
use crate::network::privacy_plane::PrivacyPlane;
use crate::privacy::GroupId;

/// One registered user: signing identity, access-control scheme, and the
/// friends group the scheme manages for them.
pub(crate) struct UserState {
    pub(crate) identity: Identity,
    pub(crate) privacy: PrivacyPlane,
    pub(crate) friends_group: GroupId,
}
