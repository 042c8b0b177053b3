//! The integrity plane: envelopes, timelines, and relation keys (§IV).
//!
//! Everything the survey's §IV attaches to stored content lives here, per
//! author: the hash-chained [`Timeline`], the author-local sequence
//! counter, per-post [`PostRelationKeys`] (commenter signing keys wrapped
//! for friends, §IV-C), and the verified comments attached so far. The
//! engine's privacy plane never sees this state, and this plane never sees
//! plaintext — it signs and chains ciphertexts.

use crate::error::DosnError;
use crate::identity::{Identity, UserId};
use crate::integrity::envelope::SignedEnvelope;
use crate::integrity::relations::{CommentAttachment, PostRelationKeys};
use crate::integrity::timeline::Timeline;
use dosn_crypto::aead::SymmetricKey;
use dosn_crypto::chacha::SecureRng;
use dosn_crypto::group::SchnorrGroup;
use std::collections::BTreeMap;

/// Per-author integrity state.
struct UserIntegrity {
    timeline: Timeline,
    next_seq: u64,
    post_keys: BTreeMap<u64, PostRelationKeys>,
    comments: BTreeMap<u64, Vec<CommentAttachment>>,
    /// The shared commenter-group key for this author's posts (held by
    /// friends; modelled via the friends group epoch-0 key).
    commenters_key: SymmetricKey,
}

/// Network-wide §IV state: one [`Timeline`] + relation-key table per
/// registered author, with the sign/chain/attach operations over them.
#[derive(Default)]
pub struct IntegrityPlane {
    users: BTreeMap<UserId, UserIntegrity>,
}

impl std::fmt::Debug for IntegrityPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IntegrityPlane({} timelines)", self.users.len())
    }
}

impl IntegrityPlane {
    /// An empty plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the integrity state for a new author.
    pub(crate) fn register(&mut self, user: UserId, rng: &mut SecureRng) {
        self.users.insert(
            user.clone(),
            UserIntegrity {
                timeline: Timeline::new(user),
                next_seq: 0,
                post_keys: BTreeMap::new(),
                comments: BTreeMap::new(),
                commenters_key: SymmetricKey::generate(rng),
            },
        );
    }

    /// An author's timeline (verifier view).
    pub fn timeline(&self, user: &UserId) -> Option<&Timeline> {
        self.users.get(user).map(|s| &s.timeline)
    }

    /// Reserves the next author-local sequence number.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`].
    pub(crate) fn next_sequence(&mut self, user: &UserId) -> Result<u64, DosnError> {
        let state = self
            .users
            .get_mut(user)
            .ok_or_else(|| DosnError::UnknownUser(user.as_str().to_owned()))?;
        let seq = state.next_seq;
        state.next_seq += 1;
        Ok(seq)
    }

    /// Signs `ciphertext` as post `seq`, chains it into the author's
    /// timeline, and mints the per-post relation keys friends will comment
    /// with. Returns the envelope ready for wire encoding.
    ///
    /// # Errors
    ///
    /// [`DosnError::UnknownUser`] when the author was never registered.
    pub(crate) fn seal_post(
        &mut self,
        identity: &Identity,
        seq: u64,
        group: SchnorrGroup,
        ciphertext: &[u8],
        rng: &mut SecureRng,
    ) -> Result<SignedEnvelope, DosnError> {
        let author = identity.id().clone();
        let state = self
            .users
            .get_mut(&author)
            .ok_or_else(|| DosnError::UnknownUser(author.as_str().to_owned()))?;
        let envelope = SignedEnvelope::seal(identity, None, seq, seq, None, ciphertext, rng);
        state.timeline.append(identity, ciphertext, vec![], rng);
        let relation = PostRelationKeys::create(
            format!("{}/post/{seq}", author.as_str()),
            group,
            &state.commenters_key,
            rng,
        );
        state.post_keys.insert(seq, relation);
        Ok(envelope)
    }

    /// Creates, verifies, and attaches a comment on `author`'s post `seq`.
    /// The caller is responsible for the *privacy* decision (is the
    /// commenter allowed the commenters key); this plane enforces the
    /// *relation* — the comment is bound to exactly that post.
    ///
    /// # Errors
    ///
    /// * [`DosnError::UnknownUser`] — unregistered author;
    /// * [`DosnError::ContentUnavailable`] — no such post;
    /// * [`DosnError::IntegrityViolation`] — the relation check fails.
    pub(crate) fn attach_comment(
        &mut self,
        author: &UserId,
        seq: u64,
        commenter: UserId,
        body: &[u8],
        rng: &mut SecureRng,
    ) -> Result<(), DosnError> {
        let state = self
            .users
            .get_mut(author)
            .ok_or_else(|| DosnError::UnknownUser(author.as_str().to_owned()))?;
        let attachment = {
            let relation = state.post_keys.get(&seq).ok_or_else(|| {
                DosnError::ContentUnavailable(format!("{}/post/{seq}", author.as_str()))
            })?;
            let attachment =
                CommentAttachment::create(relation, &state.commenters_key, commenter, body, rng)?;
            // The author (or any verifier) checks the relation before
            // accepting.
            relation.verify_comment(&attachment)?;
            attachment
        };
        state.comments.entry(seq).or_default().push(attachment);
        Ok(())
    }

    /// Verified comments on a post, as `(commenter, body)` pairs.
    pub fn comments(&self, author: &UserId, seq: u64) -> Vec<(String, String)> {
        self.users
            .get(author)
            .and_then(|s| s.comments.get(&seq))
            .map(|cs| {
                cs.iter()
                    .map(|c| {
                        (
                            c.author.as_str().to_owned(),
                            String::from_utf8_lossy(&c.body).into_owned(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}
