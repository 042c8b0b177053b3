//! The correctness oracle: a plain-map model of who may read what.
//!
//! It mirrors the semantics of the engine's default privacy plane (one
//! symmetric friends group per user, re-keyed by an epoch bump on every
//! revocation): a member may read a post sealed at epoch `e` iff it joined
//! the author's group at an epoch `<= e` and was not revoked at an epoch
//! `<= e`. The benchmark applies every generated op to the model as it
//! generates it, and compares each engine output with the model's
//! prediction.

use std::collections::{BTreeSet, HashMap};

/// One post as the model knows it.
#[derive(Debug, Clone)]
pub struct PostRec {
    /// The author's friends-group epoch the post was sealed under.
    pub epoch: u64,
    pub body: String,
}

/// What the model predicts for one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadExpect<'a> {
    Body(&'a str),
    NotAuthorized,
}

#[derive(Debug, Default)]
pub struct Model {
    /// Current (non-revoked) friends of each user.
    friends: Vec<BTreeSet<u32>>,
    /// Each user's friends-group epoch.
    epoch: Vec<u64>,
    /// `(owner, member)` → epoch at which `member` joined `owner`'s group.
    joined: HashMap<(u32, u32), u64>,
    /// `(owner, member)` → epoch at which `member` was revoked.
    revoked: HashMap<(u32, u32), u64>,
    /// Every revoked `(owner, member)` pair, in revocation order.
    revoked_pairs: Vec<(u32, u32)>,
    /// Each author's wall; the index is the sequence number.
    posts: Vec<Vec<PostRec>>,
}

impl Model {
    /// Registers the next user and returns its index.
    pub fn register(&mut self) -> u32 {
        self.friends.push(BTreeSet::new());
        self.epoch.push(0);
        self.posts.push(Vec::new());
        (self.friends.len() - 1) as u32
    }

    pub fn are_friends(&self, a: u32, b: u32) -> bool {
        self.friends[a as usize].contains(&b)
    }

    /// Whether `a` and `b` may be befriended without changing the meaning
    /// of an earlier revocation (the generator never re-links a pair).
    pub fn can_link(&self, a: u32, b: u32) -> bool {
        a != b && !self.are_friends(a, b) && !self.revoked.contains_key(&(a, b))
    }

    pub fn befriend(&mut self, a: u32, b: u32) {
        debug_assert!(self.can_link(a, b));
        self.friends[a as usize].insert(b);
        self.friends[b as usize].insert(a);
        self.joined.insert((a, b), self.epoch[a as usize]);
        self.joined.insert((b, a), self.epoch[b as usize]);
    }

    /// Revokes the friendship and returns the re-keyed member count the
    /// engine reports: the remaining members of both groups, owners
    /// included.
    pub fn unfriend(&mut self, a: u32, b: u32) -> u64 {
        self.friends[a as usize].remove(&b);
        self.friends[b as usize].remove(&a);
        for (owner, member) in [(a, b), (b, a)] {
            self.epoch[owner as usize] += 1;
            self.revoked
                .insert((owner, member), self.epoch[owner as usize]);
            self.revoked_pairs.push((owner, member));
        }
        (self.friends[a as usize].len() + 1 + self.friends[b as usize].len() + 1) as u64
    }

    /// Appends a post and returns its sequence number.
    pub fn post(&mut self, author: u32, body: String) -> u64 {
        let wall = &mut self.posts[author as usize];
        wall.push(PostRec {
            epoch: self.epoch[author as usize],
            body,
        });
        (wall.len() - 1) as u64
    }

    pub fn friends(&self, user: u32) -> &BTreeSet<u32> {
        &self.friends[user as usize]
    }

    pub fn mean_degree(&self) -> f64 {
        let ends: usize = self.friends.iter().map(BTreeSet::len).sum();
        ends as f64 / self.friends.len().max(1) as f64
    }

    /// Up to `n` post bodies, the latest post of each of the first authors
    /// with a non-empty wall.
    pub fn sample_bodies(&self, n: usize) -> Vec<String> {
        self.posts
            .iter()
            .filter_map(|wall| wall.last().map(|p| p.body.clone()))
            .take(n)
            .collect()
    }

    pub fn revoked_pairs(&self) -> &[(u32, u32)] {
        &self.revoked_pairs
    }

    pub fn revoked_at(&self, owner: u32, member: u32) -> Option<u64> {
        self.revoked.get(&(owner, member)).copied()
    }

    /// May `reader` decrypt `author`'s post `seq`?
    pub fn may_read(&self, reader: u32, author: u32, seq: u64) -> bool {
        let Some(post) = self.posts[author as usize].get(seq as usize) else {
            return false;
        };
        if reader == author {
            return true;
        }
        let Some(&joined) = self.joined.get(&(author, reader)) else {
            return false;
        };
        joined <= post.epoch
            && self
                .revoked_at(author, reader)
                .is_none_or(|r| post.epoch < r)
    }

    pub fn expect_read(&self, reader: u32, author: u32, seq: u64) -> ReadExpect<'_> {
        if self.may_read(reader, author, seq) {
            ReadExpect::Body(&self.posts[author as usize][seq as usize].body)
        } else {
            ReadExpect::NotAuthorized
        }
    }

    /// The items `read_feed(reader, k)` must return, in order: for each
    /// current friend in name order, the readable ones among that friend's
    /// latest `k` posts, oldest first.
    pub fn expect_feed(&self, reader: u32, k: usize) -> Vec<(u32, u64, &str)> {
        let mut items = Vec::new();
        for &f in &self.friends[reader as usize] {
            let wall = &self.posts[f as usize];
            for (seq, post) in wall.iter().enumerate().skip(wall.len().saturating_sub(k)) {
                if self.may_read(reader, f, seq as u64) {
                    items.push((f, seq as u64, post.body.as_str()));
                }
            }
        }
        items
    }
}

/// A wrong engine output: the run stops on the first one.
#[derive(Debug)]
pub struct Mismatch(pub String);

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Compares one read's plaintext with the model's prediction.
pub fn check_read_body(what: &str, expected: &str, got: &str) -> Result<(), Mismatch> {
    if expected == got {
        Ok(())
    } else {
        Err(Mismatch(format!(
            "{what}: read returned {got:?}, model expects {expected:?}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_users() -> Model {
        let mut m = Model::default();
        for _ in 0..3 {
            m.register();
        }
        m
    }

    #[test]
    fn oracle_rejects_a_wrong_plaintext() {
        let mut m = three_users();
        m.befriend(0, 1);
        let seq = m.post(0, "the real body".into());
        let ReadExpect::Body(expected) = m.expect_read(1, 0, seq) else {
            panic!("friend must be able to read");
        };
        assert!(check_read_body("read", expected, "the real body").is_ok());
        assert!(check_read_body("read", expected, "a forged body").is_err());
    }

    #[test]
    fn revoked_friend_keeps_old_posts_and_loses_new_ones() {
        let mut m = three_users();
        m.befriend(0, 1);
        m.befriend(0, 2);
        let old = m.post(0, "before".into());
        assert_eq!(
            m.unfriend(0, 1),
            2 + 1,
            "owner 0 keeps itself and 2; 1 keeps itself"
        );
        let new = m.post(0, "after".into());
        assert!(m.may_read(1, 0, old));
        assert_eq!(m.expect_read(1, 0, new), ReadExpect::NotAuthorized);
        assert_eq!(m.expect_read(2, 0, new), ReadExpect::Body("after"));
        assert!(!m.can_link(0, 1), "a revoked pair is never re-linked");
    }

    #[test]
    fn late_joiner_cannot_read_posts_sealed_before_a_rekey() {
        let mut m = three_users();
        m.befriend(0, 1);
        let old = m.post(0, "epoch 0".into());
        m.unfriend(0, 1);
        m.befriend(0, 2);
        assert!(!m.may_read(2, 0, old), "2 joined at epoch 1");
        let new = m.post(0, "epoch 1".into());
        assert!(m.may_read(2, 0, new));
    }

    #[test]
    fn feed_lists_latest_k_per_friend_in_name_order() {
        let mut m = three_users();
        m.befriend(2, 0);
        m.befriend(2, 1);
        for i in 0..4 {
            m.post(1, format!("b{i}"));
        }
        m.post(0, "a0".into());
        let feed = m.expect_feed(2, 3);
        let got: Vec<(u32, u64)> = feed.iter().map(|&(a, s, _)| (a, s)).collect();
        assert_eq!(got, vec![(0, 0), (1, 1), (1, 2), (1, 3)]);
    }
}
