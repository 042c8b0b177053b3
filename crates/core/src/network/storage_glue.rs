//! Glue between the engine and the overlay storage layer: key derivation
//! and error translation.

use crate::error::DosnError;
use dosn_overlay::id::Key;
use dosn_overlay::storage::StorageError;

/// The storage key of `author`'s post `seq` — the deterministic address
/// every reader derives independently.
pub(crate) fn wall_key(author: &str, seq: u64) -> Key {
    Key::hash(format!("wall/{author}/{seq}").as_bytes())
}

/// Maps storage-plane failures onto the social layer's error type: every
/// variant means the content cannot currently be served.
pub(crate) fn storage_to_dosn(e: StorageError) -> DosnError {
    DosnError::ContentUnavailable(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_keys_are_stable_and_distinct() {
        assert_eq!(wall_key("alice", 3), wall_key("alice", 3));
        assert_ne!(wall_key("alice", 3), wall_key("alice", 4));
        assert_ne!(wall_key("alice", 3), wall_key("bob", 3));
    }

    #[test]
    fn storage_errors_become_content_unavailable() {
        let e = storage_to_dosn(StorageError::NoNodes);
        assert!(matches!(e, DosnError::ContentUnavailable(_)));
    }
}
