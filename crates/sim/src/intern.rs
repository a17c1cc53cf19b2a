//! A deterministic string interner that stores each distinct string
//! exactly once.
//!
//! The engine's label table and the metrics counter registry both map
//! strings to small dense ids on hot paths (every span, every counter
//! increment). Two properties matter there:
//!
//! 1. **Single storage.** Each distinct string is owned once, in the
//!    id-indexed `strings` vector. The lookup index maps a 64-bit FNV-1a
//!    hash to the ids sharing that hash, so `get_or_intern` allocates at
//!    most once per *distinct* string — never per call, and never a
//!    second owning copy as a map key.
//! 2. **Cheap lookups.** Hashes are FNV-1a (a few instructions per byte,
//!    no SipHash setup) and the bucket map uses an identity hasher, so a
//!    hot-path lookup is one hash pass plus one array probe.
//!
//! Determinism: ids are assigned in first-seen order and no iteration
//! order of the bucket map is ever observable.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher that passes an already-mixed `u64` key through unchanged.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is only used with u64 keys");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

pub(crate) type IdentityMap<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// 64-bit FNV-1a over `bytes`. Deterministic across runs and platforms
/// (unlike the std `RandomState`), and fast on the short labels the
/// simulator interns; it is also the hash behind every golden digest.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash collisions are astronomically rare on label-table scales, so the
/// per-hash id list is a single inline id in the common case.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

/// An append-only string → dense-id table with single-copy storage.
#[derive(Debug, Default, Clone)]
pub(crate) struct Interner {
    strings: Vec<String>,
    buckets: IdentityMap<Bucket>,
}

impl Interner {
    /// Returns the id for `s`, interning it first if unseen. Allocates
    /// only on the first occurrence of a distinct string.
    pub(crate) fn get_or_intern(&mut self, s: &str) -> u32 {
        let h = fnv1a(s.as_bytes());
        if let Some(bucket) = self.buckets.get_mut(&h) {
            match bucket {
                Bucket::One(id) => {
                    if self.strings[*id as usize] == s {
                        return *id;
                    }
                    let id = *id;
                    let new = Self::push(&mut self.strings, s);
                    *bucket = Bucket::Many(vec![id, new]);
                    new
                }
                Bucket::Many(ids) => {
                    if let Some(&id) = ids.iter().find(|&&id| self.strings[id as usize] == s) {
                        return id;
                    }
                    let new = Self::push(&mut self.strings, s);
                    ids.push(new);
                    new
                }
            }
        } else {
            let id = Self::push(&mut self.strings, s);
            self.buckets.insert(h, Bucket::One(id));
            id
        }
    }

    /// The id for `s` if it is already interned (no mutation).
    pub(crate) fn get(&self, s: &str) -> Option<u32> {
        match self.buckets.get(&fnv1a(s.as_bytes()))? {
            Bucket::One(id) => (self.strings[*id as usize] == s).then_some(*id),
            Bucket::Many(ids) => ids
                .iter()
                .copied()
                .find(|&id| self.strings[id as usize] == s),
        }
    }

    fn push(strings: &mut Vec<String>, s: &str) -> u32 {
        let id = u32::try_from(strings.len()).expect("interner overflow");
        strings.push(s.to_owned());
        id
    }

    /// Resolves an id.
    pub(crate) fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Number of distinct interned strings.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.strings.len()
    }

    /// The id-indexed string table (for snapshotting into traces and
    /// dependency graphs).
    pub(crate) fn strings(&self) -> &[String] {
        &self.strings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_each_distinct_string_once() {
        let mut i = Interner::default();
        let a = i.get_or_intern("allreduce");
        let b = i.get_or_intern("wait.mem_sem");
        assert_ne!(a, b);
        // Repeat lookups return the same id and add no storage.
        assert_eq!(i.get_or_intern("allreduce"), a);
        assert_eq!(i.get_or_intern("wait.mem_sem"), b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "allreduce");
        assert_eq!(i.resolve(b), "wait.mem_sem");
        assert_eq!(i.get("allreduce"), Some(a));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut i = Interner::default();
        for (n, s) in ["a", "b", "c", "a", "d", "b"].iter().enumerate() {
            let id = i.get_or_intern(s);
            match n {
                0 | 3 => assert_eq!(id, 0),
                1 | 5 => assert_eq!(id, 1),
                2 => assert_eq!(id, 2),
                4 => assert_eq!(id, 3),
                _ => unreachable!(),
            }
        }
        assert_eq!(i.strings(), ["a", "b", "c", "d"]);
    }

    #[test]
    fn survives_many_labels_without_collision_loss() {
        let mut i = Interner::default();
        let ids: Vec<u32> = (0..10_000)
            .map(|n| i.get_or_intern(&format!("kernel {} tb{}", n % 100, n)))
            .collect();
        assert_eq!(i.len(), 10_000);
        for (n, &id) in ids.iter().enumerate() {
            assert_eq!(i.resolve(id), format!("kernel {} tb{}", n % 100, n));
        }
    }
}
