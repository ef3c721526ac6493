//! A bounded, thread-safe memo table: the one cache type behind the session's
//! elaboration and analysis memos and the constraint solver's memo.
//!
//! A [`Memo`] keeps two generations of at most `capacity / 2` entries each.
//! Inserts go to the young generation; an insert into a full young generation
//! drops the old generation and makes the young one old; a hit in the old
//! generation moves the entry back into the young one, which counts as an
//! insert. So a memo holds at most `capacity` entries, never empties at once,
//! and keeps every entry for at least `capacity / 2` later inserts, and for
//! as long as it is hit at least once every `capacity / 2` inserts.
//!
//! ```
//! use cerberus_ast::memo::{CacheStats, Memo};
//!
//! let memo: Memo<String, u32> = Memo::new(4);
//! assert_eq!(memo.get("a"), None);
//! memo.insert("a".to_owned(), 1);
//! assert_eq!(memo.get("a"), Some(1));
//! assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 1, entries: 1 });
//! ```

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard};

/// Hit/miss statistics of a [`Memo`]: the shape every cache reports in, from
/// `Session` to `GET /api/v0/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that found nothing, so the caller did the work.
    pub misses: u64,
    /// Entries currently held, at most the memo's capacity.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A bounded memo table with its lock inside; every method takes `&self`.
#[derive(Debug)]
pub struct Memo<K, V> {
    /// The bound on each generation: half the capacity.
    generation: usize,
    state: Mutex<Generations<K, V>>,
}

#[derive(Debug)]
struct Generations<K, V> {
    young: HashMap<K, V>,
    old: HashMap<K, V>,
    hits: u64,
    misses: u64,
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is less than 2, which leaves no room for two
    /// generations.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "a memo needs room for two generations");
        Memo {
            generation: capacity / 2,
            state: Mutex::new(Generations {
                young: HashMap::new(),
                old: HashMap::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Generations<K, V>> {
        self.state.lock().expect("memo lock poisoned")
    }

    /// A clone of the value memoised under `key`, counting a hit, or `None`,
    /// counting a miss. A hit in the old generation moves the entry back into
    /// the young one.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut state = self.lock();
        if let Some(value) = state.young.get(key) {
            let value = value.clone();
            state.hits += 1;
            return Some(value);
        }
        let Some((key, value)) = state.old.remove_entry(key) else {
            state.misses += 1;
            return None;
        };
        state.hits += 1;
        let found = value.clone();
        state.put(key, value, self.generation);
        Some(found)
    }

    /// Memoise `value` under `key`, replacing any earlier value.
    pub fn insert(&self, key: K, value: V) {
        self.lock().put(key, value, self.generation);
    }

    /// Drop every entry. The hit and miss counters are kept.
    pub fn clear(&self) {
        let mut state = self.lock();
        state.young.clear();
        state.old.clear();
    }

    /// The counters and the current number of entries.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            entries: state.young.len() + state.old.len(),
        }
    }
}

impl<K: Hash + Eq, V> Generations<K, V> {
    /// Insert into the young generation, first making a full young
    /// generation the old one and dropping the previous old one (whose
    /// table the new young generation reuses).
    fn put(&mut self, key: K, value: V, generation: usize) {
        if self.young.len() >= generation && !self.young.contains_key(&key) {
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
        }
        self.old.remove(&key);
        self.young.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAPACITY: usize = 8;

    #[test]
    fn distinct_keys_never_exceed_the_bound_nor_empty_the_memo() {
        let memo = Memo::new(CAPACITY);
        for i in 0..10 * CAPACITY {
            assert_eq!(memo.get(&i), None);
            memo.insert(i, i);
            let entries = memo.stats().entries;
            assert!(entries <= CAPACITY, "{entries} entries after insert {i}");
            assert!(
                entries >= (i + 1).min(CAPACITY / 2),
                "emptied at insert {i}"
            );
        }
        // The last `CAPACITY / 2` inserts are all still there.
        for i in 10 * CAPACITY - CAPACITY / 2..10 * CAPACITY {
            assert_eq!(memo.get(&i), Some(i));
        }
    }

    #[test]
    fn a_key_hit_every_quarter_capacity_survives_a_stream_of_inserts() {
        let memo = Memo::new(CAPACITY);
        memo.insert(usize::MAX, 0);
        for i in 0..2 * CAPACITY {
            if i % (CAPACITY / 4) == 0 {
                assert_eq!(memo.get(&usize::MAX), Some(0), "evicted before insert {i}");
            }
            memo.insert(i, i);
        }
        assert_eq!(memo.get(&usize::MAX), Some(0));
    }

    #[test]
    fn clear_drops_the_entries_and_keeps_the_counters() {
        let memo = Memo::new(CAPACITY);
        memo.insert("a".to_owned(), 1);
        assert_eq!(memo.get("a"), Some(1));
        assert_eq!(memo.get("b"), None);
        memo.clear();
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 0
            }
        );
        assert_eq!(memo.get("a"), None);
        assert_eq!(memo.stats().lookups(), 3);
    }
}
