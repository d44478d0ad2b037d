//! Host stores: the artifacts the CAD stages computed, by full input.
//!
//! Every CAD stage is a pure function of its canonical input, so the
//! host keeps each artifact once and serves it to every later compile
//! with the same input. A [`Table`] is one stage's store. Its keys are
//! the stage's full inputs, compared in full on lookup, so two inputs
//! never share an artifact. What a store serves is never *charged*: the
//! modeled work of a compile comes from the on-chip tools' reuse tiers
//! (such as [`MapCache`](crate::map::MapCache)), which hold only keys.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How often a [`Table`] served a lookup or missed it. These count host
/// work, which no modeled counter shows.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Lookups {
    /// Lookups the table served.
    pub hits: u64,
    /// Lookups the table missed; the caller computed the artifact.
    pub misses: u64,
}

/// One stage's host store: artifacts by full input, shared by `Arc`.
/// Unbounded; it lives as long as its owner.
#[derive(Debug)]
pub struct Table<K, V: ?Sized> {
    slots: Mutex<HashMap<K, Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V: ?Sized> Default for Table<K, V> {
    fn default() -> Self {
        Table { slots: Mutex::default(), hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }
}

impl<K: Hash + Eq, V: ?Sized> Table<K, V> {
    /// The artifact stored for `key`, counting a hit or a miss.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
    {
        let hit = self.slots.lock().expect("host store lock").get(key).cloned();
        if hit.is_some() { &self.hits } else { &self.misses }.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores an artifact computed after a missed [`get`](Table::get).
    /// Racing computations of one key produce equal artifacts, so the
    /// first one stays.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn insert(&self, key: K, value: Arc<V>) {
        self.slots.lock().expect("host store lock").entry(key).or_insert(value);
    }

    /// Hit and miss counts so far.
    #[must_use]
    pub fn lookups(&self) -> Lookups {
        Lookups {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}
