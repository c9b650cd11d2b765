//! A loom-lite model of the lock order in `MutexLru`
//! (`crates/concurrent/src/lru.rs`): a shard lock over the values and the
//! core lock over the LRU list.
//!
//! `MutexLru` nests its locks one way only. `insert`, `remove` and eviction
//! take `core`, then a shard. `get` takes its shard, drops the guard at the
//! end of that statement, and only then takes `core` to promote. A `get`
//! that kept the shard guard across `core.lock()` would close a cycle with
//! any writer already holding `core`, and the two would wait on each other
//! forever.
//!
//! Down-scaling choices (documented so the model stays honest):
//! - one key in one shard, resident when the run starts, so a `get` that
//!   runs first hits and goes on to promote;
//! - both locks are `spin_lock`s. The real shard lock is a reader-writer
//!   lock, but the `get` in the cycle reads while the writer it meets
//!   writes, so the two exclude each other as a mutex's holders would;
//! - the key's value and the list are [`MCell`]s, each touched only under
//!   its own lock, so the race detector checks that each lock guards what
//!   it is meant to.
//!
//! The planted mutant, [`LruVariant::GetHoldsShard`], has `get` keep the
//! shard guard while it takes `core`; the explorer reports the deadlock.

use super::{spin_lock, spin_unlock};
use crate::loomlite::sync::{MAtomic, MCell};
use crate::loomlite::{self, check};
use std::sync::Arc;

/// Which lock order `get` follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LruVariant {
    /// The shipped order: `get` releases its shard before it takes `core`.
    Correct,
    /// Buggy: `get` holds the shard guard while it takes `core`.
    GetHoldsShard,
}

/// One shard holding one key, and the core section's list.
pub struct ModelLru {
    shard: MAtomic,
    core: MAtomic,
    /// The key's value in the shard; 0 when it is absent.
    value: MCell<u64>,
    /// The list under `core`, reduced to a count of the changes made to it.
    list_changes: MCell<u64>,
    variant: LruVariant,
}

impl ModelLru {
    /// Both locks free, the key resident with value 1.
    pub fn new(variant: LruVariant) -> Self {
        ModelLru {
            shard: MAtomic::new("shard", 0),
            core: MAtomic::new("core", 0),
            value: MCell::new("value", 1),
            list_changes: MCell::new("list_changes", 0),
            variant,
        }
    }

    /// One change to the list. Caller holds `core`.
    fn touch_list(&self) {
        let n = self.list_changes.read();
        self.list_changes.write(n + 1);
    }

    /// Mirrors `MutexLru::get`: read the value under the shard lock, then
    /// promote under `core` on a hit. Returns the value read.
    pub fn get(&self) -> u64 {
        let holds_shard = self.variant == LruVariant::GetHoldsShard;
        spin_lock(&self.shard);
        let value = self.value.read();
        if !holds_shard {
            spin_unlock(&self.shard);
        }
        if value != 0 {
            spin_lock(&self.core);
            self.touch_list();
            spin_unlock(&self.core);
        }
        if holds_shard {
            spin_unlock(&self.shard);
        }
        value
    }

    /// Mirrors `MutexLru::insert` over a resident key: under `core`, replace
    /// the value under the shard lock, then promote.
    pub fn insert(&self, value: u64) {
        spin_lock(&self.core);
        spin_lock(&self.shard);
        self.value.write(value);
        spin_unlock(&self.shard);
        self.touch_list();
        spin_unlock(&self.core);
    }

    /// Mirrors `MutexLru::remove`, and eviction, which takes the same locks
    /// in the same order: under `core`, drop the value under the shard lock,
    /// then unlink it from the list.
    pub fn remove(&self) {
        spin_lock(&self.core);
        spin_lock(&self.shard);
        self.value.write(0);
        spin_unlock(&self.shard);
        self.touch_list();
        spin_unlock(&self.core);
    }
}

/// A `get` against an `insert` and then a `remove` of the same key. At
/// quiescence the key is gone, and the list changed once for each writer
/// plus once more if the `get` hit.
pub fn lru_lock_order_scenario(variant: LruVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let lru = Arc::new(ModelLru::new(variant));
        let got = Arc::new(MCell::new("got", 0));
        let (reader, got2) = (Arc::clone(&lru), Arc::clone(&got));
        let h = loomlite::spawn(move || got2.write(reader.get()));
        lru.insert(2);
        lru.remove();
        h.join();
        let seen = got.read();
        check(
            seen <= 2,
            &format!("get read {seen}, a value never written"),
        );
        check(lru.value.read() == 0, "the removed key is still resident");
        let changes = lru.list_changes.read();
        let want = 2 + u64::from(seen != 0);
        check(
            changes == want,
            &format!("{changes} list changes, expected {want} (get read {seen})"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loomlite::Config;

    #[test]
    fn the_shipped_order_is_clean() {
        let r = Config::default().explore(lru_lock_order_scenario(LruVariant::Correct));
        assert!(r.failures.is_empty(), "{:#?}", r.failures[0]);
        assert!(r.exhausted, "schedule cap hit at {}", r.schedules);
    }

    #[test]
    fn a_get_holding_its_shard_across_core_deadlocks() {
        let r = Config::default().explore(lru_lock_order_scenario(LruVariant::GetHoldsShard));
        assert!(!r.failures.is_empty(), "planted lock-order bug not caught");
        let msg = r.failures[0].messages.join("; ");
        assert!(msg.contains("deadlock"), "expected a deadlock, got: {msg}");
    }
}
