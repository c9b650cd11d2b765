// Fixture: the exact bug shape cache_lint's lock analysis exists to
// catch — the pre-fix `ConcurrentClock::insert` overwrite probe from this
// repo's history (see crates/concurrent/src/clock.rs). `claim_slot`
// establishes the real order (occupant, then index); `insert` holds an
// index-shard read guard as an `if let` scrutinee temporary (live to the
// end of the whole construct under Rust 2021 rules) while taking an
// occupant write lock — the ABBA inversion. Expected: L-GUARD-LIFETIME on
// the scrutinee acquisition and an L-DEADLOCK cycle whose witnesses name
// both paths. Line numbers are pinned by tests/fixtures.rs. Never
// compiled.

impl ConcurrentClock {
    // A claimed slot is published in the index under its occupant guard.
    fn claim_slot(&self, key: u64) -> usize {
        let idx = self.advance_hand();
        if let Some(mut occ) = self.slots[idx].occupant.try_write() {
            *occ = Some(key);
            self.index[shard_of(key)].write().insert(key, idx);
        }
        idx
    }

    // The buggy inversion, exactly as shipped before the fix.
    fn insert(&self, key: u64, val: u64) {
        if let Some(&slot_idx) = self.index[shard_of(key)].read().get(&key) {
            let mut occ = self.slots[slot_idx].occupant.write();
            *occ = Some(val);
            return;
        }
        self.claim_slot(key);
    }
}
