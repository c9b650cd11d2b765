// Fixture: L-ORDERING / L-SEQCST. Line numbers are pinned by
// tests/source_rules.rs — keep both in sync. Never compiled.
use std::sync::atomic::{AtomicU64, Ordering};

// ORDERING: Relaxed — monotonic counter, no data published through it.
pub fn annotated(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn missing_comment(c: &AtomicU64) -> u64 {
    c.load(Ordering::Acquire)
}

// ORDERING: relaxed counter read; the alias hides the ordering name.
pub fn unnamed_ordering(c: &AtomicU64) -> u64 {
    c.load(RELAXED_ALIAS)
}

// ORDERING: the checker wants one total store order here.
pub fn unjustified_seqcst(c: &AtomicU64) {
    c.store(1, Ordering::SeqCst);
}
