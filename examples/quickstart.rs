//! Quickstart: use `ConcurrentS3Fifo` as a bounded, thread-safe map.
//!
//! Run: `cargo run --example quickstart`

use bytes::Bytes;
use cache_concurrent::s3fifo::ConcurrentS3Fifo;
use cache_concurrent::ConcurrentCache;

/// Where the hot keys and the scan's one-time keys start.
const HOT: u64 = 1_000;
const SCAN: u64 = 1_000_000;

fn main() {
    // A cache holding up to 1000 entries; 10% of the space is the small
    // probationary queue that filters one-hit wonders. It is shared by
    // reference: every method takes `&self`.
    let cache = ConcurrentS3Fifo::new(1000);

    // Insert and read back.
    cache.insert(42, Bytes::from_static(b"alice"));
    assert_eq!(cache.get(42).as_deref(), Some(&b"alice"[..]));

    // Establish a small hot set...
    for i in 0..50 {
        cache.insert(HOT + i, Bytes::from(vec![1u8; 64]));
    }
    for _ in 0..3 {
        for i in 0..50 {
            cache.get(HOT + i);
        }
    }

    // ...then blast the cache with 20x its capacity of one-time keys.
    for i in 0..20_000 {
        cache.insert(SCAN + i, Bytes::from(vec![0u8; 64]));
    }

    let survivors = (0..50).filter(|i| cache.get(HOT + i).is_some()).count();
    let m = cache.aggregate_stats();
    println!("hot keys surviving a 20x scan: {survivors}/50");
    println!(
        "hits={} misses={} inserts={} evictions={}",
        m.hits, m.misses, m.inserts, m.evictions
    );
    assert!(
        survivors >= 45,
        "S3-FIFO should shield the hot set from scans"
    );
    println!("quickstart OK");
}
