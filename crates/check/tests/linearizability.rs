//! Integration: both concurrent caches' logged torture histories pass the
//! linearizability-lite checker.

use cache_check::check_history;
use cache_concurrent::oplog::{run_logged_torture, LoggedTortureConfig};
use cache_concurrent::ConcurrentCache;
use std::sync::Arc;

fn all_caches(capacity: usize) -> Vec<Arc<dyn ConcurrentCache>> {
    vec![
        Arc::new(cache_concurrent::s3fifo::ConcurrentS3Fifo::new(capacity)),
        Arc::new(cache_concurrent::lru::MutexLru::strict(capacity)),
    ]
}

#[test]
fn logged_torture_histories_are_consistent() {
    let cfg = LoggedTortureConfig {
        threads: 4,
        ops_per_thread: 800,
        keys: 48,
        ..LoggedTortureConfig::default()
    };
    for cache in all_caches(64) {
        let name = cache.name();
        let log = run_logged_torture(cache, &cfg);
        assert_eq!(log.len(), cfg.threads * cfg.ops_per_thread);
        let violations = check_history(&log);
        assert!(
            violations.is_empty(),
            "{name}: {} violations; first: {}",
            violations.len(),
            violations[0]
        );
    }
}

#[test]
fn tiny_cache_under_contention_stays_consistent() {
    // A cache much smaller than the key set maximizes eviction races.
    // (ConcurrentS3Fifo requires at least 10 entries.)
    let cfg = LoggedTortureConfig {
        threads: 4,
        ops_per_thread: 500,
        keys: 96,
        ..LoggedTortureConfig::default()
    };
    for cache in all_caches(12) {
        let name = cache.name();
        let log = run_logged_torture(cache, &cfg);
        let violations = check_history(&log);
        assert!(
            violations.is_empty(),
            "{name}: first violation: {}",
            violations[0]
        );
    }
}
