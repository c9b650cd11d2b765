//! Domain scenario: a CDN edge cache on flash. Compares admission policies
//! for write endurance vs hit ratio (§5.4) on a CDN-like trace.
//!
//! Run: `cargo run --release --example flash_cdn_cache`

use cache_flash::{AdmissionKind, FlashCache, FlashCacheConfig};
use cache_trace::corpus::{datasets, CorpusConfig};

fn main() {
    let ds = datasets()
        .into_iter()
        .find(|d| d.name == "wiki_cdn")
        .expect("wiki_cdn dataset");
    let trace = ds.trace(
        &CorpusConfig {
            traces_per_dataset: 1,
            requests_per_trace: 300_000,
            seed: 5,
        },
        0,
    );
    let unique = trace.footprint_bytes();
    let total = unique / 10;
    println!(
        "trace: {} ({} requests, {:.1} MB unique); cache = {:.1} MB, DRAM = 1%",
        trace.name,
        trace.len(),
        unique as f64 / 1e6,
        total as f64 / 1e6
    );
    println!(
        "{:<22} {:>14} {:>12}",
        "admission", "flash writes", "miss ratio"
    );
    for kind in [
        AdmissionKind::WriteAll,
        AdmissionKind::Probabilistic(0.2),
        AdmissionKind::BloomSecondAccess,
        AdmissionKind::FlashieldLike,
        AdmissionKind::SmallFifoTwoAccess,
    ] {
        let mut cache = FlashCache::new(FlashCacheConfig {
            total_bytes: total,
            dram_fraction: 0.01,
            admission: kind,
        })
        .expect("valid config");
        let s = cache.run(trace.iter());
        println!(
            "{:<22} {:>13.2}x {:>12.3}",
            cache.admission_name(),
            s.normalized_write_bytes(unique),
            s.miss_ratio()
        );
    }
    println!();
    println!("(writes are normalized to the trace's unique bytes; the S3-FIFO");
    println!(" small-queue filter should cut writes without hurting miss ratio)");
}
