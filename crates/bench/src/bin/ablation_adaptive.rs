//! §6.2.2: S3-FIFO (static 10 % small queue) vs S3-FIFO-D (adaptive queue
//! sizes) across the corpus, plus the adversarial trace where adaptation is
//! supposed to help.
//!
//! Run: `cargo run --release -p cache-bench --bin ablation_adaptive`

use cache_bench::{banner, corpus_traces, f3, f4, print_table, threads_from_env};
use cache_sim::{run_sweep, simulate_named, summarize_reductions, SimConfig, SweepSpec};
use cache_trace::gen::two_request_adversarial_mixed;

fn main() {
    let traces = corpus_traces();
    banner("S3-FIFO vs S3-FIFO-D across the corpus (large cache)");
    let spec = SweepSpec {
        traces: traces.iter().map(|(d, t)| (d.clone(), t)).collect(),
        algorithms: vec!["FIFO".into(), "S3-FIFO".into(), "S3-FIFO-D".into()],
        config: SimConfig::large(),
        threads: threads_from_env(),
    };
    let records = run_sweep(&spec).expect("sweep");
    let sums = summarize_reductions(&records, false);
    let rows: Vec<Vec<String>> = sums
        .iter()
        .map(|(a, s)| vec![a.clone(), f3(s.p10), f3(s.p50), f3(s.p90), f3(s.mean)])
        .collect();
    print_table(&["algorithm", "P10", "P50", "P90", "mean"], &rows);
    println!("(paper: static S3-FIFO beats S3-FIFO-D on most traces; the adaptive");
    println!(" variant only wins on the ~2% adversarial tail)");

    banner("Adversarial two-request trace (second request falls out of S)");
    // Hot background keeps M populated so S is really squeezed to 10%; the
    // gap of 400 pairs (~1600 requests) exceeds S residency but not LRU's.
    let adv = two_request_adversarial_mixed("two-request", 50_000, 400, 1800);
    let cfg = SimConfig {
        size: cache_sim::CacheSizeSpec::Bytes(2000),
        ignore_size: true,
        min_objects: 0,
        floor_objects: 0,
    };
    let mut rows = Vec::new();
    for algo in ["FIFO", "LRU", "S3-FIFO", "S3-FIFO-D", "TinyLFU-0.1", "2Q"] {
        let r = simulate_named(algo, &adv, &cfg).unwrap().unwrap();
        rows.push(vec![algo.to_string(), f4(r.miss_ratio)]);
    }
    print_table(&["algorithm", "miss ratio"], &rows);
    println!("(paper: partitioned algorithms suffer here because the second request");
    println!(" misses the probationary region; plain FIFO/LRU can serve it)");
}
