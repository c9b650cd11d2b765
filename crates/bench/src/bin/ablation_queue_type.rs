//! §6.3 "LRU or FIFO?": replace S3-FIFO's queues with LRU queues — with
//! quick demotion in place, the queue type should not matter — and, after
//! §7, its main queue with SIEVE.
//!
//! Run: `cargo run --release -p cache-bench --bin ablation_queue_type`

use cache_bench::{banner, corpus_traces, f3, print_table, threads_from_env};
use cache_sim::{run_sweep, summarize_reductions, SimConfig, SweepSpec};

fn main() {
    let traces = corpus_traces();
    banner("Queue-type ablation (large cache, 10% of footprint)");
    let spec = SweepSpec {
        traces: traces.iter().map(|(d, t)| (d.clone(), t)).collect(),
        algorithms: vec![
            "FIFO".into(),
            "S3-FIFO".into(),       // S=FIFO, M=FIFO (the paper's design)
            "QDLP-LRU-FIFO".into(), // S=LRU
            "QDLP-FIFO-LRU".into(), // M=LRU
            "QDLP-LRU-LRU".into(),  // both LRU (ARC-like data queues)
            "S3-FIFO-Sieve".into(), // M=SIEVE (§7)
            "ARC".into(),
        ],
        config: SimConfig::large(),
        threads: threads_from_env(),
    };
    let records = run_sweep(&spec).expect("sweep");
    let sums = summarize_reductions(&records, false);
    let rows: Vec<Vec<String>> = sums
        .iter()
        .map(|(a, s)| vec![a.clone(), f3(s.p10), f3(s.p50), f3(s.p90), f3(s.mean)])
        .collect();
    print_table(&["variant", "P10", "P50", "P90", "mean"], &rows);
    println!("(paper: LRU queues do not improve efficiency — with quick demotion,");
    println!(" the queue type does not matter; two-LRU-queue designs like ARC lag)");
}
