//! Fig. 11: miss-ratio-reduction percentiles for different small-queue
//! sizes (1 %–40 % of the cache), large and small cache sizes.
//!
//! Run: `cargo run --release -p cache-bench --bin fig11_s_size_sweep`

use cache_bench::{banner, corpus_traces, f3, print_table, threads_from_env};
use cache_sim::{run_sweep, summarize_reductions, SimConfig, SweepSpec};

const S_SIZES: &[f64] = &[0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40];

fn run(label: &str, cfg: SimConfig) {
    let traces = corpus_traces();
    banner(&format!("Fig. 11 ({label}): reduction vs small-queue size"));
    let mut algorithms = vec!["FIFO".to_string()];
    for s in S_SIZES {
        algorithms.push(format!("S3-FIFO({s})"));
    }
    let spec = SweepSpec {
        traces: traces.iter().map(|(d, t)| (d.clone(), t)).collect(),
        algorithms,
        config: cfg,
        threads: threads_from_env(),
    };
    let records = run_sweep(&spec).expect("sweep");
    let mut sums = summarize_reductions(&records, false);
    sums.sort_by(|a, b| a.0.cmp(&b.0));
    let rows: Vec<Vec<String>> = sums
        .iter()
        .map(|(a, s)| vec![a.clone(), f3(s.p10), f3(s.p50), f3(s.p90), f3(s.mean)])
        .collect();
    print_table(&["S size", "P10", "P50", "P90", "mean"], &rows);
}

fn main() {
    run("large cache, 10%", SimConfig::large());
    run("small cache, 0.1%", SimConfig::small());
    println!("(paper: smaller S gives larger best-case reductions but a worse tail;");
    println!(" efficiency is stable for S between 5% and 20%)");
}
