//! Fig. 3: distribution of one-hit-wonder ratios across all corpus traces
//! at full / 50 % / 10 % / 1 % sequence lengths (P10, median, mean, P90).
//!
//! Run: `cargo run --release -p cache-bench --bin fig3_corpus_one_hit`

use cache_bench::{banner, corpus_traces, f3, print_table};
use cache_ds::hist::summarize;
use cache_trace::analysis::{one_hit_wonder_ratio, sampled_window_ohw};

fn main() {
    banner("Fig. 3: one-hit-wonder ratio across all traces");
    let mut full = Vec::new();
    let mut p50 = Vec::new();
    let mut p10 = Vec::new();
    let mut p01 = Vec::new();
    for (_, t) in corpus_traces() {
        full.push(one_hit_wonder_ratio(&t.requests));
        p50.push(sampled_window_ohw(&t.requests, 0.5, 15, 1));
        p10.push(sampled_window_ohw(&t.requests, 0.1, 15, 2));
        p01.push(sampled_window_ohw(&t.requests, 0.01, 15, 3));
    }
    let mut rows = Vec::new();
    for (label, vals, paper_median) in [
        ("full trace", &full, 0.26),
        ("50% objects", &p50, 0.38),
        ("10% objects", &p10, 0.72),
        ("1% objects", &p01, 0.78),
    ] {
        let s = summarize(vals);
        rows.push(vec![
            label.to_string(),
            f3(s.p10),
            f3(s.p50),
            f3(s.mean),
            f3(s.p90),
            format!("{paper_median:.2}"),
        ]);
    }
    print_table(
        &["window", "P10", "median", "mean", "P90", "paper median"],
        &rows,
    );
    println!("(expected shape: the median rises steeply as the window shrinks)");
}
