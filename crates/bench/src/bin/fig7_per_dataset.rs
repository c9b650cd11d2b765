//! Fig. 7: mean miss-ratio reduction per dataset for selected algorithms,
//! and the "best algorithm per dataset" count the paper headlines
//! (S3-FIFO best on 10 of 14 datasets at the large size).
//!
//! Run: `cargo run --release -p cache-bench --bin fig7_per_dataset`

use cache_bench::{banner, corpus_traces, f3, print_table, threads_from_env};
use cache_sim::sweep::per_dataset_means;
use cache_sim::{run_sweep, SimConfig, SweepSpec};
use std::collections::BTreeMap;

const ALGOS: &[&str] = &[
    "FIFO",
    "S3-FIFO",
    "TinyLFU",
    "TinyLFU-0.1",
    "LIRS",
    "2Q",
    "ARC",
    "LRU",
    "CLOCK",
];

fn run(label: &str, cfg: SimConfig) {
    let traces = corpus_traces();
    banner(&format!(
        "Fig. 7 ({label}): mean miss-ratio reduction per dataset"
    ));
    let spec = SweepSpec {
        traces: traces.iter().map(|(d, t)| (d.clone(), t)).collect(),
        algorithms: ALGOS.iter().map(|s| s.to_string()).collect(),
        config: cfg,
        threads: threads_from_env(),
    };
    let records = run_sweep(&spec).expect("sweep");
    let means = per_dataset_means(&records);
    // dataset -> algo -> mean
    let mut by_ds: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for (ds, algo, m) in means {
        by_ds.entry(ds).or_default().insert(algo, m);
    }
    let algos: Vec<&str> = ALGOS.iter().copied().filter(|a| *a != "FIFO").collect();
    let mut rows = Vec::new();
    let mut best_count: BTreeMap<String, usize> = BTreeMap::new();
    for (ds, per_algo) in &by_ds {
        let mut row = vec![ds.clone()];
        let best = per_algo
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .map(|(a, _)| a.clone())
            .unwrap_or_default();
        *best_count.entry(best.clone()).or_insert(0) += 1;
        for a in &algos {
            let v = per_algo.get(*a).copied().unwrap_or(f64::NAN);
            let marker = if *a == best { "*" } else { "" };
            row.push(format!("{}{}", f3(v), marker));
        }
        rows.push(row);
    }
    let mut headers = vec!["dataset"];
    headers.extend(algos.iter().copied());
    print_table(&headers, &rows);
    println!("best-algorithm count per dataset (*):");
    for (a, c) in best_count {
        println!("  {a}: {c}");
    }
}

fn main() {
    run("large cache, 10%", SimConfig::large());
    println!("(paper: S3-FIFO best on 10/14 datasets, top-3 on 13/14)");
    run("small cache, 0.1%", SimConfig::small());
    println!("(paper: S3-FIFO best on 7/14 datasets at the small size)");
}
