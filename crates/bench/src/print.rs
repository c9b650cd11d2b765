//! What `repro` prints for each figure: the function of [`crate::figures`]
//! at the paper's scale, as the rows and series the paper reports, plus
//! its published values where there are any.

use crate::figures::{self as fig, dataset_trace};
use crate::{banner, f2, f3, f4, print_table, Run};
use cache_ds::hist::Summary;
use cache_flash::FlashStats;
use cache_sim::SimConfig;
use cache_trace::analysis::TraceStats;
use cache_trace::corpus::{msr_like, twitter_like};
use std::collections::BTreeMap;

/// Requests per trace of the figures drawn over named traces rather than
/// the corpus.
const REQUESTS: usize = 400_000;

/// The two cache sizes, with each figure's label for them.
fn sizes(large: &'static str, small: &'static str) -> [(SimConfig, &'static str); 2] {
    [(SimConfig::large(), large), (SimConfig::small(), small)]
}

/// A table row: `first`, then `cells`.
fn row(first: impl ToString, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.to_string()).chain(cells).collect()
}

/// A percentile table of reduction summaries, first column `first`; `all`
/// adds P25, P75 and the count to P10, P50, P90 and the mean.
fn reduction_table(first: &str, sums: &[(String, Summary)], all: bool) {
    let rows = sums.iter().map(|(a, s)| {
        let cells = if all {
            vec![s.p10, s.p25, s.p50, s.p75, s.p90, s.mean]
        } else {
            vec![s.p10, s.p50, s.p90, s.mean]
        };
        let n = all.then(|| s.n.to_string());
        row(a, cells.into_iter().map(f3).chain(n))
    });
    let cols: &[&str] = if all {
        &["P10", "P25", "P50", "P75", "P90", "mean", "n"]
    } else {
        &["P10", "P50", "P90", "mean"]
    };
    print_table(&[&[first], cols].concat(), rows);
}

pub fn table1(run: &Run) {
    banner("Table 1: dataset statistics (synthetic corpus vs paper OHW)");
    let cfg = run.corpus;
    println!(
        "corpus: {} traces/dataset x {} requests",
        cfg.traces_per_dataset, cfg.requests_per_trace
    );
    let rows = fig::table1(run.traces()).into_iter().map(|(ds, stats)| {
        let sum = |f: fn(&TraceStats) -> usize| stats.iter().map(f).sum::<usize>() / 1000;
        let ohw = |f: fn(&TraceStats) -> f64, paper| {
            let mean = stats.iter().map(f).sum::<f64>() / stats.len() as f64;
            format!("{} / {}", f2(mean), f2(paper))
        };
        row(
            ds.name,
            [
                ds.cache_type.label().to_string(),
                stats.len().to_string(),
                format!("{}k", sum(|s| s.requests)),
                format!("{}k", sum(|s| s.objects)),
                ohw(|s| s.ohw_full, ds.paper_ohw.0),
                ohw(|s| s.ohw_10pct, ds.paper_ohw.1),
                ohw(|s| s.ohw_1pct, ds.paper_ohw.2),
            ],
        )
    });
    print_table(
        &[
            "dataset",
            "type",
            "#traces",
            "#req",
            "#obj",
            "OHW full (ours/paper)",
            "OHW 10% (ours/paper)",
            "OHW 1% (ours/paper)",
        ],
        rows,
    );
}

pub fn fig2(_: &Run) {
    let series = fig::fig2(REQUESTS, 100_000);
    let windows = fig::FIG2_WINDOWS.map(|f| format!("{:.0}%", f * 100.0));
    let mut headers = vec!["trace"];
    headers.extend(windows.iter().map(String::as_str));
    let table = |labels: &[&str], series: &[(String, Vec<f64>)]| {
        let rows = labels.iter().zip(series);
        print_table(
            &headers,
            rows.map(|(l, (_, r))| row(l, r.iter().map(|&v| f3(v)))),
        );
    };
    banner("Fig. 2 (a,b): synthetic Zipf, one-hit-wonder ratio vs window");
    let zipf: Vec<&str> = series[..4].iter().map(|(name, _)| name.as_str()).collect();
    table(&zipf, &series[..4]);
    println!("(expected shape: OHW falls monotonically with window length;");
    println!(" higher alpha gives lower OHW at the same window length)");

    banner("Fig. 2 (c,d): production-like traces");
    let labels = [
        "msr-like (paper full=0.38@hm_0)",
        "twitter-like (paper full=0.13@c52)",
    ];
    table(&labels, &series[4..]);
    println!("(paper: at the 10% window, Twitter ~0.26, MSR ~0.75)");
}

pub fn fig3(run: &Run) {
    banner("Fig. 3: one-hit-wonder ratio across all traces");
    let windows = ["full trace", "50% objects", "10% objects", "1% objects"];
    let paper_medians = [0.26, 0.38, 0.72, 0.78];
    let sums = fig::fig3(run.traces());
    let rows = windows
        .iter()
        .zip(paper_medians)
        .zip(sums)
        .map(|((label, paper), s)| {
            let cells = [s.p10, s.p50, s.mean, s.p90].map(f3);
            row(label, cells.into_iter().chain([format!("{paper:.2}")]))
        });
    print_table(
        &["window", "P10", "median", "mean", "P90", "paper median"],
        rows,
    );
    println!("(expected shape: the median rises steeply as the window shrinks)");
}

pub fn fig4(_: &Run) {
    banner("Fig. 4: frequency of objects at eviction (cache = 10% of footprint)");
    // Twitter's and MSR's P(freq=0) for LRU and Belady, in the paper.
    let paper = [0.26, 0.24, 0.82, 0.68];
    let rows = fig::fig4(REQUESTS)
        .into_iter()
        .zip(paper)
        .map(|(r, paper)| {
            let cells = [
                r.algorithm.clone(),
                f3(r.one_hit_eviction_fraction),
                format!("{paper:.2}"),
                f3(r.freq_at_eviction.mean()),
                f3(r.miss_ratio),
            ];
            row(&r.trace, cells)
        });
    print_table(
        &[
            "trace",
            "algorithm",
            "P(freq=0 at eviction) ours",
            "paper",
            "mean freq at eviction",
            "miss ratio",
        ],
        rows,
    );
    println!("(paper: most evicted objects have no post-insert access, even under Belady)");
}

pub fn fig6(run: &Run) {
    let traces = run.traces();
    println!("corpus: {} traces", traces.len());
    let notes = [
        "(paper: S3-FIFO has the largest reductions at almost all percentiles;\n \
         mean reduction 14%, P90 > 32%; TinyLFU closest but with a negative tail)",
        "(paper: at the small size TinyLFU is worse than FIFO on ~half the traces)",
    ];
    let sizes = sizes(
        "large cache, 10% of footprint",
        "small cache, 0.1% of footprint",
    );
    for ((config, label), note) in sizes.into_iter().zip(notes) {
        banner(&format!("Fig. 6 ({label}): miss ratio reduction vs FIFO"));
        reduction_table("algorithm", &fig::fig6(traces, config), true);
        println!("{note}");
    }
}

pub fn fig7(run: &Run) {
    let notes = [
        "(paper: S3-FIFO best on 10/14 datasets, top-3 on 13/14)",
        "(paper: S3-FIFO best on 7/14 datasets at the small size)",
    ];
    let algorithms = &fig::FIG7_ALGORITHMS[1..];
    let sizes = sizes("large cache, 10%", "small cache, 0.1%");
    for ((config, label), note) in sizes.into_iter().zip(notes) {
        banner(&format!(
            "Fig. 7 ({label}): mean miss-ratio reduction per dataset"
        ));
        let mut rows = Vec::new();
        let mut best_count: BTreeMap<String, usize> = BTreeMap::new();
        for (ds, per_algo) in fig::fig7(run.traces(), config) {
            // Invariant: miss ratios are finite, so means are never NaN.
            let best = per_algo
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"));
            let best = best.map(|(a, _)| a.clone()).unwrap_or_default();
            let cells = algorithms.iter().map(|a| {
                let v = per_algo.get(*a).copied().unwrap_or(f64::NAN);
                format!("{}{}", f3(v), if *a == best { "*" } else { "" })
            });
            rows.push(row(ds, cells));
            *best_count.entry(best).or_insert(0) += 1;
        }
        print_table(&[&["dataset"], algorithms].concat(), rows);
        println!("best-algorithm count per dataset (*):");
        for (a, c) in best_count {
            println!("  {a}: {c}");
        }
        println!("{note}");
    }
}

pub fn fig9(_: &Run) {
    for name in ["wiki_cdn", "tencent_photo"] {
        let trace = dataset_trace(name, REQUESTS, 31);
        banner(&format!(
            "Fig. 9: {} (cache = 10% of footprint bytes)",
            trace.name
        ));
        let footprint = trace.footprint_bytes();
        let rows = fig::fig9(&trace).into_iter().map(|(admission, dram, s)| {
            let cells = [
                format!("{:.1}%", dram * 100.0),
                f3(s.normalized_write_bytes(footprint)),
                f3(s.miss_ratio()),
            ];
            row(admission, cells)
        });
        print_table(
            &[
                "admission",
                "DRAM size",
                "write bytes (norm.)",
                "miss ratio",
            ],
            rows,
        );
    }
    println!("(paper: the small-FIFO filter reduces BOTH write bytes and miss ratio;");
    println!(" Flashield needs a large DRAM (10%) to work; probabilistic admission");
    println!(" trades miss ratio for writes regardless of DRAM size)");
}

pub fn fig10(_: &Run) {
    for trace in [twitter_like(REQUESTS, 17), msr_like(REQUESTS, 17)] {
        for (config, label) in sizes("large cache, 10%", "small cache, 0.1%") {
            banner(&format!("Fig. 10: {} ({label})", trace.name));
            let panel = fig::fig10(&trace, config);
            println!(
                "cache = {} objects, LRU eviction age = {:.0}",
                panel.capacity, panel.lru_age
            );
            let rows = panel.rows.iter().map(|(family, s, m)| {
                let s = s.map_or("adaptive".into(), |s| format!("S={s}"));
                row(family, [s, f2(m.speed), f3(m.precision), f4(m.miss_ratio)])
            });
            print_table(
                &[
                    "algorithm",
                    "S size",
                    "demotion speed",
                    "precision",
                    "miss ratio",
                ],
                rows,
            );
        }
    }
    println!("(paper: smaller S -> monotonically faster demotion; precision peaks at");
    println!(" an intermediate S; at equal speed S3-FIFO is more precise than TinyLFU;");
    println!(" higher precision at similar speed tracks lower miss ratio)");
}

pub fn fig11(run: &Run) {
    for (config, label) in sizes("large cache, 10%", "small cache, 0.1%") {
        banner(&format!("Fig. 11 ({label}): reduction vs small-queue size"));
        reduction_table("S size", &fig::fig11(run.traces(), config), false);
    }
    println!("(paper: smaller S gives larger best-case reductions but a worse tail;");
    println!(" efficiency is stable for S between 5% and 20%)");
}

pub fn table2(_: &Run) {
    let s_sizes: Vec<String> = fig::S_SIZES
        .iter()
        .rev()
        .map(|s| format!("S={s}"))
        .collect();
    let mut headers = vec!["algorithm"];
    headers.extend(s_sizes.iter().map(String::as_str));
    let sizes = sizes(
        "large cache, 10% of footprint",
        "small cache, 0.1% of footprint",
    );
    for trace in [twitter_like(REQUESTS, 21), msr_like(REQUESTS, 21)] {
        for (config, label) in &sizes {
            banner(&format!("Table 2: {} ({label})", trace.name));
            let (arc, lru, families) = fig::table2(&trace, *config);
            println!("ARC miss ratio {}, LRU miss ratio {}", f4(arc), f4(lru));
            let rows = families
                .iter()
                .map(|(f, ratios)| row(f, ratios.iter().map(|&r| f4(r))));
            print_table(&headers, rows);
        }
    }
    println!("(paper: S3-FIFO's miss ratio falls then rises as S shrinks, smoothly;");
    println!(" TinyLFU shows anomalies, e.g. a cliff at S=0.10/0.05 on Twitter-large)");
}

pub fn adaptive(run: &Run) {
    banner("S3-FIFO vs S3-FIFO-D across the corpus (large cache)");
    reduction_table("algorithm", &fig::adaptive(run.traces()), false);
    println!("(paper: static S3-FIFO beats S3-FIFO-D on most traces; the adaptive");
    println!(" variant only wins on the ~2% adversarial tail)");

    banner("Adversarial two-request trace (second request falls out of S)");
    // The gap of 400 pairs (~1600 requests) exceeds S residency but not LRU's.
    let ratios = fig::two_request(50_000, 400);
    let order = ["FIFO", "LRU", "S3-FIFO", "S3-FIFO-D", "TinyLFU-0.1", "2Q"];
    let rows = order
        .iter()
        .filter_map(|name| ratios.iter().find(|(a, _)| a == name))
        .map(|(a, mr)| row(a, [f4(*mr)]));
    print_table(&["algorithm", "miss ratio"], rows);
    println!("(paper: partitioned algorithms suffer here because the second request");
    println!(" misses the probationary region; plain FIFO/LRU can serve it)");
}

pub fn queue_type(run: &Run) {
    banner("Queue-type ablation (large cache, 10% of footprint)");
    reduction_table("variant", &fig::queue_type(run.traces()), false);
    println!("(paper: LRU queues do not improve efficiency — with quick demotion,");
    println!(" the queue type does not matter; two-LRU-queue designs like ARC lag)");
}

pub fn adversarial(_: &Run) {
    banner("Two-request adversarial pattern: miss ratio vs request gap");
    let cache = fig::TWO_REQUEST_CACHE;
    println!(
        "cache = {cache} objects; S3-FIFO's S = {} objects; hot set = {} objects",
        cache / 10,
        cache * 9 / 10
    );
    let rows = [25u64, 50, 100, 200, 400, 800, 1600].map(|gap| {
        let ratios = fig::two_request(40_000, gap);
        row(gap, ratios.iter().map(|(_, mr)| f4(*mr)))
    });
    print_table(&[&["gap"][..], &fig::TWO_REQUEST_ALGORITHMS].concat(), rows);
    println!("(paper: when the gap exceeds the probationary region but not the cache,");
    println!(" the second request hits in FIFO/LRU but misses in partitioned designs;");
    println!(" beyond the cache size everyone misses everything)");
}

pub fn mrc_and_sampling(_: &Run) {
    banner("Miss-ratio curves: convexity check (§6.2.3)");
    let rows = fig::mrc_curves(200_000).into_iter().map(|(label, c)| {
        let mut cells = vec![c.algorithm.clone()];
        cells.extend(c.points.iter().map(|p| f4(p.miss_ratio)));
        cells.push(if c.is_convex() { "yes" } else { "NO" }.into());
        row(label, cells)
    });
    let capacities = fig::MRC_CAPACITIES.map(|c| format!("C={c}"));
    let mut headers = vec!["trace", "algorithm"];
    headers.extend(capacities.iter().map(String::as_str));
    headers.push("convex?");
    print_table(&headers, rows);
    println!("(paper: scan/loop-heavy workloads have non-convex MRCs, which is why");
    println!(" gradient-following adaptive algorithms can get stuck)");

    banner("SHARDS spatial sampling: miniature vs full simulation");
    let rows = fig::sampling(200_000)
        .into_iter()
        .map(|(algorithm, full, sampled)| {
            row(algorithm, [full].into_iter().chain(sampled).map(f4))
        });
    print_table(
        &["algorithm", "full MR", "rate 0.5", "rate 0.2", "rate 0.1"],
        rows,
    );
    println!("(miniature simulations estimate the full miss ratio at a fraction of");
    println!(" the cost — the paper used ~1M core-hours; sampling is the remedy)");
}

pub fn fault_resilience(run: &Run) {
    let trace = dataset_trace("cdn1", run.corpus.requests_per_trace, 0xC0FFEE);
    banner(&format!(
        "Fault resilience: {} ({} requests, S3-FIFO admission, 1% DRAM)",
        trace.name,
        trace.len()
    ));
    let runs = fig::fault_resilience(&trace);
    let writes = |s: &FlashStats| s.normalized_write_bytes(trace.footprint_bytes());
    let (_, base) = &runs[0];
    let rows = runs.iter().map(|(rate, s)| {
        let rate = if *rate == 0.0 {
            "0 (none)".into()
        } else {
            format!("{:.1}%", rate * 100.0)
        };
        let cells = [
            f3(s.miss_ratio()),
            format!("{:+.3}", s.miss_ratio() - base.miss_ratio()),
            f3(writes(s)),
            format!("{:+.3}", writes(s) - writes(base)),
            s.retries.to_string(),
            s.budget_trips.to_string(),
            s.budget_recoveries.to_string(),
            s.degraded_ops.to_string(),
        ];
        row(rate, cells)
    });
    print_table(
        &[
            "fault rate",
            "miss ratio",
            "Δ miss",
            "write bytes (norm.)",
            "Δ writes",
            "retries",
            "trips",
            "recoveries",
            "degraded ops",
        ],
        rows,
    );
    println!(
        "\nΔ is relative to the fault-free baseline. Retry absorbs transient\n\
         faults at low rates; at high rates the error budget trips and the\n\
         cache degrades to DRAM-only (higher miss ratio, near-zero writes)\n\
         instead of failing."
    );
}
