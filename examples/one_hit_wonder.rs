//! Reproduces the paper's Fig. 1 toy example and the one-hit-wonder
//! analysis that motivates quick demotion (§3.1).
//!
//! Run: `cargo run --release --example one_hit_wonder`

use cache_trace::analysis::{
    one_hit_wonder_ratio, sampled_window_ohw, window_one_hit_wonder_ratio,
};
use cache_trace::gen::WorkloadSpec;
use cache_trace::Trace;
use cache_types::Request;

fn main() {
    // Fig. 1: seventeen requests to five objects A..E.
    let (a, b, c, d, e) = (1u64, 2, 3, 4, 5);
    let ids = [a, b, a, c, b, a, d, a, b, c, b, a, e, c, a, b, d];
    let prefix = |n: usize| {
        let reqs = ids[..n]
            .iter()
            .enumerate()
            .map(|(t, &id)| Request::get(id, t as u64))
            .collect();
        Trace::new("fig1", reqs)
    };
    println!("Fig. 1 toy sequence: A B A C B A D A B C B A E C A B D");
    println!(
        "  full sequence:   one-hit-wonder ratio = {:.0}% (paper: 20%)",
        one_hit_wonder_ratio(&prefix(ids.len())) * 100.0
    );
    println!(
        "  requests 1..7:   one-hit-wonder ratio = {:.0}% (paper: 50%)",
        window_one_hit_wonder_ratio(&prefix(7), 0, 4) * 100.0
    );
    println!(
        "  requests 1..4:   one-hit-wonder ratio = {:.0}% (paper: 67%)",
        window_one_hit_wonder_ratio(&prefix(4), 0, 3) * 100.0
    );

    // The general phenomenon on a Zipf trace: shorter windows, more
    // one-hit wonders.
    let trace = WorkloadSpec::zipf("zipf", 300_000, 30_000, 1.0, 7).generate();
    println!();
    println!("Zipf(1.0) trace, 300k requests over 30k objects:");
    println!(
        "  full trace OHW = {:.2}",
        one_hit_wonder_ratio(&trace)
    );
    for frac in [0.5, 0.1, 0.01] {
        println!(
            "  window with {:>4.0}% of objects: OHW = {:.2}",
            frac * 100.0,
            sampled_window_ohw(&trace, frac, 30, 1)
        );
    }
    println!();
    println!("=> a cache sized at 10% of the footprint sees mostly one-hit");
    println!("   wonders at eviction time; evicting them early (quick demotion)");
    println!("   is what S3-FIFO's small queue does.");
}
