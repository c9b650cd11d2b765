//! Closed-loop load generator: the CLI client for a running `cache_server`.
//!
//! Drives the server at `--addr` with the nominal Zipf mix and prints a
//! latency/throughput summary. Throughput numbers that are tracked come from
//! the ledger in `benchmark/`; the scenarios that assert server health
//! (nominal, burst, degraded, clean drain) are the chaos suite in
//! `cache_server`'s tests.
//!
//! ```text
//! cache_loadgen --addr HOST:PORT [--clients N] [--requests N] [--seed N]
//! ```
//!
//! Exit codes: 0 ok; 1 usage error, or no request completed.

use cache_server::loadgen::{self, LoadgenConfig};
use std::net::SocketAddr;

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: cache_loadgen --addr HOST:PORT [--clients N] [--requests N] [--seed N]";
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        return;
    }
    let Some(addr) = parse_flag::<String>(&args, "--addr") else {
        eprintln!("{usage}");
        std::process::exit(1);
    };
    let addr: SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cache_loadgen: bad --addr: {e}");
            std::process::exit(1);
        }
    };
    let seed = parse_flag::<u64>(&args, "--seed").unwrap_or(0x5EED_CAFE);
    let clients = parse_flag::<usize>(&args, "--clients").unwrap_or(4);
    let requests = parse_flag::<usize>(&args, "--requests").unwrap_or(4_000);

    let r = loadgen::run(&LoadgenConfig::zipf(addr, clients, requests, seed));
    let q = |p: f64| r.latencies_us.quantile(p).unwrap_or(0);
    println!(
        "ops={} thr={:.0}/s p50={}us p99={}us p999={}us hits={} misses={} stored={} \
         timeouts={} shed={} busy={} degr={} cerr={} io={}",
        r.ops,
        r.throughput(),
        q(0.50),
        q(0.99),
        q(0.999),
        r.hits,
        r.misses,
        r.stored,
        r.errors.timeouts,
        r.errors.shed,
        r.errors.busy,
        r.errors.degradation,
        r.errors.client_errors,
        r.errors.io_errors,
    );
    if r.ops == 0 {
        std::process::exit(1);
    }
}
