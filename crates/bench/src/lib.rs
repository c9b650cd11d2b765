//! Shared helpers for the benchmark binaries that regenerate every table
//! and figure of the paper's evaluation.
//!
//! Each binary prints the same rows/series the paper reports, plus the
//! paper's published values where applicable, so the *shape* comparison
//! (who wins, by roughly what factor, where crossovers fall) can be read
//! off directly. See `EXPERIMENTS.md` at the workspace root for the
//! recorded paper-vs-measured comparison.
//!
//! Environment knobs (all optional):
//!
//! - `CORPUS_TRACES` — traces per dataset (default 3);
//! - `CORPUS_REQUESTS` — requests per trace (default 150 000);
//! - `BENCH_THREADS` — sweep worker threads (default 0: all cores).
//!
//! A value that is not a whole number, or a zero count of traces or
//! requests, ends the binary with exit status 2 and a message naming the
//! variable, rather than running a scale nobody asked for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cache_trace::corpus::{datasets, CorpusConfig};
use cache_trace::Trace;

/// Parses knob `name`'s `value` (`None`: unset, giving `default`); a value
/// must be a whole number no smaller than `min`.
///
/// # Errors
///
/// A message naming the variable and the value it holds.
fn parse_knob(
    name: &str,
    value: Option<&str>,
    default: usize,
    min: usize,
) -> Result<usize, String> {
    let Some(value) = value else {
        return Ok(default);
    };
    match value.parse::<usize>() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(format!("{name}={value:?}: must be at least {min}")),
        Err(_) => Err(format!("{name}={value:?}: not a whole number")),
    }
}

/// [`parse_knob`] over the environment; exits with status 2 on a bad value.
fn knob(name: &str, default: usize, min: usize) -> usize {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, value.as_deref(), default, min).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Requests per corpus trace, `CORPUS_REQUESTS` (default 150 000).
pub fn requests_from_env() -> usize {
    knob("CORPUS_REQUESTS", 150_000, 1)
}

/// Reads the corpus scale from the environment (see crate docs).
pub fn corpus_config_from_env() -> CorpusConfig {
    CorpusConfig {
        traces_per_dataset: knob("CORPUS_TRACES", 3, 1),
        requests_per_trace: requests_from_env(),
        seed: 0xC0FFEE,
    }
}

/// Every trace of the corpus at the scale the environment asks for, each
/// with its dataset's name, in dataset order.
pub fn corpus_traces() -> Vec<(String, Trace)> {
    let cfg = corpus_config_from_env();
    datasets()
        .iter()
        .flat_map(|ds| {
            ds.traces(&cfg)
                .into_iter()
                .map(|t| (ds.name.to_string(), t))
        })
        .collect()
}

/// Sweep worker threads from the environment (0 = all cores).
pub fn threads_from_env() -> usize {
    knob("BENCH_THREADS", 0, 0)
}

/// Prints an ASCII table with aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<width$}", c, width = widths[i]));
        }
        s
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", line(&hdr));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats a float with 4 decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let cfg = corpus_config_from_env();
        assert!(cfg.traces_per_dataset >= 1);
        assert!(cfg.requests_per_trace >= 1000);
    }

    #[test]
    fn knobs_reject_garbage_and_zero_counts_by_name() {
        assert_eq!(parse_knob("CORPUS_REQUESTS", None, 150_000, 1), Ok(150_000));
        assert_eq!(
            parse_knob("CORPUS_REQUESTS", Some("30000"), 150_000, 1),
            Ok(30_000)
        );
        assert_eq!(parse_knob("BENCH_THREADS", Some("0"), 0, 0), Ok(0));
        for (name, value, min, why) in [
            ("CORPUS_REQUESTS", "0", 1, "at least 1"),
            ("CORPUS_TRACES", "0", 1, "at least 1"),
            ("CORPUS_REQUESTS", "30k", 1, "whole number"),
            ("CORPUS_TRACES", "", 1, "whole number"),
            ("BENCH_THREADS", "-1", 0, "whole number"),
            ("BENCH_THREADS", "2.5", 0, "whole number"),
        ] {
            let err = parse_knob(name, Some(value), 3, min).expect_err(value);
            assert!(err.starts_with(&format!("{name}={value:?}")), "{err}");
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(f4(0.12345), "0.1235");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f2(0.12345), "0.12");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        banner("test");
    }
}
