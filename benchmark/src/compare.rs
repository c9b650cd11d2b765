//! `compare A.json B.json`: is ledger B worse than ledger A? One row per
//! end-to-end metric and workload, never a combined score.

use crate::json::{parse, Value};
use crate::spans::quartiles;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread of one side is wider than the bound, so a
    /// difference of the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, quartiles and spread (interquartile distance over the median) of
/// one side's samples.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(samples: &[f64]) -> Side {
        match samples {
            [] => Side {
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
            },
            [one] => Side {
                q1: *one,
                median: *one,
                q3: *one,
            },
            _ => {
                let [q1, median, q3] = quartiles(samples);
                Side { q1, median, q3 }
            }
        }
    }

    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// B against A for one metric on one workload. `bound` is the share of A's
/// median by which B's may be worse.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb) = (Side::of(a), Side::of(b));
    if sa.spread() > bound || sb.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = if sa.median == 0.0 {
        if sb.median == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(sb.median)
        }
    } else {
        (sb.median - sa.median) / sa.median.abs()
    };
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn samples(ledger: &Value, workload: &str, metric: &str) -> Vec<f64> {
    ledger
        .path(&format!("workloads/{workload}/end_to_end/{metric}/samples"))
        .map(|v| v.items().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Why two ledgers must not be compared, if they must not.
pub fn refusal(a: &Value, b: &Value) -> Option<String> {
    for (side, ledger) in [("first", a), ("second", b)] {
        if ledger.get("schema").and_then(Value::as_str) != Some("perf-ledger/1") {
            return Some(format!("the {side} file is not a perf-ledger/1 ledger"));
        }
        if ledger.get("smoke").and_then(Value::as_bool) != Some(false) {
            return Some(format!(
                "the {side} ledger is a smoke run; its numbers mean nothing"
            ));
        }
    }
    // Seed, run length, sizes and rates: everything under `config` but the
    // number of runs. And the core count, which sets thread counts.
    let strip = |v: &Value| Value::obj(v.fields().iter().filter(|(k, _)| k != "runs").cloned());
    match (a.get("config"), b.get("config")) {
        (Some(ca), Some(cb)) if strip(ca) == strip(cb) => {}
        _ => return Some("seed, run length, sizes or rates differ".into()),
    }
    if a.path("host/nproc") != b.path("host/nproc") {
        return Some("the two hosts have different core counts".into());
    }
    None
}

/// One row per (workload, metric); returns the verdicts.
pub fn compare(a: &Value, b: &Value) -> Vec<(String, String, Verdict)> {
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<14} {:>14} {:>22} {:>14} {:>22} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound"
    );
    for (workload, _) in a.get("workloads").map(Value::fields).unwrap_or_default() {
        for (metric, spec) in a.get("bounds").map(Value::fields).unwrap_or_default() {
            let lower = spec.get("better").and_then(Value::as_str) == Some("lower");
            let bound = spec.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (va, vb) = (samples(a, workload, metric), samples(b, workload, metric));
            let verdict = judge(&va, &vb, lower, bound);
            let (sa, sb) = (Side::of(&va), Side::of(&vb));
            println!(
                "{workload:<14} {metric:<14} {:>14.4} {:>22} {:>14.4} {:>22} {:>+7.1}% {:>5.0}%  {}",
                sa.median,
                format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                bound * 100.0,
                verdict.label()
            );
            rows.push((workload.clone(), metric.clone(), verdict));
        }
    }
    rows
}

/// Every end-to-end metric of a ledger by name, with unit, sample count,
/// median, quartiles and spread against its bound.
pub fn print_summary(ledger: &Value) {
    println!(
        "{:<14} {:<14} {:>5} {:>14} {:>6} {:>24} {:>8} {:>6}",
        "workload", "metric", "n", "median", "unit", "[q1, q3]", "spread", "bound"
    );
    for (workload, w) in ledger
        .get("workloads")
        .map(Value::fields)
        .unwrap_or_default()
    {
        for (metric, m) in w.get("end_to_end").map(Value::fields).unwrap_or_default() {
            let v: Vec<f64> = m
                .get("samples")
                .map(|s| s.items().iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            let s = Side::of(&v);
            let bound = ledger
                .path(&format!("bounds/{metric}/bound"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            println!(
                "{workload:<14} {metric:<14} {:>5} {:>14.4} {:>6} {:>24} {:>7.2}% {:>5.0}%",
                v.len(),
                s.median,
                m.get("unit").and_then(Value::as_str).unwrap_or(""),
                format!("[{:.4}, {:.4}]", s.q1, s.q3),
                s.spread() * 100.0,
                bound * 100.0
            );
        }
    }
}

pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: perf-ledger compare A.json B.json".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if let Some(why) = refusal(&a, &b) {
        return Err(format!("refusing to compare: {why}"));
    }
    let rows = compare(&a, &b);
    let count = |v: Verdict| rows.iter().filter(|r| r.2 == v).count();
    println!(
        "{} rows: {} same, {} better, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Worse) > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64) -> Vec<f64> {
        // Ten samples within ±1 % of the centre.
        (0..10)
            .map(|i| center * (0.99 + 0.002 * f64::from(i)))
            .collect()
    }

    #[test]
    fn flags_a_regression_of_twice_the_bound() {
        assert_eq!(
            judge(&around(100.0), &around(120.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&around(100.0), &around(80.0), false, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn passes_a_pair_within_the_bound() {
        assert_eq!(
            judge(&around(100.0), &around(105.0), true, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&around(100.0), &around(95.0), false, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&around(100.0), &around(80.0), true, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 4.0 * f64::from(i)).collect();
        assert_eq!(
            judge(&noisy, &around(100.0), true, 0.10),
            Verdict::Unresolved
        );
    }

    fn ledger(seed: f64, smoke: bool, nproc: f64, runs: f64) -> Value {
        Value::obj([
            ("schema", Value::Str("perf-ledger/1".into())),
            ("smoke", Value::Bool(smoke)),
            ("host", Value::obj([("nproc", Value::Num(nproc))])),
            (
                "config",
                Value::obj([("seed", Value::Num(seed)), ("runs", Value::Num(runs))]),
            ),
        ])
    }

    #[test]
    fn refuses_ledgers_that_are_not_comparable() {
        let base = ledger(1.0, false, 2.0, 10.0);
        assert_eq!(
            refusal(&base, &ledger(1.0, false, 2.0, 5.0)),
            None,
            "run count may differ"
        );
        assert!(
            refusal(&base, &ledger(2.0, false, 2.0, 10.0)).is_some(),
            "seed"
        );
        assert!(
            refusal(&base, &ledger(1.0, false, 4.0, 10.0)).is_some(),
            "nproc"
        );
        assert!(
            refusal(&base, &ledger(1.0, true, 2.0, 10.0)).is_some(),
            "smoke"
        );
        assert!(refusal(&Value::Null, &base).is_some(), "not a ledger");
    }
}
