//! Files the benchmark writes: the span file of a traced run, and the
//! ledger, one envelope holding several untraced runs and one traced run of
//! every workload together with everything needed to judge whether two
//! ledgers may be compared (host, seed, sizes, rates).

use crate::json::{parse, Value};
use crate::report::{self, RunResult};
use crate::spans::{self_times, Span, NO_PARENT};
use crate::{out_dir, RunArgs, Scale, TraceOut};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Spans of one name written to a trace file; the rest are counted only.
/// A traced wire run records a few million spans, and the first thousand
/// requests read the same as the last.
const SPANS_PER_NAME: usize = 1000;

/// Writes `trace-<workload>.json`: the per-layer metrics, for every span
/// name its count, total time and total self time, and the first
/// `SPANS_PER_NAME` spans of each name in full.
pub fn write_trace_file(
    path: &Path,
    run: &RunArgs,
    result: &RunResult,
    trace: &TraceOut,
) -> std::io::Result<()> {
    let selfs = self_times(&trace.spans);
    // name -> (spans, calls, total ns, self ns)
    let mut by_name: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    let mut written: Vec<usize> = Vec::new();
    for (i, (span, self_ns)) in trace.spans.iter().zip(&selfs).enumerate() {
        let e = by_name.entry(span.name).or_default();
        if (e.0 as usize) < SPANS_PER_NAME {
            written.push(i);
        }
        e.0 += 1;
        e.1 += u64::from(span.calls);
        e.2 += span.dur_ns();
        e.3 += self_ns;
    }
    // A parent is named by its position among the written spans, or -1.
    let position: BTreeMap<usize, usize> =
        written.iter().enumerate().map(|(at, &i)| (i, at)).collect();
    let span_json = |s: &Span| {
        let parent = if s.parent == NO_PARENT {
            None
        } else {
            position.get(&(s.parent as usize))
        };
        Value::obj([
            ("name", Value::Str(s.name.into())),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            ("parent", Value::Num(parent.map_or(-1.0, |&p| p as f64))),
            ("id", Value::Num(s.id as f64)),
            ("calls", Value::Num(f64::from(s.calls))),
        ])
    };
    let doc = Value::obj([
        ("workload", Value::Str(run.workload.clone())),
        ("seed", Value::Num(run.seed as f64)),
        ("seconds", Value::Num(run.seconds)),
        ("smoke", Value::Bool(run.scale == Scale::Smoke)),
        (
            "notes",
            Value::Arr(trace.notes.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", result.metrics_json(&report::PER_LAYER)),
        (
            "by_name",
            Value::obj(by_name.iter().map(|(name, (spans, calls, total, own))| {
                (
                    *name,
                    Value::obj([
                        ("spans", Value::Num(*spans as f64)),
                        ("calls", Value::Num(*calls as f64)),
                        ("total_ns", Value::Num(*total as f64)),
                        ("self_ns", Value::Num(*own as f64)),
                    ]),
                )
            })),
        ),
        ("spans_total", Value::Num(trace.spans.len() as f64)),
        (
            "spans",
            Value::Arr(
                written
                    .iter()
                    .map(|&i| span_json(&trace.spans[i]))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(path, doc.to_text())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What must match for two ledgers to be comparable, and what helps to
/// explain it when their numbers differ.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::Str(cpu)),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Value::Str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
    ])
}

/// The bounds and directions of the end-to-end metrics, from
/// `BENCHMARK.json` beside this package.
pub fn bounds() -> Result<Value, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text)?;
    let metrics = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    Ok(Value::obj(metrics.items().iter().filter_map(|m| {
        let name = m.get("name")?.as_str()?;
        Some((
            name,
            Value::obj([
                ("better", m.get("better")?.clone()),
                ("bound", m.get("bound")?.clone()),
            ]),
        ))
    })))
}

/// Runs one workload once in a fresh child process, so that peak memory and
/// allocator state are that run's alone, and returns its result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .stderr(Stdio::null());
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", out.status))?;
    parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let runs: usize = crate::parse_flag(args, "--runs", 10)?;
    let seed: u64 = crate::parse_flag(args, "--seed", 1)?;
    let seconds: f64 = crate::parse_flag(args, "--seconds", 30.0)?;
    let scale = Scale::from_args(args);
    let out_path = match crate::flag_value(args, "--out") {
        Some(p) => PathBuf::from(p),
        None => out_dir().map_err(|e| e.to_string())?.join("ledger.json"),
    };

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in report::WORKLOADS {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        let mut note = |what: String, line: &Value| {
            let correct = line
                .get("correct")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            all_correct &= correct;
            eprintln!(
                "{workload} {what}: {}",
                if correct { "ok" } else { "NOT CORRECT" }
            );
        };
        // Untraced runs, each with its own seed; then one traced run.
        for r in 0..runs {
            let line = run_child(workload, seed + r as u64, seconds, false, scale)?;
            note(format!("run {}/{runs}", r + 1), &line);
            attempted.push(line.get("attempted").and_then(Value::as_f64).unwrap_or(0.0));
            failed.push(line.get("failed").and_then(Value::as_f64).unwrap_or(0.0));
            for (name, _) in report::END_TO_END {
                let v = line
                    .path(&format!("metrics/{name}/value"))
                    .and_then(Value::as_f64);
                samples
                    .entry(name)
                    .or_default()
                    .push(v.ok_or_else(|| format!("{workload}: result line lacks {name}"))?);
            }
        }
        let line = run_child(workload, seed, seconds, true, scale)?;
        note("traced run".into(), &line);
        let per_layer = line.get("metrics").cloned().unwrap_or(Value::Null);
        for (name, m) in per_layer.fields() {
            println!(
                "{workload:<14} {name:<34} {:>16.4} {}",
                m.get("value").and_then(Value::as_f64).unwrap_or(0.0),
                m.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
        workloads.push((
            workload,
            Value::obj([
                ("attempted", Value::nums(attempted)),
                ("failed", Value::nums(failed)),
                (
                    "end_to_end",
                    Value::obj(report::END_TO_END.iter().map(|(name, unit)| {
                        let v = samples.remove(name).unwrap_or_default();
                        (
                            *name,
                            Value::obj([
                                ("unit", Value::Str((*unit).into())),
                                ("samples", Value::nums(v)),
                            ]),
                        )
                    })),
                ),
                ("per_layer", per_layer),
            ]),
        ));
    }

    let doc = Value::obj([
        ("schema", Value::Str("perf-ledger/1".into())),
        ("smoke", Value::Bool(scale == Scale::Smoke)),
        ("host", host()),
        (
            "config",
            Value::obj([
                ("seed", Value::Num(seed as f64)),
                ("runs", Value::Num(runs as f64)),
                ("seconds", Value::Num(seconds)),
                ("srv-get-small", crate::srv::GET_SMALL.describe()),
                ("srv-set-large", crate::srv::SET_LARGE.describe()),
                ("lib-mt-zipf", crate::lib_mt::describe()),
                ("sim-ctr-mrc", crate::sim::describe()),
            ]),
        ),
        ("bounds", bounds()?),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::write(&out_path, doc.to_text()).map_err(|e| format!("{}: {e}", out_path.display()))?;
    crate::compare::print_summary(&doc);
    eprintln!("ledger: {}", out_path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}
