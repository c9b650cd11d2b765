//! The perf ledger: four workloads over the program's public surface,
//! end-to-end metrics from untraced runs and per-layer metrics from traced
//! ones. README.md has the why; `BENCHMARK.json` at the repository root has
//! the contract this binary's last line of output meets.
//!
//! ```text
//! perf-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perf-ledger ledger [--runs N] [--seed S] [--seconds S] [--smoke] [--out FILE]
//! perf-ledger compare A.json B.json
//! ```

mod affinity;
mod compare;
mod json;
mod layers;
mod ledger;
mod lib_mt;
mod plan;
mod report;
mod sim;
mod spans;
mod srv;
mod wire;

use report::RunResult;
use spans::Span;
use std::path::PathBuf;
use std::process::ExitCode;

/// `Smoke` shrinks every workload to about a second per phase. It exists
/// for this crate's own tests; its numbers mean nothing, ledgers made with
/// it say so, and `compare` refuses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

/// What a traced run hands back beside its metrics.
#[derive(Debug, Default)]
pub struct TraceOut {
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
}

/// Where the benchmark writes: `benchmark/out/` of the checkout it was
/// built in.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

pub fn run_workload(args: &RunArgs, trace: Option<&mut TraceOut>) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "srv-get-small" => srv::run(&srv::GET_SMALL, args.seed, args.seconds, args.scale, trace),
        "srv-set-large" => srv::run(&srv::SET_LARGE, args.seed, args.seconds, args.scale, trace),
        "lib-mt-zipf" => lib_mt::run(args.seed, args.seconds, args.scale, trace),
        "sim-ctr-mrc" => sim::run(args.seed, args.seconds, args.scale, trace),
        other => Err(format!(
            "unknown workload {other:?}; one of {:?}",
            report::WORKLOADS
        )),
    }
}

pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let run = RunArgs {
        workload: flag_value(args, "--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: parse_flag(args, "--seed", 1u64)?,
        seconds: parse_flag(args, "--seconds", 30.0f64)?,
        traced: parse_flag(args, "--trace", 0u8)? != 0,
        scale: Scale::from_args(args),
    };
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let mut trace = run.traced.then(TraceOut::default);
    let result = run_workload(&run, trace.as_mut())?;
    if let Some(trace) = &trace {
        let path = out_dir()
            .map_err(|e| e.to_string())?
            .join(format!("trace-{}.json", run.workload));
        ledger::write_trace_file(&path, &run, &result, trace)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
    }
    for (name, unit) in if run.traced {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    } {
        eprintln!(
            "{name:>34} {:>16.4} {unit}",
            result.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", result.to_json_line(run.traced));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("ledger") => ledger::command(&args[1..]),
        Some("compare") => compare::command(&args[1..]),
        _ => run_command(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perf-ledger: {e}");
        ExitCode::FAILURE
    })
}
