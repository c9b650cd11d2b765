//! Runs the built binary the way the benchmark driver does, at smoke scale:
//! every workload, both trace modes, and the ledger and compare commands.

use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_perf-ledger");
const WORKLOADS: [&str; 4] = [
    "srv-get-small",
    "srv-set-large",
    "lib-mt-zipf",
    "sim-ctr-mrc",
];

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn perf-ledger")
}

/// The metric names of a result line, in order, after checking its shape.
fn metric_names(out: &Output) -> Vec<String> {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    line.split("\": {\"value\": ")
        .filter_map(|part| part.rsplit('"').next())
        .filter(|name| !name.contains('}') && !name.contains(' '))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_workload_prints_every_metric_in_both_modes() {
    for workload in WORKLOADS {
        let untraced = metric_names(&run(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]));
        assert_eq!(
            untraced,
            [
                "setup_s",
                "sat_ops_per_s",
                "lat_p50_us",
                "miss_ratio",
                "peak_rss_mb"
            ],
            "{workload}"
        );
        let traced = metric_names(&run(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--smoke",
        ]));
        assert_eq!(traced.len(), 68, "{workload}: {traced:?}");
        assert!(["trace_overhead_frac", "fail_frac", "lat_p99_us"]
            .iter()
            .all(|name| traced.iter().any(|t| t == name)));
        let trace_file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&trace_file).expect("trace file written");
        assert!(
            text.contains("\"spans\": [{\"name\": "),
            "{workload}: no spans in the trace file"
        );
    }
}

#[test]
fn an_unknown_workload_or_a_missing_flag_fails_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success());
        assert!(
            out.stdout.is_empty(),
            "printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn ledger_writes_an_envelope_and_compare_refuses_smoke() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("ledger-smoke-test.json");
    let path = path.to_str().expect("utf-8 path");
    let out = run(&[
        "ledger",
        "--smoke",
        "--runs",
        "2",
        "--seconds",
        "1",
        "--seed",
        "5",
        "--out",
        path,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(path).expect("ledger written");
    for needle in [
        "\"schema\": \"perf-ledger/1\"",
        "\"smoke\": true",
        "\"nproc\": ",
        "\"rustc\": ",
        "\"git_rev\": ",
        "\"open_rate_per_s\": ",
        "\"bounds\": ",
    ] {
        assert!(text.contains(needle), "ledger lacks {needle}");
    }
    let summary = String::from_utf8_lossy(&out.stdout);
    for workload in WORKLOADS {
        assert!(summary.contains(workload), "summary lacks {workload}");
    }
    let cmp = run(&["compare", path, path]);
    assert!(!cmp.status.success());
    assert!(
        String::from_utf8_lossy(&cmp.stderr).contains("smoke"),
        "{}",
        String::from_utf8_lossy(&cmp.stderr)
    );
}
