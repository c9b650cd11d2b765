//! CSV ↔ `.ctr` trace conversion and inspection.
//!
//! Run: `cargo run --release -p cache-trace --bin trace_convert -- <cmd> ...`
//!
//! Commands:
//!   to-ctr <in.csv> <out.ctr>   convert CSV to binary (dense ids + id
//!                               table; malformed lines are skipped and
//!                               counted, like the lossy CSV reader)
//!   to-csv <in.ctr> <out.csv>   convert binary back to CSV with original
//!                               ids (materializes the trace — for traces
//!                               that fit in memory)
//!   info <file.ctr>             print the validated header
//!   verify <a.csv> <b.ctr>      check the two encode the same trace up to
//!                               the id table bijection (exit 1 if not)

use cache_trace::ctr::{read_trace_original_ids, write_trace, CtrReader};
use cache_trace::io::{read_csv_lossy, write_csv};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom};
use std::path::Path;
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    exit(1);
}

fn open(path: &str) -> File {
    File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")))
}

fn create(path: &str) -> File {
    File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")))
}

fn trace_name(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".into())
}

fn to_ctr(csv_path: &str, ctr_path: &str) {
    let (trace, report) = read_csv_lossy(trace_name(csv_path), open(csv_path))
        .unwrap_or_else(|e| fail(&format!("reading {csv_path}: {e}")));
    if report.skipped_lines > 0 {
        eprintln!(
            "warning: skipped {} malformed lines (first: {:?})",
            report.skipped_lines,
            report.first_skips.first()
        );
    }
    let mut w = BufWriter::new(create(ctr_path));
    // BufWriter<File> seeks by flushing first, which is exactly the header
    // patch-up `write_trace` needs.
    w.seek(SeekFrom::Start(0))
        .unwrap_or_else(|e| fail(&format!("seeking {ctr_path}: {e}")));
    let (_, info) = write_trace(&trace, w)
        .unwrap_or_else(|e| fail(&format!("writing {ctr_path}: {e}")));
    println!(
        "wrote {} records, id space {}, op lane {}",
        info.records, info.id_space, info.lanes.ops
    );
}

fn to_csv(ctr_path: &str, csv_path: &str) {
    let (trace, _info) = read_trace_original_ids(trace_name(ctr_path), open(ctr_path))
        .unwrap_or_else(|e| fail(&format!("reading {ctr_path}: {e}")));
    let mut w = BufWriter::new(create(csv_path));
    write_csv(&trace, &mut w).unwrap_or_else(|e| fail(&format!("writing {csv_path}: {e}")));
    println!("wrote {} requests", trace.len());
}

fn info(ctr_path: &str) {
    let reader = CtrReader::open(open(ctr_path))
        .unwrap_or_else(|e| fail(&format!("reading {ctr_path}: {e}")));
    let i = reader.info();
    println!("records:      {}", i.records);
    println!("id space:     {}", i.id_space);
    println!("record bytes: {}", i.record_bytes);
    println!("op lane:      {}", i.lanes.ops);
    println!("id table:     {}", i.has_id_table);
}

fn verify(csv_path: &str, ctr_path: &str) {
    let (csv, report) = read_csv_lossy(trace_name(csv_path), open(csv_path))
        .unwrap_or_else(|e| fail(&format!("reading {csv_path}: {e}")));
    if report.skipped_lines > 0 {
        eprintln!("note: {} malformed CSV lines skipped", report.skipped_lines);
    }
    let (ctr, _info) = read_trace_original_ids(trace_name(ctr_path), open(ctr_path))
        .unwrap_or_else(|e| fail(&format!("reading {ctr_path}: {e}")));
    if csv.len() != ctr.len() {
        fail(&format!(
            "length mismatch: {} CSV requests vs {} binary records",
            csv.len(),
            ctr.len()
        ));
    }
    for (i, (a, b)) in csv.iter().zip(ctr.iter()).enumerate() {
        if a.id != b.id || a.size != b.size || a.op != b.op {
            fail(&format!(
                "request {i} differs: csv {a:?} vs binary {b:?}"
            ));
        }
    }
    println!("ok: {} requests identical", csv.len());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("to-ctr") if args.len() == 4 => to_ctr(&args[2], &args[3]),
        Some("to-csv") if args.len() == 4 => to_csv(&args[2], &args[3]),
        Some("info") if args.len() == 3 => info(&args[2]),
        Some("verify") if args.len() == 4 => verify(&args[2], &args[3]),
        _ => {
            eprintln!(
                "usage: trace_convert to-ctr <in.csv> <out.ctr>\n\
                 \x20      trace_convert to-csv <in.ctr> <out.csv>\n\
                 \x20      trace_convert info <file.ctr>\n\
                 \x20      trace_convert verify <a.csv> <b.ctr>"
            );
            exit(2);
        }
    }
}
