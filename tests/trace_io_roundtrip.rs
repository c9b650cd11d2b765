//! Trace serialization round-trips through real files.

use cache_trace::ctr;
use cache_trace::gen::{SizeModel, WorkloadSpec};
use cache_trace::io;

#[test]
fn csv_file_roundtrip() {
    let mut spec = WorkloadSpec::zipf("io-test", 5000, 500, 1.0, 9);
    spec.size_model = SizeModel::Uniform { min: 1, max: 9999 };
    let trace = spec.generate();
    let dir = std::env::temp_dir();
    let path = dir.join("s3fifo_repro_io_test.csv");
    {
        let mut f = std::fs::File::create(&path).expect("create temp file");
        io::write_csv(&trace, &mut f).expect("write");
    }
    let back = io::read_csv("io-test", std::fs::File::open(&path).expect("open")).expect("read");
    assert_eq!(trace.to_requests(), back.to_requests());
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_file_roundtrip() {
    let trace = WorkloadSpec::zipf("io-bin", 20_000, 2000, 0.9, 10).generate();
    let dir = std::env::temp_dir();
    let path = dir.join("s3fifo_repro_io_test.ctr");
    ctr::write_trace(
        &trace,
        std::fs::File::create(&path).expect("create temp file"),
    )
    .expect("write");
    let file = std::fs::File::open(&path).expect("open");
    let (back, _) = ctr::read_trace_original_ids("io-bin", file).expect("decode");
    assert_eq!(trace.to_requests(), back.to_requests());
    std::fs::remove_file(&path).ok();
}

#[test]
fn miss_ratio_identical_after_roundtrip() {
    use cache_sim::{simulate_named, SimConfig};
    let trace = WorkloadSpec::zipf("io-sim", 20_000, 2000, 1.0, 11).generate();
    let (encoded, _) = ctr::write_trace(&trace, std::io::Cursor::new(Vec::new())).expect("encode");
    // Dense ids, not the originals: a replay counts the same either way.
    let (back, _) =
        ctr::read_trace("io-sim", std::io::Cursor::new(encoded.into_inner())).expect("decode");
    let cfg = SimConfig::large();
    let a = simulate_named("S3-FIFO", &trace, &cfg).unwrap().unwrap();
    let b = simulate_named("S3-FIFO", &back, &cfg).unwrap().unwrap();
    assert_eq!(a.misses, b.misses);
}
