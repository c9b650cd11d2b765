//! Trace serialization as human-readable CSV.
//!
//! CSV lines are `id,size,op[,ttl]` (op ∈ {get,set,del}); lines starting
//! with `#` are comments. Missing or empty size defaults to 1; the optional
//! TTL field is validated but not retained. The binary format is
//! [`crate::ctr`].

use crate::Trace;
use cache_types::{CacheError, Op, Request};
use std::io::{BufRead, BufReader, Read, Write};

/// Writes a trace as CSV.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_csv<W: Write>(trace: &Trace, w: &mut W) -> Result<(), CacheError> {
    writeln!(w, "# trace: {}", trace.name)?;
    writeln!(w, "# id,size,op")?;
    for r in trace.iter() {
        let op = match r.op {
            Op::Get => "get",
            Op::Set => "set",
            Op::Delete => "del",
        };
        writeln!(w, "{},{},{}", r.id, r.size, op)?;
    }
    Ok(())
}

/// Outcome of a lossy CSV read: the trace plus what was dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsvReadReport {
    /// Malformed lines skipped.
    pub skipped_lines: u64,
    /// Requests successfully parsed.
    pub parsed_lines: u64,
    /// Line numbers (1-based) and reasons for the first few skips, for
    /// diagnostics without unbounded memory on badly corrupted files.
    pub first_skips: Vec<(u64, String)>,
}

impl CsvReadReport {
    /// Publishes the read's accounting into a metrics scope:
    /// `csv_skipped_lines` and `csv_parsed_lines` counters, accumulated
    /// across reads sharing the scope. Skip *reasons* stay in the report —
    /// metrics carry counts, diagnostics carry text.
    pub fn record_to(&self, scope: &cache_obs::Scope) {
        scope.counter("csv_skipped_lines").add(self.skipped_lines);
        scope.counter("csv_parsed_lines").add(self.parsed_lines);
    }
}

/// How many skip diagnostics a [`CsvReadReport`] retains.
const MAX_SKIP_DIAGNOSTICS: usize = 16;

fn parse_csv_line(line: &str, lineno: usize) -> Result<Request, CacheError> {
    let mut parts = line.split(',');
    let id: u64 = parts
        .next()
        .ok_or_else(|| CacheError::TraceFormat(format!("line {}: missing id", lineno + 1)))?
        .trim()
        .parse()
        .map_err(|e| CacheError::TraceFormat(format!("line {}: bad id: {e}", lineno + 1)))?;
    let size: u32 = match parts.next().map(str::trim) {
        // An empty field means "size unknown" exactly like a missing one:
        // `4,` and `4` both default to 1. (The empty case used to error
        // while the missing case defaulted — exporters that always emit the
        // trailing comma lost every size-less record in lossy mode.)
        None | Some("") => 1,
        Some(s) => s.parse().map_err(|e| {
            CacheError::TraceFormat(format!("line {}: bad size: {e}", lineno + 1))
        })?,
    };
    let op = match parts.next().map(str::trim) {
        None | Some("get") | Some("") => Op::Get,
        Some("set") => Op::Set,
        Some("del") => Op::Delete,
        Some(other) => {
            return Err(CacheError::TraceFormat(format!(
                "line {}: unknown op {other:?}",
                lineno + 1
            )))
        }
    };
    // Optional 4th field: TTL seconds. The simulator does not retain TTLs,
    // but a malformed value is content damage that must be surfaced (and
    // counted in lossy mode), not silently accepted.
    if let Some(ttl) = parts.next().map(str::trim) {
        if !ttl.is_empty() {
            ttl.parse::<u64>().map_err(|e| {
                CacheError::TraceFormat(format!("line {}: bad ttl: {e}", lineno + 1))
            })?;
        }
    }
    // Anything past the TTL is not part of the format; ignoring it would
    // make the skip counters lie about how much of the line was understood.
    if parts.next().is_some() {
        return Err(CacheError::TraceFormat(format!(
            "line {}: too many fields (format is id,size,op[,ttl])",
            lineno + 1
        )));
    }
    Ok(Request {
        id,
        size,
        time: 0,
        op,
    })
}

fn read_csv_inner<R: Read>(
    name: impl Into<String>,
    r: R,
    skip_invalid: bool,
) -> Result<(Trace, CsvReadReport), CacheError> {
    let reader = BufReader::new(r);
    let mut reqs = Vec::new();
    let mut report = CsvReadReport::default();
    for (lineno, line) in reader.lines().enumerate() {
        // Invalid UTF-8 is content damage (skippable in lossy mode; the
        // reader resumes at the next line); real I/O errors never are.
        let line = match line {
            Ok(l) => l,
            Err(e) if skip_invalid && e.kind() == std::io::ErrorKind::InvalidData => {
                report.skipped_lines += 1;
                if report.first_skips.len() < MAX_SKIP_DIAGNOSTICS {
                    report
                        .first_skips
                        .push((lineno as u64 + 1, format!("invalid utf-8: {e}")));
                }
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        // A UTF-8 BOM is encoding furniture, not content: without this
        // strip, the first record of every BOM-prefixed file failed its id
        // parse and vanished silently in lossy mode.
        let line = if lineno == 0 {
            line.strip_prefix('\u{FEFF}').unwrap_or(&line)
        } else {
            line.as_str()
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_csv_line(line, lineno) {
            Ok(req) => {
                report.parsed_lines += 1;
                reqs.push(req);
            }
            Err(e) if skip_invalid => {
                report.skipped_lines += 1;
                if report.first_skips.len() < MAX_SKIP_DIAGNOSTICS {
                    report.first_skips.push((lineno as u64 + 1, e.to_string()));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok((Trace::new(name, reqs), report))
}

/// Reads a CSV trace; logical times are assigned by line order.
///
/// # Errors
///
/// Returns [`CacheError::TraceFormat`] (with the 1-based line number) on
/// the first malformed line and propagates I/O errors. Use
/// [`read_csv_lossy`] to skip malformed lines instead.
pub fn read_csv<R: Read>(name: impl Into<String>, r: R) -> Result<Trace, CacheError> {
    read_csv_inner(name, r, false).map(|(t, _)| t)
}

/// Reads a CSV trace, skipping malformed lines and reporting how many were
/// dropped (plus line numbers and reasons for the first few).
///
/// # Errors
///
/// Propagates I/O errors; malformed *content* never fails this variant.
pub fn read_csv_lossy<R: Read>(
    name: impl Into<String>,
    r: R,
) -> Result<(Trace, CsvReadReport), CacheError> {
    read_csv_inner(name, r, true)
}

/// [`read_csv_lossy`] that also records the skip/parse counters into a
/// metrics scope (see [`CsvReadReport::record_to`]), so silent data loss on
/// corrupt trace files surfaces in every metrics dump.
///
/// # Errors
///
/// Propagates I/O errors; malformed *content* never fails this variant.
pub fn read_csv_lossy_observed<R: Read>(
    name: impl Into<String>,
    r: R,
    scope: &cache_obs::Scope,
) -> Result<(Trace, CsvReadReport), CacheError> {
    let (trace, report) = read_csv_inner(name, r, true)?;
    report.record_to(scope);
    Ok((trace, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadSpec;

    #[test]
    fn csv_roundtrip() {
        let t = WorkloadSpec::zipf("z", 1000, 100, 1.0, 1).generate();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv("z", &buf[..]).unwrap();
        assert_eq!(t.to_requests(), back.to_requests());
    }

    #[test]
    fn csv_parses_ops_and_defaults() {
        let csv = "# comment\n1,100,get\n2,50,set\n3,0,del\n4\n";
        let t = read_csv("t", csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.request(0).op, Op::Get);
        assert_eq!(t.request(1).op, Op::Set);
        assert_eq!(t.request(2).op, Op::Delete);
        assert_eq!(t.request(3).size, 1);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(read_csv("t", "not-a-number,1,get\n".as_bytes()).is_err());
        assert!(read_csv("t", "1,xyz,get\n".as_bytes()).is_err());
        assert!(read_csv("t", "1,1,frobnicate\n".as_bytes()).is_err());
    }

    /// Regression: a final line without a trailing newline must still parse
    /// (pinned — `lines()` already handles it, and this keeps it that way).
    #[test]
    fn csv_final_line_without_newline() {
        let t = read_csv("t", "1,10,get\n2,20,set".as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.request(1).id, 2);
        assert_eq!(t.request(1).op, Op::Set);
    }

    /// Regression: CRLF line endings must not corrupt the last field.
    #[test]
    fn csv_crlf_line_endings() {
        let t = read_csv("t", "1,10,get\r\n2,20,set\r\n3,30,del\r\n".as_bytes()).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.request(1).op, Op::Set);
        assert_eq!(t.request(2).op, Op::Delete);
        // CRLF + no final newline together.
        let t = read_csv("t", "1,10,get\r\n2,20,set".as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
    }

    /// Regression: a UTF-8 BOM used to fail the first line's id parse —
    /// a hard error in strict mode and a *silently dropped first record*
    /// in lossy mode.
    #[test]
    fn csv_bom_does_not_eat_first_record() {
        let csv = "\u{FEFF}1,10,get\n2,20,set\n";
        let t = read_csv("t", csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.request(0).id, 1);
        let (t, report) = read_csv_lossy("t", csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 2, "lossy mode must not drop the first record");
        assert_eq!(report.skipped_lines, 0);
        // A BOM mid-file is real content damage, not furniture.
        let (_, report) = read_csv_lossy("t", "1,1,get\n\u{FEFF}2,1,get\n".as_bytes()).unwrap();
        assert_eq!(report.skipped_lines, 1);
    }

    /// Regression: an empty size field (`4,`) used to error while a missing
    /// one (`4`) defaulted to 1 — exporters that always emit the trailing
    /// comma lost every size-less record in lossy mode.
    #[test]
    fn csv_empty_size_defaults_like_missing() {
        let t = read_csv("t", "4,\n5\n6,,set\n".as_bytes()).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.request(0).size, 1);
        assert_eq!(t.request(1).size, 1);
        assert_eq!(t.request(2).size, 1);
        assert_eq!(t.request(2).op, Op::Set);
    }

    /// Regression: trailing fields were silently ignored, so a shifted or
    /// over-wide row half-parsed instead of being counted as damage. The
    /// 4th field is an optional numeric TTL; anything further is an error.
    #[test]
    fn csv_extra_fields_are_damage_not_noise() {
        // Valid: optional ttl, possibly empty.
        let t = read_csv("t", "1,10,get,300\n2,20,set,\n".as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        // Invalid: non-numeric ttl, five fields.
        assert!(read_csv("t", "1,10,get,soon\n".as_bytes()).is_err());
        assert!(read_csv("t", "1,10,get,300,surprise\n".as_bytes()).is_err());
        let (t, report) =
            read_csv_lossy("t", "1,10,get,300,surprise\n2,20,get\n".as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(report.skipped_lines, 1, "over-wide rows must be counted");
    }

    /// Lossy accounting exactness: every non-comment, non-empty line is
    /// either parsed or counted as skipped — nothing vanishes.
    #[test]
    fn lossy_accounting_is_exhaustive() {
        let csv = "# c\n1,1,get\nbad\n2,2,set,300\n3,3,del,nope\n\n4,4\nx,y,z,w,v\n";
        let data_lines = csv
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
            .count() as u64;
        let (t, report) = read_csv_lossy("t", csv.as_bytes()).unwrap();
        assert_eq!(report.parsed_lines, t.len() as u64);
        assert_eq!(report.parsed_lines + report.skipped_lines, data_lines);
        assert_eq!(report.skipped_lines, report.first_skips.len() as u64);
    }

    #[test]
    fn lossy_csv_skips_and_counts() {
        let csv = "# header\n1,100,get\ngarbage line\n2,oops,set\n3,50,del\n,,,\n";
        let (t, report) = read_csv_lossy("t", csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 2, "two good lines survive");
        assert_eq!(t.request(0).id, 1);
        assert_eq!(t.request(1).id, 3);
        assert_eq!(report.skipped_lines, 3);
        assert_eq!(report.first_skips.len(), 3);
        // 1-based line numbers of the bad lines.
        assert_eq!(report.first_skips[0].0, 3);
        assert_eq!(report.first_skips[1].0, 4);
        assert_eq!(report.first_skips[2].0, 6);
    }

    #[test]
    fn lossy_csv_on_clean_input_skips_nothing() {
        let t = WorkloadSpec::zipf("z", 500, 50, 1.0, 4).generate();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let (back, report) = read_csv_lossy("z", &buf[..]).unwrap();
        assert_eq!(t.to_requests(), back.to_requests());
        assert_eq!(report.skipped_lines, 0);
        assert!(report.first_skips.is_empty());
    }

    /// Satellite regression: reading a corrupt trace *file* through the
    /// observed path must surface the losses in the metrics registry, not
    /// just in the returned report.
    #[test]
    fn corrupt_trace_file_skips_land_in_registry() {
        use cache_obs::{MetricsRegistry, SampleValue};
        let path = std::env::temp_dir().join(format!(
            "s3fifo-corrupt-trace-{}.csv",
            std::process::id()
        ));
        std::fs::write(
            &path,
            b"# corrupt trace\n1,100,get\n\xff\xfe not utf8\ngarbage\n2,50,set\n9,nope,get\n",
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        let scope = registry.scope("trace.io");
        let file = std::fs::File::open(&path).unwrap();
        let (t, report) = read_csv_lossy_observed("corrupt", file, &scope).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(t.len(), 2, "the two good lines survive");
        assert_eq!(report.skipped_lines, 3, "{report:?}");
        assert_eq!(report.parsed_lines, 2);
        let counter = |name: &str| {
            registry
                .snapshot()
                .into_iter()
                .find(|m| m.name == format!("trace.io.{name}"))
                .map(|m| match m.value {
                    SampleValue::Counter(v) => v,
                    other => panic!("{name}: expected counter, got {other:?}"),
                })
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert_eq!(counter("csv_skipped_lines"), 3);
        assert_eq!(counter("csv_parsed_lines"), 2);

        // A second observed read accumulates into the same counters.
        let (_, r2) =
            read_csv_lossy_observed("again", "bad\n7,1,get\n".as_bytes(), &scope).unwrap();
        assert_eq!(r2.skipped_lines, 1);
        assert_eq!(counter("csv_skipped_lines"), 4);
        assert_eq!(counter("csv_parsed_lines"), 3);
    }

    #[test]
    fn lossy_skip_diagnostics_are_bounded() {
        let mut csv = String::new();
        for _ in 0..100 {
            csv.push_str("bad\n");
        }
        let (t, report) = read_csv_lossy("t", csv.as_bytes()).unwrap();
        assert!(t.is_empty());
        assert_eq!(report.skipped_lines, 100);
        assert_eq!(report.first_skips.len(), super::MAX_SKIP_DIAGNOSTICS);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::gen::WorkloadSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        // Round-trip: any generated workload survives CSV I/O.
        #[test]
        fn csv_roundtrips_any_workload(
            objects in 1u64..200,
            requests in 1usize..400,
            seed in 0u64..u64::MAX,
        ) {
            let t = WorkloadSpec::zipf("p", requests, objects, 0.9, seed).generate();
            let mut csv = Vec::new();
            write_csv(&t, &mut csv).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let back = read_csv("p", &csv[..]).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(t.to_requests(), back.to_requests());
        }

        // Corrupted CSV bytes: strict mode errors or succeeds (never
        // panics); lossy mode never fails on content at all.
        #[test]
        fn csv_corruption_is_contained(
            seed in 0u64..u64::MAX,
            pos_pick in 0usize..10_000,
            flip in 1u8..=255,
        ) {
            let t = WorkloadSpec::zipf("c", 30, 10, 1.0, seed).generate();
            let mut csv = Vec::new();
            write_csv(&t, &mut csv).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let pos = pos_pick % csv.len();
            csv[pos] ^= flip;
            let _ = read_csv("c", &csv[..]);
            let lossy = read_csv_lossy("c", &csv[..]);
            prop_assert!(lossy.is_ok(), "lossy mode must absorb content damage");
        }
    }
}
