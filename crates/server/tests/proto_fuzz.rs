//! Property fuzz for the protocol parser: arbitrary, truncated, mutated,
//! and oversized frames must never panic the parser — every input yields a
//! well-formed outcome (a frame, a recoverable `CLIENT_ERROR`/`ERROR`
//! reply, an `Incomplete` wait, or a fatal close) with sane `consumed`
//! accounting.
//!
//! The server executes from the borrowed parser, `parse_request`; these
//! properties go through its owning adapter `parse_frame`, and the second
//! half of the file pins the two together (every outcome, every field) and
//! pins the server's replies against how the bytes were cut on their way in.

use cache_ds::SplitMix64;
use cache_server::proto::{parse_frame, parse_request, Limits, ParseOutcome, Parsed, Request};
use cache_server::{Command, ParseOutcome as Outcome, Server, ServerConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn tight_limits() -> Limits {
    Limits {
        max_line_len: 256,
        max_value_len: 1024,
        max_get_keys: 8,
    }
}

/// Checks the structural invariants every outcome must satisfy.
fn assert_outcome_sane(buf: &[u8], outcome: &ParseOutcome, limits: &Limits) -> Result<(), TestCaseError> {
    match outcome {
        Outcome::Incomplete => {
            // Incomplete only while the buffer could still grow into a
            // frame: it must be shorter than the hard line cap plus the
            // largest legal value block.
            prop_assert!(
                buf.len() <= limits.max_line_len + limits.max_value_len + 2,
                "unbounded buffering on {} bytes",
                buf.len()
            );
        }
        Outcome::Frame { consumed, .. } => {
            prop_assert!(*consumed > 0, "a frame must consume bytes");
            prop_assert!(*consumed <= buf.len(), "over-consumed");
        }
        Outcome::Error { reply, consumed } => {
            prop_assert!(*consumed > 0, "a recoverable error must make progress");
            prop_assert!(*consumed <= buf.len(), "over-consumed");
            prop_assert!(
                reply.starts_with("CLIENT_ERROR") || reply.starts_with("ERROR"),
                "recoverable reply must be a client error, got {reply:?}"
            );
            prop_assert!(reply.ends_with("\r\n"));
        }
        Outcome::Fatal { reply } => {
            prop_assert!(
                reply.starts_with("CLIENT_ERROR") || reply.starts_with("SERVER_ERROR"),
                "fatal reply must be typed, got {reply:?}"
            );
            prop_assert!(reply.ends_with("\r\n"));
        }
    }
    Ok(())
}

/// The borrowed parser and its owning adapter must tell the same story
/// about `buf`: the same kind of outcome, the same `consumed`, the same
/// reply text, the same fields. Returns the bytes to drop, `None` when the
/// walk ends here.
fn assert_parsers_agree(buf: &[u8], limits: &Limits) -> Result<Option<usize>, TestCaseError> {
    let owned = parse_frame(buf, limits);
    assert_outcome_sane(buf, &owned, limits)?;
    match (parse_request(buf, limits), owned) {
        (Parsed::Incomplete { needed }, Outcome::Incomplete) => {
            prop_assert!(needed > buf.len(), "incomplete, yet {needed} of {} bytes are here", buf.len());
            prop_assert!(needed <= limits.max_line_len + limits.max_value_len + 2);
            Ok(None)
        }
        (Parsed::Frame { req, consumed }, Outcome::Frame { cmd, consumed: owned_consumed }) => {
            prop_assert_eq!(consumed, owned_consumed);
            match (req, cmd) {
                (Request::Get { keys }, Command::Get { keys: owned }) => {
                    prop_assert_eq!(keys.collect::<Vec<_>>(), owned);
                }
                (
                    Request::Set { key, flags, exptime, value, noreply },
                    Command::Set { key: k, flags: f, exptime: e, value: v, noreply: n },
                ) => {
                    prop_assert_eq!((key, flags, exptime, value, noreply), (k.as_str(), f, e, v.as_slice(), n));
                    // The value is a view of the frame, not a copy of it.
                    let end = consumed - 2;
                    prop_assert!(std::ptr::eq(value, &buf[end - value.len()..end]));
                }
                (Request::Delete { key, noreply }, Command::Delete { key: k, noreply: n }) => {
                    prop_assert_eq!((key, noreply), (k.as_str(), n));
                }
                (Request::Stats, Command::Stats)
                | (Request::Metrics, Command::Metrics)
                | (Request::Version, Command::Version)
                | (Request::Quit, Command::Quit) => {}
                (req, cmd) => prop_assert!(false, "borrowed {req:?} but owned {cmd:?}"),
            }
            Ok(Some(consumed))
        }
        (Parsed::Error { reply, consumed }, Outcome::Error { reply: owned, consumed: owned_consumed }) => {
            prop_assert_eq!(reply.as_ref(), owned.as_str());
            prop_assert_eq!(consumed, owned_consumed);
            Ok(Some(consumed))
        }
        (Parsed::Fatal { reply }, Outcome::Fatal { reply: owned }) => {
            prop_assert_eq!(reply.as_ref(), owned.as_str());
            Ok(None)
        }
        (borrowed, owned) => {
            prop_assert!(false, "borrowed {borrowed:?} but owned {owned:?}");
            Ok(None)
        }
    }
}

/// Walks `buf` frame by frame with both parsers in step.
fn assert_parsers_agree_throughout(buf: &[u8], limits: &Limits) -> Result<(), TestCaseError> {
    let mut at = 0;
    while let Some(consumed) = assert_parsers_agree(&buf[at..], limits)? {
        at += consumed;
    }
    Ok(())
}

/// Well-formed and malformed frames to string together.
const FRAGMENTS: &[&[u8]] = &[
    b"get alpha\r\n",
    b"get alpha beta gamma\n",
    b"gets a b c d e f g h i\r\n",
    b"set k 1 2 3\r\nabc\r\n",
    b"set k 0 0 4 noreply\r\n\r\n\r\n\r\n",
    b"set k 0 0 3\r\nabcde\r\n",
    b"set k x 0 2\r\nhi\r\n",
    b"set bad\x7fkey 0 0 2\r\nhi\r\n",
    b"set k 0 0 99999\r\n",
    b"set k 0 0\r\n",
    b"delete k\r\n",
    b"delete k noreply\r\n",
    b"delete\r\n",
    b"get\r\n",
    b"get k\x01\r\n",
    b"get \xc3\x28\r\n",
    b"\r\n",
    b"stats\r\nmetrics\r\nversion\r\n",
    b"quit\r\n",
    b"bogus verb\r\n",
    b"get half-a-li",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Pure byte soup: never panics, outcomes are structurally sane.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255u8, 0..2048),
    ) {
        let limits = tight_limits();
        let outcome = parse_frame(&bytes, &limits);
        assert_outcome_sane(&bytes, &outcome, &limits)?;
    }

    /// Drain loop: feeding arbitrary bytes through the parser the way the
    /// server does (drain `consumed`, stop on Incomplete/Fatal) always
    /// terminates — no infinite loop, no over-consumption.
    #[test]
    fn drain_loop_always_terminates(
        bytes in proptest::collection::vec(0u8..=255u8, 0..4096),
    ) {
        let limits = tight_limits();
        let mut buf = bytes;
        let mut steps = 0usize;
        loop {
            steps += 1;
            prop_assert!(steps <= 10_000, "parser loop did not terminate");
            match parse_frame(&buf, &limits) {
                Outcome::Incomplete | Outcome::Fatal { .. } => break,
                Outcome::Frame { consumed, .. } | Outcome::Error { consumed, .. } => {
                    prop_assert!(consumed > 0 && consumed <= buf.len());
                    buf.drain(..consumed);
                }
            }
        }
    }

    /// A valid `set` frame with one byte mutated: parses to something sane
    /// (a frame, an error reply, incomplete, or a close) — never a panic.
    #[test]
    fn mutated_set_frames_never_panic(
        key_len in 1usize..12,
        val_len in 0usize..64,
        flip_at in 0usize..1024,
        flip_to in 0u8..=255u8,
    ) {
        let limits = tight_limits();
        let key: String = (0..key_len).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        let value = vec![b'v'; val_len];
        let mut frame = format!("set {key} 7 60 {val_len}\r\n").into_bytes();
        frame.extend_from_slice(&value);
        frame.extend_from_slice(b"\r\n");
        let idx = flip_at % frame.len();
        frame[idx] = flip_to;
        let outcome = parse_frame(&frame, &limits);
        assert_outcome_sane(&frame, &outcome, &limits)?;
    }

    /// Every truncation of a valid pipelined exchange is Incomplete, a
    /// frame, or a recoverable error — truncation alone is never fatal
    /// (fatal is reserved for oversize and framing corruption).
    #[test]
    fn truncated_valid_frames_are_not_fatal(
        cut in 0usize..256,
    ) {
        let limits = tight_limits();
        let full = b"get alpha beta\r\nset gamma 1 0 5\r\nhello\r\ndelete alpha noreply\r\n";
        let cut = cut % (full.len() + 1);
        let buf = &full[..cut];
        let outcome = parse_frame(buf, &limits);
        assert_outcome_sane(buf, &outcome, &limits)?;
        prop_assert!(
            !matches!(outcome, Outcome::Fatal { .. }),
            "truncation of valid input must not be fatal at cut {cut}"
        );
    }

    /// Oversized declared values are rejected fatally (close, do not
    /// buffer), regardless of the key.
    #[test]
    fn oversized_values_close_the_connection(
        key_len in 1usize..16,
        excess in 1u64..1_000_000,
    ) {
        let limits = tight_limits();
        let key: String = (0..key_len).map(|i| (b'k' + (i % 8) as u8) as char).collect();
        let bytes = limits.max_value_len as u64 + excess;
        let frame = format!("set {key} 0 0 {bytes}\r\n");
        let outcome = parse_frame(frame.as_bytes(), &limits);
        prop_assert!(
            matches!(outcome, Outcome::Fatal { .. }),
            "oversize must close, got {outcome:?}"
        );
    }

    /// Well-formed frames round-trip to the expected command for random
    /// keys and values (parser correctness, not just crash-freedom).
    #[test]
    fn well_formed_frames_roundtrip(
        key_len in 1usize..32,
        val in proptest::collection::vec(0u8..=255u8, 0..512),
        flags in 0u32..u32::MAX,
        exptime in 0u64..100_000,
    ) {
        let limits = tight_limits();
        let key: String = (0..key_len)
            .map(|i| (b'!' + ((i * 7) % 94) as u8) as char)
            .collect();
        let mut frame = format!("set {key} {flags} {exptime} {}\r\n", val.len()).into_bytes();
        frame.extend_from_slice(&val);
        frame.extend_from_slice(b"\r\nget ");
        frame.extend_from_slice(key.as_bytes());
        frame.extend_from_slice(b"\r\n");
        match parse_frame(&frame, &limits) {
            Outcome::Frame { cmd: Command::Set { key: k, flags: f, exptime: e, value, noreply }, consumed } => {
                prop_assert_eq!(k, key.clone());
                prop_assert_eq!(f, flags);
                prop_assert_eq!(e, exptime);
                prop_assert_eq!(value, val);
                prop_assert!(!noreply);
                match parse_frame(&frame[consumed..], &limits) {
                    Outcome::Frame { cmd: Command::Get { keys }, .. } => {
                        prop_assert_eq!(keys, vec![key]);
                    }
                    other => prop_assert!(false, "get must parse, got {:?}", other),
                }
            }
            other => prop_assert!(false, "set must parse, got {:?}", other),
        }
    }

    /// Byte soup, frame by frame: the borrowed parser is the owned parser.
    #[test]
    fn borrowed_and_owned_agree_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255u8, 0..4096),
    ) {
        assert_parsers_agree_throughout(&bytes, &tight_limits())?;
    }

    /// Strings of well-formed and malformed frames, one byte mutated, cut
    /// short somewhere: still the same story from both parsers.
    #[test]
    fn borrowed_and_owned_agree_on_frame_soup(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..12),
        flip_at in 0usize..4096,
        flip_to in 0u8..=255u8,
        keep in 0usize..4096,
    ) {
        let mut buf: Vec<u8> = picks.iter().flat_map(|&i| FRAGMENTS[i].iter().copied()).collect();
        assert_parsers_agree_throughout(&buf, &tight_limits())?;
        if !buf.is_empty() {
            let at = flip_at % buf.len();
            buf[at] = flip_to;
            assert_parsers_agree_throughout(&buf, &tight_limits())?;
            buf.truncate(keep % (buf.len() + 1));
            assert_parsers_agree_throughout(&buf, &tight_limits())?;
        }
    }
}

/// What the server is sent in the split-invariance test: every kind of
/// frame, values with `\r\n` inside, malformed frames between well-formed
/// ones. It starts by clearing the keys it uses and ends with `quit`, so on
/// a server shared between deliveries the replies depend on nothing but
/// these bytes, and the reply stream ends when the server closes.
fn wire_script() -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"delete alpha noreply\r\ndelete beta noreply\r\ndelete gamma noreply\r\n");
    s.extend_from_slice(b"set alpha 0 0 8\r\none\r\ntwo\r\nget alpha\r\n");
    s.extend_from_slice(b"set beta 7 0 3 noreply\r\nxyz\r\nget alpha beta gamma\r\n");
    s.extend_from_slice(b"frobnicate\r\nset bad\x01key 0 0 2\r\nzz\r\nget \xff\r\n\r\n");
    s.extend_from_slice(b"delete alpha\r\nget alpha\ndelete beta noreply\r\ndelete beta\r\n");
    s.extend_from_slice(b"set gamma 0 0 300\r\n");
    s.extend_from_slice(&[0xAB; 300]);
    s.extend_from_slice(b"\r\nget gamma\r\nversion\r\nquit\r\n");
    s
}

/// Delivers `script` in `chunks`-sized writes (cycled), pausing so that the
/// server sees them apart, and returns everything it said before closing.
fn deliver(addr: std::net::SocketAddr, script: &[u8], chunks: &[usize]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut rest = script;
    for &len in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (now, later) = rest.split_at(len.min(rest.len()));
        conn.write_all(now).expect("write");
        rest = later;
        // Longer than the shard loop's idle sleep: the next chunk finds the
        // previous one already swept.
        std::thread::sleep(Duration::from_micros(300));
    }
    let mut replies = Vec::new();
    conn.read_to_end(&mut replies).expect("read until the server closes");
    replies
}

/// However a pipelined stream is cut on its way in (inside a key, inside
/// `\r\n`, inside a value block), the reply stream is the same bytes. This
/// is the test that catches a buffer cursor off by one.
#[test]
fn replies_are_the_same_however_the_stream_is_cut() {
    let server = Server::start(ServerConfig {
        shards: 1,
        deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("bind");
    let script = wire_script();
    let whole = deliver(server.addr(), &script, &[script.len()]);
    let text = String::from_utf8_lossy(&whole);
    assert!(
        text.starts_with("STORED\r\nVALUE alpha 0 8\r\none\r\ntwo\r\nEND\r\nVALUE alpha 0 8\r\none\r\ntwo\r\nVALUE beta 7 3\r\nxyz\r\nEND\r\nERROR\r\n"),
        "{text}"
    );
    assert!(text.ends_with("END\r\nVERSION s3fifo-cache 0.1\r\n"), "{text}");
    assert_eq!(deliver(server.addr(), &script, &[1]), whole, "one byte at a time");
    for cut in 1..script.len() {
        assert_eq!(deliver(server.addr(), &script, &[cut, script.len()]), whole, "cut at {cut}");
    }
    let mut rng = SplitMix64::new(0x5117);
    for round in 0..24 {
        let most = [2, 7, 40, 200][round % 4];
        let chunks: Vec<usize> = (0..16).map(|_| 1 + (rng.next_u64() % most) as usize).collect();
        assert_eq!(deliver(server.addr(), &script, &chunks), whole, "chunks {chunks:?}");
    }
    assert!(server.shutdown().drained);
}
