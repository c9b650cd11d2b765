//! The memcached-flavored text protocol: hardened frame parser and reply
//! encoder.
//!
//! Grammar (a strict, size-bounded subset of the memcached text protocol):
//!
//! ```text
//! get <key>+\r\n
//! set <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
//! delete <key> [noreply]\r\n
//! stats\r\n
//! metrics\r\n
//! version\r\n
//! quit\r\n
//! ```
//!
//! Hardening contract (pinned by the proptest fuzz suite below): for *any*
//! byte sequence the parser either asks for more bytes, yields a complete
//! well-formed frame, yields a recoverable `CLIENT_ERROR`/`ERROR` reply
//! with an exact number of bytes to skip, or declares the connection
//! unrecoverable (reply then close). It never panics, never over-consumes,
//! and never buffers more than the configured limits
//! ([`Limits::max_line_len`] for a command line, [`Limits::max_value_len`]
//! for a value block).

use std::borrow::Cow;

/// Maximum key length, as in memcached.
pub const MAX_KEY_LEN: usize = 250;

/// Parser size limits. Every limit maps a hostile input to a bounded amount
/// of memory.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted command line, terminator included.
    pub max_line_len: usize,
    /// Largest accepted value block.
    pub max_value_len: usize,
    /// Most keys accepted in one multi-get.
    pub max_get_keys: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_line_len: 2048,
            max_value_len: 1 << 20,
            max_get_keys: 64,
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `get k1 [k2 ...]` — multi-key lookup.
    Get {
        /// Keys, in request order.
        keys: Vec<String>,
    },
    /// `set key flags exptime bytes [noreply]` + value block.
    Set {
        /// Item key.
        key: String,
        /// Opaque client flags, stored verbatim.
        flags: u32,
        /// TTL in seconds; 0 = never expires.
        exptime: u64,
        /// The value block.
        value: Vec<u8>,
        /// When set, a successful store sends no reply.
        noreply: bool,
    },
    /// `delete key [noreply]`.
    Delete {
        /// Item key.
        key: String,
        /// When set, the reply is suppressed.
        noreply: bool,
    },
    /// `stats` — human-readable STAT lines.
    Stats,
    /// `metrics` — Prometheus exposition dump (extension).
    Metrics,
    /// `version`.
    Version,
    /// `quit` — close the connection.
    Quit,
}

impl Command {
    /// True for mutating commands (the shedder rejects these first).
    pub fn is_write(&self) -> bool {
        matches!(self, Command::Set { .. } | Command::Delete { .. })
    }
}

/// Result of trying to parse one frame off the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// The buffer holds no complete frame yet; read more bytes.
    Incomplete,
    /// A complete frame; `consumed` bytes belong to it.
    Frame {
        /// The parsed command.
        cmd: Command,
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
    },
    /// A malformed but recoverable frame: send `reply`, drop `consumed`
    /// bytes, keep the connection.
    Error {
        /// The full reply line (terminator included).
        reply: String,
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
    },
    /// An unrecoverable framing violation: send `reply`, then close. The
    /// stream position can no longer be trusted (e.g. an unparseable length
    /// field means the value block boundary is unknown).
    Fatal {
        /// The full reply line (terminator included).
        reply: String,
    },
}

/// A request frame borrowed from the buffer it was parsed from: the server
/// executes from this view, so a request's bytes are never copied between
/// the connection buffer and the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<'a> {
    /// `get k1 [k2 ...]` — multi-key lookup.
    Get {
        /// Keys, in request order; every one already validated.
        keys: Keys<'a>,
    },
    /// `set key flags exptime bytes [noreply]` + value block.
    Set {
        /// Item key.
        key: &'a str,
        /// Opaque client flags, stored verbatim.
        flags: u32,
        /// TTL in seconds; 0 = never expires.
        exptime: u64,
        /// The value block.
        value: &'a [u8],
        /// When set, a successful store sends no reply.
        noreply: bool,
    },
    /// `delete key [noreply]`.
    Delete {
        /// Item key.
        key: &'a str,
        /// When set, the reply is suppressed.
        noreply: bool,
    },
    /// `stats` — human-readable STAT lines.
    Stats,
    /// `metrics` — Prometheus exposition dump (extension).
    Metrics,
    /// `version`.
    Version,
    /// `quit` — close the connection.
    Quit,
}

impl Request<'_> {
    /// True for mutating commands (the shedder rejects these first).
    pub(crate) fn is_write(&self) -> bool {
        matches!(self, Request::Set { .. } | Request::Delete { .. })
    }

    /// Copies the borrowed frame into an owned [`Command`].
    fn to_command(&self) -> Command {
        match *self {
            Request::Get { ref keys } => Command::Get {
                keys: keys.clone().map(str::to_owned).collect(),
            },
            Request::Set {
                key,
                flags,
                exptime,
                value,
                noreply,
            } => Command::Set {
                key: key.to_owned(),
                flags,
                exptime,
                value: value.to_vec(),
                noreply,
            },
            Request::Delete { key, noreply } => Command::Delete {
                key: key.to_owned(),
                noreply,
            },
            Request::Stats => Command::Stats,
            Request::Metrics => Command::Metrics,
            Request::Version => Command::Version,
            Request::Quit => Command::Quit,
        }
    }
}

/// The keys of a `get`, in request order: 1..=[`Limits::max_get_keys`] of
/// them, each one a valid key.
#[derive(Debug, Clone)]
pub struct Keys<'a>(std::str::SplitAsciiWhitespace<'a>);

impl<'a> Iterator for Keys<'a> {
    type Item = &'a str;
    fn next(&mut self) -> Option<&'a str> {
        self.0.next()
    }
}

impl PartialEq for Keys<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().eq(other.clone())
    }
}

impl Eq for Keys<'_> {}

/// Result of trying to parse one frame off the front of a buffer, borrowing
/// from it. [`ParseOutcome`] is the same thing, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// The buffer holds no complete frame yet; read more bytes.
    Incomplete {
        /// Bytes the frame is known to need, from the front of the buffer:
        /// the whole frame once a `set` line gave the value length, one
        /// more than the buffer holds while the line itself is unfinished.
        needed: usize,
    },
    /// A complete frame; `consumed` bytes belong to it.
    Frame {
        /// The parsed request.
        req: Request<'a>,
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
    },
    /// A malformed but recoverable frame (see [`ParseOutcome::Error`]).
    Error {
        /// The full reply line (terminator included).
        reply: Cow<'static, str>,
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
    },
    /// An unrecoverable framing violation (see [`ParseOutcome::Fatal`]).
    Fatal {
        /// The full reply line (terminator included).
        reply: Cow<'static, str>,
    },
}

/// A full `CLIENT_ERROR` reply line.
macro_rules! client_error {
    ($msg:literal) => {
        Cow::Borrowed(concat!("CLIENT_ERROR ", $msg, "\r\n"))
    };
}

const UNKNOWN_COMMAND: Cow<'static, str> = Cow::Borrowed("ERROR\r\n");

/// A key is 1..=250 bytes of printable non-space ASCII.
fn key_ok(k: &str) -> bool {
    !k.is_empty() && k.len() <= MAX_KEY_LEN && k.bytes().all(|b| b.is_ascii_graphic())
}

/// Finds the first line terminator (`\r\n` or bare `\n`, both accepted on
/// command lines) within `limit` bytes. Returns (line_end, term_len).
fn find_line(buf: &[u8], limit: usize) -> Option<(usize, usize)> {
    let horizon = buf.len().min(limit);
    let nl = buf[..horizon].iter().position(|&b| b == b'\n')?;
    if nl > 0 && buf[nl - 1] == b'\r' {
        Some((nl - 1, 2))
    } else {
        Some((nl, 1))
    }
}

/// Tries to parse one frame from the front of `buf`, copying it out.
///
/// Stateless: callers keep the buffer and drop `consumed` bytes on
/// [`ParseOutcome::Frame`] / [`ParseOutcome::Error`]. This is
/// [`parse_request`] with its result made owned.
pub fn parse_frame(buf: &[u8], limits: &Limits) -> ParseOutcome {
    match parse_request(buf, limits) {
        Parsed::Incomplete { .. } => ParseOutcome::Incomplete,
        Parsed::Frame { req, consumed } => ParseOutcome::Frame {
            cmd: req.to_command(),
            consumed,
        },
        Parsed::Error { reply, consumed } => ParseOutcome::Error {
            reply: reply.into_owned(),
            consumed,
        },
        Parsed::Fatal { reply } => ParseOutcome::Fatal {
            reply: reply.into_owned(),
        },
    }
}

/// Tries to parse one frame from the front of `buf`, borrowing keys and
/// value from it. The one grammar: the line is checked for UTF-8 once, and
/// nothing is allocated for a well-formed frame.
pub fn parse_request<'a>(buf: &'a [u8], limits: &Limits) -> Parsed<'a> {
    let Some((line_end, term)) = find_line(buf, limits.max_line_len) else {
        if buf.len() >= limits.max_line_len {
            // No terminator within the limit: a hostile or broken client;
            // resynchronization is impossible without unbounded buffering.
            return Parsed::Fatal {
                reply: client_error!("line too long"),
            };
        }
        return Parsed::Incomplete { needed: buf.len() + 1 };
    };
    let consumed = line_end + term;
    let error = |reply| Parsed::Error { reply, consumed };
    let frame = |req| Parsed::Frame { req, consumed };
    let Ok(line) = std::str::from_utf8(&buf[..line_end]) else {
        return error(client_error!("invalid utf-8 in command line"));
    };
    let mut tokens = line.split_ascii_whitespace();
    let Some(verb) = tokens.next() else {
        // Blank line: memcached answers ERROR and keeps going.
        return error(UNKNOWN_COMMAND);
    };
    match verb {
        "get" | "gets" => {
            let keys = Keys(tokens);
            let mut count = 0usize;
            let mut bad = None;
            for key in keys.clone() {
                count += 1;
                if bad.is_none() && !key_ok(key) {
                    bad = Some(key.len());
                }
            }
            if count == 0 {
                return error(client_error!("get requires at least one key"));
            }
            if count > limits.max_get_keys {
                return error(client_error!("too many keys in one get"));
            }
            if let Some(len) = bad {
                return error(Cow::Owned(format!(
                    "CLIENT_ERROR bad key (len {len} > {MAX_KEY_LEN} or non-printable)\r\n"
                )));
            }
            frame(Request::Get { keys })
        }
        "set" => parse_set(buf, consumed, &mut tokens, limits),
        "delete" => {
            let Some(key) = tokens.next() else {
                return error(client_error!("delete requires a key"));
            };
            if !key_ok(key) {
                return error(client_error!("bad key"));
            }
            let noreply = matches!(tokens.next(), Some("noreply"));
            frame(Request::Delete { key, noreply })
        }
        "stats" => frame(Request::Stats),
        "metrics" => frame(Request::Metrics),
        "version" => frame(Request::Version),
        "quit" => frame(Request::Quit),
        _ => error(UNKNOWN_COMMAND),
    }
}

/// Parses `set`'s argument line plus its value block.
fn parse_set<'a>(
    buf: &'a [u8],
    line_consumed: usize,
    tokens: &mut impl Iterator<Item = &'a str>,
    limits: &Limits,
) -> Parsed<'a> {
    let (Some(key), Some(flags), Some(exptime), Some(bytes)) =
        (tokens.next(), tokens.next(), tokens.next(), tokens.next())
    else {
        return Parsed::Error {
            reply: client_error!("set requires <key> <flags> <exptime> <bytes>"),
            consumed: line_consumed,
        };
    };
    let noreply = matches!(tokens.next(), Some("noreply"));
    if !key_ok(key) {
        return bad_set_field(buf, line_consumed, bytes, limits, client_error!("bad key"));
    }
    let Ok(flags) = flags.parse::<u32>() else {
        return bad_set_field(buf, line_consumed, bytes, limits, client_error!("bad flags"));
    };
    let Ok(exptime) = exptime.parse::<u64>() else {
        return bad_set_field(buf, line_consumed, bytes, limits, client_error!("bad exptime"));
    };
    let Ok(n) = bytes.parse::<usize>() else {
        // The value block boundary is unknowable: closing is the only safe
        // resynchronization.
        return Parsed::Fatal {
            reply: client_error!("bad byte count"),
        };
    };
    if n > limits.max_value_len {
        // Refusing to buffer the block means the stream cannot be resynced.
        return Parsed::Fatal {
            reply: client_error!("object too large"),
        };
    }
    let total = line_consumed + n + 2;
    if buf.len() < total {
        return Parsed::Incomplete { needed: total };
    }
    if &buf[line_consumed + n..total] != b"\r\n" {
        // memcached's "bad data chunk": the client's framing is off; the
        // stream position cannot be trusted.
        return Parsed::Fatal {
            reply: client_error!("bad data chunk"),
        };
    }
    Parsed::Frame {
        req: Request::Set {
            key,
            flags,
            exptime,
            value: &buf[line_consumed..line_consumed + n],
            noreply,
        },
        consumed: total,
    }
}

/// A set line with one bad field: when the byte count still parses, the
/// value block is skipped and the connection survives.
fn bad_set_field<'a>(
    buf: &[u8],
    line_consumed: usize,
    bytes: &str,
    limits: &Limits,
    reply: Cow<'static, str>,
) -> Parsed<'a> {
    match bytes.parse::<usize>() {
        Ok(n) if n <= limits.max_value_len => {
            let total = line_consumed + n + 2;
            if buf.len() < total {
                Parsed::Incomplete { needed: total }
            } else {
                Parsed::Error {
                    reply,
                    consumed: total,
                }
            }
        }
        _ => Parsed::Fatal { reply },
    }
}

/// Appends `v` in decimal.
fn put_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Encodes one `VALUE` response item, header and data, straight into `out`.
pub fn encode_value(out: &mut Vec<u8>, key: &str, flags: u32, data: &[u8]) {
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key.as_bytes());
    out.push(b' ');
    put_decimal(out, u64::from(flags));
    out.push(b' ');
    put_decimal(out, data.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(b: &[u8]) -> ParseOutcome {
        parse_frame(b, &Limits::default())
    }

    #[test]
    fn parses_get_and_multiget() {
        match parse(b"get foo\r\n") {
            ParseOutcome::Frame { cmd, consumed } => {
                assert_eq!(cmd, Command::Get { keys: vec!["foo".into()] });
                assert_eq!(consumed, 9);
            }
            other => panic!("{other:?}"),
        }
        match parse(b"get a b c\r\ntrailing") {
            ParseOutcome::Frame { cmd, consumed } => {
                assert_eq!(
                    cmd,
                    Command::Get {
                        keys: vec!["a".into(), "b".into(), "c".into()]
                    }
                );
                assert_eq!(consumed, 11, "must not consume the next frame");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_set_with_value_block() {
        match parse(b"set k 7 60 5\r\nhello\r\nnext") {
            ParseOutcome::Frame { cmd, consumed } => {
                assert_eq!(
                    cmd,
                    Command::Set {
                        key: "k".into(),
                        flags: 7,
                        exptime: 60,
                        value: b"hello".to_vec(),
                        noreply: false,
                    }
                );
                assert_eq!(consumed, 21);
            }
            other => panic!("{other:?}"),
        }
        // Value bytes are binary-safe, including \r\n inside the block.
        match parse(b"set k 0 0 4\r\na\r\nb\r\n") {
            ParseOutcome::Frame { cmd, .. } => match cmd {
                Command::Set { value, .. } => assert_eq!(value, b"a\r\nb"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn set_noreply_flag() {
        match parse(b"set k 0 0 1 noreply\r\nx\r\n") {
            ParseOutcome::Frame { cmd, .. } => match cmd {
                Command::Set { noreply, .. } => assert!(noreply),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incomplete_frames_ask_for_more() {
        assert_eq!(parse(b"get fo"), ParseOutcome::Incomplete);
        assert_eq!(parse(b"set k 0 0 10\r\nhel"), ParseOutcome::Incomplete);
        assert_eq!(parse(b""), ParseOutcome::Incomplete);
    }

    #[test]
    fn unknown_command_is_recoverable() {
        match parse(b"frobnicate now\r\nget ok\r\n") {
            ParseOutcome::Error { reply, consumed } => {
                assert_eq!(reply, "ERROR\r\n");
                assert_eq!(consumed, 16, "must resync to the next frame");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_set_numbers_skip_the_block_when_possible() {
        // Bad flags, good byte count: block skipped, connection survives.
        match parse(b"set k nope 0 3\r\nabc\r\n") {
            ParseOutcome::Error { reply, consumed } => {
                assert!(reply.contains("bad flags"), "{reply}");
                assert_eq!(consumed, 21);
            }
            other => panic!("{other:?}"),
        }
        // Bad byte count: boundary unknowable, connection must close.
        match parse(b"set k 0 0 banana\r\n") {
            ParseOutcome::Fatal { reply } => assert!(reply.contains("bad byte count")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_data_terminator_is_fatal() {
        match parse(b"set k 0 0 3\r\nabcXY") {
            ParseOutcome::Fatal { reply } => assert!(reply.contains("bad data chunk")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_declarations_are_fatal() {
        let limits = Limits {
            max_value_len: 100,
            ..Limits::default()
        };
        match parse_frame(b"set k 0 0 101\r\n", &limits) {
            ParseOutcome::Fatal { reply } => assert!(reply.contains("too large")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unterminated_long_line_is_fatal() {
        let limits = Limits {
            max_line_len: 32,
            ..Limits::default()
        };
        let long = vec![b'a'; 64];
        match parse_frame(&long, &limits) {
            ParseOutcome::Fatal { reply } => assert!(reply.contains("line too long")),
            other => panic!("{other:?}"),
        }
        // Under the limit without a terminator: just incomplete.
        assert_eq!(parse_frame(&[b'a'; 16], &limits), ParseOutcome::Incomplete);
    }

    #[test]
    fn bad_keys_are_rejected() {
        let long_key = format!("get {}\r\n", "k".repeat(251));
        assert!(matches!(
            parse(long_key.as_bytes()),
            ParseOutcome::Error { .. }
        ));
        // Control bytes in a key.
        assert!(matches!(
            parse(b"get k\x01ey\r\n"),
            ParseOutcome::Error { .. }
        ));
        assert!(matches!(parse(b"get\r\n"), ParseOutcome::Error { .. }));
        assert!(matches!(parse(b"delete\r\n"), ParseOutcome::Error { .. }));
    }

    #[test]
    fn non_utf8_line_is_recoverable() {
        match parse(b"\xff\xfe\xfd\r\nget k\r\n") {
            ParseOutcome::Error { reply, consumed } => {
                assert!(reply.contains("utf-8"));
                assert_eq!(consumed, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_newline_accepted_on_command_lines() {
        assert!(matches!(
            parse(b"get foo\n"),
            ParseOutcome::Frame { consumed: 8, .. }
        ));
        // But the value block terminator must be exactly \r\n.
        assert!(matches!(
            parse(b"set k 0 0 1\nx\n\n"),
            ParseOutcome::Fatal { .. }
        ));
    }

    #[test]
    fn encode_value_roundtrips() {
        let mut out = Vec::new();
        encode_value(&mut out, "k", 9, b"abc");
        assert_eq!(out, b"VALUE k 9 3\r\nabc\r\n");
        out.clear();
        encode_value(&mut out, "k", u32::MAX, b"");
        assert_eq!(out, b"VALUE k 4294967295 0\r\n\r\n");
    }

    #[test]
    fn borrowed_frames_point_into_the_buffer() {
        let buf = b"set k 7 60 5 noreply\r\nhello\r\nget a b\r\n";
        let Parsed::Frame { req, consumed } = parse_request(buf, &Limits::default()) else {
            panic!("set must parse");
        };
        assert_eq!(
            req,
            Request::Set {
                key: "k",
                flags: 7,
                exptime: 60,
                value: b"hello",
                noreply: true
            }
        );
        let Request::Set { value, .. } = req else { unreachable!() };
        assert!(std::ptr::eq(value, &buf[22..27]), "the value is a view, not a copy");
        match parse_request(&buf[consumed..], &Limits::default()) {
            Parsed::Frame {
                req: Request::Get { keys },
                ..
            } => assert_eq!(keys.collect::<Vec<_>>(), ["a", "b"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incomplete_says_how_much_the_frame_needs() {
        let limits = Limits::default();
        assert_eq!(parse_request(b"get fo", &limits), Parsed::Incomplete { needed: 7 });
        // Line (14) + value (10) + terminator (2), known from the line alone.
        assert_eq!(
            parse_request(b"set k 0 0 10\r\nhel", &limits),
            Parsed::Incomplete { needed: 26 }
        );
        assert_eq!(
            parse_request(b"set k nope 0 10\r\nhel", &limits),
            Parsed::Incomplete { needed: 29 }
        );
    }
}
