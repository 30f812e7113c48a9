//! The NDJSON wire layer shared by both ends of the protocol: `aeetes
//! serve` (which answers clients and a coordinator) and `aeetes fleet`
//! (which answers clients and talks to replicas).
//!
//! Three pieces, each with one implementation:
//!
//! - **framing in**: [`LineReader`] splits a byte stream into capped lines
//!   and survives read timeouts mid-line;
//! - **framing out**: [`write_line`] is the only place a protocol line and
//!   its `\n` reach a socket, and [`respond`] is its lock-and-swallow form
//!   for a connection shared between threads;
//! - **the error taxonomy**: [`ErrorCode`] with its retryability, and
//!   [`error_line`], which renders a [`Reject`].
//!
//! Error taxonomy (the `code` field), so clients can tell retryable from
//! fatal conditions:
//!
//! | code          | meaning                                   | retry? |
//! |---------------|-------------------------------------------|--------|
//! | `bad_request` | malformed JSON / unknown type / bad field | no     |
//! | `too_large`   | document or request line over the ceiling | no     |
//! | `timeout`     | request expired before a worker ran it    | yes    |
//! | `shedding`    | queue full or server draining             | yes    |
//! | `internal`    | extraction panicked (isolated; see logs)  | no     |
//! | `conflict`    | activate id ≠ prepared generation id      | no     |

use serde_json::{json, Value};
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};

/// Structured error classes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, missing/ill-typed fields, unknown request type, or a
    /// pathological parameter (e.g. τ outside `(0, 1]`). Not retryable.
    BadRequest,
    /// The document (or the whole request line) exceeds a server ceiling.
    /// Not retryable without shrinking the payload.
    TooLarge,
    /// The request's deadline expired while it waited in the queue.
    /// Retryable.
    Timeout,
    /// Admission control refused the request: queue full or server
    /// draining. Retryable (elsewhere or after backoff).
    Shedding,
    /// Extraction panicked; the fault was isolated to this request.
    Internal,
    /// Two-phase state mismatch: an `activate` named a generation that is
    /// not the one prepared (or nothing is prepared). Not retryable — the
    /// identical request will keep failing; the caller must re-prepare.
    Conflict,
}

impl ErrorCode {
    /// Every variant, for exhaustive table-driven tests and docs.
    pub const ALL: [ErrorCode; 6] = [
        ErrorCode::BadRequest,
        ErrorCode::TooLarge,
        ErrorCode::Timeout,
        ErrorCode::Shedding,
        ErrorCode::Internal,
        ErrorCode::Conflict,
    ];

    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Shedding => "shedding",
            ErrorCode::Internal => "internal",
            ErrorCode::Conflict => "conflict",
        }
    }

    /// Parses the wire spelling back into a code (`None` for unknown
    /// spellings — a coordinator talking to a newer replica treats those
    /// as fatal rather than guessing retryability).
    pub fn parse_wire(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// Whether a client may retry the identical request and hope for a
    /// different answer.
    ///
    /// The mapping is deliberately an exhaustive `match` (no `_` arm): a
    /// new error code cannot compile without an explicit, reviewed
    /// retryability decision — coordinators build failover on top of this.
    pub fn retryable(self) -> bool {
        match self {
            // The request itself is defective; an identical retry cannot
            // succeed anywhere.
            ErrorCode::BadRequest => false,
            // The payload exceeds a server ceiling; retrying without
            // shrinking it fails identically.
            ErrorCode::TooLarge => false,
            // The deadline expired while queued: another (less loaded)
            // server, or the same one a moment later, may answer in time.
            ErrorCode::Timeout => true,
            // Admission control refused: queue full or draining. Elsewhere
            // or after backoff the same request is fine.
            ErrorCode::Shedding => true,
            // Extraction panicked on this input; the same input will very
            // likely panic again on any replica of the same build.
            ErrorCode::Internal => false,
            // Two-phase state mismatch; the caller must change the request
            // (re-prepare), not repeat it.
            ErrorCode::Conflict => false,
        }
    }
}

/// A request that could not be accepted, carrying everything needed to
/// build the error response.
#[derive(Debug)]
pub struct Reject {
    /// Echoed id (``null`` when the line was too broken to recover one).
    pub id: Value,
    /// Error class.
    pub code: ErrorCode,
    /// Human-oriented detail.
    pub message: String,
}

impl Reject {
    /// A rejection of the request with this `id`.
    pub fn new(id: Value, code: ErrorCode, message: impl Into<String>) -> Self {
        Reject { id, code, message: message.into() }
    }
}

/// Serializes an error (or shedding) response line. Shedding gets its own
/// top-level status so naive clients checking only `status` still back off.
pub fn error_line(reject: &Reject) -> String {
    let status = if reject.code == ErrorCode::Shedding { "shedding" } else { "error" };
    json!({
        "id": reject.id,
        "status": status,
        "code": reject.code.as_str(),
        "retryable": reject.code.retryable(),
        "message": reject.message,
    })
    .to_string()
}

/// Writes one protocol line: the line, then `\n`, then a flush.
pub fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Where a response line goes: a connection's write half (or stdout),
/// serialized by a mutex so concurrent threads never interleave partial
/// lines.
pub type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes one response line to `sink`. Write errors are swallowed: the
/// peer may have hung up, which must never take the server down.
pub fn respond(sink: &Sink, line: &str) {
    // A panicked writer still has a usable fd.
    let mut w = sink.lock().unwrap_or_else(|p| p.into_inner());
    let _ = write_line(&mut *w, line);
}

/// Outcome of reading one protocol line.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (without the trailing newline).
    Line(Vec<u8>),
    /// A line longer than the cap; the remainder was discarded up to the
    /// next newline so the stream stays in sync.
    Oversized,
    /// End of stream.
    Eof,
}

/// Incremental capped line reader. Never buffers more than `cap` bytes, so
/// a peer streaming an endless line cannot balloon memory, and keeps
/// partial-line progress across calls — a read timeout mid-line (the
/// drain poll on TCP connections) resumes exactly where it stopped instead
/// of corrupting the stream.
pub struct LineReader {
    cap: usize,
    buf: Vec<u8>,
    /// Inside an over-cap line, discarding bytes until the next newline.
    discarding: bool,
}

impl LineReader {
    /// A reader that yields lines of at most `cap` bytes.
    pub fn new(cap: usize) -> Self {
        LineReader { cap, buf: Vec::new(), discarding: false }
    }

    /// Reads the next line. A final unterminated fragment (truncated line
    /// before EOF) is returned as a line so it still gets a (likely
    /// `bad_request`) response. `Err(TimedOut | WouldBlock)` is resumable.
    pub fn next_line(&mut self, reader: &mut impl BufRead) -> std::io::Result<LineRead> {
        loop {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                if self.discarding {
                    self.discarding = false;
                    return Ok(LineRead::Oversized);
                }
                return Ok(if self.buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line(std::mem::take(&mut self.buf))
                });
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            if self.discarding {
                match newline {
                    Some(pos) => {
                        reader.consume(pos + 1);
                        self.discarding = false;
                        return Ok(LineRead::Oversized);
                    }
                    None => {
                        let n = buf.len();
                        reader.consume(n);
                    }
                }
                continue;
            }
            match newline {
                Some(pos) => {
                    if self.buf.len() + pos <= self.cap {
                        self.buf.extend_from_slice(&buf[..pos]);
                        reader.consume(pos + 1);
                        return Ok(LineRead::Line(std::mem::take(&mut self.buf)));
                    }
                    reader.consume(pos + 1);
                    self.buf.clear();
                    return Ok(LineRead::Oversized);
                }
                None => {
                    let n = buf.len();
                    if self.buf.len() + n <= self.cap {
                        self.buf.extend_from_slice(buf);
                        reader.consume(n);
                    } else {
                        reader.consume(n);
                        self.buf.clear();
                        self.discarding = true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, ErrorKind};

    fn lines_of(bytes: &[u8], cap: usize) -> Vec<String> {
        let mut reader = BufReader::new(bytes);
        let mut lr = LineReader::new(cap);
        let mut out = Vec::new();
        loop {
            match lr.next_line(&mut reader).unwrap() {
                LineRead::Eof => return out,
                LineRead::Oversized => out.push("<oversized>".into()),
                LineRead::Line(l) => out.push(String::from_utf8(l).unwrap()),
            }
        }
    }

    #[test]
    fn capped_line_reader_splits_lines() {
        assert_eq!(lines_of(b"one\ntwo\n", 100), ["one", "two"]);
    }

    #[test]
    fn capped_line_reader_returns_final_unterminated_fragment() {
        assert_eq!(lines_of(b"complete\ntruncat", 100), ["complete", "truncat"]);
    }

    #[test]
    fn capped_line_reader_discards_oversized_and_resyncs() {
        let mut input = vec![b'x'; 1000];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        assert_eq!(lines_of(&input, 10), ["<oversized>", "ok"]);
    }

    #[test]
    fn capped_line_reader_oversized_at_eof_without_newline() {
        assert_eq!(lines_of(&vec![b'y'; 1000], 10), ["<oversized>"]);
    }

    #[test]
    fn capped_line_reader_exact_cap_fits() {
        assert_eq!(lines_of(b"12345\n", 5), ["12345"]);
    }

    #[test]
    fn capped_line_reader_over_cap_by_one_is_oversized() {
        assert_eq!(lines_of(b"123456\nok\n", 5), ["<oversized>", "ok"]);
    }

    /// A timeout mid-line must not lose the partial prefix: simulate with a
    /// reader that errors between two chunks of one line.
    #[test]
    fn partial_line_survives_interrupted_read() {
        struct Interrupting {
            chunks: Vec<&'static [u8]>,
            next: usize,
            erred: bool,
        }
        impl std::io::Read for Interrupting {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.next == 1 && !self.erred {
                    self.erred = true;
                    return Err(std::io::Error::new(ErrorKind::WouldBlock, "poll"));
                }
                if self.next >= self.chunks.len() {
                    return Ok(0);
                }
                let chunk = self.chunks[self.next];
                self.next += 1;
                buf[..chunk.len()].copy_from_slice(chunk);
                Ok(chunk.len())
            }
        }
        let mut reader = BufReader::new(Interrupting { chunks: vec![b"hel", b"lo\n"], next: 0, erred: false });
        let mut lr = LineReader::new(100);
        let first = lr.next_line(&mut reader);
        assert!(matches!(first, Err(ref e) if e.kind() == ErrorKind::WouldBlock), "{first:?}");
        let second = lr.next_line(&mut reader).unwrap();
        assert!(matches!(second, LineRead::Line(ref l) if l == b"hello"), "partial prefix must survive the interruption");
    }

    /// The documented retryability contract, written as its own exhaustive
    /// `match`: adding an `ErrorCode` variant fails to compile here (and in
    /// `retryable()` itself) until someone makes — and documents — an
    /// explicit retry decision for it. Coordinator failover is built on
    /// this mapping, so it must never change by accident or by default.
    #[test]
    fn every_error_code_has_an_explicit_retryable_mapping() {
        fn documented(code: ErrorCode) -> (bool, &'static str) {
            match code {
                ErrorCode::BadRequest => (false, "bad_request"),
                ErrorCode::TooLarge => (false, "too_large"),
                ErrorCode::Timeout => (true, "timeout"),
                ErrorCode::Shedding => (true, "shedding"),
                ErrorCode::Internal => (false, "internal"),
                ErrorCode::Conflict => (false, "conflict"),
            }
        }
        assert_eq!(ErrorCode::ALL.len(), 6, "ALL must enumerate every variant");
        for code in ErrorCode::ALL {
            let (retry, wire) = documented(code);
            assert_eq!(code.retryable(), retry, "{wire}: retryable() diverged from the documented contract");
            assert_eq!(code.as_str(), wire, "wire spelling diverged");
            assert_eq!(ErrorCode::parse_wire(wire), Some(code), "parse_wire must round-trip {wire}");
            // The serialized error line must agree with the enum, so wire
            // clients (the fleet coordinator) see the same contract.
            let line = error_line(&Reject::new(Value::Null, code, "x"));
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v.get("retryable").and_then(Value::as_bool), Some(retry), "{wire}");
            assert_eq!(v.get("code").and_then(Value::as_str), Some(wire));
        }
        assert_eq!(ErrorCode::parse_wire("no_such_code"), None);
    }

    #[test]
    fn error_line_shape() {
        let line = error_line(&Reject::new(Value::Null, ErrorCode::Shedding, "queue full"));
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("shedding"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("shedding"));
        assert_eq!(v.get("retryable").and_then(Value::as_bool), Some(true));

        let line = error_line(&Reject::new(Value::Null, ErrorCode::BadRequest, "nope"));
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("retryable").and_then(Value::as_bool), Some(false));
    }

    /// A `BufRead` that hands out exactly the given chunks, and fails a
    /// read once with `WouldBlock` or `TimedOut` before each chunk marked
    /// so — the read timeouts a polling connection sees.
    struct Chunked {
        chunks: Vec<(Vec<u8>, Option<ErrorKind>)>,
        next: usize,
        pos: usize,
    }

    impl std::io::Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = {
                let buf = self.fill_buf()?;
                let n = buf.len().min(out.len());
                out[..n].copy_from_slice(&buf[..n]);
                n
            };
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Chunked {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            while self.next < self.chunks.len() && self.pos == self.chunks[self.next].0.len() {
                self.next += 1;
                self.pos = 0;
            }
            let Some((chunk, error)) = self.chunks.get_mut(self.next) else {
                return Ok(&[]);
            };
            if let Some(kind) = error.take() {
                return Err(std::io::Error::new(kind, "poll"));
            }
            Ok(&chunk[self.pos..])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    /// What the reader must produce: every `\n`-terminated line, then a
    /// final unterminated fragment, each as a line when it fits the cap
    /// and as one `Oversized` (`None`) when it does not.
    fn reference(bytes: &[u8], cap: usize) -> Vec<Option<Vec<u8>>> {
        let mut out: Vec<Option<Vec<u8>>> = Vec::new();
        let mut segments: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        // The text after the last newline: a fragment if non-empty.
        if segments.last().is_some_and(|s| s.is_empty()) {
            segments.pop();
        }
        for segment in segments {
            out.push((segment.len() <= cap).then(|| segment.to_vec()));
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, arbitrary chunk boundaries, read timeouts
        /// between chunks, and caps from 1 to 64: the reader matches the
        /// reference split, ends in `Eof`, and never holds more than the
        /// cap.
        #[test]
        fn line_reader_matches_reference_split(
            // Codes past 255 become newlines, so lines are short enough to
            // straddle the cap in both directions.
            codes in proptest::collection::vec(0u16..320, 0..300),
            sizes in proptest::collection::vec(1usize..24, 1..40),
            faults in proptest::collection::vec(0u8..6, 1..40),
            cap in 1usize..=64,
        ) {
            let bytes: Vec<u8> = codes.iter().map(|&c| u8::try_from(c).unwrap_or(b'\n')).collect();
            let mut chunks = Vec::new();
            let mut rest = &bytes[..];
            let mut i = 0;
            while !rest.is_empty() {
                let n = sizes[i % sizes.len()].min(rest.len());
                let error = match faults[i % faults.len()] {
                    0 => Some(ErrorKind::WouldBlock),
                    1 => Some(ErrorKind::TimedOut),
                    _ => None,
                };
                chunks.push((rest[..n].to_vec(), error));
                rest = &rest[n..];
                i += 1;
            }
            let mut reader = Chunked { chunks, next: 0, pos: 0 };
            let mut lr = LineReader::new(cap);
            let mut got = Vec::new();
            loop {
                let read = lr.next_line(&mut reader);
                proptest::prop_assert!(lr.buf.len() <= cap, "buffered {} bytes over cap {cap}", lr.buf.len());
                match read {
                    Ok(LineRead::Eof) => break,
                    Ok(LineRead::Oversized) => got.push(None),
                    Ok(LineRead::Line(line)) => got.push(Some(line)),
                    Err(e) => proptest::prop_assert!(matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut), "{e}"),
                }
            }
            proptest::prop_assert_eq!(got, reference(&bytes, cap));
            proptest::prop_assert!(matches!(lr.next_line(&mut reader), Ok(LineRead::Eof)), "Eof is sticky");
        }
    }

    #[test]
    fn write_line_appends_the_newline() {
        let mut out = Vec::new();
        write_line(&mut out, r#"{"status":"ok"}"#).unwrap();
        assert_eq!(out, b"{\"status\":\"ok\"}\n");
    }
}
