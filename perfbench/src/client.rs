//! The closed-loop NDJSON client: one connection per thread, one operation
//! in flight per connection, every answer checked against the reference.

use crate::inputs::{Inputs, Op, OpGen, FEED_BYTES, TAU, TOP_K};
use crate::reference::{check_stream, truncate, Reference, Verified};
use crate::trace::Tracer;
use crate::util::ms;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One protocol connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // The client writes each request whole, in one call, and waits for
        // the answer: nothing of the client's own may be held back.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream), line: String::new() })
    }

    /// Sends one request line and reads one response line.
    pub fn call(&mut self, request: &str) -> std::io::Result<String> {
        let mut buf = Vec::with_capacity(request.len() + 1);
        buf.extend_from_slice(request.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        Ok(self.line.trim_end().to_string())
    }
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Client-observed time per extract request or stream session, ms.
    pub latencies_ms: Vec<f64>,
    /// Extract requests and stream sessions attempted.
    pub attempted: u64,
    /// Answered `ok` and equal to the reference.
    pub correct: u64,
    /// Correct and within the workload's latency limit.
    pub within_limit: u64,
    /// Error or shedding answers.
    pub errors: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// Requests left unanswered by a broken connection.
    pub dropped: u64,
    pub reload_ms: Vec<f64>,
    pub reloads_failed: u64,
    /// First few mismatch descriptions.
    pub mismatches: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.within_limit += other.within_limit;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.dropped += other.dropped;
        self.reload_ms.extend(other.reload_ms);
        self.reloads_failed += other.reloads_failed;
        for m in other.mismatches {
            if self.mismatches.len() < 8 {
                self.mismatches.push(m);
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.dropped + self.reloads_failed
    }

    fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }
}

/// One connection's closed loop.
#[derive(Clone, Copy)]
pub struct ClosedLoop<'a> {
    pub inputs: &'a Inputs,
    pub reference: &'a Reference,
    pub limit_ms: f64,
    /// Send one reload per second (connection 0 of `serve_mixed`).
    pub reloads: bool,
    /// Restrict the mix to plain extracts (the fleet speaks no streams).
    pub extracts_only: bool,
    /// Segment of the run: each segment's connections draw operation
    /// sequences of their own.
    pub segment: usize,
}

enum Outcome {
    Correct,
    Error,
    Wrong(String),
}

/// The measured interval shared by a run's connections. It opens once
/// every connection is established and closes before any is dropped, so
/// neither connecting nor hanging up falls inside it; connection 0 calls
/// `on_edge` at each edge (to sample the server's CPU).
pub struct Window<'a> {
    barrier: Barrier,
    seconds: f64,
    on_edge: &'a (dyn Fn() + Sync),
    opened: OnceLock<Instant>,
    closed: OnceLock<Instant>,
}

impl<'a> Window<'a> {
    pub fn new(connections: usize, seconds: f64, on_edge: &'a (dyn Fn() + Sync)) -> Self {
        Window {
            barrier: Barrier::new(connections),
            seconds,
            on_edge,
            opened: OnceLock::new(),
            closed: OnceLock::new(),
        }
    }

    /// Waits for every connection; returns the window's deadline.
    fn open(&self, leader: bool) -> Instant {
        self.barrier.wait();
        if leader {
            (self.on_edge)();
            let _ = self.opened.set(Instant::now());
        }
        self.barrier.wait();
        *self.opened.get().expect("opened by connection 0") + Duration::from_secs_f64(self.seconds)
    }

    fn close(&self, leader: bool) {
        self.barrier.wait();
        if leader {
            let _ = self.closed.set(Instant::now());
            (self.on_edge)();
        }
        self.barrier.wait();
    }

    /// Open to close.
    pub fn elapsed(&self) -> Duration {
        match (self.opened.get(), self.closed.get()) {
            (Some(&a), Some(&b)) => b.duration_since(a),
            _ => Duration::ZERO,
        }
    }
}

impl ClosedLoop<'_> {
    /// Runs connection `conn_index` against `addr` for the window.
    pub fn run(&self, addr: &str, conn_index: usize, window: &Window, tracer: &mut Tracer) -> Tally {
        let mut conn = Conn::connect(addr);
        let deadline = window.open(conn_index == 0);
        let tally = match &mut conn {
            Ok(conn) => self.lap(conn, conn_index, deadline, tracer),
            Err(_) => Tally { attempted: 1, dropped: 1, ..Tally::default() },
        };
        window.close(conn_index == 0);
        tally // the connection closes only now, after the window
    }

    /// The closed loop of one connection until `deadline`.
    fn lap(&self, conn: &mut Conn, conn_index: usize, deadline: Instant, tracer: &mut Tracer) -> Tally {
        let mut tally = Tally::default();
        let mut verified = Verified::default();
        let mut ops = OpGen::new(self.inputs.workload, self.inputs.seed, 2 * self.segment + conn_index, self.inputs.docs.len());
        let mut next_reload = Instant::now() + Duration::from_secs(1);
        let mut reloads = 0usize;
        let mut id = 0u64;
        while Instant::now() < deadline {
            // A due reload goes first and takes nothing from `ops`, so the
            // mix of the operations sent stays exactly the generated one.
            if self.reloads && Instant::now() >= next_reload {
                next_reload += Duration::from_secs(1);
                id += 1;
                let mut req = self.inputs.reload_fields(reloads);
                reloads += 1;
                set(&mut req, "id", serde_json::json!(id));
                set(&mut req, "type", serde_json::json!("reload"));
                let span = tracer.enter("client.reload", id);
                let started = Instant::now();
                let answer = conn.call(&req.to_string());
                let took = started.elapsed();
                tracer.exit(span);
                match answer {
                    Ok(line) if status_ok(&line) => tally.reload_ms.push(ms(took)),
                    Ok(line) => {
                        tally.reloads_failed += 1;
                        tally.mismatches.push(format!("reload failed: {}", truncate(&line)));
                    }
                    Err(_) => {
                        tally.reloads_failed += 1;
                        break;
                    }
                }
                continue;
            }
            let Some(op) = ops.next() else { break };
            let op = match op {
                Op::TopK(i) | Op::Stream(i) if self.extracts_only => Op::Extract(i),
                op => op,
            };
            id += 1;
            tally.attempted += 1;
            let span = tracer.enter("client.request", id);
            let started = Instant::now();
            let result = match op {
                Op::Extract(doc) | Op::TopK(doc) => self.extract(conn, &mut verified, id, op, doc, started),
                Op::Stream(doc) => self.stream(conn, id, doc, started),
            };
            tracer.exit(span);
            match result {
                Ok((took, Outcome::Correct)) => {
                    let took_ms = ms(took);
                    tally.latencies_ms.push(took_ms);
                    tally.correct += 1;
                    tally.within_limit += u64::from(took_ms <= self.limit_ms);
                }
                Ok((took, Outcome::Error)) => {
                    tally.latencies_ms.push(ms(took));
                    tally.errors += 1;
                }
                Ok((took, Outcome::Wrong(what))) => {
                    tally.latencies_ms.push(ms(took));
                    tally.wrong(format!("{op:?}: {what}"));
                }
                Err(_) => {
                    tally.dropped += 1;
                    break;
                }
            }
        }
        tally
    }

    fn extract(
        &self,
        conn: &mut Conn,
        verified: &mut Verified,
        id: u64,
        op: Op,
        doc: usize,
        started: Instant,
    ) -> std::io::Result<(Duration, Outcome)> {
        let topk = matches!(op, Op::TopK(_));
        let mut req = serde_json::json!({"id": id, "type": "extract", "doc": self.inputs.docs[doc], "tau": TAU});
        if topk {
            set(&mut req, "top_k", serde_json::json!(TOP_K));
        }
        let line = conn.call(&req.to_string())?;
        let took = started.elapsed();
        let want = if topk { &self.reference.topk[doc] } else { &self.reference.full[doc] };
        let outcome = match verified.check(topk, doc, &format!("\"id\":{id}"), &line, want) {
            Ok(()) => Outcome::Correct,
            Err(_) if !status_ok(&line) => Outcome::Error,
            Err(e) => Outcome::Wrong(e),
        };
        Ok((took, outcome))
    }

    /// One stream session: open, feed the document in `FEED_BYTES` chunks,
    /// close. Its latency is open sent to close answered.
    fn stream(&self, conn: &mut Conn, id: u64, doc: usize, started: Instant) -> std::io::Result<(Duration, Outcome)> {
        let text = &self.inputs.docs[doc];
        let mut emitted: Vec<Value> = Vec::new();
        let mut failure: Option<Outcome> = None;
        let mut verbs = vec![serde_json::json!({"id": id, "type": "stream", "verb": "open", "stream": id, "tau": TAU})];
        let mut rest = text.as_str();
        while !rest.is_empty() {
            let mut cut = rest.len().min(FEED_BYTES);
            while !rest.is_char_boundary(cut) {
                cut -= 1;
            }
            verbs.push(serde_json::json!({"id": id, "type": "stream", "verb": "feed", "stream": id, "text": &rest[..cut]}));
            rest = &rest[cut..];
        }
        verbs.push(serde_json::json!({"id": id, "type": "stream", "verb": "close", "stream": id}));
        for verb in verbs {
            let line = conn.call(&verb.to_string())?;
            if failure.is_some() {
                continue; // keep the session's request/response pairing intact
            }
            match serde_json::from_str(&line) {
                Ok(v) if v.get("status").and_then(Value::as_str) == Some("ok") => {
                    if let Some(ms) = v.get("matches").and_then(Value::as_array) {
                        emitted.extend(ms.iter().cloned());
                    }
                }
                Ok(_) => failure = Some(Outcome::Error),
                Err(e) => failure = Some(Outcome::Wrong(format!("unparsable stream answer: {e}"))),
            }
        }
        let took = started.elapsed();
        let outcome = failure.unwrap_or_else(|| match check_stream(&emitted, &self.reference.full[doc]) {
            Ok(()) => Outcome::Correct,
            Err(e) => Outcome::Wrong(e),
        });
        Ok((took, outcome))
    }
}

fn status_ok(line: &str) -> bool {
    serde_json::from_str(line)
        .ok()
        .and_then(|v| v.get("status").and_then(Value::as_str).map(|s| s == "ok"))
        .unwrap_or(false)
}

fn set(v: &mut Value, key: &str, value: Value) {
    if let Value::Object(map) = v {
        map.insert(key.to_string(), value);
    }
}
