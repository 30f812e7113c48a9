//! End-to-end runs (`--trace 0`): the real release binary driven from
//! outside, as a user hits it.
//!
//! * `batch_pubmed` runs `aeetes extract` jobs over the corpus file back to
//!   back; each job is one sample.
//! * `fleet_short` and `serve_mixed` start the server, then two connections
//!   run closed loops; each extract request or stream session is one sample.
//!   `fleet_short` measures five fleets in turn and reports the median of
//!   their CPU per document and peak RSS.

use crate::client::{ClosedLoop, Tally, Window};
use crate::inputs::{Inputs, Workload, TAU};
use crate::procs::{cpu_times, read_hwm_kb, read_stat, sample_tree, Deploy, Server};
use crate::reference::{check_match, Reference, Shape};
use crate::trace::Tracer;
use crate::util::{beyond, median, ms, quantile};
use serde_json::Value;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured.
#[derive(Default)]
pub struct Outcome {
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Figures printed in the report only (not defined on every workload,
    /// or zero on today's code).
    pub report: Vec<Metric>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differ from the reference.
    pub wrong: u64,
    pub mismatches: Vec<String>,
    /// Extra facts for the results file.
    pub extra: Vec<(&'static str, Value)>,
}

/// Everything a run needs.
pub struct Ctx<'a> {
    pub bin: &'a Path,
    pub inputs: &'a Inputs,
    pub reference: &'a Reference,
    pub work: &'a Path,
    pub seconds: f64,
    /// Results directory (span files go there).
    pub out: &'a Path,
    /// `<workload>-seed<n>-trace<t>`, the stem of every output file.
    pub tag: &'a str,
}

impl Ctx<'_> {
    pub fn artifact_mb(&self) -> f64 {
        std::fs::metadata(&self.inputs.artifact).map(|m| m.len() as f64 / 1e6).unwrap_or(f64::NAN)
    }

    pub fn extract_args(&self, docs: &Path) -> Vec<String> {
        let a = |s: &str| s.to_string();
        vec![
            a("extract"),
            a("--engine"),
            self.inputs.artifact.display().to_string(),
            a("--docs"),
            docs.display().to_string(),
            a("--threads"),
            a("2"),
            a("--format"),
            a("jsonl"),
            a("--tau"),
            TAU.to_string(),
        ]
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.inputs.workload {
        Workload::BatchPubmed => batch(ctx),
        Workload::FleetShort => served(ctx, Deploy::Fleet),
        Workload::ServeMixed => served(ctx, Deploy::Serve),
    }
}

/// One finished `aeetes extract` job.
pub struct Job {
    pub wall: Duration,
    pub stdout: Vec<u8>,
    pub hwm_kb: u64,
    pub cpu_ticks: u64,
}

/// Runs one CLI job to completion, sampling its `/proc` entries while it
/// runs. Its final CPU times are read while it is a zombie, before it is
/// reaped; its wall time ends when its stdout closes.
pub fn run_job(bin: &Path, args: &[String], work: &Path) -> Result<Job, String> {
    let err = std::fs::File::create(work.join("extract.err")).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let pid = child.id();
    let mut out = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let res = out.read_to_end(&mut buf);
        (res.map(|_| buf), Instant::now())
    });
    let mut hwm_kb = 0;
    let mut cpu_ticks = 0;
    loop {
        match read_stat(pid) {
            Some(('Z', _, cpu)) => {
                cpu_ticks = cpu;
                break;
            }
            Some((_, _, cpu)) => {
                cpu_ticks = cpu;
                hwm_kb = hwm_kb.max(read_hwm_kb(pid).unwrap_or(0));
            }
            None => break,
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let (stdout, eof) = reader.join().map_err(|_| "stdout reader panicked".to_string())?;
    let stdout = stdout.map_err(|e| format!("reading extract output: {e}"))?;
    if !status.success() {
        let log = std::fs::read_to_string(work.join("extract.err")).unwrap_or_default();
        return Err(format!("aeetes extract exited with {status}: {}", log.trim()));
    }
    Ok(Job { wall: eof.duration_since(started), stdout, hwm_kb, cpu_ticks })
}

/// Checks CLI jsonl output against the reference for `docs` documents;
/// returns the number of documents whose rows are all correct, and the
/// first mismatch.
pub fn check_jsonl(out: &[u8], reference: &Reference, docs: usize) -> (u64, Option<String>) {
    let text = String::from_utf8_lossy(out);
    let mut rows: Vec<Vec<Value>> = vec![Vec::new(); docs];
    let mut first_error = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str(line) {
            Ok(v) => match v.get("doc").and_then(Value::as_u64).map(|d| d as usize) {
                Some(d) if d < docs => rows[d].push(v),
                _ => {
                    first_error.get_or_insert_with(|| format!("row with bad `doc`: {line}"));
                }
            },
            Err(e) => {
                first_error.get_or_insert_with(|| format!("unparsable row: {e}"));
            }
        }
    }
    let mut correct = 0;
    for (d, got) in rows.iter().enumerate() {
        let want = &reference.full[d];
        let res = if got.len() != want.len() {
            Err(format!("document {d}: {} rows, expected {}", got.len(), want.len()))
        } else {
            got.iter()
                .zip(want)
                .try_for_each(|(g, w)| check_match(g, w, Shape::Text))
                .map_err(|e| format!("document {d}: {e}"))
        };
        match res {
            Ok(()) => correct += 1,
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    if first_error.is_some() && correct == docs as u64 {
        correct -= 1; // a stray row makes the output wrong even if every document matched
    }
    (correct, first_error)
}

fn batch(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tck = crate::procs::clk_tck() as f64;
    // Set-up: the whole CLI path on a one-document file.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let job = run_job(ctx.bin, &ctx.extract_args(&ctx.inputs.one_doc_file), ctx.work)?;
        let (ok, err) = check_jsonl(&job.stdout, ctx.reference, 1);
        out.attempted += 1;
        if ok != 1 {
            out.wrong += 1;
            out.mismatches.extend(err);
        }
        setups.push(job.wall.as_secs_f64());
    }
    let docs = ctx.inputs.docs.len();
    let mut walls = Vec::new();
    let (mut correct, mut cpu_ticks) = (0u64, 0u64);
    // Each job's own peak; the run reports their median, since one job in
    // a few dozen may catch an extra allocator arena.
    let mut peaks_mb = Vec::new();
    let mut verified: Option<Vec<u8>> = None;
    // The first job is checked but not timed: it pages the corpus file in,
    // as it stays for a user who runs jobs over it again and again.
    let mut deadline: Option<Instant> = None;
    while deadline.is_none_or(|d| Instant::now() < d) {
        let job = run_job(ctx.bin, &ctx.extract_args(&ctx.inputs.docs_file), ctx.work)?;
        out.attempted += docs as u64;
        // Output that repeats a fully checked job's bytes is correct.
        let ok = if verified.as_deref() == Some(&job.stdout[..]) {
            docs as u64
        } else {
            let (ok, err) = check_jsonl(&job.stdout, ctx.reference, docs);
            out.wrong += docs as u64 - ok;
            out.mismatches.extend(err);
            ok
        };
        if ok == docs as u64 && verified.is_none() {
            verified = Some(job.stdout);
        }
        if deadline.is_none() {
            deadline = Some(Instant::now() + Duration::from_secs_f64(ctx.seconds));
            continue;
        }
        correct += ok;
        walls.push(ms(job.wall));
        peaks_mb.push(job.hwm_kb as f64 * 1024.0 / 1e6);
        cpu_ticks += job.cpu_ticks;
    }
    out.failed = out.wrong;
    let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let cpu_ms = cpu_ticks as f64 * 1e3 / tck;
    out.metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("throughput_docs_s", correct as f64 / total_s, "docs/s"),
        metric("latency_p50_ms", median(&walls), "ms"),
        metric("latency_p99_ms", quantile(&walls, 0.99).unwrap_or(f64::NAN), "ms"),
        metric("peak_rss_mb", median(&peaks_mb), "MB"),
        metric("cpu_ms_per_doc", cpu_ms / correct.max(1) as f64, "ms"),
        metric("artifact_mb", ctx.artifact_mb(), "MB"),
    ];
    out.report = vec![metric("error_rate", out.failed as f64 / out.attempted.max(1) as f64, "ratio")];
    out.notes.push(format!(
        "latency samples: {} jobs of {docs} documents (one sample per job; p99 of fewer than 1000 jobs is their maximum)",
        walls.len()
    ));
    let deciles: Vec<f64> = (1..10).filter_map(|d| quantile(&walls, f64::from(d) / 10.0)).collect();
    out.notes.push(format!("job wall deciles ms: {deciles:.1?}"));
    out.extra.push(("jobs", serde_json::json!(walls.len())));
    out.extra.push(("latency_deciles_ms", serde_json::json!(deciles)));
    Ok(out)
}

fn served(ctx: &Ctx, deploy: Deploy) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = ctx.inputs.workload.spec();
    let limit_ms = spec.limit_ms.unwrap_or(f64::INFINITY);
    // Set-ups back to back, each server killed at once (a graceful drain
    // would only add wait time). The measured servers start apart from
    // these, after a graceful stop, and their set-ups are not counted.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        setups.push(Server::start(ctx.bin, &ctx.inputs.artifact, deploy, ctx.work, "sut")?.ready_in.as_secs_f64());
    }
    let mut tally = Tally::default();
    let mut elapsed = Duration::ZERO;
    // Per server: CPU per correct document, and the tree's peak RSS.
    let (mut cpu_per_doc, mut peaks_mb, mut procs) = (Vec::new(), Vec::new(), 0);
    for segment in 0..spec.servers {
        let server = Server::start(ctx.bin, &ctx.inputs.artifact, deploy, ctx.work, "sut")?;
        let root = server.proc.pid;
        let edges = Mutex::new(Vec::new());
        let on_edge = || edges.lock().expect("edge samples").push(cpu_times(root));
        let plan = Plan {
            reloads: ctx.inputs.workload == Workload::ServeMixed,
            extracts_only: false,
            two: true,
            seconds: ctx.seconds / spec.servers as f64,
            traced: false,
            segment,
        };
        let (part, took, _) = drive(ctx, &server.addr, &plan, &on_edge);
        let after = sample_tree(root);
        procs = after.procs;
        server.stop();
        let edges = edges.into_inner().expect("edge samples");
        let cpu_ms = match edges.as_slice() {
            [open, close] if open.covers(root) && close.covers(root) => close.cpu_ns_since(open) as f64 / 1e6,
            _ => return Err("the server's CPU clock was not read at both edges of the measured window".into()),
        };
        cpu_per_doc.push(cpu_ms / part.correct.max(1) as f64);
        peaks_mb.push(after.hwm_mb());
        tally.merge(part);
        elapsed += took;
    }
    let lat = &tally.latencies_ms;
    out.attempted = tally.attempted + tally.reload_ms.len() as u64 + tally.reloads_failed;
    out.failed = tally.failed();
    out.wrong = tally.wrong;
    out.mismatches = tally.mismatches.clone();
    out.metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("throughput_docs_s", tally.correct as f64 / elapsed.as_secs_f64(), "docs/s"),
        metric("latency_p50_ms", median(lat), "ms"),
        metric("latency_p99_ms", quantile(lat, 0.99).unwrap_or(f64::NAN), "ms"),
        metric("peak_rss_mb", median(&peaks_mb), "MB"),
        metric("cpu_ms_per_doc", median(&cpu_per_doc), "ms"),
        metric("artifact_mb", ctx.artifact_mb(), "MB"),
    ];
    out.report = vec![
        metric("slo_share", tally.within_limit as f64 / tally.attempted.max(1) as f64, "ratio"),
        metric("error_rate", out.failed as f64 / out.attempted.max(1) as f64, "ratio"),
    ];
    if !tally.reload_ms.is_empty() {
        out.report.push(metric("reload_latency_p50_ms", median(&tally.reload_ms), "ms"));
    }
    out.notes.push(format!(
        "latency samples: {} ({} beyond p99); slo limit {limit_ms} ms; {} reloads; process tree of {procs}",
        lat.len(),
        beyond(lat, 0.99),
        tally.reload_ms.len()
    ));
    out.notes.push(format!("cpu ms per doc of each server: {cpu_per_doc:.4?}"));
    let deciles: Vec<f64> = (1..10).filter_map(|d| quantile(lat, f64::from(d) / 10.0)).collect();
    out.notes.push(format!("latency deciles ms: {deciles:.1?}"));
    out.extra.push(("latency_samples", serde_json::json!(lat.len())));
    out.extra.push(("latency_deciles_ms", serde_json::json!(deciles)));
    out.extra.push(("reloads", serde_json::json!(tally.reload_ms.len())));
    Ok(out)
}

/// How one measured window drives a server.
pub struct Plan {
    /// Connection 0 sends one reload per second.
    pub reloads: bool,
    /// Plain extracts only (the fleet coordinator speaks no streams).
    pub extracts_only: bool,
    /// Whether a second connection runs beside connection 0.
    pub two: bool,
    pub seconds: f64,
    /// Record client spans.
    pub traced: bool,
    /// Segment of the run (see [`ClosedLoop::segment`]).
    pub segment: usize,
}

/// Runs the plan's connections against `addr`: connection 0 on this
/// thread, connection 1 on one more. Returns the merged tally, the window's
/// wall time and the client spans.
pub fn drive(ctx: &Ctx, addr: &str, plan: &Plan, on_edge: &(dyn Fn() + Sync)) -> (Tally, Duration, Tracer) {
    let limit_ms = ctx.inputs.workload.spec().limit_ms.unwrap_or(f64::INFINITY);
    let closed_loop = ClosedLoop {
        inputs: ctx.inputs,
        reference: ctx.reference,
        limit_ms,
        reloads: plan.reloads,
        extracts_only: plan.extracts_only,
        segment: plan.segment,
    };
    let window = Window::new(1 + usize::from(plan.two), plan.seconds, on_edge);
    let origin = Instant::now();
    let traced = plan.traced;
    let mut t0 = Tracer::new(traced, origin);
    let (mut tally, t1) = std::thread::scope(|s| {
        let other = plan.two.then(|| {
            s.spawn(|| {
                let mut t1 = Tracer::new(traced, origin);
                let no_reloads = ClosedLoop { reloads: false, ..closed_loop };
                (no_reloads.run(addr, 1, &window, &mut t1), t1)
            })
        });
        let tally = closed_loop.run(addr, 0, &window, &mut t0);
        (tally, other.map(|h| h.join().expect("client connection thread")))
    });
    let elapsed = window.elapsed();
    if let Some((other, t1)) = t1 {
        tally.merge(other);
        t0.absorb(t1);
    }
    (tally, elapsed, t0)
}
