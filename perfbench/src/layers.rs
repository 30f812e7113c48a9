//! The traced run (`--trace 1`): per-layer figures.
//!
//! It replays the run's generated inputs in-process, calling each layer's
//! public functions inside spans, then drives the real binary once more
//! with its metrics registry (the `/metrics.json` body, asked for with a
//! protocol `metrics` request) and `stats` scraped before and after. Every figure
//! is computed on every workload, from that workload's own artifact,
//! documents and request mix.

use crate::client::{Conn, Tally};
use crate::e2e::{drive, metric, run_job, Ctx, Metric, Outcome, Plan};
use crate::inputs::{Op, OpGen, Workload, FEED_BYTES, TAU, TOP_K};
use crate::procs::{Deploy, Server};
use crate::reference::{check_response, check_stream, ref_match, RefMatch};
use crate::trace::{self_times, Tracer};
use crate::util::{median, ms, timed};
use aeetes_cli::protocol::{ok_line, parse_delta, parse_request, Ceilings, Request};
use aeetes_core::{extract_top_k_with, open_frozen, select_top_k, Aeetes, BatchOptions, ExtractBackend, ExtractLimits, ExtractScratch, ShardedParts};
use aeetes_pool::{extract_batch_with, Pool};
use aeetes_shard::{Generation, ShardedEngine};
use aeetes_sim::Metric as SimMetric;
use aeetes_stream::StreamExtractor;
use aeetes_text::{Document, Interner, Tokenizer};
use serde_json::{json, Value};
use std::time::Instant;

/// Repeats of each set-up figure (open, load, clone, apply_update).
const REPEATS: usize = 3;
/// In-process replay length per connection sequence.
const REPLAY_OPS: usize = 100;
/// Documents in the per-document top-k loop at most.
const PER_DOC_CAP: usize = 1000;
/// Documents streamed in the per-document stream pass.
const STREAM_DOCS: usize = 100;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    Pool::configure_global(2);
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut t = Tracer::new(true, origin);
    let mut m: Vec<Metric> = Vec::new();
    let tokenizer = Tokenizer::default();
    let artifact = ctx.inputs.artifact.as_path();
    let open = || open_frozen(artifact).map_err(|e| format!("{}: {e}", artifact.display()));

    // frozen: open + adopt, as serve and fleet replicas start.
    for _ in 0..REPEATS {
        std::hint::black_box(t.span("frozen.open", 0, || open().and_then(|parts| ShardedEngine::from_frozen(parts, None)))?);
    }
    m.push(metric("frozen.open_ms", median(&t.durations_us("frozen.open")) / 1e3, "ms"));

    // cli: the CLI's load path (open, then merge into one engine).
    let mut mono: Option<(Aeetes, Interner)> = None;
    for _ in 0..REPEATS {
        let loaded = t.span("cli.load", 0, || -> Result<(Aeetes, Interner), String> {
            let parts = open()?;
            let parts = ShardedParts {
                interner: parts.interner,
                dict: parts.dict,
                removed: parts.removed,
                rules: parts.rules,
                config: parts.config,
                segments: parts.segments.into_iter().map(|s| s.dd).collect(),
                generation: parts.generation,
            };
            parts.into_single().map_err(|e| e.to_string())
        })?;
        mono = Some(loaded);
    }
    let (aeetes, mono_interner) = mono.expect("loaded");
    let cli_load_ms = median(&t.durations_us("cli.load")) / 1e3;
    m.push(metric("cli.load_ms", cli_load_ms, "ms"));

    // text: tokenizing the pool.
    let mut interner = mono_interner.clone();
    let docs: Vec<Document> = ctx
        .inputs
        .docs
        .iter()
        .enumerate()
        .map(|(i, d)| t.span("text.tokenize", i as u64, || Document::parse(d, &tokenizer, &mut interner)))
        .collect();
    m.push(metric("text.tokenize_us", median(&t.durations_us("text.tokenize")), "us"));

    // core: one thread, one scratch, every pooled document.
    let mut scratch = ExtractScratch::new();
    let mut stats = aeetes_core::ExtractStats::default();
    for (i, doc) in docs.iter().enumerate() {
        let span = t.enter("core.extract", i as u64);
        let outcome = ExtractBackend::extract_scratched(&aeetes, doc, TAU, &ExtractLimits::UNLIMITED, None, &mut scratch);
        t.exit(span);
        stats += outcome.stats;
        let got: Vec<RefMatch> = outcome
            .matches
            .iter()
            .map(|mm| ref_match(mm, doc, aeetes.dictionary().record(mm.entity).raw))
            .collect();
        tally_check(&mut out, got == ctx.reference.full[i], || format!("library extract of document {i} differs from the serving engine"));
    }
    let n = docs.len() as f64;
    let single_us: f64 = t.durations_us("core.extract").iter().sum();
    m.push(metric("core.extract_us", median(&t.durations_us("core.extract")), "us"));
    m.push(metric("core.accessed_entries_per_doc", stats.accessed_entries as f64 / n, "count"));
    m.push(metric("core.candidates_per_doc", stats.candidates as f64 / n, "count"));
    m.push(metric("core.verifications_per_doc", stats.verifications as f64 / n, "count"));
    m.push(metric("core.verify_yield", stats.matches as f64 / stats.verifications.max(1) as f64, "ratio"));

    // pool: the same documents as one 2-thread batch.
    let opts = BatchOptions { threads: 2, ..BatchOptions::default() };
    let batch = t.span("pool.batch", 0, || extract_batch_with(&aeetes, &docs, TAU, &opts));
    tally_check(&mut out, batch.iter().all(Result::is_ok), || "pooled batch failed a document".into());
    let batch_us: f64 = t.durations_us("pool.batch").iter().sum();
    m.push(metric("pool.parallel_efficiency", single_us / (2.0 * batch_us), "ratio"));

    // core top-k: the bound-pruned library path (serve's own path is
    // measured through the binary below).
    let capped = &docs[..docs.len().min(PER_DOC_CAP)];
    let (mut examined_full, mut examined_pruned) = (0u64, 0u64);
    for (i, doc) in capped.iter().enumerate() {
        examined_full += ExtractBackend::extract_scratched(&aeetes, doc, TAU, &ExtractLimits::UNLIMITED, None, &mut scratch)
            .stats
            .candidates;
        let (pruned, pstats) = t.span("core.topk_pruned", i as u64, || extract_top_k_with(&aeetes, doc, TOP_K, TAU, SimMetric::Jaccard));
        examined_pruned += pstats.candidates;
        let got: Vec<RefMatch> = pruned.iter().map(|mm| ref_match(mm, doc, aeetes.dictionary().record(mm.entity).raw)).collect();
        tally_check(&mut out, got == ctx.reference.topk[i], || format!("pruned top-k of document {i} differs"));
    }
    m.push(metric("core.topk_pruned_us", median(&t.durations_us("core.topk_pruned")), "us"));
    m.push(metric("core.topk_pruned_examined_ratio", examined_pruned as f64 / examined_full.max(1) as f64, "ratio"));

    // shard + protocol + stream: replay the request mix in-process against
    // a 2-shard engine, as serve handles it. Untraced and traced replays
    // alternate; the difference of their medians is the tracing overhead.
    // The last traced replay is the one recorded.
    let two = ShardedEngine::from_frozen(open()?, Some(2))?;
    let ops: Vec<Op> = (0..2)
        .flat_map(|c| OpGen::new(ctx.inputs.workload, ctx.inputs.seed, c, ctx.inputs.docs.len()).take(REPLAY_OPS))
        .collect();
    let replay_wall = |tracer: &mut Tracer| timed(|| replay(ctx, &two, &tokenizer, &ops, tracer, &mut Outcome::default())).1.as_secs_f64();
    replay_wall(&mut Tracer::disabled()); // warm-up
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 1..REPEATS {
        untraced.push(replay_wall(&mut Tracer::disabled()));
        traced.push(replay_wall(&mut Tracer::new(true, origin)));
    }
    untraced.push(replay_wall(&mut Tracer::disabled()));
    let routing_before = two.snapshot().routing_stats();
    let (mut replay_stats, last) = timed(|| replay(ctx, &two, &tokenizer, &ops, &mut t, &mut out));
    traced.push(last.as_secs_f64());
    let routing_after = two.snapshot().routing_stats();
    let routed = (routing_after.0 - routing_before.0) + (routing_after.1 - routing_before.1);
    m.push(metric("shard.extract_us", median(&t.durations_us("shard.extract")), "us"));
    m.push(metric("shard.fanout_share", (routing_after.1 - routing_before.1) as f64 / routed.max(1) as f64, "ratio"));
    m.push(metric("protocol.parse_us", median(&t.durations_us("protocol.parse")), "us"));
    m.push(metric("protocol.render_us", median(&t.durations_us("protocol.render")), "us"));
    m.push(metric("protocol.response_bytes", replay_stats.response_bytes as f64 / replay_stats.responses.max(1) as f64, "bytes"));
    // stream: one session per document at the head of the pool, so every
    // workload has stream figures for its own documents.
    for (doc, text) in ctx.inputs.docs.iter().enumerate().take(STREAM_DOCS) {
        let emitted = stream_session(&two, &tokenizer, text, doc as u64, &mut t, &mut replay_stats);
        let res = check_stream(&emitted, &ctx.reference.full[doc]);
        tally_check(&mut out, res.is_ok(), || format!("in-process stream of document {doc}: {}", res.unwrap_err()));
    }
    m.push(metric("stream.open_us", median(&t.durations_us("stream.open")), "us"));
    let feed_us: f64 = t.durations_us("stream.feed").iter().sum();
    m.push(metric("stream.feed_us_per_kb", feed_us / (replay_stats.fed_bytes as f64 / 1024.0).max(f64::MIN_POSITIVE), "us/KB"));
    m.push(metric("stream.finish_us", median(&t.durations_us("stream.finish")), "us"));
    m.push(metric("stream.carried_bytes", replay_stats.carried_bytes as f64 / replay_stats.feeds.max(1) as f64, "bytes"));
    m.push(metric("trace.overhead_share", (median(&traced) - median(&untraced)) / median(&untraced), "ratio"));

    // shard: applying reload deltas, as serve's `reload` does.
    for i in 0..REPEATS {
        let delta = parse_delta(&ctx.inputs.reload_fields(i))?;
        t.span("shard.apply_update", i as u64, || two.apply_update(&delta, &tokenizer))
            .map_err(|e| format!("apply_update: {e:?}"))?;
    }
    m.push(metric("shard.apply_update_ms", median(&t.durations_us("shard.apply_update")) / 1e3, "ms"));

    // text: the interner clone serve pays per worker after each reload
    // and per stream open, on the generation the reloads left.
    let reloaded = two.snapshot();
    for _ in 0..REPEATS {
        std::hint::black_box(t.span("text.interner_clone", 0, || reloaded.interner().clone()));
    }
    m.push(metric("text.interner_clone_ms", median(&t.durations_us("text.interner_clone")) / 1e3, "ms"));

    // cli: the real `aeetes extract` over the pool, against in-process
    // load and batch time.
    let job = t.span("cli.extract", 0, || run_job(ctx.bin, &ctx.extract_args(&ctx.inputs.docs_file), ctx.work))?;
    let (ok, err) = crate::e2e::check_jsonl(&job.stdout, ctx.reference, docs.len());
    tally_check(&mut out, ok == docs.len() as u64, || err.unwrap_or_default());
    let wall_ms = ms(job.wall);
    m.push(metric("cli.extract_overhead_share", (wall_ms - cli_load_ms - batch_us / 1e3) / wall_ms, "ratio"));

    // frozen: section sizes from `dict info --json`.
    let info = std::process::Command::new(ctx.bin)
        .args(["dict", "info", "--json"])
        .arg(artifact)
        .output()
        .map_err(|e| format!("dict info: {e}"))?;
    let info: Value = serde_json::from_str(String::from_utf8_lossy(&info.stdout).trim()).map_err(|e| format!("dict info: {e}"))?;
    let section_bytes = |kind: &str| -> f64 {
        info.get("sections").and_then(Value::as_array).map_or(0.0, |s| {
            s.iter()
                .filter(|x| x.get("kind").and_then(Value::as_str) == Some(kind))
                .filter_map(|x| x.get("bytes").and_then(Value::as_u64))
                .sum::<u64>() as f64
        })
    };
    m.push(metric("frozen.set_data_bytes", section_bytes("ix.set_data"), "bytes"));
    m.push(metric("frozen.tokens_bytes", section_bytes("dd.tokens"), "bytes"));
    m.push(metric("frozen.weight_bytes", section_bytes("dd.weight"), "bytes"));

    // The real binary, scraped before and after.
    servers(ctx, &mut t, &mut m, &mut out)?;

    let totals = self_times(t.spans());
    let mut rows: Vec<(&str, (u64, u64))> = totals.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .0));
    for (name, (self_ns, count)) in rows {
        out.notes.push(format!("self time {name:<24} {:>10.3} ms over {count} spans", self_ns as f64 / 1e6));
    }
    out.metrics = m;
    out.extra.push(("spans", json!(t.spans().len())));
    let path = ctx.out.join(format!("{}.spans.jsonl", ctx.tag));
    t.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(out)
}

fn tally_check(out: &mut Outcome, ok: bool, what: impl FnOnce() -> String) {
    out.attempted += 1;
    if !ok {
        out.failed += 1;
        out.wrong += 1;
        if out.mismatches.len() < 8 {
            out.mismatches.push(what());
        }
    }
}

#[derive(Default)]
struct ReplayStats {
    responses: u64,
    response_bytes: u64,
    feeds: u64,
    fed_bytes: u64,
    carried_bytes: u64,
}

/// Replays `ops` in-process the way serve answers them: parse the request
/// line, tokenize against a worker interner, extract on the current
/// generation, select top-k, render the response line; stream sessions
/// open an extractor plus interner clone, feed, and finish.
fn replay(ctx: &Ctx, engine: &ShardedEngine, tokenizer: &Tokenizer, ops: &[Op], t: &mut Tracer, out: &mut Outcome) -> ReplayStats {
    let ceilings = Ceilings::default();
    let mut stats = ReplayStats::default();
    let mut scratch = ExtractScratch::new();
    let generation = engine.snapshot();
    let mut worker_interner = generation.interner().clone();
    for (req, op) in ops.iter().enumerate() {
        let req = req as u64;
        let doc = op.doc();
        let root = t.enter("request", req);
        match *op {
            Op::Extract(_) | Op::TopK(_) => {
                let topk = matches!(op, Op::TopK(_));
                let mut line = json!({"id": req, "type": "extract", "doc": ctx.inputs.docs[doc], "tau": TAU});
                if topk {
                    if let Value::Object(map) = &mut line {
                        map.insert("top_k".into(), json!(TOP_K));
                    }
                }
                let line = line.to_string();
                let parsed = t.span("protocol.parse", req, || parse_request(&line, &ceilings));
                let Ok(Request::Extract(parsed)) = parsed else {
                    t.exit(root);
                    tally_check(out, false, || "request did not parse as extract".into());
                    continue;
                };
                let document = t.span("text.tokenize", req, || Document::parse(&parsed.doc, tokenizer, &mut worker_interner));
                let span = t.enter("shard.extract", req);
                let outcome = generation.extract_scratched(&document, parsed.tau, &parsed.limits, None, &mut scratch);
                t.exit(span);
                let mut matches = outcome.matches.to_vec();
                if let Some(k) = parsed.top_k {
                    t.span("core.select_top_k", req, || select_top_k(&mut matches, k));
                }
                let response = t.span("protocol.render", req, || render(&generation, &document, &matches, &parsed.id));
                t.exit(root);
                stats.responses += 1;
                stats.response_bytes += response.len() as u64 + 1;
                let want = if topk { &ctx.reference.topk[doc] } else { &ctx.reference.full[doc] };
                let res = check_response(&response, want);
                tally_check(out, res.is_ok(), || format!("in-process {op:?}: {}", res.unwrap_err()));
            }
            Op::Stream(_) => {
                let emitted = stream_session(engine, tokenizer, &ctx.inputs.docs[doc], req, t, &mut stats);
                t.exit(root);
                let res = check_stream(&emitted, &ctx.reference.full[doc]);
                tally_check(out, res.is_ok(), || format!("in-process stream of document {doc}: {}", res.unwrap_err()));
            }
        }
    }
    stats
}

/// One stream session as serve runs it: open (an extractor plus an
/// interner clone of the current generation), `FEED_BYTES` feeds, finish.
fn stream_session(engine: &ShardedEngine, tokenizer: &Tokenizer, text: &str, req: u64, t: &mut Tracer, stats: &mut ReplayStats) -> Vec<Value> {
    let (generation, mut extractor, mut interner) = t.span("stream.open", req, || {
        let g = engine.snapshot();
        let extractor = StreamExtractor::new(&*g, TAU);
        let interner = g.interner().clone();
        (g, extractor, interner)
    });
    let mut emitted: Vec<Value> = Vec::new();
    for chunk in text.as_bytes().chunks(FEED_BYTES) {
        let span = t.enter("stream.feed", req);
        let got = extractor.feed(&*generation, tokenizer, &mut interner, chunk);
        emitted.extend(got.iter().map(|mm| stream_value(mm, &generation)));
        t.exit(span);
        stats.feeds += 1;
        stats.fed_bytes += chunk.len() as u64;
        stats.carried_bytes += extractor.carried_bytes() as u64;
    }
    let span = t.enter("stream.finish", req);
    let got = extractor.finish(&*generation, tokenizer, &mut interner);
    emitted.extend(got.iter().map(|mm| stream_value(mm, &generation)));
    t.exit(span);
    emitted
}

/// Renders matches and the response line exactly as serve's `run_job`.
fn render(generation: &Generation, doc: &Document, matches: &[aeetes_core::Match], id: &Value) -> String {
    let rendered: Vec<Value> = matches
        .iter()
        .map(|m| {
            json!({
                "start": m.span.start,
                "len": m.span.len,
                "score": m.score,
                "entity": m.entity.0,
                "entity_text": generation.dictionary().record(m.entity).raw,
                "matched_text": doc.text_of(m.span).unwrap_or_default(),
            })
        })
        .collect();
    ok_line(id, Value::Array(rendered), false)
}

fn stream_value(m: &aeetes_stream::StreamMatch, generation: &Generation) -> Value {
    json!({
        "start": m.start,
        "len": m.len,
        "score": m.score,
        "entity": m.entity.0,
        "entity_text": generation.dictionary().record(m.entity).raw,
        "byte_start": m.byte_start,
        "byte_end": m.byte_end,
    })
}

/// One protocol request on a fresh connection, returning a field of the
/// `ok` answer.
fn ask(addr: &str, request: &str, field: &str) -> Result<Value, String> {
    let line = Conn::connect(addr).and_then(|mut c| c.call(request)).map_err(|e| format!("{addr}: {e}"))?;
    let v = serde_json::from_str(&line).map_err(|e| format!("{addr}: {e}"))?;
    v.get(field).cloned().ok_or_else(|| format!("{addr}: no `{field}` in {line}"))
}

/// A metrics snapshot: the export array of one or more registries.
#[derive(Default, Clone)]
struct Scrape(Vec<Value>);

impl Scrape {
    fn counter(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|v| v.get("name").and_then(Value::as_str) == Some(name))
            .filter_map(|v| v.get("value").and_then(Value::as_f64))
            .sum()
    }

    /// Cumulative bucket counts `(upper bound s, count)` of a histogram,
    /// summed over the snapshot's registries.
    fn buckets(&self, name: &str) -> Vec<(Option<f64>, f64)> {
        let mut acc: Vec<(Option<f64>, f64)> = Vec::new();
        for h in self.0.iter().filter(|v| v.get("name").and_then(Value::as_str) == Some(name)) {
            for (i, b) in h.get("buckets").and_then(Value::as_array).into_iter().flatten().enumerate() {
                let le = b.as_array().and_then(|p| p.first()).and_then(Value::as_f64);
                let n = b.as_array().and_then(|p| p.get(1)).and_then(Value::as_f64).unwrap_or(0.0);
                if acc.len() <= i {
                    acc.push((le, 0.0));
                }
                acc[i].1 += n;
            }
        }
        acc
    }
}

/// Median of the histogram growth between two scrapes, in µs,
/// interpolated linearly inside its bucket.
fn histogram_p50_us(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    let b = before.buckets(name);
    let a = after.buckets(name);
    let delta: Vec<(Option<f64>, f64)> = a.iter().enumerate().map(|(i, &(le, n))| (le, n - b.get(i).map_or(0.0, |x| x.1))).collect();
    let total = delta.last().map_or(0.0, |x| x.1);
    if total <= 0.0 {
        return f64::NAN;
    }
    let rank = total / 2.0;
    let (mut lo, mut lo_n) = (0.0, 0.0);
    for (le, n) in delta {
        if n >= rank {
            let hi = le.unwrap_or(lo);
            return (lo + (hi - lo) * (rank - lo_n) / (n - lo_n).max(f64::MIN_POSITIVE)) * 1e6;
        }
        lo = le.unwrap_or(lo);
        lo_n = n;
    }
    f64::NAN
}

/// The registries of the processes that serve extracts: serve itself, or
/// each fleet replica, each asked with a protocol `metrics` request (the
/// body `/metrics.json` serves).
fn scrape_servers(server: &Server) -> Result<Scrape, String> {
    let addrs: Vec<&String> = if server.replicas.is_empty() {
        vec![&server.addr]
    } else {
        server.replicas.iter().map(|r| &r.1).collect()
    };
    let mut all = Vec::new();
    for addr in addrs {
        let v = ask(addr, r#"{"id":"scrape","type":"metrics"}"#, "metrics")?;
        all.extend(v.as_array().cloned().unwrap_or_default());
    }
    Ok(Scrape(all))
}

/// Drives the deployment with the workload's mix and scrapes around it
/// (serve figures), then compares the fleet coordinator with a replica
/// addressed directly on the same requests (cluster figures).
fn servers(ctx: &Ctx, t: &mut Tracer, m: &mut Vec<Metric>, out: &mut Outcome) -> Result<(), String> {
    let phase = (ctx.seconds / 4.0).clamp(2.0, 6.0);
    let deploy = if ctx.inputs.workload == Workload::FleetShort {
        Deploy::Fleet
    } else {
        Deploy::Serve
    };
    let server = Server::start(ctx.bin, &ctx.inputs.artifact, deploy, ctx.work, "traced")?;
    let stats_before = ask(&server.addr, r#"{"id":"scrape","type":"stats"}"#, "stats")?;
    let before = scrape_servers(&server)?;
    let plan = Plan {
        reloads: ctx.inputs.workload == Workload::ServeMixed,
        extracts_only: deploy == Deploy::Fleet,
        two: true,
        seconds: phase,
        traced: true,
        segment: 0,
    };
    let (tally, _, spans) = drive(ctx, &server.addr, &plan, &|| ());
    let after = scrape_servers(&server)?;
    let stats_after = ask(&server.addr, r#"{"id":"scrape","type":"stats"}"#, "stats")?;
    absorb_tally(out, &tally);
    t.absorb(spans);
    let client_us = median(&tally.latencies_ms) * 1e3;
    let server_us = histogram_p50_us(&before, &after, "aeetes_request_duration_seconds");
    m.push(metric("serve.server_us", server_us, "us"));
    m.push(metric("serve.wire_us", client_us - server_us, "us"));
    let tasks = after.counter("aeetes_pool_tasks_total") - before.counter("aeetes_pool_tasks_total");
    let steals = after.counter("aeetes_pool_steals_total") - before.counter("aeetes_pool_steals_total");
    m.push(metric("pool.steals_per_task", steals / tasks.max(1.0), "ratio"));
    out.notes
        .push(format!("serve phase: client p50 {:.3} ms over {} samples", client_us / 1e3, tally.latencies_ms.len()));
    out.extra.push(("scrape_stats_before", stats_before));
    out.extra.push(("scrape_stats_after", stats_after));
    out.extra.push(("scrape_metrics_before", Value::Array(before.0)));
    out.extra.push(("scrape_metrics_after", Value::Array(after.0)));

    // serve's own top-k path, on one serve process (a replica of the fleet).
    let target = match deploy {
        Deploy::Fleet => server.replicas.first().map(|r| r.1.clone()).ok_or("fleet banner named no replica")?,
        Deploy::Serve => server.addr.clone(),
    };
    let (topk_us, examined) = topk_probe(ctx, &target, out)?;
    m.push(metric("core.topk_us", topk_us, "us"));
    m.push(metric("core.topk_examined_ratio", examined, "ratio"));

    let fleet = if deploy == Deploy::Fleet {
        server
    } else {
        server.stop();
        Server::start(ctx.bin, &ctx.inputs.artifact, Deploy::Fleet, ctx.work, "traced-fleet")?
    };
    let fleet_before = ask(&fleet.addr, r#"{"id":"scrape","type":"stats"}"#, "stats")?;
    // One connection each way, on the same request sequence.
    let one = Plan {
        reloads: false,
        extracts_only: true,
        two: false,
        seconds: phase,
        traced: true,
        segment: 0,
    };
    let (via, _, spans_via) = drive(ctx, &fleet.addr, &one, &|| ());
    let direct_addr = fleet.replicas.first().map(|r| r.1.clone()).ok_or("fleet banner named no replica")?;
    let (direct, _, spans_direct) = drive(ctx, &direct_addr, &one, &|| ());
    let fleet_after = ask(&fleet.addr, r#"{"id":"scrape","type":"stats"}"#, "stats")?;
    fleet.stop();
    absorb_tally(out, &via);
    absorb_tally(out, &direct);
    t.absorb(spans_via);
    t.absorb(spans_direct);
    let hop_us = (median(&via.latencies_ms) - median(&direct.latencies_ms)) * 1e3;
    m.push(metric("cluster.hop_us", hop_us, "us"));
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let routed = field(&fleet_after, "routed") - field(&fleet_before, "routed");
    let retried = field(&fleet_after, "retried") - field(&fleet_before, "retried");
    m.push(metric("cluster.retries_per_req", retried / routed.max(1.0), "ratio"));
    out.notes.push(format!(
        "cluster phase: via coordinator p50 {:.3} ms ({} samples), direct p50 {:.3} ms ({} samples)",
        median(&via.latencies_ms),
        via.latencies_ms.len(),
        median(&direct.latencies_ms),
        direct.latencies_ms.len()
    ));
    out.extra.push(("scrape_fleet_stats_before", fleet_before));
    out.extra.push(("scrape_fleet_stats_after", fleet_after));
    Ok(())
}

/// Sends the first documents of the pool to one serve process as `top_k`
/// requests, then as plain extracts, each answer checked. Returns the
/// server-side p50 of the top-k requests (µs) and the candidates they
/// examined as a share of the plain extracts' candidates.
fn topk_probe(ctx: &Ctx, addr: &str, out: &mut Outcome) -> Result<(f64, f64), String> {
    const PROBE_DOCS: usize = 40;
    let candidates = |stats: &Value| -> f64 {
        stats
            .get("shards")
            .and_then(Value::as_array)
            .map_or(0.0, |s| s.iter().filter_map(|x| x.get("candidates").and_then(Value::as_f64)).sum())
    };
    let scrape = || -> Result<(Value, Scrape), String> {
        let stats = ask(addr, r#"{"id":"scrape","type":"stats"}"#, "stats")?;
        let metrics = ask(addr, r#"{"id":"scrape","type":"metrics"}"#, "metrics")?;
        Ok((stats, Scrape(metrics.as_array().cloned().unwrap_or_default())))
    };
    let mut conn = Conn::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let docs = ctx.inputs.docs.len().min(PROBE_DOCS);
    let mut phase = |topk: bool| -> Result<(Value, Scrape, Value, Scrape), String> {
        let (s0, m0) = scrape()?;
        for doc in 0..docs {
            let mut req = json!({"id": doc, "type": "extract", "doc": ctx.inputs.docs[doc], "tau": TAU});
            if let (true, Value::Object(map)) = (topk, &mut req) {
                map.insert("top_k".into(), json!(TOP_K));
            }
            let line = conn.call(&req.to_string()).map_err(|e| format!("{addr}: {e}"))?;
            let want = if topk { &ctx.reference.topk[doc] } else { &ctx.reference.full[doc] };
            let res = check_response(&line, want);
            tally_check(out, res.is_ok(), || format!("serve top-k probe, document {doc}: {}", res.unwrap_err()));
        }
        let (s1, m1) = scrape()?;
        Ok((s0, m0, s1, m1))
    };
    let (ts0, tm0, ts1, tm1) = phase(true)?;
    let (fs0, _, fs1, _) = phase(false)?;
    let topk_us = histogram_p50_us(&tm0, &tm1, "aeetes_request_duration_seconds");
    let examined = (candidates(&ts1) - candidates(&ts0)) / (candidates(&fs1) - candidates(&fs0)).max(1.0);
    Ok((topk_us, examined))
}

fn absorb_tally(out: &mut Outcome, tally: &Tally) {
    out.attempted += tally.attempted + tally.reload_ms.len() as u64 + tally.reloads_failed;
    out.failed += tally.failed();
    out.wrong += tally.wrong;
    for mm in &tally.mismatches {
        if out.mismatches.len() < 8 {
            out.mismatches.push(mm.clone());
        }
    }
}
