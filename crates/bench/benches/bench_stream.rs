//! Streaming extraction and bound-pruned top-k bench.
//!
//! Two claims are measured — and their prerequisites *asserted*, so a
//! regression fails the bench run instead of silently shifting numbers:
//!
//! - **Top-k pruning**: [`extract_top_k_with`] must return exactly the
//!   naive "extract everything, sort, truncate" result while examining
//!   strictly fewer candidates at small `k` (the τ ratchet tightening the
//!   window and prefix filters is the whole point). The bench compares
//!   wall-clock and candidate counters of both sides.
//! - **Streaming**: a [`StreamExtractor`] fed arbitrary-size chunks must
//!   emit exactly the whole-document matches; the bench then compares
//!   streamed throughput at small and large chunk sizes against one-shot
//!   extraction to price the carry/re-extraction overhead.
//!
//! Wall-clock medians, candidate counters, and the pruned/full ratio are
//! written to `BENCH_stream.json` in the workspace target directory.
//! `AEETES_BENCH_QUICK=1` skips the criterion groups and runs a reduced
//! wall-clock pass (the CI smoke mode).

use aeetes_bench::{BENCH_SCALE, BENCH_SEED};
use aeetes_core::{extract_top_k_with, select_top_k, Aeetes, AeetesConfig, ExtractBackend, ExtractScratch, ExtractStats, Query, Strategy};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_sim::Metric;
use aeetes_stream::StreamExtractor;
use aeetes_text::{Document, Interner, Tokenizer};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock seconds of `runs` invocations of `f`.
fn time_median<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[samples.len() / 2]
}

/// Streams every text through `stream` in `chunk`-byte pieces; returns the
/// total number of matches (feed-emitted plus final flush).
fn run_streamed(
    stream: &mut StreamExtractor,
    engine: &Aeetes,
    tokenizer: &Tokenizer,
    interner: &mut Interner,
    texts: &[String],
    chunk: usize,
) -> usize {
    let mut n = 0usize;
    for text in texts {
        for piece in text.as_bytes().chunks(chunk) {
            n += stream.feed(engine, tokenizer, interner, piece).len();
        }
        n += stream.finish(engine, tokenizer, interner).len();
    }
    n
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("AEETES_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let data = generate(&DatasetProfile::pubmed_like().scaled(BENCH_SCALE), BENCH_SEED);
    let mut interner = data.interner.clone();
    let tokenizer = Tokenizer::default();
    let engine = Aeetes::build(data.dictionary.clone(), &data.rules, &interner, AeetesConfig::default());
    let tau = 0.6;
    let metric = Metric::Jaccard;
    let k = 5usize;

    let docs: Vec<&Document> = data.documents.iter().take(24).collect();
    // The streaming side needs raw text: rebuild each document's prose from
    // its tokens (datagen documents are token-level).
    let texts: Vec<String> = docs
        .iter()
        .map(|d| d.tokens().iter().map(|&t| interner.resolve(t)).collect::<Vec<_>>().join(" "))
        .collect();
    let total_bytes: usize = texts.iter().map(String::len).sum();

    // Gate 1 — top-k: bit-identical to the naive oracle, strictly fewer
    // candidates in aggregate at small k.
    let mut full_stats = ExtractStats::default();
    let mut pruned_stats = ExtractStats::default();
    for doc in &docs {
        let simple = Query { strategy: Strategy::Simple, ..Query::new(engine.config(), tau) };
        let full = engine.query(doc, &simple, &mut ExtractScratch::new()).to_outcome();
        let (mut all, fs) = (full.matches, full.stats);
        full_stats += fs;
        let (top, ps) = extract_top_k_with(&engine, doc, k, tau, metric);
        pruned_stats += ps;
        select_top_k(&mut all, k);
        assert_eq!(top, all, "pruned top-k diverged from the naive sort-and-truncate oracle");
    }
    assert!(
        pruned_stats.candidates < full_stats.candidates,
        "bound-pruned top-k (k={k}) must examine fewer candidates than full extraction: pruned {} vs full {}",
        pruned_stats.candidates,
        full_stats.candidates
    );

    // Gate 2 — streaming: chunked extraction equals whole-document
    // extraction, match for match.
    for text in &texts {
        let doc = Document::parse(text, &tokenizer, &mut interner);
        let whole = engine.extract(&doc, tau);
        let mut stream = StreamExtractor::new(&engine, tau);
        let mut got = Vec::new();
        for piece in text.as_bytes().chunks(64) {
            got.extend(stream.feed(&engine, &tokenizer, &mut interner, piece).iter().copied());
        }
        got.extend(stream.finish(&engine, &tokenizer, &mut interner).iter().copied());
        assert_eq!(got.len(), whole.len(), "streamed match count diverged from whole-document extraction");
        for (s, w) in got.iter().zip(&whole) {
            assert_eq!(
                (s.start as usize, s.len as usize, s.entity),
                (w.span.start as usize, w.span.len as usize, w.entity),
                "streamed match diverged from whole-document extraction"
            );
        }
    }

    if !quick {
        let mut g = c.benchmark_group("stream");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(400));
        g.measurement_time(std::time::Duration::from_millis(1200));
        g.bench_function("extract/whole_document", |b| {
            b.iter(|| {
                let mut n = 0usize;
                for text in &texts {
                    let doc = Document::parse(text, &tokenizer, &mut interner);
                    n += engine.extract(&doc, tau).len();
                }
                black_box(n)
            });
        });
        for (name, chunk) in [("streamed_256b", 256usize), ("streamed_4k", 4096)] {
            let mut stream = StreamExtractor::new(&engine, tau);
            g.bench_function(format!("extract/{name}"), |b| {
                b.iter(|| black_box(run_streamed(&mut stream, &engine, &tokenizer, &mut interner, &texts, chunk)));
            });
        }
        g.finish();

        let mut g = c.benchmark_group("topk");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(400));
        g.measurement_time(std::time::Duration::from_millis(1200));
        g.bench_function("topk/naive_full_truncate", |b| {
            b.iter(|| {
                let mut n = 0usize;
                for doc in &docs {
                    let mut all = engine.extract(doc, tau);
                    select_top_k(&mut all, k);
                    n += all.len();
                }
                black_box(n)
            });
        });
        g.bench_function("topk/bound_pruned", |b| {
            b.iter(|| {
                let mut n = 0usize;
                for doc in &docs {
                    n += extract_top_k_with(&engine, doc, k, tau, metric).0.len();
                }
                black_box(n)
            });
        });
        g.finish();
    }

    // Wall-clock summary for BENCH_stream.json, sampled round-robin so
    // machine-state drift hits every variant equally.
    let runs = if quick { 9 } else { 21 };
    let mut stream_small = StreamExtractor::new(&engine, tau);
    let mut stream_large = StreamExtractor::new(&engine, tau);
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _ in 0..runs {
        samples[0].push(time_median(1, || {
            let mut n = 0usize;
            for text in &texts {
                let doc = Document::parse(text, &tokenizer, &mut interner);
                n += engine.extract(&doc, tau).len();
            }
            n
        }));
        samples[1].push(time_median(1, || run_streamed(&mut stream_small, &engine, &tokenizer, &mut interner, &texts, 256)));
        samples[2].push(time_median(1, || run_streamed(&mut stream_large, &engine, &tokenizer, &mut interner, &texts, 4096)));
        samples[3].push(time_median(1, || {
            let mut n = 0usize;
            for doc in &docs {
                let mut all = engine.extract(doc, tau);
                select_top_k(&mut all, k);
                n += all.len();
            }
            n
        }));
        samples[4].push(time_median(1, || {
            let mut n = 0usize;
            for doc in &docs {
                n += extract_top_k_with(&engine, doc, k, tau, metric).0.len();
            }
            n
        }));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
        v[v.len() / 2]
    };
    let whole_s = median(&mut samples[0]);
    let stream_256_s = median(&mut samples[1]);
    let stream_4k_s = median(&mut samples[2]);
    let naive_s = median(&mut samples[3]);
    let pruned_s = median(&mut samples[4]);
    let mbps = |secs: f64| total_bytes as f64 / secs / (1024.0 * 1024.0);
    let candidate_ratio = pruned_stats.candidates as f64 / full_stats.candidates as f64;
    eprintln!(
        "top-k k={k}: pruned examines {} of {} candidates ({:.1}%), {:.2}x wall-clock vs naive",
        pruned_stats.candidates,
        full_stats.candidates,
        100.0 * candidate_ratio,
        naive_s / pruned_s
    );
    eprintln!(
        "streaming: whole {:.1} MB/s, 256 B chunks {:.1} MB/s, 4 KiB chunks {:.1} MB/s",
        mbps(whole_s),
        mbps(stream_256_s),
        mbps(stream_4k_s)
    );

    let rows = [
        format!("{{\"variant\": \"whole_document\", \"batch_s\": {whole_s:.6}, \"mb_per_s\": {:.2}}}", mbps(whole_s)),
        format!(
            "{{\"variant\": \"streamed_256b\", \"batch_s\": {stream_256_s:.6}, \"mb_per_s\": {:.2}, \"relative_to_whole\": {:.2}}}",
            mbps(stream_256_s),
            whole_s / stream_256_s
        ),
        format!(
            "{{\"variant\": \"streamed_4k\", \"batch_s\": {stream_4k_s:.6}, \"mb_per_s\": {:.2}, \"relative_to_whole\": {:.2}}}",
            mbps(stream_4k_s),
            whole_s / stream_4k_s
        ),
        format!("{{\"variant\": \"topk_naive\", \"batch_s\": {naive_s:.6}, \"candidates\": {}}}", full_stats.candidates),
        format!(
            "{{\"variant\": \"topk_pruned\", \"batch_s\": {pruned_s:.6}, \"candidates\": {}, \"candidate_ratio\": {candidate_ratio:.4}, \"speedup_vs_naive\": {:.2}}}",
            pruned_stats.candidates,
            naive_s / pruned_s
        ),
    ];
    let report = format!(
        "{{\n  \"bench\": \"stream\",\n  \"dataset\": \"{}\",\n  \"tau\": {tau},\n  \"k\": {k},\n  \"docs\": {},\n  \"bytes\": {total_bytes},\n  \"quick\": {quick},\n  \"candidate_ratio\": {candidate_ratio:.4},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        data.name,
        docs.len(),
        rows.join(",\n    ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_stream.json");
    match std::fs::write(&out, &report) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
