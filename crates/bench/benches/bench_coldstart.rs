//! Cold-start bench: time to first extraction when the engine is built from
//! its source (derive every variant and build every index, what a start
//! without an artifact costs) against opening the v5 frozen artifact (mmap,
//! checksum, adopt the prebuilt arenas), plus the resident-set delta each
//! start leaves behind.
//!
//! Besides the criterion group, medians are written to
//! `BENCH_coldstart.json` in the workspace target directory; CI gates on
//! `speedup >= 15`. Setting `AEETES_BENCH_QUICK=1` skips the criterion
//! groups and runs a reduced wall-clock pass (the CI smoke mode).

use aeetes_bench::BENCH_SEED;
use aeetes_core::{open_frozen, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::ShardedEngine;
use aeetes_text::Document;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const SHARDS: usize = 4;
const TAU: f64 = 0.8;

/// Cold start is about amortized index-rebuild cost, so this bench runs at
/// full pubmed scale (20k entities) rather than the criterion-friendly
/// `BENCH_SCALE` the hot-path benches share — at 5% scale fixed costs
/// dominate and the comparison measures nothing.
const COLDSTART_SCALE: f64 = 1.0;

/// Median wall-clock seconds of `runs` invocations of `f`. The return
/// value is dropped *outside* the timed window: the metric is
/// open-to-first-extraction latency, and teardown (munmap / freeing the
/// rebuilt structures) is not part of answering the first request.
fn time_median<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let alive = black_box(f());
            let s = start.elapsed().as_secs_f64();
            drop(alive);
            s
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[samples.len() / 2]
}

/// Resident set in KiB from `/proc/self/statm` (0 where unavailable,
/// e.g. non-Linux). Pages are assumed 4 KiB — diagnostic, not gated.
fn resident_kb() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|f| f.parse::<u64>().ok()))
        .map(|pages| pages * 4)
        .unwrap_or(0)
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aeetes-coldstart-{tag}-{}.aeet", std::process::id()))
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("AEETES_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let data = generate(&DatasetProfile::pubmed_like().scaled(COLDSTART_SCALE), BENCH_SEED);
    let build = || ShardedEngine::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default(), SHARDS);

    let v5_path = tmp("v5");
    let v5_bytes = build().freeze();
    std::fs::write(&v5_path, &v5_bytes).expect("write v5 artifact");

    // A short document drives the first extraction (a first request is a
    // query, not a corpus scan); parsing happens against the loaded
    // engine's interner inside the measured window — exactly what a cold
    // process does before answering its first request.
    let first_doc = &data.documents[0].tokens()[..64.min(data.documents[0].tokens().len())];
    let doc_text = data.interner.render(first_doc);

    let open_v5 = |path: &PathBuf| {
        let parts = open_frozen(path).expect("open v5");
        ShardedEngine::from_frozen(parts, None).expect("adopt v5")
    };
    let tokenizer = data.tokenizer.clone();
    let first_extract = move |engine: &ShardedEngine| {
        let generation = engine.snapshot();
        let mut interner = generation.interner().clone();
        let doc = Document::parse(&doc_text, &tokenizer, &mut interner);
        generation.extract(&doc, TAU)
    };

    // Resident-set deltas, best effort: v5 first so the allocator's
    // high-water mark from the build can't mask the mmap savings.
    let rss0 = resident_kb();
    let mapped = open_v5(&v5_path);
    black_box(first_extract(&mapped));
    let v5_rss_delta_kb = resident_kb().saturating_sub(rss0);
    drop(mapped);
    let rss1 = resident_kb();
    let built = build();
    black_box(first_extract(&built));
    let build_rss_delta_kb = resident_kb().saturating_sub(rss1);
    drop(built);

    if !quick {
        let mut g = c.benchmark_group("coldstart");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(300));
        g.measurement_time(std::time::Duration::from_millis(1500));
        g.bench_function("build_to_first_extract", |b| {
            b.iter(|| {
                let e = build();
                black_box(first_extract(&e))
            });
        });
        g.bench_function("v5_mmap_to_first_extract", |b| {
            b.iter(|| {
                let e = open_v5(&v5_path);
                black_box(first_extract(&e))
            });
        });
        g.finish();
    }

    let runs = if quick { 5 } else { 9 };
    let build_s = time_median(runs, || {
        let e = build();
        let m = black_box(first_extract(&e));
        (e, m)
    });
    let v5_open_s = time_median(runs, || {
        let e = open_v5(&v5_path);
        let m = black_box(first_extract(&e));
        (e, m)
    });
    let speedup = build_s / v5_open_s;

    let report = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"coldstart\",\n",
            "  \"dataset\": \"{}\",\n",
            "  \"shards\": {},\n",
            "  \"tau\": {},\n",
            "  \"v5_artifact_bytes\": {},\n",
            "  \"build_to_first_extract_s\": {:.6},\n",
            "  \"v5_open_to_first_extract_s\": {:.6},\n",
            "  \"speedup\": {:.2},\n",
            "  \"build_rss_delta_kb\": {},\n",
            "  \"v5_rss_delta_kb\": {}\n",
            "}}\n"
        ),
        data.name,
        SHARDS,
        TAU,
        v5_bytes.len(),
        build_s,
        v5_open_s,
        speedup,
        build_rss_delta_kb,
        v5_rss_delta_kb,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_coldstart.json");
    match std::fs::write(&out, &report) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    eprintln!("coldstart: build {build_s:.4}s, v5 {v5_open_s:.4}s ({speedup:.1}x)");

    std::fs::remove_file(&v5_path).ok();
}

criterion_group!(benches, bench);
criterion_main!(benches);
