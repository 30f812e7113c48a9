//! Ablation bench: off-line build time and on-line extraction time as the
//! derived-dictionary cap grows (usjob profile — the cap-sensitive one).

use aeetes_bench::{BENCH_SCALE, BENCH_SEED};
use aeetes_core::{Aeetes, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_rules::DeriveConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_derive_cap");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    let data = generate(&DatasetProfile::usjob_like().scaled(BENCH_SCALE), BENCH_SEED);
    for cap in [16usize, 64, 256] {
        let cfg = AeetesConfig {
            derive: DeriveConfig { max_derived: cap, ..DeriveConfig::default() },
            ..AeetesConfig::default()
        };
        g.bench_function(format!("build/cap{cap}"), |b| {
            b.iter(|| black_box(Aeetes::build(data.dictionary.clone(), &data.rules, &data.interner, cfg.clone())));
        });
        let engine = Aeetes::build(data.dictionary.clone(), &data.rules, &data.interner, cfg);
        let docs = &data.documents[..data.documents.len().min(3)];
        g.bench_function(format!("extract/cap{cap}"), |b| {
            b.iter(|| {
                for doc in docs {
                    black_box(engine.extract(doc, 0.8));
                }
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
