//! Figure 12 bench: extraction time while the dictionary grows
//! (entity-count sweep per dataset).

use aeetes_bench::{BENCH_SCALE, BENCH_SEED};
use aeetes_core::{Aeetes, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    for base in DatasetProfile::all() {
        let base = base.scaled(BENCH_SCALE);
        for step in [0.25, 0.5, 1.0] {
            let entities = ((base.entities as f64 * step).round() as usize).max(1);
            let profile = base.clone().with_entities(entities);
            let data = generate(&profile, BENCH_SEED);
            let engine = Aeetes::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default());
            let docs = &data.documents[..data.documents.len().min(3)];
            for tau in [0.7, 0.9] {
                g.bench_function(format!("{}/entities{entities}/tau{tau}", data.name), |b| {
                    b.iter(|| {
                        for doc in docs {
                            black_box(engine.extract(doc, tau));
                        }
                    });
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
