//! Figure 10 bench: extraction time per document for the four filtering
//! strategies (Simple / Skip / Dynamic / Lazy).

use aeetes_bench::{fixture, profiles, TAUS};
use aeetes_core::{ExtractBackend, ExtractScratch, Query, Strategy};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    for profile in profiles() {
        let fx = fixture(profile);
        let docs = &fx.data.documents[..fx.data.documents.len().min(3)];
        for tau in TAUS {
            for strategy in Strategy::ALL {
                let query = Query { strategy, ..Query::new(fx.engine.config(), tau) };
                g.bench_function(format!("{}/{}/tau{tau}", fx.data.name, strategy.name()), |b| {
                    b.iter(|| {
                        for doc in docs {
                            black_box(fx.engine.query(doc, &query, &mut ExtractScratch::new()));
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
