//! Figure 11 bench: candidate-generation cost per strategy. The paper's
//! metric (accessed inverted-index entries) is deterministic, so it is
//! printed once per configuration; criterion then times the corresponding
//! candidate-generation pass so the counter reduction can be correlated
//! with wall-clock cost.

use aeetes_bench::{fixture, profiles, TAUS};
use aeetes_core::{ExtractBackend, ExtractScratch, Query, Strategy};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    for profile in profiles() {
        let fx = fixture(profile);
        let docs = &fx.data.documents[..fx.data.documents.len().min(3)];
        for tau in TAUS {
            for strategy in Strategy::ALL {
                let query = Query { strategy, ..Query::new(fx.engine.config(), tau) };
                // Deterministic accessed-entries figure (the actual Fig 11
                // series), reported alongside the timing.
                let mut accessed = 0u64;
                for doc in docs {
                    let stats = fx.engine.query(doc, &query, &mut ExtractScratch::new()).stats;
                    accessed += stats.accessed_entries;
                }
                eprintln!("fig11/{}/{}/tau{tau}: accessed_entries_per_doc = {}", fx.data.name, strategy.name(), accessed / docs.len() as u64);
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
