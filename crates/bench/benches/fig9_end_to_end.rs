//! Figure 9 bench: end-to-end extraction time per document, Aeetes vs
//! FaerieR, θ ∈ {0.7, 0.8, 0.9}.

use aeetes_baselines::Faerie;
use aeetes_bench::{fixture, profiles, TAUS};
use aeetes_core::ExtractBackend;
use aeetes_rules::{DeriveConfig, DerivedDictionary};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1200));
    for profile in profiles() {
        let fx = fixture(profile);
        let dd = DerivedDictionary::build(&fx.data.dictionary, &fx.data.rules, &DeriveConfig::default());
        let faerier = Faerie::build_derived(&dd);
        let docs = &fx.data.documents[..fx.data.documents.len().min(3)];
        for tau in TAUS {
            g.bench_function(format!("aeetes/{}/tau{tau}", fx.data.name), |b| {
                b.iter(|| {
                    for doc in docs {
                        black_box(fx.engine.extract(doc, tau));
                    }
                });
            });
            g.bench_function(format!("faerier/{}/tau{tau}", fx.data.name), |b| {
                b.iter(|| {
                    for doc in docs {
                        black_box(faerier.extract(doc, tau));
                    }
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
