//! Figure 12: scalability — average extraction time per document while the
//! number of dictionary entities grows, for θ ∈ {0.7 … 0.9}.

use crate::common::{engine_with_rules, time_ms_best, Config};
use aeetes_core::ExtractBackend;
use aeetes_datagen::{generate, DatasetProfile};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    entities: usize,
    tau: f64,
    ms_per_doc: f64,
}

/// Entity-count steps, as fractions of the profile's (scaled) entity count —
/// the paper sweeps five steps up to the full dictionary.
const STEPS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
const TAUS: [f64; 5] = [0.7, 0.75, 0.8, 0.85, 0.9];

pub fn run(config: &Config) {
    println!("{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}", "dataset", "entities", "τ=0.70", "τ=0.75", "τ=0.80", "τ=0.85", "τ=0.90");
    for base in DatasetProfile::all() {
        let base = base.scaled(config.scale);
        for step in STEPS {
            let entities = ((base.entities as f64 * step).round() as usize).max(1);
            let profile = base.clone().with_entities(entities);
            let data = generate(&profile, config.seed);
            let engine = engine_with_rules(&data);
            let docs = config.measured_docs(&data);
            let mut cells = Vec::with_capacity(TAUS.len());
            for tau in TAUS {
                let ms = time_ms_best(3, || {
                    for doc in docs {
                        std::hint::black_box(engine.extract(doc, tau));
                    }
                }) / docs.len() as f64;
                cells.push(ms);
                config.record("fig12", &Row { dataset: data.name.clone(), entities, tau, ms_per_doc: ms });
            }
            println!(
                "{:<10} {:>9} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                data.name, entities, cells[0], cells[1], cells[2], cells[3], cells[4]
            );
        }
    }
    println!("\n(expected shape per the paper: near-linear growth with the number of entities)");
}
