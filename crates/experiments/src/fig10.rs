//! Figure 10: effect of the filtering techniques — average extraction time
//! per document for Simple / Skip / Dynamic / Lazy.

use crate::common::{engine_with_rules, fmt_ms, time_ms_best, Config, STRATEGIES, TAUS};
use aeetes_core::{ExtractBackend, ExtractScratch, Query};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    tau: f64,
    strategy: String,
    ms_per_doc: f64,
}

pub fn run(config: &Config) {
    println!("{:<10} {:>5} {:>10} {:>10} {:>10} {:>10}", "dataset", "τ", "Simple", "Skip", "Dynamic", "Lazy");
    for data in config.datasets() {
        let engine = engine_with_rules(&data);
        let docs = config.measured_docs(&data);
        for tau in TAUS {
            let mut cells = Vec::with_capacity(STRATEGIES.len());
            for strategy in STRATEGIES {
                let query = Query { strategy, ..Query::new(engine.config(), tau) };
                let ms = time_ms_best(3, || {
                    for doc in docs {
                        std::hint::black_box(engine.query(doc, &query, &mut ExtractScratch::new()));
                    }
                }) / docs.len() as f64;
                cells.push(ms);
                config.record(
                    "fig10",
                    &Row {
                        dataset: data.name.clone(),
                        tau,
                        strategy: strategy.name().into(),
                        ms_per_doc: ms,
                    },
                );
            }
            println!("{:<10} {:>5.2} {} {} {} {}", data.name, tau, fmt_ms(cells[0]), fmt_ms(cells[1]), fmt_ms(cells[2]), fmt_ms(cells[3]));
        }
    }
    println!("\n(expected shape per the paper: Lazy < Dynamic < Skip < Simple)");
}
