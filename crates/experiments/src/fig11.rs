//! Figure 11: effect of the filtering techniques — average number of
//! accessed inverted-index entries per document.

use crate::common::{engine_with_rules, Config, STRATEGIES, TAUS};
use aeetes_core::{ExtractBackend, ExtractScratch, Query};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    tau: f64,
    strategy: String,
    accessed_entries_per_doc: f64,
}

pub fn run(config: &Config) {
    println!("{:<10} {:>5} {:>12} {:>12} {:>12} {:>12}", "dataset", "τ", "Simple", "Skip", "Dynamic", "Lazy");
    for data in config.datasets() {
        let engine = engine_with_rules(&data);
        let docs = config.measured_docs(&data);
        for tau in TAUS {
            let mut cells = Vec::with_capacity(STRATEGIES.len());
            for strategy in STRATEGIES {
                let query = Query { strategy, ..Query::new(engine.config(), tau) };
                let mut accessed = 0u64;
                for doc in docs {
                    accessed += engine.query(doc, &query, &mut ExtractScratch::new()).stats.accessed_entries;
                }
                let avg = accessed as f64 / docs.len() as f64;
                cells.push(avg);
                config.record(
                    "fig11",
                    &Row {
                        dataset: data.name.clone(),
                        tau,
                        strategy: strategy.name().into(),
                        accessed_entries_per_doc: avg,
                    },
                );
            }
            println!("{:<10} {:>5.2} {:>12.0} {:>12.0} {:>12.0} {:>12.0}", data.name, tau, cells[0], cells[1], cells[2], cells[3]);
        }
    }
    println!("\n(expected shape per the paper: Lazy ≪ Dynamic ≪ Skip ≪ Simple — e.g. PubMed θ=0.8: 326631 / 126895 / 16002 / 6120)");
}
