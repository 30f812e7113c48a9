//! Figure 9: end-to-end average extraction time per document,
//! Aeetes vs FaerieR, θ ∈ [0.7, 0.9].

use crate::common::{engine_with_rules, fmt_ms, time_ms_best, Config, TAUS};
use aeetes_baselines::Faerie;
use aeetes_core::ExtractBackend;
use aeetes_rules::{DeriveConfig, DerivedDictionary};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    tau: f64,
    aeetes_ms_per_doc: f64,
    faerier_ms_per_doc: f64,
    speedup: f64,
}

pub fn run(config: &Config) {
    println!("{:<10} {:>5} {:>10} {:>11} {:>9}", "dataset", "τ", "Aeetes ms", "FaerieR ms", "speedup");
    for data in config.datasets() {
        let engine = engine_with_rules(&data);
        let dd = DerivedDictionary::build(&data.dictionary, &data.rules, &DeriveConfig::default());
        let faerier = Faerie::build_derived(&dd);
        let docs = config.measured_docs(&data);
        for tau in TAUS {
            let a_ms = time_ms_best(3, || {
                for doc in docs {
                    std::hint::black_box(engine.extract(doc, tau));
                }
            }) / docs.len() as f64;
            let f_ms = time_ms_best(2, || {
                for doc in docs {
                    std::hint::black_box(faerier.extract(doc, tau));
                }
            }) / docs.len() as f64;
            println!("{:<10} {:>5.2} {} {} {:>8.1}x", data.name, tau, fmt_ms(a_ms), fmt_ms(f_ms), f_ms / a_ms.max(1e-9));
            config.record(
                "fig9",
                &Row {
                    dataset: data.name.clone(),
                    tau,
                    aeetes_ms_per_doc: a_ms,
                    faerier_ms_per_doc: f_ms,
                    speedup: f_ms / a_ms.max(1e-9),
                },
            );
        }
    }
    println!("\n(expected shape per the paper: Aeetes 1–2 orders of magnitude faster than FaerieR)");
}
