//! Ablation: the derived-dictionary cap (`DeriveConfig::max_derived`).
//!
//! The paper's `|D(e)| = O(2^n)` blow-up (§2.1) is unbounded; our engine
//! caps enumeration per entity. This sweep shows the trade-off the cap
//! buys: derived-dictionary size, index size and extraction time against
//! the recall of exact+synonym gold mentions.

use crate::common::{time_ms_best, Config};
use aeetes_core::{suppress_overlaps, Aeetes, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile, MentionForm};
use aeetes_rules::DeriveConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    max_derived: usize,
    derived: usize,
    truncated_entities: usize,
    index_mb: f64,
    build_ms: f64,
    extract_ms_per_doc: f64,
    gold_recall: f64,
}

const CAPS: [usize; 5] = [8, 32, 128, 256, 1024];

pub fn run(config: &Config) {
    println!(
        "{:<10} {:>8} {:>9} {:>10} {:>9} {:>9} {:>10} {:>8}",
        "dataset", "cap", "derived", "truncated", "index MB", "build ms", "ms/doc", "recall"
    );
    // usjob is where the cap bites (avg |A(e)| ≈ 22.7).
    for profile in [DatasetProfile::usjob_like(), DatasetProfile::pubmed_like()] {
        let data = generate(&profile.scaled(config.scale), config.seed);
        let docs = config.measured_docs(&data);
        for cap in CAPS {
            let cfg = AeetesConfig {
                derive: DeriveConfig { max_derived: cap, ..DeriveConfig::default() },
                ..AeetesConfig::default()
            };
            let mut engine: Option<Aeetes> = None;
            let build_ms = time_ms_best(1, || {
                engine = Some(Aeetes::build(data.dictionary.clone(), &data.rules, &data.interner, cfg.clone()));
            });
            let engine = engine.expect("built");
            let tau = 0.8;
            let extract_ms = time_ms_best(2, || {
                for doc in docs {
                    std::hint::black_box(engine.extract(doc, tau));
                }
            }) / docs.len() as f64;
            // Recall of exact+synonym gold at τ=0.8 under this cap.
            let mut hit = 0usize;
            let mut total = 0usize;
            for (doc_id, doc) in docs.iter().enumerate() {
                let best = suppress_overlaps(engine.extract(doc, tau));
                for g in data.gold_for(doc_id) {
                    if matches!(g.form, MentionForm::Exact | MentionForm::Synonym) {
                        total += 1;
                        if best.iter().any(|m| m.entity == g.entity && m.span == g.span) {
                            hit += 1;
                        }
                    }
                }
            }
            let recall = if total == 0 { 0.0 } else { hit as f64 / total as f64 };
            let st = engine.derived().stats();
            let index_mb = engine.index().size_bytes() as f64 / (1024.0 * 1024.0);
            println!(
                "{:<10} {:>8} {:>9} {:>10} {:>9.2} {:>9.1} {:>10.3} {:>8.3}",
                data.name,
                cap,
                engine.derived().len(),
                st.truncated_entities,
                index_mb,
                build_ms,
                extract_ms,
                recall
            );
            config.record(
                "ablation",
                &Row {
                    dataset: data.name.clone(),
                    max_derived: cap,
                    derived: engine.derived().len(),
                    truncated_entities: st.truncated_entities,
                    index_mb,
                    build_ms,
                    extract_ms_per_doc: extract_ms,
                    gold_recall: recall,
                },
            );
        }
    }
    println!("\n(the cap trades derived-dictionary size and extraction time against synonym-mention recall)");
}
