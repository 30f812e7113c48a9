//! Typo-tolerant extraction (paper §8 future-work item (ii)).
//!
//! Replaces exact token equality in verification with fuzzy token matching
//! (normalized edit similarity ≥ `delta`), so documents containing typos
//! like "Aukland" still match "Auckland"-derived entities. Candidate
//! generation falls back to the window/length filters only — the prefix
//! filter is unsound under fuzzy token equality — so this mode trades speed
//! for recall and is intended for small dictionaries or post-processing.

use crate::extractor::Aeetes;
use crate::matches::Match;
use aeetes_index::window_bounds;
use aeetes_rules::DerivedId;
use aeetes_sim::fuzzy_jaccard;
use aeetes_text::{Document, EntityId, Interner, Span};

/// Configuration for [`extract_fuzzy`].
#[derive(Debug, Clone, Copy)]
pub struct FuzzyConfig {
    /// Token-level edit-similarity threshold (Fast-Join convention: 0.8).
    pub delta: f64,
    /// Pair-level fuzzy-JaccAR threshold.
    pub tau: f64,
}

impl Default for FuzzyConfig {
    fn default() -> Self {
        Self { delta: 0.8, tau: 0.8 }
    }
}

/// Extracts pairs whose *fuzzy* JaccAR reaches `config.tau`:
/// `max over variants of FuzzyJaccard(variant tokens, substring tokens)`.
///
/// Requires the [`Interner`] that produced both the dictionary and the
/// document, because fuzzy matching needs the token strings back.
pub fn extract_fuzzy(engine: &Aeetes, doc: &Document, interner: &Interner, config: FuzzyConfig) -> Vec<Match> {
    assert!(config.tau > 0.0 && config.tau <= 1.0, "tau must be in (0, 1]");
    assert!(config.delta > 0.0 && config.delta <= 1.0, "delta must be in (0, 1]");
    let index = engine.index();
    let dd = engine.derived();
    let Some(bounds) = window_bounds(index.min_set_len(), index.max_set_len(), config.tau) else {
        return Vec::new();
    };
    let n = doc.len();
    let doc_strs: Vec<&str> = doc.tokens().iter().map(|&t| interner.resolve(t)).collect();

    // Pre-resolve variant token strings once.
    let variant_strs: Vec<Vec<&str>> = dd.iter().map(|(_, d)| d.tokens.iter().map(|&t| interner.resolve(t)).collect()).collect();

    let mut out = Vec::new();
    for p in 0..n {
        let lmax = bounds.max.min(n - p);
        if bounds.min > lmax {
            break;
        }
        for l in bounds.min..=lmax {
            let span = Span::new(p, l);
            let s = &doc_strs[p..p + l];
            let mut best: Option<(f64, EntityId, DerivedId)> = None;
            for e in 0..dd.origins() {
                let e = EntityId(e as u32);
                for id in dd.variant_range(e) {
                    let vs = &variant_strs[id as usize];
                    // Length filter on token counts (sound for fuzzy Jaccard:
                    // overlap ≤ min(|a|, |b|)).
                    if (vs.len() as f64) < config.tau * l as f64 || vs.len() as f64 > l as f64 / config.tau {
                        continue;
                    }
                    let score = fuzzy_jaccard(vs, s, config.delta);
                    if score >= config.tau && best.is_none_or(|(b, _, _)| score > b) {
                        best = Some((score, e, DerivedId(id)));
                    }
                }
            }
            if let Some((score, entity, variant)) = best {
                out.push(Match { entity, span, score, best_variant: variant });
            }
        }
    }
    out.sort_unstable_by_key(Match::sort_key);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExtractBackend;
    use crate::config::AeetesConfig;
    use aeetes_rules::RuleSet;
    use aeetes_text::{Dictionary, Tokenizer};

    fn setup() -> (Aeetes, Interner, Tokenizer) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("University of Auckland New Zealand", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("NZ", "New Zealand", &tok, &mut int).unwrap();
        let engine = Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        (engine, int, tok)
    }

    #[test]
    fn tolerates_single_typo() {
        let (engine, mut int, tok) = setup();
        // "Aukland" — the paper's Figure 8 DBWorld example typo.
        let doc = Document::parse("the university of aukland nz campus", &tok, &mut int);
        let exact = engine.extract(&doc, 0.8);
        assert!(exact.is_empty(), "exact JaccAR misses the typo");
        let fuzzy = extract_fuzzy(&engine, &doc, &int, FuzzyConfig { delta: 0.8, tau: 0.8 });
        assert!(!fuzzy.is_empty(), "fuzzy extraction recovers the typo'd mention");
        assert!(fuzzy.iter().any(|m| m.span == Span::new(1, 4)));
    }

    #[test]
    fn exact_matches_score_one() {
        let (engine, mut int, tok) = setup();
        let doc = Document::parse("university of auckland new zealand", &tok, &mut int);
        let fuzzy = extract_fuzzy(&engine, &doc, &int, FuzzyConfig::default());
        assert!(fuzzy.iter().any(|m| m.score == 1.0));
    }

    #[test]
    fn respects_tau() {
        let (engine, mut int, tok) = setup();
        let doc = Document::parse("university college", &tok, &mut int);
        let fuzzy = extract_fuzzy(&engine, &doc, &int, FuzzyConfig { delta: 0.8, tau: 0.9 });
        assert!(fuzzy.is_empty());
    }
}
