//! Property-based oracle test: on small random instances, the engine's
//! output must coincide with a brute-force evaluation of Definition 2.2 —
//! every substring of every admissible token length scored against every
//! entity with the exact JaccAR of Definition 2.1.

use aeetes::core::ExtractScratch;
use aeetes::rules::{DeriveConfig, DerivedDictionary, RuleSet};
use aeetes::sim::{sorted_set, JaccArVerifier};
use aeetes::text::{Dictionary, Document, Interner, TokenId};
use aeetes::{Aeetes, AeetesConfig, ExtractBackend, Query, Strategy as ExtractStrategy};
use proptest::prelude::*;

/// A compact instance description drawn by proptest.
#[derive(Debug, Clone)]
struct Instance {
    entities: Vec<Vec<u8>>,
    rules: Vec<(Vec<u8>, Vec<u8>)>,
    doc: Vec<u8>,
    tau_percent: u8,
}

fn instance() -> impl Strategy<Value = Instance> {
    // Token alphabet of 12 symbols keeps collisions (and thus interesting
    // matches) frequent.
    let tok = 0u8..12;
    let seq = |lo: usize, hi: usize| proptest::collection::vec(tok.clone(), lo..=hi);
    (
        proptest::collection::vec(seq(1, 4), 1..6),
        proptest::collection::vec((seq(1, 2), seq(1, 3)), 0..4),
        seq(0, 24),
        70u8..=95,
    )
        .prop_map(|(entities, rules, doc, tau_percent)| Instance { entities, rules, doc, tau_percent })
}

fn materialize(inst: &Instance) -> (Dictionary, RuleSet, Document, f64, Interner) {
    let mut interner = Interner::new();
    let ids: Vec<TokenId> = (0..12).map(|i| interner.intern(&format!("tok{i}"))).collect();
    let mut dict = Dictionary::new();
    for e in &inst.entities {
        let tokens: Vec<TokenId> = e.iter().map(|&i| ids[i as usize]).collect();
        dict.push_tokens(format!("{e:?}"), tokens);
    }
    let mut rules = RuleSet::new();
    for (l, r) in &inst.rules {
        let lt: Vec<TokenId> = l.iter().map(|&i| ids[i as usize]).collect();
        let rt: Vec<TokenId> = r.iter().map(|&i| ids[i as usize]).collect();
        let _ = rules.push_tokens(lt, rt, 1.0); // trivial rules rejected, fine
    }
    let doc = Document::from_tokens(inst.doc.iter().map(|&i| ids[i as usize]).collect());
    (dict, rules, doc, inst.tau_percent as f64 / 100.0, interner)
}

/// Brute force: enumerate every substring whose token length lies in the
/// engine's window bounds and score it against every entity.
fn brute_force(dict: &Dictionary, dd: &DerivedDictionary, doc: &Document, tau: f64) -> Vec<(u32, u32, u32, f64)> {
    let verifier = JaccArVerifier::new(dd);
    // Same substring length range as the framework (token count, from the
    // *distinct* set sizes of derived entities).
    let min_len = dd.iter().map(|(_, d)| sorted_set(d.tokens).len()).filter(|&l| l > 0).min();
    let max_len = dd.iter().map(|(_, d)| sorted_set(d.tokens).len()).max();
    let (Some(lo), Some(hi)) = (min_len, max_len) else { return Vec::new() };
    let w_lo = ((lo as f64 * tau + 1e-9).floor() as usize).max(1);
    let w_hi = (hi as f64 / tau - 1e-9).ceil() as usize;
    let n = doc.len();
    let mut out = Vec::new();
    for p in 0..n {
        for l in w_lo..=w_hi.min(n - p) {
            let s = sorted_set(&doc.tokens()[p..p + l]);
            for (e, _) in dict.iter() {
                let score = verifier.verify(e, &s, 0.0).value;
                if score >= tau {
                    out.push((p as u32, l as u32, e.0, score));
                }
            }
        }
    }
    out.sort_by_key(|r| (r.0, r.1, r.2));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_brute_force(inst in instance()) {
        let (dict, rules, doc, tau, _int) = materialize(&inst);
        let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
        let engine = Aeetes::build(dict.clone(), &rules, &_int, AeetesConfig::default());
        let expected = brute_force(&dict, &dd, &doc, tau);
        for strategy in ExtractStrategy::ALL {
            let got: Vec<(u32, u32, u32, f64)> = engine
                .query(&doc, &Query { strategy, ..Query::new(engine.config(), tau) }, &mut ExtractScratch::new())
                .matches
                .iter()
                .map(|m| (m.span.start, m.span.len, m.entity.0, m.score))
                .collect();
            prop_assert_eq!(
                got.len(),
                expected.len(),
                "strategy {} tau {}: {:?} vs {:?}",
                strategy,
                tau,
                got,
                expected
            );
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!((g.0, g.1, g.2), (e.0, e.1, e.2), "strategy {}", strategy);
                prop_assert!((g.3 - e.3).abs() < 1e-12, "score {} vs {}", g.3, e.3);
            }
        }
    }
}
