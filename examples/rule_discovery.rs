//! Bootstrapping synonym rules from the dictionary itself (§5 "Gathering
//! Synonym Rules"): mine abbreviation patterns, review the candidates, feed
//! them to the engine, and watch previously-invisible mentions appear.
//!
//! Run with: `cargo run --example rule_discovery`

use aeetes::rules::{add_discovered, discover_abbreviations, DiscoveryConfig};
use aeetes::{Aeetes, AeetesConfig, Dictionary, Document, ExtractBackend, Interner, RuleSet, Tokenizer};

fn main() {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();

    // A dictionary that *already contains* both the abbreviations and the
    // expansions, as real reference tables usually do.
    let mut dict = Dictionary::new();
    for entry in [
        "UQ AU",
        "University of Queensland Australia",
        "NYU Stern",
        "New York University",
        "MIT CSAIL",
        "Massachusetts Institute of Technology",
        "Univ of Melbourne",
        "University of Sydney",
    ] {
        dict.push(entry, &tokenizer, &mut interner);
    }

    // Mine abbreviation-style rule candidates.
    let discovered = discover_abbreviations(&dict, &interner, &DiscoveryConfig::default());
    println!("discovered {} candidate rule(s):", discovered.len());
    for r in &discovered {
        println!("  [{:?}, support {}] {} ⇔ {}", r.kind, r.support, interner.resolve(r.short), interner.render(&r.expansion),);
    }

    // Without rules: the abbreviation mention is invisible.
    let doc = Document::parse("panel: a speaker from the University of Queensland Australia and one from NYU", &tokenizer, &mut interner);
    let bare = Aeetes::build(dict.clone(), &RuleSet::new(), &interner, AeetesConfig::default());
    let before = bare.extract(&doc, 0.9).len();

    // With discovered rules (plus one hand-written rule the miner cannot
    // see: "au" is below the abbreviation length thresholds). Mixing mined
    // and curated rules is the realistic workflow §5 describes.
    let mut rules = RuleSet::new();
    let added = add_discovered(&mut rules, &discovered, 1.0);
    rules.push_str("AU", "Australia", &tokenizer, &mut interner).expect("manual rule");
    println!("\nadded {added} discovered rule(s) + 1 manual rule");
    let engine = Aeetes::build(dict, &rules, &interner, AeetesConfig::default());
    let matches = engine.extract(&doc, 0.9);
    println!("\nmatches at τ = 0.9 with the combined rule set:");
    for m in &matches {
        println!("  {:5.3}  \"{}\"  →  {}", m.score, doc.text_of(m.span).unwrap_or("<span>"), engine.dictionary().record(m.entity).raw,);
    }
    assert!(matches.len() > before, "discovered rules must surface extra mentions");
    assert!(
        matches.iter().any(|m| engine.dictionary().record(m.entity).raw == "New York University"),
        "the discovered NYU initialism should resolve the abbreviation mention"
    );
    assert!(
        matches.iter().any(|m| engine.dictionary().record(m.entity).raw == "UQ AU"),
        "the expansion mention should now also resolve to the abbreviation entity"
    );
}
