//! Quickstart: build an engine from a dictionary + synonym rules and
//! extract mentions from a document.
//!
//! Run with: `cargo run --example quickstart`

use aeetes::{Aeetes, AeetesConfig, Dictionary, Document, ExtractBackend, Interner, RuleSet, Tokenizer};

fn main() {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();

    // 1. The reference entity table (the "dictionary").
    let mut dict = Dictionary::new();
    for name in [
        "Massachusetts Institute of Technology",
        "University of California Los Angeles",
        "New York University",
    ] {
        dict.push(name, &tokenizer, &mut interner);
    }

    // 2. Synonym rules ⟨lhs ⇔ rhs⟩: both directions are applied off-line.
    let mut rules = RuleSet::new();
    for (lhs, rhs) in [
        ("MIT", "Massachusetts Institute of Technology"),
        ("UCLA", "University of California Los Angeles"),
        ("NYU", "New York University"),
        ("Big Apple", "New York"),
    ] {
        rules.push_str(lhs, rhs, &tokenizer, &mut interner).expect("valid rule");
    }

    // 3. Off-line preprocessing: derived dictionary + clustered index.
    let engine = Aeetes::build(dict, &rules, &interner, AeetesConfig::default());
    println!(
        "engine ready: {} entities → {} derived variants, {} index entries\n",
        engine.dictionary().len(),
        engine.derived().len(),
        engine.index().total_entries(),
    );

    // 4. On-line extraction at threshold τ = 0.8.
    let doc = Document::parse(
        "After MIT she joined the University of California, Los Angeles; \
         her sister stayed at NYU in the Big Apple University area.",
        &tokenizer,
        &mut interner,
    );
    let tau = 0.8;
    let matches = engine.extract(&doc, tau);

    println!("matches at τ = {tau}:");
    for m in &matches {
        println!("  {:5.3}  \"{}\"  →  {}", m.score, doc.text_of(m.span).unwrap_or("<span>"), engine.dictionary().record(m.entity).raw,);
    }
    assert!(!matches.is_empty(), "quickstart should find mentions");
}
