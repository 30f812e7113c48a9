//! The paper's Figure 1 / Example 1.1 walkthrough: extracting institution
//! names from a PC-member listing, comparing exact match, syntactic AEE
//! (plain Faerie) and synonym-aware AEES (Aeetes).
//!
//! The document contains four mentions:
//!   s1 "UW Madison"                         — needs rule UW ⇔ University of Wisconsin
//!   s2 "Purdue University in USA"           — syntactically similar (J = 3/4)
//!   s3 "Purdue University USA"              — exact
//!   s4 "University of Queensland Australia" — needs rules UQ ⇔ …, AU ⇔ Australia
//!
//! Exact match finds s3; syntactic AEE finds s2 + s3; Aeetes finds all four.
//!
//! Run with: `cargo run --example institution_extraction`

use aeetes::baselines::{ExactMatcher, Faerie};
use aeetes::{suppress_overlaps, Aeetes, AeetesConfig, Dictionary, Document, ExtractBackend, Interner, RuleSet, Tokenizer};

fn main() {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();

    // Dictionary (Figure 1).
    let mut dict = Dictionary::new();
    dict.push("University of Wisconsin Madison", &tokenizer, &mut interner); // e1
    dict.push("Purdue University USA", &tokenizer, &mut interner); // e2
    dict.push("UQ AU", &tokenizer, &mut interner); // e3

    // Synonym rule table (Figure 1).
    let mut rules = RuleSet::new();
    rules.push_str("UQ", "University of Queensland", &tokenizer, &mut interner).unwrap(); // r1
    rules.push_str("USA", "United States", &tokenizer, &mut interner).unwrap(); // r2
    rules.push_str("AU", "Australia", &tokenizer, &mut interner).unwrap(); // r3
    rules.push_str("UW", "University of Wisconsin", &tokenizer, &mut interner).unwrap(); // r4

    let doc = Document::parse(
        "PC members: Alice from UW Madison, Bob from Purdue University in USA, \
         Carol from Purdue University USA, Dan from University of Queensland Australia.",
        &tokenizer,
        &mut interner,
    );
    let tau = 0.7;

    // --- Exact match: finds only s3. ---
    let exact = ExactMatcher::build(&dict);
    let exact_hits = exact.extract(&doc);
    println!("exact match        → {} mention(s)", exact_hits.len());
    for (e, span) in &exact_hits {
        println!("    \"{}\" = {}", doc.text_of(*span).unwrap(), dict.record(*e).raw);
    }

    // --- Syntactic AEE (plain Faerie, no synonyms): finds s2 and s3. ---
    let faerie = Faerie::build_plain(&dict);
    let (faerie_hits, _) = faerie.extract(&doc, tau);
    println!("\nsyntactic AEE      → {} raw pair(s) at τ = {tau}", faerie_hits.len());
    for m in &faerie_hits {
        println!("    {:5.3} \"{}\" = {}", m.score, doc.text_of(m.span).unwrap(), dict.record(m.entity).raw);
    }

    // --- Synonym-aware AEES (Aeetes): finds all of s1..s4. ---
    let engine = Aeetes::build(dict, &rules, &interner, AeetesConfig::default());
    let raw = engine.extract(&doc, tau);
    let best = suppress_overlaps(raw);
    println!("\nsynonym-aware AEES → {} mention(s) at τ = {tau} (best per region)", best.len());
    for m in &best {
        println!("    {:5.3} \"{}\" = {}", m.score, doc.text_of(m.span).unwrap(), engine.dictionary().record(m.entity).raw);
    }

    // The paper's Example 1.1 outcome.
    assert_eq!(exact_hits.len(), 1, "exact finds only s3");
    let texts: Vec<&str> = best.iter().map(|m| doc.text_of(m.span).unwrap()).collect();
    for expected in [
        "UW Madison",
        "Purdue University in USA",
        "Purdue University USA",
        "University of Queensland Australia",
    ] {
        assert!(texts.contains(&expected), "Aeetes should extract {expected:?}, got {texts:?}");
    }
}
