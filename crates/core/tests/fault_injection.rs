//! Fault-injection tests for the robustness layer: corrupt engine files
//! (frozen v5 artifacts) must fail with errors (never panic or
//! over-allocate) and exhausted budgets must return immediately with
//! `truncated = true`. (Batch panic isolation is tested in the
//! `aeetes-pool` crate with the executor.)

use aeetes_core::{load_engine, save_engine, Aeetes, AeetesConfig, ExtractBackend, ExtractLimits, ExtractScratch, Strategy};
use aeetes_rules::RuleSet;
use aeetes_sim::Metric;
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use proptest::prelude::*;

fn sample_engine(config: AeetesConfig) -> (Aeetes, Interner) {
    let mut int = Interner::new();
    let tok = Tokenizer::default();
    let mut dict = Dictionary::new();
    dict.push("purdue university usa", &tok, &mut int);
    dict.push("uq au", &tok, &mut int);
    dict.push("university of wisconsin madison", &tok, &mut int);
    let mut rules = RuleSet::new();
    rules.push_str("uq", "university of queensland", &tok, &mut int).unwrap();
    rules.push_str("usa", "united states", &tok, &mut int).unwrap();
    rules.push_weighted_str("au", "australia", 0.9, &tok, &mut int).unwrap();
    (Aeetes::build(dict, &rules, &int, config), int)
}

/// CRC-32/ISO-HDLC, bit by bit: the artifact footer checksum, computed
/// independently of the library.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

fn saved_bytes() -> Vec<u8> {
    let (engine, int) = sample_engine(AeetesConfig::default());
    save_engine(&engine, &int)
}

/// Every strict prefix of a valid engine file is rejected with an error.
/// This walks through *every* field boundary of the v5 format — magic,
/// version, generation, section table, every aligned section and its
/// padding, checksum.
#[test]
fn truncation_at_every_byte_is_an_error_not_a_panic() {
    let bytes = saved_bytes();
    for len in 0..bytes.len() {
        let r = load_engine(&bytes[..len]);
        assert!(r.is_err(), "prefix of {len}/{} bytes must not load", bytes.len());
    }
}

/// Every single-bit flip anywhere in the file is caught: CRC-32 detects all
/// single-bit payload errors, and flips in the header or footer fail their
/// own validation. No flip may panic or abort.
#[test]
fn every_single_bit_flip_is_detected() {
    let bytes = saved_bytes();
    for i in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            let r = load_engine(&corrupt);
            assert!(r.is_err(), "flip byte {i} bit {bit} must be rejected");
        }
    }
}

/// Appending garbage after a valid file is rejected (the checksum is
/// computed over everything before the footer, so extra bytes shift it).
#[test]
fn appended_garbage_is_rejected() {
    let mut bytes = saved_bytes();
    bytes.extend_from_slice(b"\0\0\0\0trailing");
    assert!(load_engine(&bytes).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup up to 64 KiB never panics and never makes
    /// `load_engine` allocate past the input (forged counts are capped by
    /// the per-element minimum sizes before any `Vec::with_capacity`).
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..65536)) {
        let _ = load_engine(&bytes);
    }

    /// Byte soup behind a valid header *and* a matching checksum is the
    /// adversarial case: it gets past the magic, the version and the CRC
    /// and reaches the section-table and section parsing.
    #[test]
    fn byte_soup_with_valid_header_never_panics(tail in proptest::collection::vec(0u8..=255, 0..4096)) {
        let mut bytes = b"AEET\x05\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&tail);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let _ = load_engine(&bytes);
    }
}

/// Engines round-trip across every `Strategy` × `Metric` configuration:
/// the config survives and extraction results are identical.
#[test]
fn round_trip_across_every_strategy_and_metric() {
    for strategy in [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy] {
        for metric in [Metric::Jaccard, Metric::Dice, Metric::Cosine, Metric::Overlap] {
            let config = AeetesConfig { strategy, metric, ..AeetesConfig::default() };
            let (engine, int) = sample_engine(config);
            let bytes = save_engine(&engine, &int);
            let (loaded, mut loaded_int) = load_engine(&bytes).unwrap_or_else(|e| panic!("{strategy} × {metric}: {e}"));
            assert_eq!(loaded.config().strategy, strategy);
            assert_eq!(loaded.config().metric, metric);
            let tok = Tokenizer::default();
            let doc = Document::parse("purdue university united states met the university of queensland australia", &tok, &mut loaded_int);
            let mut int2 = int.clone();
            let doc2 = Document::parse("purdue university united states met the university of queensland australia", &tok, &mut int2);
            let original = engine.extract(&doc2, 0.7);
            let reloaded = loaded.extract(&doc, 0.7);
            assert_eq!(original.len(), reloaded.len(), "{strategy} × {metric}");
            for (a, b) in original.iter().zip(&reloaded) {
                assert_eq!(a.span, b.span);
                assert_eq!(a.entity, b.entity);
                assert!((a.score - b.score).abs() < 1e-12);
            }
        }
    }
}

/// A zero-candidate budget returns immediately with `truncated = true` and
/// no matches — even for empty documents — for every strategy.
#[test]
fn zero_budget_returns_immediately_truncated() {
    let limits = ExtractLimits { max_candidates: Some(0), ..ExtractLimits::UNLIMITED };
    for strategy in [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy] {
        let (engine, mut int) = sample_engine(AeetesConfig { strategy, ..AeetesConfig::default() });
        let tok = Tokenizer::default();
        for text in ["purdue university usa and uq au", ""] {
            let doc = Document::parse(text, &tok, &mut int);
            let out = engine.extract_scratched(&doc, 0.8, &limits, None, &mut ExtractScratch::new()).to_outcome();
            assert!(out.truncated, "{strategy} on {text:?}");
            assert!(out.matches.is_empty());
        }
    }
}

/// Partial results under a tight budget are a subset of the full results
/// for every strategy (budgets may drop matches, never invent them).
#[test]
fn budgeted_results_are_subsets_of_full_results() {
    for strategy in [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy] {
        let (engine, mut int) = sample_engine(AeetesConfig { strategy, ..AeetesConfig::default() });
        let tok = Tokenizer::default();
        let doc =
            Document::parse("purdue university usa then uq au then university of wisconsin madison again purdue university usa", &tok, &mut int);
        let full = engine.extract(&doc, 0.8);
        for cap in 0..=full.len() + 1 {
            let limits = ExtractLimits { max_matches: Some(cap), ..ExtractLimits::UNLIMITED };
            let out = engine.extract_scratched(&doc, 0.8, &limits, None, &mut ExtractScratch::new()).to_outcome();
            assert!(out.matches.len() <= cap.max(full.len()), "{strategy} cap={cap}");
            for m in &out.matches {
                assert!(full.contains(m), "{strategy} cap={cap} invented {m:?}");
            }
        }
    }
}
