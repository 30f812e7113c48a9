//! Frozen (v5) artifact suite: the mmap-able format is observationally
//! identical to the monolithic heap engine across all four strategies and
//! all four similarity metrics, on both the mmap and heap-fallback open
//! paths; a reopened artifact refreezes bit-identically; and the corruption
//! matrix — truncation at every section boundary, bit-flips through
//! header/table/payload/footer, misaligned section offsets — always yields
//! a clean error, never a panic or out-of-bounds access.

use aeetes_core::{open_frozen, open_frozen_bytes, Aeetes, AeetesConfig, ExtractBackend, Strategy};
use aeetes_rules::RuleSet;
use aeetes_shard::ShardedEngine;
use aeetes_sim::Metric;
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use std::path::PathBuf;

const STRATEGIES: [Strategy; 4] = [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy];
const METRICS: [Metric; 4] = [Metric::Jaccard, Metric::Dice, Metric::Cosine, Metric::Overlap];

const DOCS: [&str; 3] = [
    "she left uq australia for purdue university united states",
    "the university of queensland australia and the university of wisconsin madison",
    "purdue university usa mit and uq au all appear here verbatim",
];

fn corpus() -> (Dictionary, RuleSet, Interner, Tokenizer) {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();
    let mut dict = Dictionary::new();
    for e in [
        "Purdue University USA",
        "UQ AU",
        "University of Wisconsin Madison",
        "MIT",
        "United States",
        "Australia Day",
    ] {
        dict.push(e, &tokenizer, &mut interner);
    }
    let mut rules = RuleSet::new();
    for (l, r, w) in [
        ("UQ", "University of Queensland", 1.0),
        ("AU", "Australia", 0.9),
        ("USA", "United States", 1.0),
        ("MIT", "Massachusetts Institute of Technology", 0.95),
        ("UW", "University of Wisconsin", 1.0),
    ] {
        rules.push_weighted_str(l, r, w, &tokenizer, &mut interner).unwrap();
    }
    (dict, rules, interner, tokenizer)
}

fn tmp_path(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("aeetes-frozen-suite-{tag}-{}-{n}.aeet", std::process::id()))
}

/// Extraction over a frozen engine — opened from bytes (heap) and from a
/// file (mmap on unix) — is bit-identical to the monolithic oracle for
/// every strategy × metric combination.
#[test]
fn frozen_equals_monolithic_across_strategies_and_metrics() {
    let (dict, rules, interner, tokenizer) = corpus();
    for strategy in STRATEGIES {
        for metric in METRICS {
            let config = AeetesConfig { strategy, metric, ..AeetesConfig::default() };
            let mono = Aeetes::build(dict.clone(), &rules, &interner, config.clone());
            let engine = ShardedEngine::build(dict.clone(), &rules, &interner, config.clone(), 3);
            let bytes = engine.freeze();

            let heap = ShardedEngine::from_frozen(open_frozen_bytes(&bytes).expect("open heap"), None).expect("adopt heap");
            let path = tmp_path("eq");
            std::fs::write(&path, &bytes).unwrap();
            let mapped_parts = open_frozen(&path).expect("open mmap");
            #[cfg(unix)]
            assert!(mapped_parts.mmapped, "unix opens must map");
            let mapped = ShardedEngine::from_frozen(mapped_parts, None).expect("adopt mmap");
            std::fs::remove_file(&path).ok();

            for text in DOCS {
                let mut mono_int = interner.clone();
                let mono_doc = Document::parse(text, &tokenizer, &mut mono_int);
                for tau in [0.6, 0.8, 1.0] {
                    let expected = mono.extract(&mono_doc, tau);
                    for (label, frozen) in [("heap", &heap), ("mmap", &mapped)] {
                        let generation = frozen.snapshot();
                        let mut doc_int = generation.interner().clone();
                        let doc = Document::parse(text, &tokenizer, &mut doc_int);
                        assert_eq!(generation.extract(&doc, tau), expected, "{label} strategy={strategy:?} metric={metric:?} tau={tau} doc={text:?}");
                    }
                }
            }
        }
    }
}

/// An opened artifact refreezes to a fixed point, for one segment and
/// several: what the opener adopts is exactly what gets written back. (A
/// freshly built shard counts only its resident origins in its derive
/// statistics while an opened one spans the full id space, so the first
/// refreeze of a multi-segment build may restate those counts; from then on
/// the bytes are stable.)
#[test]
fn reopened_artifact_refreezes_bit_identically() {
    let (dict, rules, interner, _) = corpus();
    let refreeze = |bytes: &[u8]| ShardedEngine::from_frozen(open_frozen_bytes(bytes).expect("open"), None).expect("adopt").freeze();
    for shards in [1, 4] {
        let built = ShardedEngine::build(dict.clone(), &rules, &interner, AeetesConfig::default(), shards).freeze();
        let once = refreeze(&built);
        assert_eq!(refreeze(&once), once, "{shards} shard(s)");
        if shards == 1 {
            assert_eq!(once, built, "a one-segment build is already a fixed point");
        }
    }
}

/// Parses the v5 section table straight from the bytes: `(offset, len)` per
/// section, in table order. Kept independent of the library's parser so the
/// corruption matrix targets the format, not the implementation.
fn section_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let s = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    (0..s)
        .map(|i| {
            let at = 24 + i * 24;
            let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
            (off, len)
        })
        .collect()
}

fn recrc(bytes: &mut [u8]) {
    // Mirrors the on-disk CRC-32/ISO-HDLC over everything before the
    // 4-byte footer.
    let mut crc = !0u32;
    let len = bytes.len();
    for &b in &bytes[..len - 4] {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    bytes[len - 4..].copy_from_slice(&(!crc).to_le_bytes());
}

/// Truncation at (and one byte around) every section boundary is a clean
/// error on both open paths — bytes and mmap — never a panic or OOB read.
#[test]
fn truncation_at_every_section_boundary_is_a_clean_error() {
    let (dict, rules, interner, _) = corpus();
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 2);
    let bytes = engine.freeze();

    let mut cuts: Vec<usize> = vec![0, 4, 8, 16, 20, 24];
    for (off, len) in section_spans(&bytes) {
        cuts.extend([off.saturating_sub(1), off, off + 1, off + len.saturating_sub(1), off + len, off + len + 1]);
    }
    cuts.extend([bytes.len() - 5, bytes.len() - 4, bytes.len() - 1]);
    cuts.retain(|&c| c < bytes.len());
    cuts.sort_unstable();
    cuts.dedup();

    for &cut in &cuts {
        assert!(open_frozen_bytes(&bytes[..cut]).is_err(), "heap open accepted a {cut}-byte prefix of {}", bytes.len());
    }
    // The mmap path validates the same way; spot-check a spread of cuts
    // through real files rather than writing one file per boundary.
    for &cut in cuts.iter().step_by(cuts.len().div_ceil(8).max(1)) {
        let path = tmp_path("trunc");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(open_frozen(&path).is_err(), "mmap open accepted a {cut}-byte prefix");
        std::fs::remove_file(&path).ok();
    }
}

/// Bit-flips anywhere — header, section table, payload, CRC footer — are
/// rejected. The whole-file checksum is verified before any decoding, so a
/// flipped length or offset can never steer a read out of bounds.
#[test]
fn bitflips_everywhere_are_rejected() {
    let (dict, rules, interner, _) = corpus();
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 2);
    let bytes = engine.freeze();
    let table_end = 24 + section_spans(&bytes).len() * 24;

    // Exhaustive over header + section table (the bytes that steer all
    // later reads), sampled through the payload, exhaustive over footer.
    let mut targets: Vec<usize> = (0..table_end).collect();
    targets.extend((table_end..bytes.len() - 4).step_by(13));
    targets.extend(bytes.len() - 4..bytes.len());
    for i in targets {
        let mut b = bytes.clone();
        b[i] ^= 0x40;
        assert!(open_frozen_bytes(&b).is_err(), "bit flip at byte {i} accepted");
    }
}

/// A misaligned section offset is rejected even when the CRC is patched to
/// match — alignment is validated structurally, not just checksummed.
#[test]
fn misaligned_section_offsets_rejected_with_valid_crc() {
    let (dict, rules, interner, _) = corpus();
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 2);
    let bytes = engine.freeze();
    let n_sections = section_spans(&bytes).len();
    for i in 0..n_sections {
        let at = 24 + i * 24 + 8;
        let mut b = bytes.clone();
        let off = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        b[at..at + 8].copy_from_slice(&(off + 1).to_le_bytes());
        recrc(&mut b);
        assert!(open_frozen_bytes(&b).is_err(), "misaligned offset for section {i} accepted");
    }
}
