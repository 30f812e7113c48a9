//! The streaming oracle: for *any* way of splitting a byte stream into
//! chunks — mid-token, mid-UTF-8 sequence, empty chunks, one byte at a
//! time — the concatenation of [`StreamExtractor::feed`] outputs plus the
//! [`StreamExtractor::finish`] flush is **bit-identical** to extracting
//! over the whole document at once, for all four strategies. The oracle
//! for arbitrary (possibly invalid) bytes is extraction over
//! `String::from_utf8_lossy` of the whole input, which is what the
//! incremental decoder promises to reproduce.

use aeetes_core::{Aeetes, AeetesConfig, ExtractBackend, Match, Strategy};
use aeetes_rules::RuleSet;
use aeetes_stream::{StreamExtractor, StreamMatch};
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Words the generator draws from: dictionary hits, rule right-hand sides,
/// noise, and multi-byte UTF-8 words so byte-level splits land inside
/// characters.
const VOCAB: [&str; 12] = [
    "purdue",
    "university",
    "usa",
    "uq",
    "au",
    "united",
    "states",
    "of",
    "queensland",
    "café",
    "zürich",
    "noise",
];

struct Fixture {
    engines: Vec<(Strategy, Aeetes)>,
    interner: Interner,
    tokenizer: Tokenizer,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("purdue university usa", &tok, &mut int);
        dict.push("uq au", &tok, &mut int);
        dict.push("university of queensland", &tok, &mut int);
        dict.push("café zürich", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("uq", "university of queensland", &tok, &mut int).unwrap();
        rules.push_str("usa", "united states", &tok, &mut int).unwrap();
        let engines = Strategy::ALL
            .iter()
            .map(|&strategy| {
                let config = AeetesConfig { strategy, ..AeetesConfig::default() };
                (strategy, Aeetes::build(dict.clone(), &rules, &int, config))
            })
            .collect();
        Fixture { engines, interner: int, tokenizer: tok }
    })
}

/// Splits `bytes` at the (sorted, deduped) cut offsets and runs the
/// stream; returns the concatenated feed + finish outputs.
fn run_stream(engine: &Aeetes, tok: &Tokenizer, int: &mut Interner, bytes: &[u8], cuts: &[usize], tau: f64) -> Vec<StreamMatch> {
    let mut s = StreamExtractor::new(engine, tau);
    let mut got = Vec::new();
    let mut prev = 0;
    for &c in cuts {
        let c = c.min(bytes.len());
        got.extend_from_slice(s.feed(engine, tok, int, &bytes[prev..c]));
        prev = c;
    }
    got.extend_from_slice(s.feed(engine, tok, int, &bytes[prev..]));
    got.extend_from_slice(s.finish(engine, tok, int));
    got
}

fn assert_bit_identical(stream: &[StreamMatch], doc_matches: &[Match], strategy: Strategy) -> Result<(), TestCaseError> {
    prop_assert_eq!(stream.len(), doc_matches.len(), "{}: {:?} vs {:?}", strategy, stream, doc_matches);
    for (s, d) in stream.iter().zip(doc_matches) {
        prop_assert_eq!(s.start, d.span.start as u64, "{}", strategy);
        prop_assert_eq!(s.len, d.span.len, "{}", strategy);
        prop_assert_eq!(s.entity, d.entity, "{}", strategy);
        prop_assert_eq!(s.score, d.score, "{}", strategy);
        prop_assert_eq!(s.best_variant, d.best_variant, "{}", strategy);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Valid UTF-8 text, arbitrary byte-offset chunk splits (including
    /// mid-character and mid-token), all four strategies.
    #[test]
    fn streamed_equals_whole_document(
        words in proptest::collection::vec(0usize..VOCAB.len(), 0..40),
        cuts in proptest::collection::vec(0usize..400, 0..12),
        tau_pct in 50u32..=100,
    ) {
        let fix = fixture();
        let text: String = words.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" ");
        let tau = tau_pct as f64 / 100.0;
        let mut cuts = cuts;
        cuts.sort_unstable();
        for (strategy, engine) in &fix.engines {
            let mut whole_int = fix.interner.clone();
            let doc = Document::parse(&text, &fix.tokenizer, &mut whole_int);
            let expect = engine.extract(&doc, tau);
            let mut stream_int = fix.interner.clone();
            let got = run_stream(engine, &fix.tokenizer, &mut stream_int, text.as_bytes(), &cuts, tau);
            assert_bit_identical(&got, &expect, *strategy)?;
            // The two paths must also intern identically: same tokens, in
            // the same order, from the same starting interner.
            prop_assert_eq!(stream_int.len(), whole_int.len());
        }
    }

    /// Arbitrary bytes — including invalid UTF-8 — chunked arbitrarily.
    /// Oracle: lossy-decode the whole input, extract over that.
    #[test]
    fn arbitrary_bytes_match_lossy_oracle(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
        cuts in proptest::collection::vec(0usize..300, 0..10),
        words in proptest::collection::vec(0usize..VOCAB.len(), 0..10),
    ) {
        let fix = fixture();
        // Mix generated words into the raw bytes so some cases still match.
        let mut bytes = bytes;
        for &w in &words {
            bytes.extend_from_slice(b" ");
            bytes.extend_from_slice(VOCAB[w].as_bytes());
        }
        let mut cuts = cuts;
        cuts.sort_unstable();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let (strategy, engine) = &fix.engines[0];
        let mut whole_int = fix.interner.clone();
        let doc = Document::parse(&text, &fix.tokenizer, &mut whole_int);
        let expect = engine.extract(&doc, 0.7);
        let mut stream_int = fix.interner.clone();
        let got = run_stream(engine, &fix.tokenizer, &mut stream_int, &bytes, &cuts, 0.7);
        assert_bit_identical(&got, &expect, *strategy)?;
    }

    /// Byte spans reported by the stream slice the original text back out
    /// whenever the input is valid UTF-8.
    #[test]
    fn byte_spans_slice_source_text(
        words in proptest::collection::vec(0usize..VOCAB.len(), 0..30),
        cuts in proptest::collection::vec(0usize..300, 0..8),
    ) {
        let fix = fixture();
        let text: String = words.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" ");
        let mut cuts = cuts;
        cuts.sort_unstable();
        let (_, engine) = &fix.engines[0];
        let mut int = fix.interner.clone();
        let got = run_stream(engine, &fix.tokenizer, &mut int, text.as_bytes(), &cuts, 0.7);
        for m in &got {
            let slice = &text[m.byte_start as usize..m.byte_end as usize];
            // The slice must re-tokenize to exactly the matched span length.
            let n = fix.tokenizer.tokenize(slice, &mut int).len();
            prop_assert_eq!(n as u32, m.len, "span {:?} -> {:?}", m, slice);
        }
    }
}
