//! Faerie (Deng, Li, Feng, Duan, Gong — VLDB Journal 24(1), 2015) and the
//! paper's FaerieR extension.
//!
//! Faerie is the state-of-the-art *syntactic* AEE framework the paper
//! benchmarks against (Figure 9). Pipeline:
//!
//! 1. **Inverted index** over entity tokens: `L[t]` = sorted entry ids.
//! 2. **Single-heap grouping**: the posting lists of the document's tokens
//!    are merged through one min-heap, producing each entry's sorted list of
//!    occurrence positions in the document (`P_e`).
//! 3. **Lazy-count pruning**: an entry with `|P_e| < ⌈τ·|e|⌉` can never
//!    reach Jaccard τ and is dropped wholesale.
//! 4. **Windowed counting**: for every admissible substring length `l`, a
//!    two-pointer sweep over `P_e` finds start positions whose window holds
//!    at least `⌈τ·|e|⌉` occurrences (same asymptotics as the original's
//!    binary span/shift enumeration — see DESIGN.md).
//! 5. **Verification** of the exact Jaccard for every candidate.
//!
//! `FaerieR` = [`Faerie::build_derived`]: the same machinery over the
//! *derived* dictionary, with results mapped back to origin entities and
//! deduplicated by maximum score — exactly how the paper extends Faerie to
//! the AEES problem (§6.3).

use aeetes_rules::DerivedDictionary;
use aeetes_text::{Dictionary, Document, EntityId, Span, TokenId};
use std::collections::{BinaryHeap, HashMap};

/// One result pair: origin entity, matched span and its (Jaccard or JaccAR)
/// score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaerieMatch {
    /// Origin entity.
    pub entity: EntityId,
    /// Matched token span in the document.
    pub span: Span,
    /// Best Jaccard over the entry (or entries, for FaerieR) verified.
    pub score: f64,
}

/// Counters for Faerie extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaerieStats {
    /// Heap pops = posting entries touched while grouping.
    pub accessed_entries: u64,
    /// Entries surviving lazy-count pruning.
    pub surviving_entries: u64,
    /// Candidate `(entry, span)` pairs verified.
    pub verifications: u64,
    /// Result pairs.
    pub matches: u64,
}

/// The Faerie engine over a set of "entries" (origin entities for plain
/// AEE, derived entities for FaerieR).
#[derive(Debug, Clone)]
pub struct Faerie {
    /// Sorted distinct token set per entry.
    sets: Vec<Vec<TokenId>>,
    /// Entry id → origin entity (identity for plain Faerie).
    origin: Vec<EntityId>,
    /// Token → sorted entry ids containing it.
    inverted: HashMap<TokenId, Vec<u32>>,
    /// Largest distinct-set size over entries (global window bound).
    max_len: usize,
}

impl Faerie {
    /// Plain Faerie over the origin dictionary (syntactic AEE, no synonyms).
    pub fn build_plain(dict: &Dictionary) -> Self {
        Self::build(dict.iter().map(|(id, e)| (id, e.tokens)))
    }

    /// FaerieR: Faerie over the derived dictionary, mapping every derived
    /// entry back to its origin entity.
    pub fn build_derived(dd: &DerivedDictionary) -> Self {
        Self::build(dd.iter().map(|(_, d)| (d.origin, d.tokens)))
    }

    fn build<'a, I>(entries: I) -> Self
    where
        I: Iterator<Item = (EntityId, &'a [TokenId])>,
    {
        let mut sets = Vec::new();
        let mut origin = Vec::new();
        let mut inverted: HashMap<TokenId, Vec<u32>> = HashMap::new();
        for (orig, tokens) in entries {
            if tokens.is_empty() {
                continue;
            }
            let mut set = tokens.to_vec();
            set.sort_unstable();
            set.dedup();
            let id = sets.len() as u32;
            for &t in &set {
                inverted.entry(t).or_default().push(id);
            }
            sets.push(set);
            origin.push(orig);
        }
        let max_len = sets.iter().map(Vec::len).max().unwrap_or(0);
        Self { sets, origin, inverted, max_len }
    }

    /// Number of entries indexed.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Approximate heap size in bytes (for the §6.3 index-size comparison).
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut n = 0;
        for s in &self.sets {
            n += s.capacity() * size_of::<TokenId>();
        }
        for v in self.inverted.values() {
            n += v.capacity() * size_of::<u32>() + size_of::<TokenId>();
        }
        n
    }

    /// Extracts all pairs with `Jaccard(entry, substring) ≥ tau`, reported
    /// per origin entity (max score per `(origin, span)`).
    pub fn extract(&self, doc: &Document, tau: f64) -> (Vec<FaerieMatch>, FaerieStats) {
        assert!(tau > 0.0 && tau <= 1.0, "similarity threshold must be in (0, 1], got {tau}");
        let mut stats = FaerieStats::default();
        let tokens = doc.tokens();
        let mut best: HashMap<(u32, u32, u32), f64> = HashMap::new();

        // ---- Single-heap grouping: entry id → its positions in the doc ----
        // Heap holds (entry, position, cursor-into-position's-list).
        let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32, u32)>> = BinaryHeap::new();
        let lists: Vec<Option<&Vec<u32>>> = tokens.iter().map(|t| self.inverted.get(t)).collect();
        for (pos, list) in lists.iter().enumerate() {
            if let Some(list) = list {
                heap.push(std::cmp::Reverse((list[0], pos as u32, 0)));
            }
        }
        let mut cur_entry: Option<u32> = None;
        let mut positions: Vec<u32> = Vec::new();
        let mut s_keys: Vec<TokenId> = Vec::new();
        while let Some(std::cmp::Reverse((entry, pos, cursor))) = heap.pop() {
            stats.accessed_entries += 1;
            if cur_entry != Some(entry) {
                if let Some(e) = cur_entry {
                    self.process_entry(e, &positions, tokens, tau, &mut best, &mut stats, &mut s_keys);
                }
                cur_entry = Some(entry);
                positions.clear();
            }
            positions.push(pos);
            // Advance this document position's cursor.
            let list = lists[pos as usize].expect("list existed when pushed");
            let next = cursor as usize + 1;
            if next < list.len() {
                heap.push(std::cmp::Reverse((list[next], pos, next as u32)));
            }
        }
        if let Some(e) = cur_entry {
            self.process_entry(e, &positions, tokens, tau, &mut best, &mut stats, &mut s_keys);
        }

        let mut out: Vec<FaerieMatch> = best
            .into_iter()
            .map(|((e, p, l), score)| FaerieMatch { entity: EntityId(e), span: Span { start: p, len: l }, score })
            .collect();
        out.sort_unstable_by_key(|a| (a.span.start, a.span.len, a.entity.0));
        stats.matches = out.len() as u64;
        (out, stats)
    }

    /// Lazy-count check, windowed counting and verification for one entry.
    #[allow(clippy::too_many_arguments)]
    fn process_entry(
        &self,
        entry: u32,
        positions: &[u32],
        tokens: &[TokenId],
        tau: f64,
        best: &mut HashMap<(u32, u32, u32), f64>,
        stats: &mut FaerieStats,
        s_keys: &mut Vec<TokenId>,
    ) {
        let set = &self.sets[entry as usize];
        let le = set.len();
        // Minimum overlap for any similar substring: o ≥ ⌈τ·|e|⌉ (J ≤ o/|e|).
        let required = (tau * le as f64 - 1e-9).ceil().max(1.0) as usize;
        if positions.len() < required {
            return; // lazy-count pruning
        }
        stats.surviving_entries += 1;
        let n = tokens.len() as u32;
        let l_lo = ((le as f64 * tau + 1e-9).floor() as u32).max(1);
        // Token-length upper bound: under *set* semantics a window may carry
        // duplicate tokens, so its token length is only bounded by the
        // problem's global window size E⊤ = ⌈|e|⊤/τ⌉ (the distinct-size
        // bound ⌈le/τ⌉ is enforced during verification instead).
        let l_hi = ((self.max_len as f64 / tau - 1e-9).ceil() as u32).min(n);
        let origin = self.origin[entry as usize];
        for l in l_lo..=l_hi {
            // For every j, treat positions[j] as the last occurrence inside
            // the window. A window of length l starting at p holds at least
            // `required` occurrences iff it also contains the anchor
            // positions[j+1-required]: p ≤ anchor and p + l > positions[j].
            let mut last_emitted_start: Option<u32> = None;
            for j in required - 1..positions.len() {
                let anchor = positions[j + 1 - required];
                if positions[j] - anchor + 1 > l {
                    continue; // the required occurrences cannot fit in l tokens
                }
                let p_lo = positions[j].saturating_sub(l - 1);
                let p_hi = anchor.min(n.saturating_sub(l));
                let p_start = match last_emitted_start {
                    Some(s) if s >= p_lo => s + 1, // skip starts already emitted
                    _ => p_lo,
                };
                for p in p_start..=p_hi {
                    last_emitted_start = Some(p);
                    let span = Span { start: p, len: l };
                    stats.verifications += 1;
                    s_keys.clear();
                    s_keys.extend_from_slice(&tokens[p as usize..(p + l) as usize]);
                    s_keys.sort_unstable();
                    s_keys.dedup();
                    let score = aeetes_sim::jaccard(set, s_keys);
                    if score >= tau {
                        let key = (origin.0, span.start, span.len);
                        let slot = best.entry(key).or_insert(0.0);
                        if score > *slot {
                            *slot = score;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_core::{Aeetes, AeetesConfig, ExtractBackend};
    use aeetes_rules::{DeriveConfig, RuleSet};
    use aeetes_text::{Interner, Tokenizer};

    fn ctx() -> (Interner, Tokenizer) {
        (Interner::new(), Tokenizer::default())
    }

    #[test]
    fn plain_faerie_finds_syntactic_matches_only() {
        let (mut int, tok) = ctx();
        let dict = Dictionary::from_strings(["purdue university usa", "uq au"], &tok, &mut int);
        let f = Faerie::build_plain(&dict);
        let doc = Document::parse("at purdue university usa with uq australia", &tok, &mut int);
        let (got, _) = f.extract(&doc, 0.9);
        assert_eq!(got.len(), 1, "only the exact syntactic mention: {got:?}");
        assert_eq!(got[0].span, Span::new(1, 3));
        assert_eq!(got[0].score, 1.0);
    }

    #[test]
    fn partial_match_scores_correctly() {
        let (mut int, tok) = ctx();
        let dict = Dictionary::from_strings(["purdue university usa"], &tok, &mut int);
        let f = Faerie::build_plain(&dict);
        let doc = Document::parse("purdue university", &tok, &mut int);
        let (got, _) = f.extract(&doc, 0.6);
        assert!(got.iter().any(|m| m.span == Span::new(0, 2) && (m.score - 2.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn lazy_count_prunes_sparse_entries() {
        let (mut int, tok) = ctx();
        let dict = Dictionary::from_strings(["a b c d e"], &tok, &mut int);
        let f = Faerie::build_plain(&dict);
        // Only one of the five entity tokens occurs → pruned before counting.
        let doc = Document::parse("a x y z w", &tok, &mut int);
        let (got, stats) = f.extract(&doc, 0.8);
        assert!(got.is_empty());
        assert_eq!(stats.surviving_entries, 0);
        assert!(stats.accessed_entries > 0);
    }

    #[test]
    fn faerier_agrees_with_aeetes_end_to_end() {
        let (mut int, tok) = ctx();
        let mut dict = Dictionary::new();
        dict.push("University of Wisconsin Madison", &tok, &mut int);
        dict.push("Purdue University USA", &tok, &mut int);
        dict.push("UQ AU", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("UQ", "University of Queensland", &tok, &mut int).unwrap();
        rules.push_str("USA", "United States", &tok, &mut int).unwrap();
        rules.push_str("AU", "Australia", &tok, &mut int).unwrap();
        rules.push_str("UW", "University of Wisconsin", &tok, &mut int).unwrap();
        let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
        let faerier = Faerie::build_derived(&dd);
        let engine = Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        let doc = Document::parse(
            "talks by UW Madison faculty then Purdue University United States \
             then Purdue University USA and finally University of Queensland Australia",
            &tok,
            &mut int,
        );
        for tau in [0.7, 0.8, 0.9] {
            let (fr, _) = faerier.extract(&doc, tau);
            let am = engine.extract(&doc, tau);
            let f_pairs: Vec<(u32, u32, u32)> = fr.iter().map(|m| (m.entity.0, m.span.start, m.span.len)).collect();
            let a_pairs: Vec<(u32, u32, u32)> = am.iter().map(|m| (m.entity.0, m.span.start, m.span.len)).collect();
            assert_eq!(f_pairs, a_pairs, "tau={tau}");
            for (fm, amm) in fr.iter().zip(&am) {
                assert!((fm.score - amm.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let (mut int, tok) = ctx();
        let dict = Dictionary::from_strings([], &tok, &mut int);
        let f = Faerie::build_plain(&dict);
        assert!(f.is_empty());
        let doc = Document::parse("whatever text", &tok, &mut int);
        let (got, _) = f.extract(&doc, 0.8);
        assert!(got.is_empty());
        let dict2 = Dictionary::from_strings(["a b"], &tok, &mut int);
        let f2 = Faerie::build_plain(&dict2);
        let empty_doc = Document::parse("", &tok, &mut int);
        assert!(f2.extract(&empty_doc, 0.8).0.is_empty());
    }

    #[test]
    fn duplicate_document_tokens_handled() {
        let (mut int, tok) = ctx();
        let dict = Dictionary::from_strings(["ny marathon"], &tok, &mut int);
        let f = Faerie::build_plain(&dict);
        let doc = Document::parse("ny ny marathon marathon", &tok, &mut int);
        let (got, _) = f.extract(&doc, 0.9);
        assert!(got.iter().any(|m| m.span == Span::new(1, 2) && m.score == 1.0));
    }

    #[test]
    fn size_bytes_positive() {
        let (mut int, tok) = ctx();
        let dict = Dictionary::from_strings(["a b c"], &tok, &mut int);
        assert!(Faerie::build_plain(&dict).size_bytes() > 0);
    }
}
