//! Top-k extraction (extension): the k best-scoring pairs above a floor.
//!
//! A [`Query`] with `top_k` set does not extract everything at the floor
//! and truncate. It runs a *bound-pruned* scan: a max-size-k heap keeps
//! the best matches seen so far, and the effective threshold τ ratchets up
//! from the floor to the k-th best score as the heap fills. The prefix and
//! length filters ([`Metric::prefix_len`], [`Metric::length_bounds`]) and
//! the shortest window ([`metric_window_bounds`]) are re-derived at the
//! ratcheted τ, so whole window lengths — and eventually whole document
//! suffixes — are skipped once they cannot beat the current k-th best
//! score.
//!
//! Soundness: the heap's k-th best score is always ≤ the true k-th best
//! score, so any pair that belongs in the final top-k scores ≥ the ratcheted
//! τ at the moment its start position is scanned — the thresholded
//! extraction at that τ finds it (the τ-filters admit every pair scoring
//! ≥ τ, weighted scores never exceed unweighted ones, and verification is
//! exact). Window starts are visited left to right and each span is
//! generated only at its own start position, so no pair is seen twice. The
//! result is therefore *identical* to "extract all at the floor, sort by
//! (score desc, span, entity), truncate to k" — the naive oracle kept in
//! the test module — while examining strictly fewer candidates whenever the
//! ratchet rises above the floor.

use crate::backend::{ExtractBackend, Query};
use crate::candidates::scan_clustered;
use crate::matches::Match;
use crate::scratch::{ExtractScratch, SegmentScratch};
use crate::stage::{SpanClock, Stage};
use crate::stats::ExtractStats;
use crate::verify::verify_candidates;
use aeetes_index::{metric_window_bounds, ClusteredIndex};
use aeetes_rules::DerivedDictionary;
use aeetes_sim::Metric;
use aeetes_text::{Document, Span};

/// Heap entry ordered so the *worst* match is the heap maximum: lower score
/// is "greater", and among equal scores the larger `(span, entity)` key is
/// "greater" (it would be truncated first by the canonical top-k order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Worst(Match);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Scores are exact similarity values in (0, 1] — never NaN.
        other
            .0
            .score
            .partial_cmp(&self.0.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| self.0.sort_key().cmp(&other.0.sort_key()))
    }
}

/// Sorts `matches` into the canonical top-k order — score descending, ties
/// by `(span, entity)` ascending — and truncates to `k`. This is the exact
/// post-filter the pruned scan is equivalent to; the sharded engine merges
/// per-shard top-k lists with it, and serve applies it to a `best`
/// (overlap-suppressed) result.
pub fn select_top_k(matches: &mut Vec<Match>, k: usize) {
    matches.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.sort_key().cmp(&b.sort_key()))
    });
    matches.truncate(k);
}

/// Returns the `k` highest-scoring `(entity, substring)` pairs with
/// `score ≥ tau_floor` under `metric`, ties broken by `(span, entity)`, plus
/// the work counters of the pruned scan (the bench harness counter-asserts
/// these against a full extraction). A one-call wrapper over
/// [`ExtractBackend::query`] with `top_k` set.
///
/// # Panics
/// Panics when `tau_floor` is not in `(0, 1]`.
pub fn extract_top_k_with<E>(engine: &E, doc: &Document, k: usize, tau_floor: f64, metric: Metric) -> (Vec<Match>, ExtractStats)
where
    E: ExtractBackend + ?Sized,
{
    let query = Query { metric, top_k: Some(k), ..Query::new(engine.config(), tau_floor) };
    let mut scratch = ExtractScratch::new();
    let out = engine.query(doc, &query, &mut scratch);
    (out.matches.to_vec(), out.stats)
}

/// The bound-pruned top-k scan over one segment: the `top_k` sibling of
/// generate → verify in [`extract_segment`](crate::extract_segment), with
/// the same budget checks (at every window start and between
/// verifications). Leaves the ranked matches in `seg` and returns
/// `(truncated, stats)`; `query.limits.max_matches` caps the ranked list.
///
/// Stage timings follow the generate path (remap, window_slide with its
/// sampled prefix_build/candidate_gen sub-stages), except that verification
/// runs once per window position inside the loop, so here `verify` is a
/// sampled sub-stage of `window_slide`.
pub(crate) fn top_k_scan(
    index: &ClusteredIndex,
    dd: &DerivedDictionary,
    doc: &Document,
    query: &Query,
    k: usize,
    set_bounds: (Option<usize>, Option<usize>),
    seg: &mut SegmentScratch,
) -> (bool, ExtractStats) {
    let SegmentScratch { remap, sink, buf, s_keys, matches, heap, stages, .. } = seg;
    stages.clear();
    heap.clear();
    let mut stats = ExtractStats::default();
    let mut budget = query.budget();
    let (metric, tau_floor) = (query.metric, query.tau);
    let order = index.order();
    let remap_clk = SpanClock::always();
    remap.build(doc.tokens().iter().map(|&t| order.key(t)));
    remap_clk.stop(Stage::Remap, stages);
    // An already-spent budget trips before any window, as in `generate`;
    // k = 0 scans nothing.
    let n = if k > 0 && budget.keep_generating(0) { doc.len() } else { 0 };
    // The floor's longest window (none for an empty dictionary). It does
    // not ratchet: it counts tokens, not distinct tokens, so a window that
    // repeats tokens can beat the ratcheted τ past the ratcheted ceiling.
    let ceiling = metric_window_bounds(set_bounds.0, set_bounds.1, tau_floor, metric).map_or(0, |b| b.max);

    let slide_clk = SpanClock::always();
    for p in 0..n {
        // Every earlier position's candidates are verified by now, so the
        // verified count is the number generated so far.
        if !budget.keep_generating(stats.candidates as usize) {
            break;
        }
        // The ratcheted threshold: once the heap holds k matches, nothing
        // scoring below (or tying above, by sort key) the worst of them can
        // enter — so the worst score is a sound extraction threshold. The
        // comparison stays inclusive (≥) to keep equal-score, smaller-key
        // pairs discoverable.
        let tau_cur = match heap.peek() {
            Some(worst) if heap.len() == k => tau_floor.max(worst.0.score),
            _ => tau_floor,
        };
        // The shortest admissible window only grows as τ rises, so once it
        // no longer fits in the remaining suffix, no later position can
        // produce a match.
        let lmin = metric_window_bounds(set_bounds.0, set_bounds.1, tau_cur, metric).map_or(usize::MAX, |b| b.min);
        let lmax = ceiling.min(n - p);
        if lmin > lmax {
            break;
        }
        // The largest distinct-token count that can still reach τ against
        // the largest variant. A window's count only grows with its length,
        // so the first window past it ends this position.
        let dmax = set_bounds.1.map_or(0, |hi| metric.length_bounds(hi, tau_cur, ceiling).1);
        stats.windows += 1;
        sink.clear();
        // One position in SAMPLE_MASK + 1 gets its substrings timed.
        let mut clk = SpanClock::sampled(p);
        // The window's sorted distinct ranks, grown one token at a time.
        let ranks = &remap.doc_ranks()[p..p + lmax];
        buf.clear();
        buf.extend_from_slice(&ranks[..lmin - 1]);
        buf.sort_unstable();
        buf.dedup();
        for l in lmin..=lmax {
            if let Err(at) = buf.binary_search(&ranks[l - 1]) {
                buf.insert(at, ranks[l - 1]);
            }
            let s_len = buf.len();
            if s_len > dmax {
                break;
            }
            stats.substrings += 1;
            stats.prefix_builds += 1;
            let plen = metric.prefix_len(s_len, tau_cur);
            let span = Span::new(p, l);
            clk.lap(Stage::PrefixBuild, stages);
            for &r in &buf[..plen] {
                if !remap.is_valid_rank(r) {
                    continue; // invalid token: empty posting list
                }
                let t = order.token_of(remap.key_of(r));
                scan_clustered(index, t, span, s_len, tau_cur, metric, sink, &mut stats);
            }
            clk.lap(Stage::CandidateGen, stages);
        }
        // Verify this position's candidates immediately so the ratchet can
        // rise before the next position is scanned.
        verify_candidates(index, dd, doc, tau_cur, metric, &mut sink.pairs, &mut stats, query.weighted, &mut budget, s_keys, matches);
        clk.lap(Stage::Verify, stages);
        for &m in matches.iter() {
            if heap.len() < k {
                heap.push(Worst(m));
            } else if let Some(worst) = heap.peek() {
                if m.score > worst.0.score || (m.score == worst.0.score && m.sort_key() < worst.0.sort_key()) {
                    heap.pop();
                    heap.push(Worst(m));
                }
            }
        }
    }
    // Sampled-out laps above record nothing: account one span per
    // substring and per verified position in bulk.
    stages.account_spans(Stage::PrefixBuild, stats.substrings);
    stages.account_spans(Stage::CandidateGen, stats.substrings);
    stages.account_spans(Stage::Verify, stats.windows);
    slide_clk.stop(Stage::WindowSlide, stages);

    matches.clear();
    matches.extend(heap.drain().map(|w| w.0));
    select_top_k(matches, k);
    let mut truncated = budget.truncated();
    if let Some(cap) = query.limits.max_matches {
        truncated |= matches.len() > cap;
        matches.truncate(cap);
    }
    stats.matches = matches.len() as u64;
    (truncated, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AeetesConfig;
    use crate::extractor::Aeetes;
    use crate::limits::ExtractLimits;
    use crate::strategy::Strategy;
    use aeetes_rules::RuleSet;
    use aeetes_text::{Dictionary, Interner, Tokenizer};
    use proptest::prelude::*;

    /// The pre-pruning implementation, kept verbatim as the equivalence
    /// oracle: extract everything at the floor, sort, truncate.
    fn naive_top_k(engine: &Aeetes, doc: &Document, query: &Query, k: usize) -> Vec<Match> {
        let full = Query { top_k: None, ..*query };
        let mut matches = engine.query(doc, &full, &mut ExtractScratch::new()).matches.to_vec();
        select_top_k(&mut matches, k);
        matches
    }

    fn top_k(engine: &Aeetes, doc: &Document, k: usize, tau_floor: f64) -> Vec<Match> {
        extract_top_k_with(engine, doc, k, tau_floor, Metric::Jaccard).0
    }

    fn engine() -> (Aeetes, Interner, Tokenizer) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("machine learning systems", &tok, &mut int);
        dict.push("learning systems", &tok, &mut int);
        let engine = Aeetes::build(dict, &RuleSet::new(), &int, AeetesConfig::default());
        (engine, int, tok)
    }

    #[test]
    fn returns_at_most_k_best_first() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems conference", &tok, &mut int);
        let top = top_k(&e, &doc, 2, 0.5);
        assert_eq!(top.len(), 2);
        assert!(top[0].score >= top[1].score);
        assert_eq!(top[0].score, 1.0);
    }

    #[test]
    fn k_zero_is_empty() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems", &tok, &mut int);
        assert!(top_k(&e, &doc, 0, 0.5).is_empty());
    }

    #[test]
    fn k_larger_than_matches_returns_all() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems", &tok, &mut int);
        let all = e.extract(&doc, 0.5);
        let top = top_k(&e, &doc, 100, 0.5);
        assert_eq!(top.len(), all.len());
    }

    #[test]
    fn pruned_equals_naive_on_fixture() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems and other learning systems in machine learning", &tok, &mut int);
        for k in [1, 2, 3, 5, 100] {
            for tau in [0.3, 0.5, 0.8, 1.0] {
                assert_eq!(top_k(&e, &doc, k, tau), naive_top_k(&e, &doc, &Query::new(e.config(), tau), k), "k={k} tau={tau}");
            }
        }
    }

    /// The scan feeds the same stage slots as generate → verify, so serve's
    /// per-stage histograms see top-k requests.
    #[cfg(feature = "obs")]
    #[test]
    fn scan_records_stage_timings() {
        use crate::stage::Stage;
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems and learning systems", &tok, &mut int);
        let mut scratch = ExtractScratch::new();
        let out = e.query(&doc, &Query { top_k: Some(2), ..Query::new(e.config(), 0.5) }, &mut scratch);
        assert!(!out.matches.is_empty());
        for stage in [Stage::Remap, Stage::WindowSlide, Stage::PrefixBuild, Stage::CandidateGen, Stage::Verify] {
            assert!(out.stages.timed(stage) > 0, "{stage:?} untimed");
        }
        assert_eq!(out.stages.spans(Stage::PrefixBuild), out.stats.substrings);
        assert_eq!(out.stages.spans(Stage::Verify), out.stats.windows);
    }

    #[test]
    fn small_k_examines_fewer_candidates() {
        let (e, mut int, tok) = engine();
        let text = "machine learning systems and other learning systems in machine learning \
                    plus machine learning systems again and yet more learning systems"
            .to_string();
        let doc = Document::parse(&text, &tok, &mut int);
        let simple = Query { strategy: Strategy::Simple, ..Query::new(e.config(), 0.3) };
        let full = e.query(&doc, &simple, &mut ExtractScratch::new()).stats;
        let (_, pruned) = extract_top_k_with(&e, &doc, 1, 0.3, Metric::Jaccard);
        assert!(
            pruned.candidates < full.candidates,
            "pruned ({}) should examine fewer candidates than full ({})",
            pruned.candidates,
            full.candidates
        );
    }

    #[test]
    fn budgets_bound_the_scan() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems and other learning systems in machine learning", &tok, &mut int);
        let all = e.extract(&doc, 0.3);
        let run = |limits, k| {
            e.query(&doc, &Query { limits, top_k: Some(k), ..Query::new(e.config(), 0.3) }, &mut ExtractScratch::new())
                .to_outcome()
        };
        let unlimited = ExtractLimits::UNLIMITED;
        // A spent budget stops the scan before its first window.
        for limits in [
            ExtractLimits { max_candidates: Some(0), ..unlimited },
            ExtractLimits { deadline: Some(std::time::Duration::ZERO), ..unlimited },
        ] {
            let out = run(limits, 2);
            assert!(out.truncated && out.matches.is_empty(), "{limits:?}");
        }
        // A candidate cap stops it mid-document; what it kept is exact.
        let out = run(ExtractLimits { max_candidates: Some(2), ..unlimited }, 3);
        assert!(out.truncated && out.matches.iter().all(|m| all.contains(m)));
        // A match cap keeps the best of the ranked list, truncating only
        // when the list is longer.
        let capped = ExtractLimits { max_matches: Some(2), ..unlimited };
        let out = run(capped, 5);
        assert!(out.truncated);
        assert_eq!(out.matches, top_k(&e, &doc, 5, 0.3)[..2]);
        assert!(!run(capped, 2).truncated);
    }

    /// Small vocabulary so generated documents actually hit the dictionary.
    fn word(i: u8) -> &'static str {
        ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"][i as usize % 6]
    }

    /// A dictionary over [`word`]'s vocabulary, with one plain and one
    /// weighted synonym rule.
    fn word_fixture() -> (Dictionary, RuleSet, Interner, Tokenizer) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("alpha beta gamma", &tok, &mut int);
        dict.push("beta gamma", &tok, &mut int);
        dict.push("delta epsilon", &tok, &mut int);
        dict.push("zeta", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("zeta", "epsilon delta", &tok, &mut int).unwrap();
        rules.push_weighted_str("beta", "delta", 0.7, &tok, &mut int).unwrap();
        (dict, rules, int, tok)
    }

    #[test]
    fn repeated_token_window_past_the_ratcheted_ceiling_is_kept() {
        // "gamma gamma alpha alpha delta alpha" at position 5 — six tokens,
        // three distinct — matches the variant "alpha delta gamma"
        // perfectly and belongs in the top 5. By then the full heap has
        // ratcheted τ to at least 3/5, whose ceiling ⌈3/τ⌉ is at most five tokens.
        let (dict, rules, mut int, tok) = word_fixture();
        let engine = Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        let text = "epsilon beta zeta beta zeta gamma gamma alpha alpha delta alpha epsilon delta alpha epsilon";
        let doc = Document::parse(text, &tok, &mut int);
        let query = Query { top_k: Some(5), ..Query::new(engine.config(), 0.4) };
        let pruned = engine.query(&doc, &query, &mut ExtractScratch::new()).matches.to_vec();
        assert_eq!(pruned, naive_top_k(&engine, &doc, &query, 5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn pruned_equals_naive(
            words in proptest::collection::vec(0u8..6, 0..24),
            k in 0usize..8,
            tau_idx in 0usize..4,
            metric_idx in 0usize..4,
            weighted_bit in 0u8..2,
        ) {
            let tau_floor = [0.4, 0.6, 0.8, 1.0][tau_idx];
            let metric = Metric::ALL[metric_idx];
            let weighted = weighted_bit == 1;
            let (dict, rules, mut int, tok) = word_fixture();
            let text: String = words.iter().map(|&w| word(w)).collect::<Vec<_>>().join(" ");
            for strategy in Strategy::ALL {
                let config = AeetesConfig { strategy, ..AeetesConfig::default() };
                let engine = Aeetes::build(dict.clone(), &rules, &int, config);
                let doc = Document::parse(&text, &tok, &mut int);
                let query = Query { metric, weighted, top_k: Some(k), ..Query::new(engine.config(), tau_floor) };
                let pruned = engine.query(&doc, &query, &mut ExtractScratch::new()).matches.to_vec();
                let naive = naive_top_k(&engine, &doc, &query, k);
                prop_assert_eq!(pruned, naive, "strategy {} metric {:?} weighted {} k {} tau {}", strategy, metric, weighted, k, tau_floor);
            }
        }
    }
}
