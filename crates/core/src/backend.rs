//! The extraction backend abstraction.
//!
//! A [`Query`] names one extraction: the threshold τ plus every knob of the
//! paper's generate → verify pipeline (metric, filtering strategy,
//! weighting, budgets, cancellation and an optional top-k). It runs through
//! one path: [`ExtractBackend::query`] on either engine, down to
//! [`extract_segment`] over one clustered index + derived dictionary pair.
//! The monolithic [`Aeetes`] engine runs its only segment; the sharded
//! engine (crate `aeetes-shard`) runs every shard and merges.

use crate::config::AeetesConfig;
use crate::extractor::Aeetes;
use crate::limits::{Budget, CancelToken, ExtractLimits};
use crate::matches::Match;
use crate::scratch::{ExtractScratch, ScratchOutcome, SegmentScratch};
use crate::stage::{SpanClock, Stage};
use crate::stats::ExtractStats;
use crate::strategy::{generate, Strategy};
use crate::topk::top_k_scan;
use crate::verify::verify_candidates;
use aeetes_index::ClusteredIndex;
use aeetes_rules::DerivedDictionary;
use aeetes_sim::Metric;
use aeetes_text::{Dictionary, Document};

/// One extraction request. [`Query::new`] fills every field but `tau` from
/// the engine configuration with no budget, no cancellation, unweighted
/// scores and no top-k; callers override fields with struct update syntax,
/// e.g. `Query { top_k: Some(5), ..Query::new(engine.config(), 0.8) }`.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// Similarity threshold τ in `(0, 1]`; with `top_k` set, the floor the
    /// pruned scan ratchets up from.
    pub tau: f64,
    /// Token-set similarity metric (paper §2.2 extension).
    pub metric: Metric,
    /// Candidate-generation strategy. Every strategy returns the same
    /// matches; the pruned top-k scan has its own generation and ignores it.
    pub strategy: Strategy,
    /// Weighted-rule scores (paper §8 extension): a variant produced by
    /// rules with weight product `w` scores `w · sim` instead of `sim`.
    pub weighted: bool,
    /// Resource budgets. With `top_k` set, `max_matches` caps the final
    /// ranked list rather than stopping verification.
    pub limits: ExtractLimits,
    /// Stops the run at the next window-advance or verification boundary
    /// once cancelled, reporting truncation.
    pub cancel: Option<&'a CancelToken>,
    /// Return only the `k` best-scoring matches, ordered by score
    /// (descending, ties by `(span, entity)`), through the bound-pruned
    /// scan; `None` returns every match in `(span, entity)` order.
    pub top_k: Option<usize>,
}

impl Query<'_> {
    /// A query at `tau` with `config`'s metric and strategy and nothing
    /// else set.
    pub fn new(config: &AeetesConfig, tau: f64) -> Self {
        Query {
            tau,
            metric: config.metric,
            strategy: config.strategy,
            weighted: false,
            limits: ExtractLimits::UNLIMITED,
            cancel: None,
            top_k: None,
        }
    }

    /// The live budget of one run of this query over one segment. With
    /// `top_k` set the match cap is applied to the ranked result instead,
    /// so it is left out here.
    pub(crate) fn budget(&self) -> Budget {
        let limits = match self.top_k {
            Some(_) => ExtractLimits { max_matches: None, ..self.limits },
            None => self.limits,
        };
        Budget::start(&limits, self.cancel)
    }
}

/// Runs `query` over a single index segment inside `seg`'s reusable
/// buffers: generate → verify, matches sorted by `(span, entity)`, or the
/// bound-pruned top-k scan when `query.top_k` is set, matches in score
/// order. The budget is checked at window-advance and verification
/// boundaries, so deadlines and cancellation land mid-document. The
/// outcome stays in the scratch ([`SegmentScratch::outcome`]); once the
/// scratch has reached its high-water capacity, the pass performs no heap
/// allocation.
///
/// `set_len_bounds` overrides the `(min, max)` distinct-set length range
/// that bounds window enumeration. A monolithic engine passes `None` (use
/// the index's own range); a sharded engine passes the dictionary-global
/// range, because a shard's local range is tighter and would skip window
/// lengths that other variants of the same dictionary admit — breaking
/// bit-identity with the single-engine result.
///
/// # Panics
/// Panics when `query.tau` is not in `(0, 1]`.
pub fn extract_segment<'s>(
    index: &ClusteredIndex,
    dd: &DerivedDictionary,
    doc: &Document,
    query: &Query,
    set_len_bounds: Option<(usize, usize)>,
    seg: &'s mut SegmentScratch,
) -> ScratchOutcome<'s> {
    let tau = query.tau;
    assert!(tau > 0.0 && tau <= 1.0, "similarity threshold must be in (0, 1], got {tau}");
    let set_bounds = match set_len_bounds {
        Some((lo, hi)) => (Some(lo), Some(hi)),
        None => (index.min_set_len(), index.max_set_len()),
    };
    let (truncated, stats) = match query.top_k {
        Some(k) => top_k_scan(index, dd, doc, query, k, set_bounds, seg),
        None => {
            let mut stats = ExtractStats::default();
            let mut budget = query.budget();
            generate(index, doc, tau, query.metric, query.strategy, set_bounds, seg, &mut stats, &mut budget);
            // Weighted scores are ≤ unweighted scores (weights ≤ 1), so the
            // unweighted candidate filters remain sound for the weighted verify.
            let SegmentScratch { sink, s_keys, matches, stages, .. } = seg;
            let clk = SpanClock::always();
            verify_candidates(index, dd, doc, tau, query.metric, &mut sink.pairs, &mut stats, query.weighted, &mut budget, s_keys, matches);
            matches.sort_unstable_by_key(Match::sort_key);
            clk.stop(Stage::Verify, stages);
            (budget.truncated(), stats)
        }
    };
    // The outcome lives in the scratch so fan-out executors can read
    // per-segment results back without a result channel.
    seg.truncated = truncated;
    seg.stats = stats;
    seg.outcome()
}

/// An extraction engine: something that can answer similarity queries over
/// a fixed dictionary. Implemented by the monolithic [`Aeetes`] engine and
/// by the sharded engine's generations.
pub trait ExtractBackend: Send + Sync {
    /// The origin dictionary matches refer into.
    fn dictionary(&self) -> &Dictionary;

    /// The engine configuration.
    fn config(&self) -> &AeetesConfig;

    /// The `(min, max)` distinct token-set length range of the indexed
    /// dictionary, or `None` when it is empty. This is the range that
    /// bounds window enumeration; streaming extraction derives its tail
    /// retention from it. A sharded engine reports the dictionary-global
    /// range (not a shard-local one) for the same reason
    /// [`extract_segment`] takes the global override.
    fn set_len_range(&self) -> Option<(usize, usize)>;

    /// Runs `query` over `doc` inside the caller-owned `scratch`, returning
    /// the matches as a slice borrowing the scratch (valid until its next
    /// use). Matches are sorted by `(span, entity)`, or by score with
    /// `query.top_k` set; `truncated` reports whether any budget (or the
    /// cancellation token) cut the run short. A caller that keeps one
    /// scratch per worker and reuses it across documents gets a
    /// steady-state extraction pass with zero heap allocations.
    ///
    /// # Panics
    /// Panics when `query.tau` is not in `(0, 1]`.
    fn query<'s>(&self, doc: &Document, query: &Query, scratch: &'s mut ExtractScratch) -> ScratchOutcome<'s>;

    /// Convenience: every match with similarity ≥ `tau` under the
    /// configured metric and strategy, sorted by `(span, entity)`.
    ///
    /// # Panics
    /// Panics when `tau` is not in `(0, 1]`.
    fn extract(&self, doc: &Document, tau: f64) -> Vec<Match> {
        self.query(doc, &Query::new(self.config(), tau), &mut ExtractScratch::new()).matches.to_vec()
    }

    /// [`ExtractBackend::query`] at `tau` under explicit limits and an
    /// optional cancellation token, with the configured metric and
    /// strategy.
    fn extract_scratched<'s>(
        &self,
        doc: &Document,
        tau: f64,
        limits: &ExtractLimits,
        cancel: Option<&CancelToken>,
        scratch: &'s mut ExtractScratch,
    ) -> ScratchOutcome<'s> {
        self.query(doc, &Query { limits: *limits, cancel, ..Query::new(self.config(), tau) }, scratch)
    }
}

impl ExtractBackend for Aeetes {
    fn dictionary(&self) -> &Dictionary {
        Aeetes::dictionary(self)
    }

    fn config(&self) -> &AeetesConfig {
        Aeetes::config(self)
    }

    fn set_len_range(&self) -> Option<(usize, usize)> {
        self.index().min_set_len().zip(self.index().max_set_len())
    }

    fn query<'s>(&self, doc: &Document, query: &Query, scratch: &'s mut ExtractScratch) -> ScratchOutcome<'s> {
        extract_segment(self.index(), self.derived(), doc, query, None, scratch.segment(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_rules::RuleSet;
    use aeetes_text::{Interner, Tokenizer};

    fn engine() -> (Aeetes, Interner, Tokenizer) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("purdue university usa", &tok, &mut int);
        dict.push("uq au", &tok, &mut int);
        let engine = Aeetes::build(dict, &RuleSet::new(), &int, AeetesConfig::default());
        (engine, int, tok)
    }

    #[test]
    fn segment_run_equals_engine_run() {
        let (engine, mut int, tok) = engine();
        let doc = Document::parse("purdue university usa then uq au", &tok, &mut int);
        let query = Query::new(engine.config(), 0.8);
        let via_engine = engine.query(&doc, &query, &mut ExtractScratch::new()).to_outcome();
        // An explicit set-length override equal to the index's own range
        // must reproduce the engine's `None` path exactly.
        let bounds = engine.set_len_range().expect("non-empty dictionary");
        let mut scratch = ExtractScratch::new();
        let via_segment = extract_segment(engine.index(), engine.derived(), &doc, &query, Some(bounds), scratch.segment(0)).to_outcome();
        assert!(!via_engine.matches.is_empty());
        assert_eq!(via_engine.matches, via_segment.matches);
        assert_eq!(via_engine.stats, via_segment.stats);
        assert!(!via_segment.truncated);
    }

    #[test]
    fn trait_object_dispatch_works() {
        let (engine, mut int, tok) = engine();
        let doc = Document::parse("uq au", &tok, &mut int);
        let backend: &dyn ExtractBackend = &engine;
        let got = backend.extract(&doc, 0.9);
        assert_eq!(backend.dictionary().len(), 2);
        let mut scratch = ExtractScratch::new();
        let out = backend.query(&doc, &Query::new(backend.config(), 0.9), &mut scratch);
        assert_eq!(out.matches, got);
    }

    #[test]
    fn cancelled_token_truncates_via_trait() {
        let (engine, mut int, tok) = engine();
        let doc = Document::parse("purdue university usa", &tok, &mut int);
        let cancel = CancelToken::new();
        cancel.cancel();
        for top_k in [None, Some(1)] {
            let query = Query { cancel: Some(&cancel), top_k, ..Query::new(engine.config(), 0.8) };
            let out = engine.query(&doc, &query, &mut ExtractScratch::new()).to_outcome();
            assert!(out.truncated, "top_k {top_k:?}");
            assert!(out.matches.is_empty());
        }
    }
}
