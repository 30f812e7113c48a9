//! Corpus-level mention analytics — the paper's §1 motivating application:
//! "product analysis and reporting systems ... extract the substrings that
//! mentioned reference product names from those reviews" and aggregate them
//! as signals.

use crate::backend::{ExtractBackend, Query};
use crate::extractor::Aeetes;
use crate::nms::suppress_overlaps;
use crate::scratch::ExtractScratch;
use crate::stats::ExtractStats;
use aeetes_text::{Document, EntityId};

/// Aggregated mention statistics over a document collection.
#[derive(Debug, Clone)]
pub struct MentionReport {
    /// Documents processed.
    pub documents: usize,
    /// Documents containing at least one mention.
    pub documents_with_mentions: usize,
    /// Total mentions (after per-region suppression when enabled).
    pub total_mentions: u64,
    /// Accumulated extraction statistics.
    pub stats: ExtractStats,
    counts: Vec<u64>,
}

impl MentionReport {
    /// Mentions of entity `e` across the collection.
    pub fn count(&self, e: EntityId) -> u64 {
        self.counts.get(e.idx()).copied().unwrap_or(0)
    }

    /// The `k` most-mentioned entities, descending (ties by entity id).
    pub fn top(&self, k: usize) -> Vec<(EntityId, u64)> {
        let mut pairs: Vec<(EntityId, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (EntityId(i as u32), c))
            .collect();
        pairs.sort_by_key(|&(e, c)| (std::cmp::Reverse(c), e));
        pairs.truncate(k);
        pairs
    }

    /// Entities mentioned at least once.
    pub fn distinct_entities(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

/// Extracts over `docs` and aggregates per-entity mention counts.
///
/// With `best_per_region` the standard overlap suppression runs per document
/// first, so each document region contributes one mention (recommended for
/// analytics; raw thresholded pairs over-count every near-duplicate span).
pub fn mention_report<'a, I>(engine: &Aeetes, docs: I, tau: f64, best_per_region: bool) -> MentionReport
where
    I: IntoIterator<Item = &'a Document>,
{
    let mut report = MentionReport {
        documents: 0,
        documents_with_mentions: 0,
        total_mentions: 0,
        stats: ExtractStats::default(),
        counts: vec![0; engine.dictionary().len()],
    };
    let mut scratch = ExtractScratch::new();
    for doc in docs {
        report.documents += 1;
        let out = engine.query(doc, &Query::new(engine.config(), tau), &mut scratch);
        report.stats += out.stats;
        let matches = out.matches.to_vec();
        let matches = if best_per_region { suppress_overlaps(matches) } else { matches };
        if !matches.is_empty() {
            report.documents_with_mentions += 1;
        }
        for m in &matches {
            report.total_mentions += 1;
            report.counts[m.entity.idx()] += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AeetesConfig;
    use aeetes_rules::RuleSet;
    use aeetes_text::{Dictionary, Interner, Tokenizer};

    fn setup() -> (Aeetes, Vec<Document>) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("alpha one", &tok, &mut int);
        dict.push("beta two", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("alpha one", "a1", &tok, &mut int).unwrap();
        let engine = Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        let docs: Vec<Document> = ["we saw alpha one and later a1 again", "beta two showed up once", "nothing in this one", "alpha one"]
            .iter()
            .map(|t| Document::parse(t, &tok, &mut int))
            .collect();
        (engine, docs)
    }

    #[test]
    fn counts_and_top() {
        let (engine, docs) = setup();
        let report = mention_report(&engine, docs.iter(), 0.9, true);
        assert_eq!(report.documents, 4);
        assert_eq!(report.documents_with_mentions, 3);
        assert_eq!(report.count(EntityId(0)), 3, "alpha one: two mentions in doc 0, one in doc 3");
        assert_eq!(report.count(EntityId(1)), 1);
        assert_eq!(report.total_mentions, 4);
        assert_eq!(report.distinct_entities(), 2);
        let top = report.top(1);
        assert_eq!(top, vec![(EntityId(0), 3)]);
        assert_eq!(report.top(10).len(), 2);
    }

    #[test]
    fn raw_counts_at_least_suppressed() {
        let (engine, docs) = setup();
        let best = mention_report(&engine, docs.iter(), 0.7, true);
        let raw = mention_report(&engine, docs.iter(), 0.7, false);
        assert!(raw.total_mentions >= best.total_mentions);
    }

    #[test]
    fn empty_collection() {
        let (engine, _) = setup();
        let report = mention_report(&engine, std::iter::empty(), 0.8, true);
        assert_eq!(report.documents, 0);
        assert_eq!(report.total_mentions, 0);
        assert!(report.top(5).is_empty());
    }
}
