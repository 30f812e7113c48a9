//! Extraction statistics (drive the paper's Figure 11 metric).

use std::ops::AddAssign;

/// Counters recorded during one (or more, when accumulated) extractions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Posting entries examined in the inverted index — the paper's
    /// "number of accessed entries" (Figure 11).
    pub accessed_entries: u64,
    /// Candidate `(substring, entity)` pairs sent to verification.
    pub candidates: u64,
    /// Derived-entity Jaccard computations performed during verification.
    pub verifications: u64,
    /// Result pairs with `JaccAR ≥ τ`.
    pub matches: u64,
    /// Prefixes computed from scratch (Simple / Skip).
    pub prefix_builds: u64,
    /// Incremental prefix updates — Window Extend / Migrate (Dynamic / Lazy).
    pub prefix_updates: u64,
    /// Substrings enumerated.
    pub substrings: u64,
    /// Windows (start positions) visited.
    pub windows: u64,
}

impl AddAssign for ExtractStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accessed_entries += rhs.accessed_entries;
        self.candidates += rhs.candidates;
        self.verifications += rhs.verifications;
        self.matches += rhs.matches;
        self.prefix_builds += rhs.prefix_builds;
        self.prefix_updates += rhs.prefix_updates;
        self.substrings += rhs.substrings;
        self.windows += rhs.windows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = ExtractStats { accessed_entries: 1, candidates: 2, ..Default::default() };
        let b = ExtractStats { accessed_entries: 10, matches: 3, ..Default::default() };
        a += b;
        assert_eq!(a.accessed_entries, 11);
        assert_eq!(a.candidates, 2);
        assert_eq!(a.matches, 3);
    }
}
