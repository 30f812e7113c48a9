//! Engine configuration.

use crate::strategy::Strategy;
use aeetes_rules::DeriveConfig;
use aeetes_sim::Metric;

/// Configuration for [`crate::Aeetes`].
#[derive(Debug, Clone)]
pub struct AeetesConfig {
    /// Derived-dictionary generation options (rule-combination cap).
    pub derive: DeriveConfig,
    /// Default filtering strategy of [`crate::Query::new`].
    /// Defaults to [`Strategy::Lazy`], the fastest variant (paper Fig. 10).
    pub strategy: Strategy,
    /// Token-set similarity metric (paper §2.2 extension; default Jaccard,
    /// giving exactly the paper's JaccAR semantics).
    pub metric: Metric,
}

impl Default for AeetesConfig {
    fn default() -> Self {
        Self {
            derive: DeriveConfig::default(),
            strategy: Strategy::Lazy,
            metric: Metric::Jaccard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_strategy_is_lazy() {
        assert_eq!(AeetesConfig::default().strategy, Strategy::Lazy);
        assert_eq!(AeetesConfig::default().metric, Metric::Jaccard);
    }
}
