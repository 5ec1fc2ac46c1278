//! Relevance oracles.
//!
//! The paper's evaluation (§5) automates the feedback loop: "For each
//! query image, any image in the same category was considered a good
//! match whereas all other images were considered bad matches, regardless
//! of their color similarity." [`CategoryOracle`] implements exactly that
//! protocol; the trait keeps the loop driver testable with synthetic
//! oracles.

use crate::score::Relevance;
use fbp_vecdb::{CategoryId, Collection};

/// Judges the relevance of result objects for one query.
pub trait RelevanceOracle {
    /// Judge collection object `index`.
    fn judge(&self, index: u32) -> Relevance;
}

/// The paper's category oracle: good iff the object shares the query's
/// category.
#[derive(Debug, Clone, Copy)]
pub struct CategoryOracle<'a> {
    coll: &'a Collection,
    query_category: CategoryId,
}

impl<'a> CategoryOracle<'a> {
    /// Oracle for a query belonging to `query_category`.
    pub fn new(coll: &'a Collection, query_category: CategoryId) -> Self {
        CategoryOracle {
            coll,
            query_category,
        }
    }

    /// The category this oracle considers relevant.
    pub fn category(&self) -> CategoryId {
        self.query_category
    }

    /// Total relevant objects in the collection (recall denominator).
    pub fn relevant_count(&self) -> usize {
        self.coll.category_size(self.query_category)
    }
}

impl RelevanceOracle for CategoryOracle<'_> {
    fn judge(&self, index: u32) -> Relevance {
        if self.coll.label(index as usize) == self.query_category {
            Relevance::Good
        } else {
            Relevance::Bad
        }
    }
}

/// Oracle driven by explicit judgment sets (tests, custom protocols,
/// and the wire feedback path).
///
/// Two judgment regimes, picked by the constructor:
///
/// * [`SetOracle::new`] — the historical closed-world rule: listed ids
///   are [`Relevance::Good`], **everything else** is
///   [`Relevance::Bad`]. This is what a category-style protocol means
///   when the user only marks the good rows.
/// * [`SetOracle::with_negatives`] — three-valued: explicitly listed
///   positives are `Good`, explicitly listed negatives are `Bad`, and
///   everything unlisted is [`Relevance::Neutral`] — judged neither way,
///   so it feeds neither the β nor the γ term of a Rocchio movement.
///   This is the shape interactive sessions hand back when the user
///   marks a few results each way and skips the rest.
///
/// Judgment lists are a handful of ids per round, so each set is kept
/// as a sorted, deduplicated `Vec` and probed by binary search — cheaper
/// to build and to query than a hashed set at that size.
#[derive(Debug, Clone)]
pub struct SetOracle {
    good: Vec<u32>,
    bad: Vec<u32>,
    /// Closed world: unlisted ids are Bad (the `new` regime); open
    /// world: unlisted ids are Neutral (`with_negatives`).
    unlisted_is_bad: bool,
}

impl Default for SetOracle {
    /// Same as `SetOracle::new([])`: the historical closed-world empty
    /// oracle that judges everything a bad match.
    fn default() -> Self {
        SetOracle::new([])
    }
}

impl SetOracle {
    /// Oracle marking exactly `good` as relevant and everything else as
    /// a bad match (closed-world judgments).
    pub fn new(good: impl IntoIterator<Item = u32>) -> Self {
        SetOracle {
            good: sorted_ids(good),
            bad: Vec::new(),
            unlisted_is_bad: true,
        }
    }

    /// Oracle with explicit positive **and** negative judgments;
    /// everything unlisted is [`Relevance::Neutral`]. An id listed both
    /// ways counts as `Good` (the positive set wins — marking something
    /// relevant is the stronger signal).
    pub fn with_negatives(
        good: impl IntoIterator<Item = u32>,
        bad: impl IntoIterator<Item = u32>,
    ) -> Self {
        SetOracle {
            good: sorted_ids(good),
            bad: sorted_ids(bad),
            unlisted_is_bad: false,
        }
    }
}

/// Collect `ids` sorted ascending with duplicates removed.
fn sorted_ids(ids: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut ids: Vec<u32> = ids.into_iter().collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl RelevanceOracle for SetOracle {
    fn judge(&self, index: u32) -> Relevance {
        if self.good.binary_search(&index).is_ok() {
            Relevance::Good
        } else if self.unlisted_is_bad || self.bad.binary_search(&index).is_ok() {
            Relevance::Bad
        } else {
            Relevance::Neutral
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbp_vecdb::CollectionBuilder;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn category_oracle_follows_labels() {
        let mut b = CollectionBuilder::new();
        let birds = b.category("Bird");
        let fish = b.category("Fish");
        b.push(&[0.0], birds).unwrap();
        b.push(&[1.0], fish).unwrap();
        b.push_unlabelled(&[2.0]).unwrap();
        let c = b.build();
        let oracle = CategoryOracle::new(&c, birds);
        assert_eq!(oracle.judge(0), Relevance::Good);
        assert_eq!(oracle.judge(1), Relevance::Bad);
        assert_eq!(oracle.judge(2), Relevance::Bad);
        assert_eq!(oracle.relevant_count(), 1);
        assert_eq!(oracle.category(), birds);
    }

    #[test]
    fn set_oracle() {
        let o = SetOracle::new([3, 5]);
        assert_eq!(o.judge(3), Relevance::Good);
        assert_eq!(o.judge(4), Relevance::Bad);
        let empty = SetOracle::default();
        assert_eq!(empty.judge(0), Relevance::Bad);
    }

    #[test]
    fn set_oracle_with_negatives_is_three_valued() {
        let o = SetOracle::with_negatives([1, 2], [7, 8]);
        assert_eq!(o.judge(1), Relevance::Good);
        assert_eq!(o.judge(7), Relevance::Bad);
        assert_eq!(o.judge(42), Relevance::Neutral);
        // Conflicting judgments resolve in favor of the positive set.
        let both = SetOracle::with_negatives([5], [5]);
        assert_eq!(both.judge(5), Relevance::Good);
        // Empty negative set behaves like "nothing is bad", not like
        // the closed-world `new` rule.
        let open = SetOracle::with_negatives([1], []);
        assert_eq!(open.judge(2), Relevance::Neutral);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Both constructors judge exactly like the hashed-set rule they
        // replace, for id lists with duplicates, in any order, and with
        // ids listed both ways (the positive set wins). Ids are drawn
        // from a small range so overlaps and repeats are common.
        #[test]
        fn judge_matches_a_hashed_set_model(
            good in prop::collection::vec(0u32..40, 0..24),
            bad in prop::collection::vec(0u32..40, 0..24),
        ) {
            let good_set: HashSet<u32> = good.iter().copied().collect();
            let bad_set: HashSet<u32> = bad.iter().copied().collect();
            let closed = SetOracle::new(good.iter().copied());
            let open = SetOracle::with_negatives(good.iter().copied(), bad.iter().copied());
            for id in 0u32..48 {
                let want_closed = if good_set.contains(&id) {
                    Relevance::Good
                } else {
                    Relevance::Bad
                };
                prop_assert_eq!(closed.judge(id), want_closed, "new, id {}", id);
                let want_open = if good_set.contains(&id) {
                    Relevance::Good
                } else if bad_set.contains(&id) {
                    Relevance::Bad
                } else {
                    Relevance::Neutral
                };
                prop_assert_eq!(open.judge(id), want_open, "with_negatives, id {}", id);
            }
        }
    }
}
