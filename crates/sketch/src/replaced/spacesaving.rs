//! The checks the SpaceSaving Top-N sketch was held to, run against the
//! exact [`Tally`](crate::Tally) that took its columns. SpaceSaving
//! overestimated evicted items by a bounded error; a tally has no
//! capacity to evict from, so every count here is exact.

#[cfg(test)]
mod tests {
    use crate::tally::INLINE_ITEMS;
    use crate::{MergeSketch, Tally};

    fn tally_of(items: &[(u64, u64)]) -> Tally {
        let mut t = Tally::new();
        for &(item, times) in items {
            (0..times).for_each(|_| t.add(item));
        }
        t
    }

    #[test]
    fn exact_when_under_capacity() {
        let t = tally_of(&[(1, 5), (2, 3), (3, 1)]);
        assert_eq!(t.is_spilled(), t.len() > INLINE_ITEMS);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(1, 5), (2, 3), (3, 1)]);
        assert_eq!(t.top1(), Some((1, 5)));
        assert_eq!(t.total(), 9);
    }

    #[test]
    fn heavy_hitter_survives_eviction_pressure() {
        // Item 1_000 appears 100 times among 200 singletons.
        let mut t = Tally::new();
        for i in 0..200u64 {
            t.add(i);
            if i % 2 == 0 {
                t.add(1_000);
            }
        }
        assert_eq!(t.top(1), [(1_000, 100)]);
        assert_eq!(t.len(), 201);
        assert_eq!(t.total(), 300);
    }

    #[test]
    fn top_order_and_truncation() {
        let t = tally_of(&[(7, 7), (9, 9), (2, 2)]);
        let top = t.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top, [(9, 9), (7, 7)]);
    }

    #[test]
    fn merge_preserves_heavy_hitters() {
        let mut a = tally_of(&[(1_000, 50)]);
        let mut b = tally_of(&[(1_000, 60)]);
        (0..20u64).for_each(|i| a.add(i));
        (20..40u64).for_each(|i| b.add(i));
        a.merge(&b);
        assert_eq!(a.top1(), Some((1_000, 110)));
        assert_eq!(a.len(), 41);
        assert_eq!(a.total(), 150);
    }

    #[test]
    fn top1_is_top_of_one() {
        // Inline and heap storage, ties on count.
        for modulus in [4u64, INLINE_ITEMS as u64 + 9] {
            let mut t = Tally::new();
            assert_eq!(t.top1(), None);
            for i in 0..200u64 {
                t.add(i % modulus);
                assert_eq!(t.top1(), t.top(1).pop(), "modulus {modulus}, after {i}");
            }
        }
    }

    #[test]
    fn inline_merge_overflow_keeps_heaviest() {
        // Two inline tallies with disjoint items: the union overflows the
        // inline items, and every count is kept.
        let mut a = tally_of(&[(1, 10), (2, 2), (3, 2), (4, 1), (5, 1)]);
        let b = tally_of(&[(11, 9), (12, 8), (13, 1), (14, 1), (15, 1)]);
        assert!(a.len() + b.len() > INLINE_ITEMS);
        a.merge(&b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.total(), 36);
        assert_eq!(a.top(3), [(1, 10), (11, 9), (12, 8)]);
    }
}
