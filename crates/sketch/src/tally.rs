//! Exact frequency counts — the "Top-N" column of Table 3.
//!
//! The inventory stores, per cell and grouping key, how often each
//! origin, destination and outgoing cell transition was seen. A bounded
//! heavy-hitter sketch (SpaceSaving) would cap the memory, but its merge
//! credits evicted items and so depends on the order of merges. Measured
//! on fleetsim, no key sees many distinct items: at 150 vessels × 7
//! days the largest origin, destination and transition sets per key
//! hold 5, 5 and 4 items (p99 4, 3 and 2), and on a 10-day 50-vessel
//! chain 2, 3 and 3. So the counts are kept exactly: a [`Tally`] is a
//! sorted item → count map, its merge adds counts, and its state is a
//! function of the counted multiset alone. The item sets are bounded
//! by the port table and by a cell's reachable neighbours.

use crate::counts::SortedCounts;
use crate::hash::hash64;
use crate::MergeSketch;

/// Items held inline before a tally moves to the heap: on polbench's
/// seed-1 build 99.9 % of the origin, destination and transition
/// tallies hold two items or fewer.
pub(crate) const INLINE_ITEMS: usize = 2;

/// The order of [`Tally::top`]: heaviest first, then by item hash, so the
/// order is a function of the counts alone (and not of item magnitude,
/// which would favour low port ids).
fn rank(a: (u64, u64), b: (u64, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then_with(|| hash64(&a.0).cmp(&hash64(&b.0)))
}

/// Up to `N` `(item, count)` pairs of a tally in [`Tally::top`]'s order,
/// held inline: [`Tally::heaviest`] and
/// [`wire::tally_heaviest`](crate::wire::tally_heaviest) keep the `N`
/// first in `rank` order of the items offered, which is what `top(N)`
/// returns, without its vector.
#[derive(Clone, Copy, Debug)]
pub struct Heaviest<const N: usize> {
    items: [(u64, u64); N],
    len: usize,
}

impl<const N: usize> Heaviest<N> {
    pub(crate) fn new() -> Self {
        Heaviest {
            items: [(0, 0); N],
            len: 0,
        }
    }

    /// Keeps `(item, count)` when it ranks among the `N` first offered
    /// so far.
    pub(crate) fn offer(&mut self, item: u64, count: u64) {
        let kept = self.items.get(..self.len).unwrap_or_default();
        let at = kept.partition_point(|&k| rank(k, (item, count)).is_le());
        if at == N {
            return;
        }
        self.len = (self.len + 1).min(N);
        self.items.copy_within(at..self.len - 1, at + 1);
        if let Some(slot) = self.items.get_mut(at) {
            *slot = (item, count);
        }
    }

    /// The items kept, heaviest first.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        self.items.get(..self.len).unwrap_or_default()
    }
}

/// Exact counts of `u64` items (port ids, raw cell indices).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    counts: SortedCounts<u64, INLINE_ITEMS>,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one occurrence of `item`.
    #[inline]
    pub fn add(&mut self, item: u64) {
        self.counts.add(item, 1);
    }

    /// Occurrences counted, over every item.
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, c)| c).sum()
    }

    /// Distinct items counted.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every `(item, count)`, ascending by item.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        self.counts.as_slice().iter().copied()
    }

    /// The `n` most frequent `(item, count)` pairs, descending by count;
    /// equal counts in item-hash order.
    pub fn top(&self, n: usize) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self.iter().collect();
        all.sort_by(|a, b| rank(*a, *b));
        all.truncate(n);
        all
    }

    /// The single most frequent item: `top(1)` without the vector.
    pub fn top1(&self) -> Option<(u64, u64)> {
        self.iter().min_by(|a, b| rank(*a, *b))
    }

    /// [`top`](Self::top)`(N)` without the vector, held inline.
    pub fn heaviest<const N: usize>(&self) -> Heaviest<N> {
        let mut heaviest = Heaviest::new();
        self.iter().for_each(|(k, c)| heaviest.offer(k, c));
        heaviest
    }

    /// Whether the counts live on the heap.
    pub fn is_spilled(&self) -> bool {
        self.counts.is_spilled()
    }

    /// A tally of `items`, which must ascend strictly by item and count
    /// each at least once (deserialization).
    pub(crate) fn from_sorted(items: SortedCounts<u64, INLINE_ITEMS>) -> Tally {
        Tally { counts: items }
    }
}

impl MergeSketch for Tally {
    fn merge(&mut self, other: &Self) {
        self.counts.merge(&other.counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two `(item, count)` pairs inline and the tag; a `CellStats` holds
    /// three (its size is pinned in `pol-core`'s `features`).
    #[test]
    fn a_tally_holds_two_items_in_40_bytes() {
        assert_eq!(std::mem::size_of::<Tally>(), 40);
    }

    #[test]
    fn counts_exactly() {
        let mut t = Tally::new();
        for i in 0..200u64 {
            t.add(i % 20);
        }
        assert_eq!(t.len(), 20);
        assert_eq!(t.total(), 200);
        assert!(t.iter().zip(0..20).all(|(e, i)| e == (i, 10)));
    }

    #[test]
    fn top_is_heaviest_first_with_hash_ties() {
        let mut t = Tally::new();
        for (item, times) in [(7u64, 5), (3, 9), (11, 5), (1, 1)] {
            (0..times).for_each(|_| t.add(item));
        }
        let top = t.top(3);
        assert_eq!(top[0], (3, 9));
        let mut tied = [(7, 5), (11, 5)];
        tied.sort_by_key(|(k, _)| hash64(k));
        assert_eq!(&top[1..], &tied[..]);
        assert_eq!(t.top1(), Some((3, 9)));
        assert_eq!(t.heaviest::<3>().as_slice(), &top[..]);
        assert_eq!(t.heaviest::<8>().as_slice(), &t.top(8)[..]);
        assert!(Tally::new().top(5).is_empty());
    }

    #[test]
    fn a_tally_past_its_inline_items_keeps_every_count() {
        let mut t = Tally::new();
        let items: Vec<u64> = (0..3 * INLINE_ITEMS as u64)
            .map(|i| i * 7_919 % 97)
            .collect();
        items.iter().rev().for_each(|&i| t.add(i));
        items.iter().for_each(|&i| t.add(i));
        assert_eq!(t.len(), items.len());
        assert!(t.iter().all(|(_, c)| c == 2));
        assert!(t.iter().zip(t.iter().skip(1)).all(|(a, b)| a.0 < b.0));
        assert_eq!(t.top(3).len(), 3);
    }

    #[test]
    fn merge_is_the_count_of_the_union() {
        let (mut a, mut b, mut whole) = (Tally::new(), Tally::new(), Tally::new());
        for i in 0..300u64 {
            let item = (i * 7919) % 23;
            if i % 3 == 0 { &mut a } else { &mut b }.add(item);
            whole.add(item);
        }
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(ba, whole);
    }
}
