//! SpaceSaving heavy hitters (Metwally, Agrawal & El Abbadi 2005) — the
//! "Top-N" column of Table 3.
//!
//! The inventory stores, per cell and grouping key, the most frequent
//! origins, destinations and outgoing cell transitions. Exact counting of
//! all values per cell would defeat the "compact data model" goal, so each
//! cell keeps a bounded [`SpaceSaving`] sketch: at most `capacity` counters,
//! with the classic guarantee that any item with true frequency
//! `> n / capacity` is present, and every reported count overestimates the
//! true count by at most the stored `error`.

use crate::hash::{hash64, FxHashMap};
use crate::MergeSketch;
use std::hash::Hash;

/// One monitored item: an (over-)estimated count and its maximum
/// overestimation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    /// Estimated count (true count ≤ `count`, ≥ `count - error`).
    pub count: u64,
    /// Maximum overestimation baked into `count`.
    pub error: u64,
}

/// Capacity at or below which monitored items are stored inline (no heap).
/// The pipeline default `top_n_capacity` is 8, so inventory builds keep all
/// three per-cell Top-N sketches allocation-free.
pub(crate) const INLINE_SLOTS: usize = 8;

/// Counter storage: a fixed slot array for small capacities, a hash map
/// beyond that. The variant is decided once by `capacity` and never changes.
#[derive(Clone, Debug)]
enum Slots<T> {
    /// `slots[..len]` are `Some`, the rest `None`. Eviction replaces the
    /// first minimal slot in slot order, so the layout is deterministic.
    Inline {
        slots: [Option<(T, Counter)>; INLINE_SLOTS],
        len: u8,
    },
    Heap(FxHashMap<T, Counter>),
}

/// The order of [`SpaceSaving::top`]: heaviest first, then the more
/// certain, then by item hash.
fn rank<T: Hash>(a: (&T, &Counter), b: (&T, &Counter)) -> std::cmp::Ordering {
    b.1.count
        .cmp(&a.1.count)
        .then(a.1.error.cmp(&b.1.error))
        .then_with(|| hash64(a.0).cmp(&hash64(b.0)))
}

/// The SpaceSaving sketch over items of type `T`.
#[derive(Clone, Debug)]
pub struct SpaceSaving<T: Eq + Hash + Clone> {
    capacity: usize,
    slots: Slots<T>,
    total: u64,
}

impl<T: Eq + Hash + Clone> SpaceSaving<T> {
    /// Creates a sketch tracking at most `capacity` items.
    ///
    /// # Panics
    /// When `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            slots: Self::empty_slots(capacity),
            total: 0,
        }
    }

    fn empty_slots(capacity: usize) -> Slots<T> {
        if capacity <= INLINE_SLOTS {
            Slots::Inline {
                slots: std::array::from_fn(|_| None),
                len: 0,
            }
        } else {
            Slots::Heap(FxHashMap::default())
        }
    }

    /// Observes one occurrence of `item`.
    pub fn add(&mut self, item: T) {
        self.add_weighted(item, 1);
    }

    /// Observes `weight` occurrences of `item`.
    pub fn add_weighted(&mut self, item: T, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        let capacity = self.capacity;
        match &mut self.slots {
            Slots::Inline { slots, len } => {
                let used = *len as usize;
                if let Some((_, c)) = slots[..used].iter_mut().flatten().find(|(k, _)| *k == item) {
                    c.count += weight;
                    return;
                }
                if used < capacity {
                    slots[used] = Some((
                        item,
                        Counter {
                            count: weight,
                            error: 0,
                        },
                    ));
                    *len += 1;
                    return;
                }
                // Evict the first minimal counter in slot order; the
                // newcomer takes its slot and inherits its count as error.
                // (`slots[..used]` are all `Some` by the len invariant; a
                // zero-capacity sketch has nothing to evict and drops.)
                let count_at =
                    |e: &Option<(T, Counter)>| e.as_ref().map_or(u64::MAX, |s| s.1.count);
                let Some(min_i) = (0..used).min_by_key(|&i| count_at(&slots[i])) else {
                    return;
                };
                let min_count = slots[min_i].as_ref().map_or(0, |s| s.1.count);
                slots[min_i] = Some((
                    item,
                    Counter {
                        count: min_count + weight,
                        error: min_count,
                    },
                ));
            }
            Slots::Heap(items) => {
                if let Some(c) = items.get_mut(&item) {
                    c.count += weight;
                    return;
                }
                if items.len() < capacity {
                    items.insert(
                        item,
                        Counter {
                            count: weight,
                            error: 0,
                        },
                    );
                    return;
                }
                // Evict the minimum counter; the newcomer inherits its count
                // as error. (At this point len >= capacity >= 1, so a minimum
                // always exists; an impossible empty map degrades to a plain
                // insert.)
                let Some((min_key, min_count)) = items
                    .iter()
                    .min_by_key(|(_, c)| c.count)
                    .map(|(k, c)| (k.clone(), c.count))
                else {
                    items.insert(
                        item,
                        Counter {
                            count: weight,
                            error: 0,
                        },
                    );
                    return;
                };
                items.remove(&min_key);
                items.insert(
                    item,
                    Counter {
                        count: min_count + weight,
                        error: min_count,
                    },
                );
            }
        }
    }

    /// Total weight observed (including evicted items).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of monitored items (≤ capacity).
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Inline { len, .. } => *len as usize,
            Slots::Heap(items) => items.len(),
        }
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The estimated count for an item currently monitored.
    pub fn estimate(&self, item: &T) -> Option<Counter> {
        match &self.slots {
            Slots::Inline { slots, len } => slots[..*len as usize]
                .iter()
                .flatten()
                .find(|(k, _)| k == item)
                .map(|(_, c)| *c),
            Slots::Heap(items) => items.get(item).copied(),
        }
    }

    /// The `n` heaviest items, descending by estimated count.
    /// Ties break on lower error (more certain first), then on item hash so
    /// the order is a function of the contents alone — a freshly built sketch
    /// and one decoded from wire bytes rank full ties identically even though
    /// their storage iteration orders differ.
    pub fn top(&self, n: usize) -> Vec<(T, Counter)> {
        let mut all: Vec<(T, Counter)> = self.iter().map(|(k, c)| (k.clone(), *c)).collect();
        all.sort_by(|a, b| rank((&a.0, &a.1), (&b.0, &b.1)));
        all.truncate(n);
        all
    }

    /// The single most frequent item, if any: `top(1)` without the
    /// vector (distinct items never tie in `rank`'s full order).
    pub fn top1(&self) -> Option<(T, Counter)> {
        self.iter()
            .min_by(|a, b| rank(*a, *b))
            .map(|(k, c)| (k.clone(), *c))
    }

    /// Iterates over all monitored items (slot order for inline storage,
    /// map order otherwise — callers needing canonical output must sort).
    pub fn iter(&self) -> impl Iterator<Item = (&T, &Counter)> {
        let (inline, heap): (&[Option<(T, Counter)>], Option<&FxHashMap<T, Counter>>) =
            match &self.slots {
                Slots::Inline { slots, len } => (&slots[..*len as usize], None),
                Slots::Heap(items) => (&[], Some(items)),
            };
        inline
            .iter()
            .flatten()
            .map(|(k, c)| (k, c))
            .chain(heap.into_iter().flatten())
    }

    /// Whether `item` is currently monitored.
    fn contains(&self, item: &T) -> bool {
        self.estimate(item).is_some()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reconstructs a sketch from raw parts (deserialization).
    ///
    /// # Panics
    /// When `capacity == 0` or more items than capacity are supplied.
    pub fn from_parts(capacity: usize, total: u64, items: Vec<(T, Counter)>) -> SpaceSaving<T> {
        assert!(capacity > 0, "capacity must be positive");
        assert!(items.len() <= capacity, "items exceed capacity");
        let mut slots = Self::empty_slots(capacity);
        match &mut slots {
            Slots::Inline { slots, len } => {
                for (i, entry) in items.into_iter().enumerate() {
                    slots[i] = Some(entry);
                    *len += 1;
                }
            }
            Slots::Heap(map) => map.extend(items),
        }
        SpaceSaving {
            capacity,
            slots,
            total,
        }
    }
}

impl<T: Eq + Hash + Clone> MergeSketch for SpaceSaving<T> {
    /// Merges two sketches (Agarwal et al., "Mergeable Summaries").
    ///
    /// An item missing from one *at-capacity* sketch may have been observed
    /// there and evicted, with true count at most that sketch's minimum
    /// counter — so absent items are credited `min_count` as both count and
    /// error. This preserves the one-sided guarantee
    /// `count ≥ true ≥ count − error`. A sketch below capacity is exact, so
    /// its credit is zero.
    fn merge(&mut self, other: &Self) {
        let credit = |s: &Self| -> u64 {
            if s.len() < s.capacity {
                0
            } else {
                s.iter().map(|(_, c)| c.count).min().unwrap_or(0)
            }
        };
        let self_credit = credit(self);
        let other_credit = credit(other);
        self.total += other.total;
        let capacity = self.capacity;
        match &mut self.slots {
            Slots::Inline { slots, len } => {
                // The union can temporarily hold up to 2×capacity items, so
                // merge through a stack scratch twice the inline size: self's
                // slots first, then other's new items in other's iteration
                // order.
                let orig = *len as usize;
                let mut scratch: [Option<(T, Counter)>; 2 * INLINE_SLOTS] =
                    std::array::from_fn(|_| None);
                for (i, slot) in slots[..orig].iter_mut().enumerate() {
                    scratch[i] = slot.take();
                }
                *len = 0;
                let mut n = orig;
                // Items monitored by `other`: add counts; items new to
                // `self` get `self_credit` for what self may have evicted.
                for (k, c) in other.iter() {
                    if let Some((_, e)) = scratch[..n].iter_mut().flatten().find(|(sk, _)| sk == k)
                    {
                        e.count += c.count;
                        e.error += c.error;
                    } else {
                        scratch[n] = Some((
                            k.clone(),
                            Counter {
                                count: c.count + self_credit,
                                error: c.error + self_credit,
                            },
                        ));
                        n += 1;
                    }
                }
                // Items only in `self` get `other_credit` for what other may
                // have evicted.
                for entry in scratch[..orig].iter_mut().flatten() {
                    if !other.contains(&entry.0) {
                        entry.1.count += other_credit;
                        entry.1.error += other_credit;
                    }
                }
                if n > capacity {
                    // Stable sort keeps ties in self-then-other order.
                    // (`scratch[..n]` are all `Some`; `None` sorting last is
                    // harmless either way.)
                    let count_at = |e: &Option<(T, Counter)>| e.as_ref().map_or(0, |s| s.1.count);
                    scratch[..n].sort_by(|a, b| count_at(b).cmp(&count_at(a)));
                    n = capacity;
                }
                for (i, entry) in scratch[..n].iter_mut().enumerate() {
                    slots[i] = entry.take();
                }
                *len = n as u8;
            }
            Slots::Heap(items) => {
                // Items monitored by `other`: add counts; items new to
                // `self` get `self_credit` for what self may have evicted.
                for (k, c) in other.iter() {
                    match items.get_mut(k) {
                        Some(e) => {
                            e.count += c.count;
                            e.error += c.error;
                        }
                        None => {
                            items.insert(
                                k.clone(),
                                Counter {
                                    count: c.count + self_credit,
                                    error: c.error + self_credit,
                                },
                            );
                        }
                    }
                }
                // Items only in `self` get `other_credit` for what other may
                // have evicted.
                for (k, e) in items.iter_mut() {
                    if !other.contains(k) {
                        e.count += other_credit;
                        e.error += other_credit;
                    }
                }
                if items.len() > capacity {
                    let mut all: Vec<(T, Counter)> = items.drain().collect();
                    all.sort_by(|a, b| b.1.count.cmp(&a.1.count));
                    all.truncate(capacity);
                    items.extend(all);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SpaceSaving::<u32>::new(0);
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut s = SpaceSaving::new(10);
        for _ in 0..5 {
            s.add("a");
        }
        for _ in 0..3 {
            s.add("b");
        }
        s.add("c");
        assert_eq!(s.estimate(&"a"), Some(Counter { count: 5, error: 0 }));
        assert_eq!(s.estimate(&"b"), Some(Counter { count: 3, error: 0 }));
        assert_eq!(s.top1().unwrap().0, "a");
        assert_eq!(s.total(), 9);
    }

    #[test]
    fn heavy_hitter_survives_eviction_pressure() {
        let mut s = SpaceSaving::new(4);
        // "hot" appears 100 times among 200 singletons.
        for i in 0..200u32 {
            s.add(format!("noise{i}"));
            if i % 2 == 0 {
                s.add("hot".to_string());
            }
        }
        let top = s.top(1);
        assert_eq!(top[0].0, "hot");
        let c = top[0].1;
        // Overestimates, never underestimates beyond the error bound.
        assert!(c.count >= 100, "count {}", c.count);
        assert!(c.count - c.error <= 100);
    }

    #[test]
    fn overestimation_bounded_by_n_over_k() {
        let mut s = SpaceSaving::new(8);
        for i in 0..1000u32 {
            s.add(i % 100);
        }
        for (_, c) in s.iter() {
            assert!(c.error <= 1000 / 8, "error {}", c.error);
        }
    }

    #[test]
    fn top_order_and_truncation() {
        let mut s = SpaceSaving::new(10);
        for (item, n) in [("x", 7), ("y", 9), ("z", 2)] {
            for _ in 0..n {
                s.add(item);
            }
        }
        let top = s.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "y");
        assert_eq!(top[1].0, "x");
    }

    #[test]
    fn merge_preserves_heavy_hitters() {
        let mut a = SpaceSaving::new(5);
        let mut b = SpaceSaving::new(5);
        for _ in 0..50 {
            a.add("big".to_string());
        }
        for i in 0..20u32 {
            a.add(format!("n{i}"));
        }
        for _ in 0..60 {
            b.add("big".to_string());
        }
        for i in 20..40u32 {
            b.add(format!("n{i}"));
        }
        a.merge(&b);
        assert_eq!(a.top1().unwrap().0, "big");
        assert!(a.len() <= 5);
        assert_eq!(a.total(), 150);
        let c = a.estimate(&"big".to_string()).unwrap();
        assert!(c.count >= 110);
    }

    #[test]
    fn top1_is_top_of_one() {
        // Inline and heap storage, ties on count and on (count, error).
        for capacity in [4, 32] {
            let mut s = SpaceSaving::<u64>::new(capacity);
            assert_eq!(s.top1(), None);
            for i in 0..200u64 {
                s.add(i % 9);
                assert_eq!(s.top1(), s.top(1).pop(), "capacity {capacity}, after {i}");
            }
        }
    }

    #[test]
    fn inline_eviction_replaces_first_minimum_slot() {
        let mut s = SpaceSaving::new(2);
        s.add("a");
        s.add("b");
        s.add("c"); // evicts "a": first minimal counter in slot order
        assert!(s.estimate(&"a").is_none());
        assert_eq!(s.estimate(&"b"), Some(Counter { count: 1, error: 0 }));
        assert_eq!(s.estimate(&"c"), Some(Counter { count: 2, error: 1 }));
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn heap_storage_evicts_and_merges_like_inline() {
        // capacity > INLINE_SLOTS exercises the hash-map variant.
        let mut a = SpaceSaving::new(INLINE_SLOTS + 1);
        let mut b = SpaceSaving::new(INLINE_SLOTS + 1);
        for _ in 0..50 {
            a.add("big".to_string());
        }
        for i in 0..30u32 {
            a.add(format!("n{i}"));
        }
        for _ in 0..60 {
            b.add("big".to_string());
        }
        for i in 30..60u32 {
            b.add(format!("n{i}"));
        }
        a.merge(&b);
        assert_eq!(a.top1().unwrap().0, "big");
        assert!(a.len() <= INLINE_SLOTS + 1);
        assert_eq!(a.total(), 170);
        let c = a.estimate(&"big".to_string()).unwrap();
        assert!(c.count >= 110);
        assert!(c.count - c.error <= 110);
    }

    #[test]
    fn inline_merge_overflow_keeps_heaviest() {
        // Two full inline sketches with disjoint items: the union overflows
        // the capacity and must keep the heaviest, ties in self-then-other
        // order.
        let mut a = SpaceSaving::new(3);
        let mut b = SpaceSaving::new(3);
        for (item, n) in [("a1", 10u32), ("a2", 2), ("a3", 2)] {
            for _ in 0..n {
                a.add(item);
            }
        }
        for (item, n) in [("b1", 9u32), ("b2", 8), ("b3", 1)] {
            for _ in 0..n {
                b.add(item);
            }
        }
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.total(), 32);
        // a1: 10 + other_credit(1); b1: 9 + self_credit(2); b2: 8 + 2.
        assert_eq!(a.estimate(&"a1").map(|c| c.count), Some(11));
        assert_eq!(a.estimate(&"b1").map(|c| c.count), Some(11));
        assert_eq!(a.estimate(&"b2").map(|c| c.count), Some(10));
    }

    #[test]
    fn weighted_adds() {
        let mut s = SpaceSaving::new(3);
        s.add_weighted("w", 10);
        s.add_weighted("w", 0); // no-op
        assert_eq!(s.estimate(&"w").unwrap().count, 10);
        assert_eq!(s.total(), 10);
    }
}
