//! Inline-or-heap storage for the inventory's small sketches, and the
//! sorted map of keys to counts built on it: the storage of
//! [`Tally`](crate::Tally), [`LogHistogram`](crate::LogHistogram),
//! [`AngleHistogram`](crate::AngleHistogram) and, as a sorted set,
//! [`SmallSet`](crate::hll::SmallSet).
//!
//! Entries are kept in ascending key order, so the contents are a
//! function of the counted multiset alone — the order of the adds and
//! merges that made them is not kept anywhere, nor whether they sit
//! inline or on the heap — and an encoder walks them in canonical order
//! without sorting.
//!
//! A summary holds eleven of these, and most hold one or two entries
//! (DESIGN §8, "What a summary costs to hold"), so an entry past the
//! inline capacity moves all of them to the heap and the inline array's
//! bytes become the `Vec`'s: the two share storage, and a container
//! costs its inline entries plus a tag.

/// Up to `N` entries inline; past that, all of them on the heap.
#[derive(Clone, Debug)]
pub(crate) enum Spill<T, const N: usize> {
    /// The first `len` entries of the array.
    Inline(u8, [T; N]),
    /// More than `N` entries (or as many as a merge left behind).
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for Spill<T, N> {
    fn default() -> Self {
        Spill::Inline(0, [T::default(); N])
    }
}

impl<T: PartialEq, const N: usize> PartialEq for Spill<T, N> {
    /// Equal entries: where they are stored is not observable.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T, const N: usize> Spill<T, N> {
    /// The entries.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Spill::Inline(len, items) => items.get(..usize::from(*len)).unwrap_or_default(),
            Spill::Heap(items) => items,
        }
    }

    /// The entries, to change in place.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Spill::Inline(len, items) => items.get_mut(..usize::from(*len)).unwrap_or_default(),
            Spill::Heap(items) => items,
        }
    }

    /// Entries held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the entries live on the heap.
    pub(crate) fn is_spilled(&self) -> bool {
        matches!(self, Spill::Heap(_))
    }
}

impl<T: Copy + Default, const N: usize> Spill<T, N> {
    /// Appends `entry`.
    pub(crate) fn push(&mut self, entry: T) {
        self.insert(self.len(), entry);
    }

    /// Inserts `entry` before the entry at `at` (at most `len`).
    pub(crate) fn insert(&mut self, at: usize, entry: T) {
        match self {
            Spill::Heap(items) => items.insert(at, entry),
            Spill::Inline(len, items) if usize::from(*len) < N => {
                let end = usize::from(*len);
                items.copy_within(at..end, at + 1);
                if let Some(slot) = items.get_mut(at) {
                    *slot = entry;
                }
                *len += 1;
            }
            Spill::Inline(_, items) => {
                let (before, after) = items.split_at(at.min(N));
                let mut heap = Vec::with_capacity(2 * N);
                heap.extend_from_slice(before);
                heap.push(entry);
                heap.extend_from_slice(after);
                *self = Spill::Heap(heap);
            }
        }
    }

    /// Merges `other` into these entries, both ascending by `key`:
    /// entries of equal keys are `combine`d into one, and the result
    /// ascends by key. Inline when the union fits; otherwise merged in
    /// place from the back, so a heap side grows at most once and an
    /// inline side allocates once.
    pub(crate) fn merge_sorted<K: Ord>(
        &mut self,
        other: &[T],
        key: impl Fn(&T) -> K,
        combine: impl Fn(&mut T, &T),
    ) {
        let len = union_len(self.as_slice(), other, &key);
        if len <= N {
            let mut items = [T::default(); N];
            let (mut a, mut b) = (self.as_slice().iter().peekable(), other.iter().peekable());
            for slot in items.iter_mut().take(len) {
                *slot = match (a.peek(), b.peek()) {
                    (Some(&x), Some(&y)) if key(x) == key(y) => {
                        let mut e = *x;
                        combine(&mut e, y);
                        a.next();
                        b.next();
                        e
                    }
                    (Some(&x), Some(&y)) if key(x) < key(y) => {
                        a.next();
                        *x
                    }
                    (Some(&x), None) => {
                        a.next();
                        *x
                    }
                    (_, Some(&y)) => {
                        b.next();
                        *y
                    }
                    (None, None) => T::default(),
                };
            }
            *self = Spill::Inline(len as u8, items);
            return;
        }
        if let Spill::Inline(..) = self {
            let mut items = Vec::with_capacity(len.max(2 * N));
            items.extend_from_slice(self.as_slice());
            *self = Spill::Heap(items);
        }
        let Spill::Heap(heap) = self else {
            return;
        };
        // Every unread entry of `heap` lies below the write position: the
        // entries still to write are the unread ones of both sides, less
        // the shared keys.
        let mut i = heap.len();
        heap.resize(len, T::default());
        let mut rest = other;
        for w in (0..len).rev() {
            let mine = i.checked_sub(1).and_then(|at| heap.get(at).copied());
            let entry = match (mine, rest.split_last()) {
                (Some(x), Some((y, left))) if key(&x) == key(y) => {
                    let mut e = x;
                    combine(&mut e, y);
                    i -= 1;
                    rest = left;
                    e
                }
                (Some(x), Some((y, _))) if key(&x) > key(y) => {
                    i -= 1;
                    x
                }
                (_, Some((&y, left))) => {
                    rest = left;
                    y
                }
                // What is left of `heap` is where it belongs.
                (_, None) => break,
            };
            if let Some(slot) = heap.get_mut(w) {
                *slot = entry;
            }
        }
    }
}

/// Entries in the union of two key-sorted slices.
fn union_len<T, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> usize {
    let (mut a, mut b) = (a.iter().map(&key).peekable(), b.iter().map(&key).peekable());
    let mut len = 0;
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    a.next();
                    b.next();
                }
            },
            (Some(_), None) => return len + a.count(),
            (None, Some(_)) => return len + b.count(),
            (None, None) => return len,
        }
        len += 1;
    }
}

/// Keys and their counts, ascending by key, with no zero count. Up to
/// `N` entries live inline; past that, all of them live on the heap.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct SortedCounts<K: Copy + Ord + Default, const N: usize> {
    entries: Spill<(K, u64), N>,
}

impl<K: Copy + Ord + Default, const N: usize> SortedCounts<K, N> {
    /// The entries, ascending by key.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[(K, u64)] {
        self.entries.as_slice()
    }

    /// Distinct keys held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the entries live on the heap.
    pub(crate) fn is_spilled(&self) -> bool {
        self.entries.is_spilled()
    }

    /// Adds `weight` (at least 1) to `key`'s count.
    #[inline]
    pub(crate) fn add(&mut self, key: K, weight: u64) {
        match self.as_slice().binary_search_by_key(&key, |e| e.0) {
            Ok(at) => {
                if let Some(entry) = self.entries.as_mut_slice().get_mut(at) {
                    entry.1 += weight;
                }
            }
            Err(at) => self.entries.insert(at, (key, weight)),
        }
    }

    /// Adds every count of `other`: the counts of the union of the two
    /// multisets.
    pub(crate) fn merge(&mut self, other: &Self) {
        match other.as_slice() {
            [] => {}
            &[(key, count)] => self.add(key, count),
            entries => self
                .entries
                .merge_sorted(entries, |e| e.0, |e, o| e.1 += o.1),
        }
    }

    /// Appends `(key, count)`: `key` must be above every key held and
    /// `count` not zero (deserialization).
    pub(crate) fn push(&mut self, key: K, count: u64) {
        self.entries.push((key, count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_of(keys: &[u32]) -> SortedCounts<u32, 4> {
        let mut c = SortedCounts::default();
        keys.iter().for_each(|&k| c.add(k, 1));
        c
    }

    #[test]
    fn adds_keep_keys_sorted_across_the_spill() {
        let c = counts_of(&[5, 1, 9, 1, 3, 7, 5, 2]);
        assert_eq!(
            c.as_slice(),
            &[(1, 2), (2, 1), (3, 1), (5, 2), (7, 1), (9, 1)]
        );
        assert_eq!(c.len(), 6);
        assert!(c.is_spilled());
    }

    #[test]
    fn merges_equal_the_counts_of_the_union() {
        let (xs, ys) = ([4, 4, 8, 1, 30, 2, 2], [8, 9, 10, 11, 12, 1, 0]);
        let whole = counts_of(&[&xs[..], &ys[..]].concat());
        for (a, b) in [(&xs[..], &ys[..]), (&ys[..], &xs[..])] {
            let mut merged = counts_of(a);
            merged.merge(&counts_of(b));
            assert_eq!(merged, whole);
        }
        let mut small = counts_of(&[3]);
        small.merge(&counts_of(&[]));
        assert_eq!(small, counts_of(&[3]));
    }

    /// The plain sorted-`Vec` map every container is held to.
    fn oracle(keys: &[u32]) -> Vec<(u32, u64)> {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut out: Vec<(u32, u64)> = Vec::new();
        for k in sorted {
            match out.last_mut() {
                Some(last) if last.0 == k => last.1 += 1,
                _ => out.push((k, 1)),
            }
        }
        out
    }

    /// `n` distinct keys, each counted `i + 1` times, added out of order.
    fn straddling(n: u32, offset: u32) -> Vec<u32> {
        (0..n)
            .rev()
            .flat_map(|i| std::iter::repeat_n(3 * i + offset, i as usize + 1))
            .collect()
    }

    #[test]
    fn merges_across_the_inline_capacity_match_the_sorted_vec() {
        // N − 1, N and N + 1 entries a side, overlapping and not, merged
        // in both orders: inline ⊕ inline, inline ⊕ spilled, spilled ⊕
        // inline and spilled ⊕ spilled.
        for n in [3, 4, 5] {
            for m in [0, 1, 3, 4, 5, 9] {
                for offset in [0, 1, 3] {
                    let (xs, ys) = (straddling(n, 0), straddling(m, offset));
                    let want = oracle(&[&xs[..], &ys[..]].concat());
                    for (a, b) in [(&xs, &ys), (&ys, &xs)] {
                        let mut merged = counts_of(a);
                        merged.merge(&counts_of(b));
                        assert_eq!(merged.as_slice(), &want[..], "{n} ⊕ {m} @ {offset}");
                        assert_eq!(merged.is_spilled(), want.len() > 4);
                    }
                }
            }
            assert_eq!(counts_of(&straddling(n, 0)).is_spilled(), n > 4);
            assert_eq!(
                counts_of(&straddling(n, 0)).as_slice(),
                &oracle(&straddling(n, 0))[..]
            );
        }
    }

    #[test]
    fn pushes_hold_inline_what_fits() {
        let mut c = SortedCounts::<u32, 4>::default();
        c.push(7, 1);
        c.push(9, 2);
        assert!(!c.is_spilled());
        assert_eq!(c, counts_of(&[7, 9, 9]));
        (10..13).for_each(|k| c.push(k, 1));
        assert!(c.is_spilled());
        assert_eq!(c, counts_of(&[7, 9, 9, 10, 11, 12]));
    }
}
