//! A sorted map of keys to counts, inline while it is small: the
//! storage of [`Tally`](crate::Tally) and
//! [`LogHistogram`](crate::LogHistogram).
//!
//! Keys are kept in ascending order, so the contents are a function of
//! the counted multiset alone — the order of the adds and merges that
//! made them is not kept anywhere — and an encoder walks them in
//! canonical order without sorting.

/// Keys and their counts, ascending by key, with no zero count. Up to
/// `N` entries live inline; past that, all of them live on the heap.
#[derive(Clone, Debug)]
pub(crate) struct SortedCounts<K: Copy + Ord + Default, const N: usize> {
    len: usize,
    inline: [(K, u64); N],
    heap: Vec<(K, u64)>,
}

impl<K: Copy + Ord + Default, const N: usize> Default for SortedCounts<K, N> {
    fn default() -> Self {
        Self {
            len: 0,
            inline: [(K::default(), 0); N],
            heap: Vec::new(),
        }
    }
}

impl<K: Copy + Ord + Default, const N: usize> PartialEq for SortedCounts<K, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<K: Copy + Ord + Default, const N: usize> SortedCounts<K, N> {
    /// The entries, ascending by key.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[(K, u64)] {
        if self.len > N {
            &self.heap
        } else {
            self.inline.get(..self.len).unwrap_or_default()
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(K, u64)] {
        if self.len > N {
            &mut self.heap
        } else {
            self.inline.get_mut(..self.len).unwrap_or_default()
        }
    }

    /// Distinct keys held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Adds `weight` (at least 1) to `key`'s count.
    #[inline]
    pub(crate) fn add(&mut self, key: K, weight: u64) {
        match self.as_slice().binary_search_by_key(&key, |e| e.0) {
            Ok(at) => {
                if let Some(entry) = self.as_mut_slice().get_mut(at) {
                    entry.1 += weight;
                }
            }
            Err(at) => self.insert(at, (key, weight)),
        }
    }

    fn insert(&mut self, at: usize, entry: (K, u64)) {
        if self.len > N {
            self.heap.insert(at, entry);
        } else if self.len < N {
            self.inline.copy_within(at..self.len, at + 1);
            if let Some(slot) = self.inline.get_mut(at) {
                *slot = entry;
            }
        } else {
            let (before, after) = self.inline.split_at(at);
            self.heap.reserve(2 * N);
            self.heap.extend_from_slice(before);
            self.heap.push(entry);
            self.heap.extend_from_slice(after);
        }
        self.len += 1;
    }

    /// Adds every count of `other`: the counts of the union of the two
    /// multisets.
    pub(crate) fn merge(&mut self, other: &Self) {
        if other.len <= N {
            for &(key, count) in other.as_slice() {
                self.add(key, count);
            }
            return;
        }
        let (mut a, mut b) = (self.as_slice().iter().peekable(), other.as_slice().iter());
        let mut merged = Vec::with_capacity(self.len + other.len);
        for &(key, count) in b.by_ref() {
            while let Some(&&(k, c)) = a.peek().filter(|e| e.0 < key) {
                merged.push((k, c));
                a.next();
            }
            match a.next_if(|e| e.0 == key) {
                Some(&(_, c)) => merged.push((key, c + count)),
                None => merged.push((key, count)),
            }
        }
        merged.extend(a.copied());
        self.set(merged);
    }

    /// Replaces the entries with `entries`, which must be ascending by
    /// key with no zero count.
    pub(crate) fn set(&mut self, entries: Vec<(K, u64)>) {
        self.len = entries.len();
        if self.len > N {
            self.heap = entries;
        } else {
            self.heap = Vec::new();
            for (slot, entry) in self.inline.iter_mut().zip(entries) {
                *slot = entry;
            }
        }
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
}
