//! A small fixed-capacity list for per-event prefetch decisions.
//!
//! Every L1/L2 prefetch decision used to materialize a fresh `Vec`, which
//! put one or two heap allocations on every simulated memory instruction.
//! [`SmallList`] holds up to `N` elements inline and nothing else: every
//! producer is bounded by a constant at or below its list's capacity
//! (checked by a `const` assert beside each producer), so the engine loop
//! allocates nothing. It dereferences to a slice and compares equal to
//! `Vec`, so call sites and tests read unchanged.

use std::fmt;

/// An inline list of at most `N` elements.
#[derive(Clone)]
pub struct SmallList<T: Copy + Default, const N: usize> {
    buf: [T; N],
    len: u32,
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        SmallList {
            buf: [T::default(); N],
            len: 0,
        }
    }

    /// Appends an element.
    ///
    /// # Panics
    /// Panics if the list already holds `N` elements: a producer that can
    /// exceed its list's capacity is a bug its bound assert should catch.
    #[inline]
    pub fn push(&mut self, v: T) {
        self.buf[self.len as usize] = v;
        self.len += 1;
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements as one contiguous slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        SmallList::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for SmallList<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallList<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for SmallList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<SmallList<T, N>> for Vec<T> {
    fn eq(&self, other: &SmallList<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Owning iterator over a [`SmallList`].
pub struct IntoIter<T: Copy + Default, const N: usize> {
    list: SmallList<T, N>,
    idx: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    #[inline]
    fn next(&mut self) -> Option<T> {
        let v = *self.list.as_slice().get(self.idx)?;
        self.idx += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.list.len() - self.idx;
        (n, Some(n))
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for SmallList<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter { list: self, idx: 0 }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(n: u32) -> SmallList<u32, 4> {
        let mut l = SmallList::new();
        for i in 0..n {
            l.push(i);
        }
        l
    }

    #[test]
    fn inline_push_and_slice() {
        let mut l: SmallList<u32, 4> = SmallList::new();
        assert!(l.is_empty());
        l.push(1);
        l.push(2);
        assert_eq!(l.len(), 2);
        assert_eq!(l.as_slice(), &[1, 2]);
        assert_eq!(l, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn push_past_capacity_panics() {
        list(4).push(4);
    }

    #[test]
    fn iterators_and_collect() {
        let l = list(4);
        let owned: Vec<u32> = l.clone().into_iter().collect();
        assert_eq!(owned, vec![0, 1, 2, 3]);
        let borrowed: Vec<u32> = (&l).into_iter().copied().collect();
        assert_eq!(borrowed, owned);
        assert_eq!(l.iter().sum::<u32>(), 6);
        assert_eq!(l.into_iter().size_hint(), (4, Some(4)));
    }

    #[test]
    fn slice_methods_via_deref() {
        let l = list(3);
        assert_eq!(l.first(), Some(&0));
        assert!(l.contains(&2));
        assert!(!l.contains(&3));
    }
}
