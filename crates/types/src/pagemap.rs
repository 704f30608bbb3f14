//! Dense page-indexed tables.
//!
//! Page numbers in a run are small and dense: a trace's pages all lie
//! below its footprint (`Trace::from_global` asserts it, and `Trace`'s
//! JSON parser rejects a trace that breaks it), and footprints are a few
//! thousand pages. A `Vec` indexed by page number is therefore an exact
//! map, with O(1) lookups that hash nothing, iteration in key order, and
//! a memory cost of O(largest key index).

use std::fmt;
use std::marker::PhantomData;

use crate::{PageId, PageSetId};

/// A key with a dense table slot: the slot index and its inverse.
///
/// Implementations must be a bijection between keys and the indices
/// they use, so iterating slots in order visits keys in index order.
pub trait PageIndex: Copy {
    /// The table slot of this key.
    fn index(self) -> usize;

    /// The key stored at slot `index` (inverse of [`PageIndex::index`]).
    fn from_index(index: usize) -> Self;
}

impl PageIndex for PageId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        PageId(index as u64)
    }
}

impl PageIndex for PageSetId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        PageSetId(index as u64)
    }
}

/// A map from page-indexed keys to values, stored as one `Vec` slot per
/// key index.
///
/// Lookups of keys beyond the table return `None` without growing it;
/// only [`PageMap::insert`] and [`PageMap::get_or_insert_with`] grow the
/// table, to the inserted key's index. Iteration visits keys in index
/// order, so every fold over a `PageMap` is deterministic.
///
/// # Examples
///
/// ```
/// use uvm_types::{PageId, PageMap};
///
/// let mut ages: PageMap<PageId, u64> = PageMap::new();
/// ages.insert(PageId(7), 70);
/// ages.insert(PageId(2), 20);
/// *ages.get_or_insert_with(PageId(2), || 0) += 1;
/// assert_eq!(ages.get(PageId(2)), Some(&21));
/// assert_eq!(ages.get(PageId(1_000_000)), None); // no growth on lookup
/// let order: Vec<PageId> = ages.keys().collect();
/// assert_eq!(order, vec![PageId(2), PageId(7)]);
/// assert_eq!(ages.remove(PageId(7)), Some(70));
/// assert_eq!(ages.len(), 1);
/// ```
#[derive(Clone)]
pub struct PageMap<K, T> {
    slots: Vec<Option<T>>,
    len: usize,
    key: PhantomData<fn(K) -> K>,
}

impl<K, T> PageMap<K, T> {
    /// Creates an empty map; it allocates on the first insert.
    pub fn new() -> Self {
        PageMap {
            slots: Vec::new(),
            len: 0,
            key: PhantomData,
        }
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every key.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Iterates values in key-index order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Occupied `(slot index, value)` pairs in index order.
    fn occupied(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (i, v)))
    }
}

impl<K: PageIndex, T> PageMap<K, T> {
    /// Whether `key` is present.
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: K) -> Option<&T> {
        self.slots.get(key.index())?.as_ref()
    }

    /// The value of `key` for in-place update, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut T> {
        self.slots.get_mut(key.index())?.as_mut()
    }

    /// Sets the value of `key`; returns the value it replaced.
    pub fn insert(&mut self, key: K, value: T) -> Option<T> {
        let old = self.slot(key).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value of `key`, first inserting `default()` if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> T) -> &mut T {
        let i = key.index();
        self.grow_to(i);
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(default)
    }

    /// Removes `key`; returns its value if it was present.
    pub fn remove(&mut self, key: K) -> Option<T> {
        let old = self.slots.get_mut(key.index())?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterates `(key, value)` pairs in key-index order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &T)> + '_ {
        self.occupied().map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates keys in index order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    fn grow_to(&mut self, index: usize) {
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
    }

    fn slot(&mut self, key: K) -> &mut Option<T> {
        let i = key.index();
        self.grow_to(i);
        &mut self.slots[i]
    }
}

impl<K, T> Default for PageMap<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Shows `{slot index: value}` in index order.
impl<K, T: fmt::Debug> fmt::Debug for PageMap<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.occupied()).finish()
    }
}

/// A set of page-indexed keys: a [`PageMap`] without values.
///
/// # Examples
///
/// ```
/// use uvm_types::{PageId, PageSet};
///
/// let mut resident: PageSet<PageId> = PageSet::new();
/// assert!(resident.insert(PageId(9)));
/// assert!(resident.insert(PageId(4)));
/// assert!(!resident.insert(PageId(4)));
/// assert_eq!(resident.first(), Some(PageId(4)));
/// assert!(resident.remove(PageId(4)));
/// assert!(!resident.contains(PageId(4)));
/// ```
#[derive(Clone)]
pub struct PageSet<K> {
    map: PageMap<K, ()>,
}

impl<K: PageIndex> PageSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no key is present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: K) -> bool {
        self.map.contains_key(key)
    }

    /// Adds `key`; returns whether it was absent.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: K) -> bool {
        self.map.remove(key).is_some()
    }

    /// The key with the lowest index, if any.
    pub fn first(&self) -> Option<K> {
        self.iter().next()
    }

    /// Iterates keys in index order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.map.keys()
    }
}

impl<K> Default for PageSet<K> {
    fn default() -> Self {
        PageSet {
            map: PageMap::new(),
        }
    }
}

/// Shows `{slot index, ..}` in index order.
impl<K> fmt::Debug for PageSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.map.occupied().map(|(i, _)| i))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use uvm_util::prop::{shrink_vec, Checker};

    #[test]
    fn page_set_ids_round_trip_through_their_index() {
        for raw in [0u64, 1, 17, 4096] {
            assert_eq!(PageId::from_index(PageId(raw).index()), PageId(raw));
            assert_eq!(
                PageSetId::from_index(PageSetId(raw).index()),
                PageSetId(raw)
            );
        }
    }

    #[test]
    fn lookups_past_the_table_neither_grow_nor_panic() {
        let mut m: PageMap<PageId, u32> = PageMap::new();
        m.insert(PageId(3), 1);
        let far = PageId(u64::from(u32::MAX) + 7);
        assert_eq!(m.get(far), None);
        assert_eq!(m.get_mut(far), None);
        assert_eq!(m.remove(far), None);
        assert!(!m.contains_key(far));
        assert_eq!(m.slots.len(), 4);
        let mut s: PageSet<PageId> = PageSet::new();
        assert!(!s.remove(far));
        assert!(!s.contains(far));
        assert_eq!(s.first(), None);
    }

    /// One operation of the differential test: `(op, key, value)`.
    type Op = (u8, u16, u32);

    fn ops(rng: &mut uvm_util::Rng) -> Vec<Op> {
        rng.gen_vec(0..300, |r| {
            (
                r.gen_range(0u16..6) as u8,
                r.gen_range(0u16..48),
                r.gen_range(0u32..1000),
            )
        })
    }

    /// `PageMap` against a `BTreeMap` twin: the same answers to every
    /// operation, and the same contents in the same (key) order after it.
    #[test]
    fn page_map_matches_btree_map_twin() {
        Checker::new().run_shrink(ops, shrink_vec, |ops| {
            let mut dense: PageMap<PageId, u32> = PageMap::new();
            let mut twin: BTreeMap<PageId, u32> = BTreeMap::new();
            for &(op, k, v) in ops {
                let k = PageId(u64::from(k));
                match op {
                    0 | 1 => assert_eq!(dense.insert(k, v), twin.insert(k, v)),
                    2 => assert_eq!(dense.remove(k), twin.remove(&k)),
                    3 => {
                        *dense.get_or_insert_with(k, || v) += 1;
                        *twin.entry(k).or_insert(v) += 1;
                    }
                    4 => {
                        if let Some(x) = dense.get_mut(k) {
                            *x ^= v;
                        }
                        if let Some(x) = twin.get_mut(&k) {
                            *x ^= v;
                        }
                    }
                    _ => {
                        dense.clear();
                        twin.clear();
                    }
                }
                assert_eq!(dense.get(k), twin.get(&k));
                assert_eq!(dense.contains_key(k), twin.contains_key(&k));
                assert_eq!(dense.len(), twin.len());
                assert_eq!(dense.is_empty(), twin.is_empty());
                let got: Vec<(PageId, u32)> = dense.iter().map(|(k, &v)| (k, v)).collect();
                let want: Vec<(PageId, u32)> = twin.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want);
                assert!(dense.values().copied().eq(twin.values().copied()));
            }
        });
    }

    /// `PageSet` against a `BTreeSet` twin, including `first`.
    #[test]
    fn page_set_matches_btree_set_twin() {
        Checker::new().run_shrink(ops, shrink_vec, |ops| {
            let mut dense: PageSet<PageSetId> = PageSet::new();
            let mut twin: BTreeSet<PageSetId> = BTreeSet::new();
            for &(op, k, _) in ops {
                let k = PageSetId(u64::from(k));
                match op {
                    0..=2 => assert_eq!(dense.insert(k), twin.insert(k)),
                    _ => assert_eq!(dense.remove(k), twin.remove(&k)),
                }
                assert_eq!(dense.contains(k), twin.contains(&k));
                assert_eq!(dense.len(), twin.len());
                assert_eq!(dense.first(), twin.first().copied());
                assert!(dense.iter().eq(twin.iter().copied()));
            }
        });
    }
}
