//! An arena-backed doubly-linked recency chain with O(1) operations.
//!
//! This is the building block for page-level recency policies ([`crate::Lru`])
//! and anything else that needs "move to MRU" / "pop LRU" without the
//! per-operation allocation of `LinkedList` or the O(n) shifting of a
//! `VecDeque`. Keys are page-indexed ([`PageIndex`]), so the key→node map
//! is a dense [`PageMap`] rather than a hash map.

use uvm_types::{PageIndex, PageMap};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// A recency-ordered set of keys: one end is LRU, the other MRU.
///
/// All operations are O(1).
///
/// # Examples
///
/// ```
/// use uvm_policies::chain::RecencyChain;
/// use uvm_types::PageId;
///
/// let mut chain = RecencyChain::new();
/// chain.insert_mru(PageId(1));
/// chain.insert_mru(PageId(2));
/// chain.insert_mru(PageId(3));
/// chain.touch(&PageId(1)); // 1 becomes MRU
/// assert_eq!(chain.lru(), Some(&PageId(2)));
/// assert_eq!(chain.pop_lru(), Some(PageId(2)));
/// assert_eq!(chain.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RecencyChain<K> {
    nodes: Vec<Node<K>>,
    map: PageMap<K, usize>,
    head: usize, // LRU end
    tail: usize, // MRU end
    free: Vec<usize>,
}

impl<K: PageIndex> RecencyChain<K> {
    /// Creates an empty chain.
    pub fn new() -> Self {
        RecencyChain {
            nodes: Vec::new(),
            map: PageMap::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of keys in the chain.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(*key)
    }

    /// Inserts `key` at the MRU position. Returns `false` (and moves the
    /// key to MRU) if it was already present.
    pub fn insert_mru(&mut self, key: K) -> bool {
        if self.map.contains_key(key) {
            self.touch(&key);
            return false;
        }
        let idx = self.alloc(key);
        self.map.insert(key, idx);
        self.link_at_tail(idx);
        true
    }

    /// Inserts `key` at the LRU position (bimodal/LIP-style insertion).
    /// If already present the key is *demoted* to LRU.
    pub fn insert_lru(&mut self, key: K) -> bool {
        if let Some(&idx) = self.map.get(key) {
            if self.head != idx {
                self.unlink(idx);
                self.link_at_head(idx);
            }
            return false;
        }
        let idx = self.alloc(key);
        self.map.insert(key, idx);
        self.link_at_head(idx);
        true
    }

    /// Moves `key` to the MRU position. Returns `false` if absent.
    pub fn touch(&mut self, key: &K) -> bool {
        let Some(&idx) = self.map.get(*key) else {
            return false;
        };
        if self.tail == idx {
            return true;
        }
        self.unlink(idx);
        self.link_at_tail(idx);
        true
    }

    /// The LRU key, if any.
    pub fn lru(&self) -> Option<&K> {
        (self.head != NIL).then(|| &self.nodes[self.head].key)
    }

    /// The MRU key, if any.
    pub fn mru(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.nodes[self.tail].key)
    }

    /// Removes and returns the LRU key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let key = *self.lru()?;
        self.remove(&key);
        Some(key)
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(idx) = self.map.remove(*key) else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Iterates keys from LRU to MRU.
    pub fn iter(&self) -> Iter<'_, K> {
        Iter {
            chain: self,
            idx: self.head,
            forward: true,
        }
    }

    /// Iterates keys from MRU to LRU (HPE's MRU-C searches this way).
    pub fn iter_rev(&self) -> Iter<'_, K> {
        Iter {
            chain: self,
            idx: self.tail,
            forward: false,
        }
    }

    fn alloc(&mut self, key: K) -> usize {
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn link_at_head(&mut self, idx: usize) {
        self.nodes[idx].next = self.head;
        self.nodes[idx].prev = NIL;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn link_at_tail(&mut self, idx: usize) {
        self.nodes[idx].prev = self.tail;
        self.nodes[idx].next = NIL;
        if self.tail != NIL {
            self.nodes[self.tail].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }
}

impl<K: PageIndex> Default for RecencyChain<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PageIndex> FromIterator<K> for RecencyChain<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut chain = RecencyChain::new();
        for k in iter {
            chain.insert_mru(k);
        }
        chain
    }
}

/// Iterator over a [`RecencyChain`] in either direction.
#[derive(Debug)]
pub struct Iter<'a, K> {
    chain: &'a RecencyChain<K>,
    idx: usize,
    forward: bool,
}

impl<'a, K> Iterator for Iter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        if self.idx == NIL {
            return None;
        }
        let node = &self.chain.nodes[self.idx];
        self.idx = if self.forward { node.next } else { node.prev };
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use uvm_types::PageId;
    use uvm_util::prop::{shrink_vec, Checker};

    fn chain(keys: std::ops::Range<u64>) -> RecencyChain<PageId> {
        keys.map(PageId).collect()
    }

    fn order(c: &RecencyChain<PageId>) -> Vec<u64> {
        c.iter().map(|p| p.0).collect()
    }

    #[test]
    fn basic_order() {
        let mut c = chain(0..5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.lru(), Some(&PageId(0)));
        assert_eq!(c.mru(), Some(&PageId(4)));
        c.touch(&PageId(0));
        assert_eq!(c.lru(), Some(&PageId(1)));
        assert_eq!(c.mru(), Some(&PageId(0)));
        assert_eq!(order(&c), vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn reverse_iteration_mirrors_forward() {
        let mut c = chain(0..6);
        c.touch(&PageId(2));
        let fwd: Vec<PageId> = c.iter().copied().collect();
        let mut rev: Vec<PageId> = c.iter_rev().copied().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(c.iter_rev().next(), Some(&PageId(2))); // MRU first
    }

    #[test]
    fn reinsert_moves_to_mru() {
        let mut c = chain(0..3);
        assert!(!c.insert_mru(PageId(0)));
        assert_eq!(c.mru(), Some(&PageId(0)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn remove_middle_and_reuse_slot() {
        let mut c = chain(0..3);
        assert!(c.remove(&PageId(1)));
        assert!(!c.remove(&PageId(1)));
        assert_eq!(order(&c), vec![0, 2]);
        c.insert_mru(PageId(9));
        assert_eq!(order(&c), vec![0, 2, 9]);
        // The freed arena slot was reused: no growth beyond 3 nodes.
        assert_eq!(c.nodes.len(), 3);
    }

    #[test]
    fn pop_lru_drains_in_order() {
        let mut c = chain(0..4);
        let drained: Vec<u64> = std::iter::from_fn(|| c.pop_lru()).map(|p| p.0).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
        assert!(c.is_empty());
        assert_eq!(c.lru(), None);
        assert_eq!(c.mru(), None);
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn insert_lru_places_and_demotes() {
        let mut c = chain(0..3);
        assert!(c.insert_lru(PageId(9)));
        assert_eq!(c.lru(), Some(&PageId(9)));
        // Demoting an existing MRU key to LRU.
        assert!(!c.insert_lru(PageId(2)));
        assert_eq!(c.lru(), Some(&PageId(2)));
        assert_eq!(order(&c), vec![2, 9, 0, 1]);
        // Into an empty chain.
        let mut e: RecencyChain<PageId> = RecencyChain::new();
        e.insert_lru(PageId(5));
        assert_eq!(e.lru(), Some(&PageId(5)));
        assert_eq!(e.mru(), Some(&PageId(5)));
    }

    #[test]
    fn touch_and_lookups_of_absent_keys_are_noops() {
        let mut c: RecencyChain<PageId> = RecencyChain::new();
        assert!(!c.touch(&PageId(7)));
        c.insert_mru(PageId(7));
        assert!(c.touch(&PageId(7)));
        // A key far past the dense table neither panics nor grows it.
        let far = PageId(1 << 40);
        assert!(!c.contains(&far));
        assert!(!c.touch(&far));
        assert!(!c.remove(&far));
        assert_eq!(c.len(), 1);
    }

    /// Naive twin: a `VecDeque` with the LRU key at the front, every
    /// operation a linear scan.
    #[derive(Default)]
    struct Twin(VecDeque<PageId>);

    impl Twin {
        fn position(&self, k: PageId) -> Option<usize> {
            self.0.iter().position(|&x| x == k)
        }
        fn remove(&mut self, k: PageId) -> bool {
            self.position(k).and_then(|i| self.0.remove(i)).is_some()
        }
        fn insert_mru(&mut self, k: PageId) -> bool {
            let fresh = !self.remove(k);
            self.0.push_back(k);
            fresh
        }
        fn insert_lru(&mut self, k: PageId) -> bool {
            let fresh = !self.remove(k);
            self.0.push_front(k);
            fresh
        }
        fn touch(&mut self, k: PageId) -> bool {
            self.remove(k) && {
                self.0.push_back(k);
                true
            }
        }
    }

    /// `RecencyChain` against the naive twin on random operation
    /// sequences: same answers, same order both ways, same ends.
    #[test]
    fn matches_vecdeque_twin() {
        Checker::new().run_shrink(
            |rng| {
                rng.gen_vec(0..400, |r| {
                    (r.gen_range(0u16..6) as u8, r.gen_range(0u64..24))
                })
            },
            shrink_vec,
            |ops| {
                let mut chain = RecencyChain::new();
                let mut twin = Twin::default();
                for &(op, k) in ops {
                    let k = PageId(k);
                    match op {
                        0 => assert_eq!(chain.insert_mru(k), twin.insert_mru(k)),
                        1 => assert_eq!(chain.touch(&k), twin.touch(k)),
                        2 => assert_eq!(chain.remove(&k), twin.remove(k)),
                        3 => assert_eq!(chain.insert_lru(k), twin.insert_lru(k)),
                        4 => assert_eq!(chain.contains(&k), twin.position(k).is_some()),
                        _ => assert_eq!(chain.pop_lru(), twin.0.pop_front()),
                    }
                    assert_eq!(chain.len(), twin.0.len());
                    assert_eq!(chain.is_empty(), twin.0.is_empty());
                    assert_eq!(chain.lru(), twin.0.front());
                    assert_eq!(chain.mru(), twin.0.back());
                    assert!(chain.iter().eq(twin.0.iter()));
                    assert!(chain.iter_rev().eq(twin.0.iter().rev()));
                }
            },
        );
    }
}
