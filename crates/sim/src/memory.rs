//! GPU memory residency tracking.

use uvm_types::{PageId, PageSet};

/// The set of pages resident in GPU memory, bounded by a fixed capacity.
///
/// Residency is a dense [`PageSet`] indexed by page number: O(1) probes
/// that hash nothing, and a memory cost of O(largest resident page).
///
/// # Examples
///
/// ```
/// use uvm_sim::GpuMemory;
/// use uvm_types::PageId;
///
/// let mut mem = GpuMemory::new(2);
/// mem.insert(PageId(1)).unwrap();
/// mem.insert(PageId(2)).unwrap();
/// assert!(mem.is_full());
/// assert!(mem.insert(PageId(3)).is_err());
/// assert!(mem.remove(PageId(1)));
/// mem.insert(PageId(3)).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct GpuMemory {
    resident: PageSet<PageId>,
    capacity: u64,
}

/// Error returned when inserting into a full [`GpuMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFull;

impl std::fmt::Display for MemoryFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GPU memory is at capacity; evict a page first")
    }
}

impl std::error::Error for MemoryFull {}

impl GpuMemory {
    /// Creates GPU memory with room for `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        GpuMemory {
            resident: PageSet::new(),
            capacity,
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of resident pages.
    pub fn len(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Whether memory is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Whether `page` is resident.
    pub fn is_resident(&self, page: PageId) -> bool {
        self.resident.contains(page)
    }

    /// Makes `page` resident.
    ///
    /// # Errors
    ///
    /// Returns `MemoryFull` if memory is at capacity and `page` is not
    /// already resident.
    pub fn insert(&mut self, page: PageId) -> Result<(), MemoryFull> {
        if self.resident.contains(page) {
            return Ok(());
        }
        if self.is_full() {
            return Err(MemoryFull);
        }
        self.resident.insert(page);
        Ok(())
    }

    /// Removes `page`; returns whether it was resident.
    pub fn remove(&mut self, page: PageId) -> bool {
        self.resident.remove(page)
    }

    /// The lowest-numbered resident page, if any.
    ///
    /// Used as the deterministic last-resort victim when a policy offers
    /// none while memory is full. A scan of the page-ordered table, so it
    /// is linear in the largest resident page; only fallbacks call it.
    pub fn min_resident(&self) -> Option<PageId> {
        self.resident.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity_and_rejects_overflow() {
        let mut mem = GpuMemory::new(3);
        for p in 0..3u64 {
            assert!(!mem.is_full());
            mem.insert(PageId(p)).unwrap();
        }
        assert!(mem.is_full());
        assert_eq!(mem.insert(PageId(9)), Err(MemoryFull));
        // Re-inserting a resident page is fine even when full.
        assert_eq!(mem.insert(PageId(0)), Ok(()));
        assert_eq!(mem.len(), 3);
    }

    #[test]
    fn remove_frees_a_slot() {
        let mut mem = GpuMemory::new(1);
        mem.insert(PageId(1)).unwrap();
        assert!(mem.remove(PageId(1)));
        assert!(!mem.remove(PageId(1)));
        assert!(mem.is_empty());
        mem.insert(PageId(2)).unwrap();
        assert!(mem.is_resident(PageId(2)));
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        GpuMemory::new(0);
    }

    #[test]
    fn error_displays() {
        assert!(MemoryFull.to_string().contains("capacity"));
    }

    #[test]
    fn min_resident_is_deterministic() {
        let mut mem = GpuMemory::new(8);
        assert_eq!(mem.min_resident(), None);
        for p in [7u64, 3, 5, 9] {
            mem.insert(PageId(p)).unwrap();
        }
        assert_eq!(mem.min_resident(), Some(PageId(3)));
        mem.remove(PageId(3));
        assert_eq!(mem.min_resident(), Some(PageId(5)));
    }

    /// `GpuMemory` against a `HashSet` twin with the same capacity rule:
    /// every insert/remove answers alike, and residency, length, fullness
    /// and `min_resident` agree after each step.
    #[test]
    fn matches_hash_set_twin() {
        use std::collections::HashSet;
        use uvm_util::prop::{shrink_vec, Checker};

        Checker::new().run_shrink(
            |rng| {
                let capacity = rng.gen_range(1u64..12);
                let ops = rng.gen_vec(0..300, |r| (r.gen_bool(0.55), r.gen_range(0u64..40)));
                (capacity, ops)
            },
            |(capacity, ops)| {
                shrink_vec(ops)
                    .into_iter()
                    .map(|o| (*capacity, o))
                    .collect()
            },
            |(capacity, ops)| {
                let mut mem = GpuMemory::new(*capacity);
                let mut twin: HashSet<PageId> = HashSet::new();
                for &(insert, p) in ops {
                    let page = PageId(p);
                    if insert {
                        let fits = twin.contains(&page) || (twin.len() as u64) < *capacity;
                        assert_eq!(mem.insert(page).is_ok(), fits, "insert {page}");
                        if fits {
                            twin.insert(page);
                        }
                    } else {
                        assert_eq!(mem.remove(page), twin.remove(&page), "remove {page}");
                    }
                    assert_eq!(mem.is_resident(page), twin.contains(&page));
                    assert_eq!(mem.len(), twin.len() as u64);
                    assert_eq!(mem.is_empty(), twin.is_empty());
                    assert_eq!(mem.is_full(), twin.len() as u64 == *capacity);
                    assert_eq!(mem.min_resident(), twin.iter().copied().min());
                }
            },
        );
    }
}
