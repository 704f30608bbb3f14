//! A fixed-depth window of recently evicted pages.
//!
//! A re-fault on a page still in the window is a *wrong eviction*: the
//! engine counts them, DIP compares them across its sampling phases, and
//! HPE's dynamic adjustment reacts to them (Algorithm 1).

use std::collections::VecDeque;

use uvm_types::{PageId, PageMap};

/// The last `depth` evicted pages in eviction order, with O(1)
/// membership tests.
///
/// # Examples
///
/// ```
/// use uvm_policies::EvictionWindow;
/// use uvm_types::PageId;
///
/// let mut w = EvictionWindow::new(2);
/// w.push(PageId(1));
/// w.push(PageId(2));
/// assert_eq!(w.distance(PageId(1)), Some(2));
/// w.push(PageId(3)); // page 1 leaves the window
/// assert!(!w.contains(PageId(1)));
/// assert_eq!(w.distance(PageId(3)), Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvictionWindow {
    order: VecDeque<PageId>,
    /// Occurrences of each page in `order` (0 once it left).
    counts: PageMap<PageId, u32>,
    depth: usize,
}

impl EvictionWindow {
    /// Creates an empty window holding the last `depth` evictions.
    pub fn new(depth: usize) -> Self {
        EvictionWindow {
            order: VecDeque::with_capacity(depth + 1),
            counts: PageMap::new(),
            depth,
        }
    }

    /// Records an eviction of `page`, dropping the oldest beyond `depth`.
    pub fn push(&mut self, page: PageId) {
        self.order.push_back(page);
        *self.counts.get_or_insert_with(page, || 0) += 1;
        if self.order.len() > self.depth {
            if let Some(old) = self.order.pop_front() {
                if let Some(c) = self.counts.get_mut(old) {
                    *c -= 1;
                }
            }
        }
    }

    /// Whether `page` was evicted within the window.
    pub fn contains(&self, page: PageId) -> bool {
        self.counts.get(page).is_some_and(|&c| c > 0)
    }

    /// How many evictions ago `page` was last evicted (1 = the latest),
    /// if within the window. A linear scan, for diagnostics.
    pub fn distance(&self, page: PageId) -> Option<u64> {
        let d = self.order.iter().rev().position(|&p| p == page)?;
        Some(d as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_pages_stay_until_their_last_copy_leaves() {
        let mut w = EvictionWindow::new(3);
        for p in [5, 6, 5, 7] {
            w.push(PageId(p));
        }
        // Window is [6, 5, 7]: the first 5 left, the second remains.
        assert!(w.contains(PageId(5)));
        assert_eq!(w.distance(PageId(5)), Some(2));
        w.push(PageId(8));
        w.push(PageId(9));
        assert!(!w.contains(PageId(5)));
        assert_eq!(w.distance(PageId(5)), None);
        assert!(!w.contains(PageId(1 << 40)));
    }

    #[test]
    fn zero_depth_remembers_nothing() {
        let mut w = EvictionWindow::new(0);
        w.push(PageId(1));
        assert!(!w.contains(PageId(1)));
    }
}
