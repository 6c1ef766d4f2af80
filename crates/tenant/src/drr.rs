//! Deficit round-robin over priority classes.

use crate::class::PriorityClass;
use std::collections::VecDeque;

struct Lane<T> {
    items: VecDeque<T>,
    /// Jobs this lane may still drain in the current rotation before
    /// the cursor moves on. Refilled to the class weight each time the
    /// cursor arrives with an empty deficit.
    deficit: u64,
}

/// A weighted-fair queue: one FIFO lane per [`PriorityClass`], drained
/// by deficit round-robin. Each time the rotating cursor reaches a
/// backlogged lane it grants the lane its class
/// [`weight`](PriorityClass::weight) as a quantum of unit-cost pops;
/// the cursor only advances when the quantum is spent or the lane runs
/// dry. Every non-empty lane is therefore visited once per rotation and
/// pops at least one item — a starved class always drains.
///
/// The scheduler is plain data (no locks, no threads); callers wrap it
/// in whatever synchronization their pool uses.
pub struct DrrScheduler<T> {
    lanes: Vec<Lane<T>>,
    cursor: usize,
    len: usize,
}

impl<T> DrrScheduler<T> {
    pub fn new() -> DrrScheduler<T> {
        DrrScheduler {
            lanes: (0..PriorityClass::COUNT)
                .map(|_| Lane { items: VecDeque::new(), deficit: 0 })
                .collect(),
            cursor: 0,
            len: 0,
        }
    }

    /// Total queued items across all classes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append to the back of `class`'s FIFO lane.
    pub fn push(&mut self, class: PriorityClass, item: T) {
        self.lanes[class.index()].items.push_back(item);
        self.len += 1;
    }

    /// Pop the next item under the DRR discipline, with the class it
    /// was queued on. `None` iff the scheduler is empty.
    pub fn pop(&mut self) -> Option<(PriorityClass, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let at = self.cursor;
            let lane = &mut self.lanes[at];
            if lane.items.is_empty() {
                // an idle lane banks no credit: deficit resets so a
                // burst after idling can't monopolize the workers
                lane.deficit = 0;
                self.cursor = (at + 1) % PriorityClass::COUNT;
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = PriorityClass::from_index(at)
                    .expect("lane index in range")
                    .weight();
            }
            lane.deficit -= 1;
            let item = lane.items.pop_front().expect("checked non-empty");
            self.len -= 1;
            if lane.deficit == 0 || lane.items.is_empty() {
                lane.deficit = 0;
                self.cursor = (at + 1) % PriorityClass::COUNT;
            }
            return Some((
                PriorityClass::from_index(at).expect("lane index in range"),
                item,
            ));
        }
    }
}

impl<T> Default for DrrScheduler<T> {
    fn default() -> DrrScheduler<T> {
        DrrScheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_class_is_fifo() {
        let mut q = DrrScheduler::new();
        for k in 0..5 {
            q.push(PriorityClass::Batch, k);
        }
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, k)| k)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn weights_shape_the_drain_order_under_contention() {
        let mut q = DrrScheduler::new();
        for k in 0..32 {
            q.push(PriorityClass::Interactive, ("i", k));
            q.push(PriorityClass::Batch, ("b", k));
        }
        // Over the first full rotation: 8 interactive then 1 batch.
        let first: Vec<&str> = (0..9).map(|_| q.pop().unwrap().1 .0).collect();
        assert_eq!(&first[..8], &["i"; 8]);
        assert_eq!(first[8], "b");
    }

    #[test]
    fn batch_is_never_starved() {
        let mut q = DrrScheduler::new();
        q.push(PriorityClass::Batch, "b");
        for k in 0..1000 {
            q.push(PriorityClass::Interactive, "i");
            let _ = k;
        }
        // Batch must surface within one rotation (≤ interactive weight
        // pops), despite a 1000-deep interactive backlog.
        let popped_before_batch = std::iter::from_fn(|| q.pop())
            .take_while(|(class, _)| *class != PriorityClass::Batch)
            .count() as u64;
        assert!(popped_before_batch <= PriorityClass::Interactive.weight());
    }

    #[test]
    fn long_run_shares_follow_weights() {
        let mut q = DrrScheduler::new();
        for _ in 0..960 {
            q.push(PriorityClass::Interactive, ());
            q.push(PriorityClass::Standard, ());
            q.push(PriorityClass::Batch, ());
        }
        let mut counts = [0u64; PriorityClass::COUNT];
        // Drain while all three stay backlogged; shares must track
        // 8:3:1 exactly since every rotation grants full quanta.
        for _ in 0..600 {
            let (class, ()) = q.pop().unwrap();
            counts[class.index()] += 1;
        }
        let total_weight: u64 = PriorityClass::ALL.iter().map(|c| c.weight()).sum();
        for class in PriorityClass::ALL {
            let expected = 600 * class.weight() / total_weight;
            let got = counts[class.index()];
            assert!(
                got.abs_diff(expected) <= class.weight(),
                "{class}: got {got}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn idle_lane_banks_no_credit() {
        let mut q = DrrScheduler::new();
        // Interactive drains alone for a while…
        for _ in 0..100 {
            q.push(PriorityClass::Interactive, "i");
        }
        while q.pop().is_some() {}
        // …then batch bursts. It must not replay banked deficit: the
        // next contended rotation still honors the weights.
        for _ in 0..50 {
            q.push(PriorityClass::Batch, "b");
            q.push(PriorityClass::Interactive, "i");
        }
        let first: Vec<&str> = (0..9).map(|_| q.pop().unwrap().1).collect();
        assert_eq!(first.iter().filter(|s| **s == "b").count(), 1);
    }
}
