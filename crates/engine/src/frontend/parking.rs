//! The idle-session parking lot.
//!
//! A waiting terminal costs a [`ParkedSession`] record — a few dozen
//! bytes — not a full sample-buffer-bearing [`Session`](crate::Session).
//! The lot is a deadline-ordered min-heap: the front-end materialises
//! (rehydrates) records in earliest-deadline order as worker capacity
//! frees up, so millions of terminals can be resident while only
//! `shards × arrays_per_shard` (plus the small materialisation window)
//! ever own sample buffers.
//!
//! The heap storage can be preallocated with
//! [`ParkingLot::with_capacity`], after which parking a session performs
//! **zero heap allocations** — enforced by the counting-allocator test
//! `crates/engine/tests/frontend_footprint.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::session::ParkedSession;

/// Heap entry ordering parked records by (deadline, id) — earliest
/// deadline first, id as the deterministic tie-break.
#[derive(Debug, PartialEq, Eq)]
struct Entry(ParkedSession);

impl Entry {
    fn key(&self) -> (u64, u64) {
        (self.0.deadline(), self.0.id())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Deadline-ordered storage for parked (idle) sessions.
#[derive(Debug, Default)]
pub struct ParkingLot {
    heap: BinaryHeap<Reverse<Entry>>,
    /// High-water mark of concurrently parked records.
    peak: usize,
}

impl ParkingLot {
    /// An empty lot with room for `capacity` records before any heap
    /// growth — park up to that many sessions allocation-free.
    pub fn with_capacity(capacity: usize) -> Self {
        ParkingLot {
            heap: BinaryHeap::with_capacity(capacity),
            peak: 0,
        }
    }

    /// Parks a record. Allocation-free while within capacity.
    pub fn park(&mut self, record: ParkedSession) {
        self.heap.push(Reverse(Entry(record)));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Removes and returns the earliest-deadline record.
    pub fn pop_earliest(&mut self) -> Option<ParkedSession> {
        self.heap.pop().map(|Reverse(Entry(r))| r)
    }

    /// Currently parked records.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of concurrently parked records.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Heap bytes backing the lot's storage (capacity, not length — the
    /// honest resident-footprint number).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Reverse<Entry>>()
    }

    /// Heap bytes per parked record at the current occupancy (40.0 for a
    /// lot filled to its capacity, which `frontend_backpressure` pins at a
    /// million records); `None` while empty.
    pub fn bytes_per_parked(&self) -> Option<f64> {
        if self.heap.is_empty() {
            None
        } else {
            Some(self.heap_bytes() as f64 / self.heap.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_deadline_order_with_id_tiebreak() {
        let mut lot = ParkingLot::default();
        lot.park(ParkedSession::new_wcdma(2, 7, 5_000));
        lot.park(ParkedSession::new_wcdma(1, 7, 5_000));
        lot.park(ParkedSession::new_wcdma(0, 7, 100));
        assert_eq!(lot.len(), 3);
        assert_eq!(lot.peak(), 3);
        let order: Vec<u64> = std::iter::from_fn(|| lot.pop_earliest().map(|r| r.id())).collect();
        assert_eq!(order, vec![0, 1, 2], "deadline first, id as tie-break");
        assert!(lot.is_empty());
        assert_eq!(lot.peak(), 3, "peak survives draining");
    }

    #[test]
    fn preallocated_lot_reports_footprint() {
        let mut lot = ParkingLot::with_capacity(16);
        assert!(lot.bytes_per_parked().is_none());
        for id in 0..8 {
            lot.park(ParkedSession::new_ofdm(id, id, id * 100));
        }
        let per = lot.bytes_per_parked().unwrap();
        // 16 slots backing 8 records: exactly 2x the record size.
        assert_eq!(per, 2.0 * std::mem::size_of::<ParkedSession>() as f64);
        assert!(lot.heap_bytes() >= 16 * std::mem::size_of::<ParkedSession>());
    }
}
