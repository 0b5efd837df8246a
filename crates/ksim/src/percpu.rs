//! Thread-sharded counters: the `percpu_counter` idiom without CPUs.
//!
//! A statistic bumped on every cache hit or lock acquisition is a write
//! to one shared cache line, so two threads hitting *different* objects
//! still bounce that line between their CPUs and a read path scales
//! backwards. [`Counter`] spreads the writes instead: it is a fixed
//! array of [`SLOTS`] cache-line-padded slots, a thread adds to the slot
//! it was handed on first use, and a snapshot sums the slots. Adds stay
//! exact (each slot is an atomic, so threads that share a slot still
//! add correctly); a snapshot taken while adders run is a sum of slots
//! read at slightly different instants, which is all a statistic needs.
//!
//! A counter carries `N` lanes per slot (one line per thread for a
//! small group of related counts, e.g. a lock class's acquisitions,
//! contentions and hold time). The slot count is a constant, not a knob,
//! and a counter belongs to a *class* of objects (a lock class, a cache
//! shard), never to each object: it costs `SLOTS` cache lines.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots per counter. Threads beyond this share slots round-robin.
pub const SLOTS: usize = 16;

/// One slot, padded to 128 bytes: adjacent-line prefetch pairs 64-byte
/// lines, so 64-byte padding alone would still share.
#[repr(align(128))]
struct Slot<const N: usize>([AtomicU64; N]);

/// Hands out slots to threads in arrival order.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot, `usize::MAX` until its first add.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    })
}

/// A thread-sharded counter of `N` lanes (see the module doc).
pub struct Counter<const N: usize = 1> {
    slots: Box<[Slot<N>]>,
}

impl<const N: usize> Default for Counter<N> {
    fn default() -> Self {
        Counter {
            slots: (0..SLOTS)
                .map(|_| Slot(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }
}

impl<const N: usize> Counter<N> {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to lane `lane` in the calling thread's slot.
    pub fn add(&self, lane: usize, v: u64) {
        self.slots[my_slot()].0[lane].fetch_add(v, Ordering::Relaxed);
    }

    /// Per-lane sums over every slot.
    pub fn sum(&self) -> [u64; N] {
        let mut out = [0u64; N];
        for slot in self.slots.iter() {
            for (o, v) in out.iter_mut().zip(&slot.0) {
                *o += v.load(Ordering::Relaxed);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lanes_sum_independently() {
        let c: Counter<3> = Counter::new();
        c.add(0, 1);
        c.add(2, 5);
        c.add(2, 7);
        assert_eq!(c.sum(), [1, 0, 12]);
    }

    /// More threads than slots: shared slots still add exactly.
    #[test]
    fn concurrent_adds_sum_exactly() {
        const THREADS: usize = 2 * SLOTS + 3;
        const ADDS: u64 = 5_000;
        let c = Arc::new(Counter::<2>::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..ADDS {
                        c.add(0, 1);
                        c.add(1, 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = THREADS as u64 * ADDS;
        assert_eq!(c.sum(), [n, 3 * n]);
    }

    #[test]
    fn slots_are_line_padded() {
        assert_eq!(std::mem::size_of::<Slot<1>>(), 128);
        assert_eq!(std::mem::align_of::<Slot<3>>(), 128);
    }
}
