//! Deferred work: a deterministic kernel workqueue and a writeback flusher.
//!
//! Linux defers IO and housekeeping to workqueues and the writeback
//! daemons; the substrate needs the same facility (the buffer cache's
//! dirty data has to reach the device *eventually*, not just at explicit
//! sync points). Because everything in this workspace is deterministic,
//! the [`WorkQueue`] is pumped explicitly: work items become runnable at a
//! simulated-clock deadline and run, in order, when [`WorkQueue::pump`] is
//! called — no threads, no nondeterminism, same semantics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferCache;
use crate::errno::KResult;
use crate::time::SimClock;

/// A unit of deferred work.
type WorkFn = Box<dyn FnOnce() + Send>;

struct WorkItem {
    due_ns: u64,
    seq: u64,
    name: &'static str,
    work: WorkFn,
}

impl PartialEq for WorkItem {
    fn eq(&self, other: &Self) -> bool {
        (self.due_ns, self.seq) == (other.due_ns, other.seq)
    }
}
impl Eq for WorkItem {}
impl PartialOrd for WorkItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorkItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_ns, self.seq).cmp(&(other.due_ns, other.seq))
    }
}

/// Statistics for a work queue.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkQueueStats {
    /// Items enqueued.
    pub queued: u64,
    /// Items executed.
    pub executed: u64,
}

/// A deterministic deferred-work queue driven by the simulated clock.
pub struct WorkQueue {
    clock: Arc<SimClock>,
    heap: Mutex<BinaryHeap<Reverse<WorkItem>>>,
    seq: AtomicU64,
    stats: Mutex<WorkQueueStats>,
}

impl WorkQueue {
    /// Creates a queue driven by `clock`.
    pub fn new(clock: Arc<SimClock>) -> Arc<WorkQueue> {
        Arc::new(WorkQueue {
            clock,
            heap: Mutex::new(BinaryHeap::new()),
            seq: AtomicU64::new(0),
            stats: Mutex::new(WorkQueueStats::default()),
        })
    }

    /// Enqueues `work` to run at the next pump.
    pub fn queue_work(&self, name: &'static str, work: impl FnOnce() + Send + 'static) {
        self.queue_delayed(name, 0, work);
    }

    /// Enqueues `work` to run once the clock has advanced `delay_ns`.
    pub fn queue_delayed(
        &self,
        name: &'static str,
        delay_ns: u64,
        work: impl FnOnce() + Send + 'static,
    ) {
        let due_ns = self.clock.now_ns().saturating_add(delay_ns);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.heap.lock().push(Reverse(WorkItem {
            due_ns,
            seq,
            name,
            work: Box::new(work),
        }));
        self.stats.lock().queued += 1;
    }

    /// Enqueues `work` to run every `interval_ns`, kupdate-style: the
    /// item re-arms itself after each run, so the callback keeps firing
    /// at every interval boundary for as long as the queue is pumped.
    /// The queue holds only a weak self-reference, so dropping every
    /// external `Arc<WorkQueue>` stops the timer. This is the periodic
    /// half the one-shot [`WorkQueue::queue_delayed`] can't express
    /// without the caller manually re-arming — the journal's timer
    /// commit (and anything else `kupdate`-shaped) hangs off it.
    pub fn queue_periodic(
        self: &Arc<Self>,
        name: &'static str,
        interval_ns: u64,
        work: impl Fn() + Send + Sync + 'static,
    ) {
        fn arm(
            wq: &Arc<WorkQueue>,
            name: &'static str,
            interval_ns: u64,
            work: Arc<dyn Fn() + Send + Sync>,
        ) {
            let weak = Arc::downgrade(wq);
            wq.queue_delayed(name, interval_ns, move || {
                work();
                if let Some(wq) = weak.upgrade() {
                    arm(&wq, name, interval_ns, work);
                }
            });
        }
        arm(self, name, interval_ns, Arc::new(work));
    }

    /// Runs every item due at the current simulated time, in deadline (then
    /// FIFO) order. Items enqueued *by running work* run too if already
    /// due. Returns the number executed.
    pub fn pump(&self) -> usize {
        let mut ran = 0;
        loop {
            let item = {
                let mut heap = self.heap.lock();
                match heap.peek() {
                    Some(Reverse(item)) if item.due_ns <= self.clock.now_ns() => {
                        heap.pop().map(|Reverse(i)| i)
                    }
                    _ => None,
                }
            };
            let Some(item) = item else { break };
            let _ = item.name;
            (item.work)();
            self.stats.lock().executed += 1;
            ran += 1;
        }
        ran
    }

    /// Items waiting (due or not).
    pub fn pending(&self) -> usize {
        self.heap.lock().len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> WorkQueueStats {
        *self.stats.lock()
    }
}

/// A deferred maintenance callback run by the [`Flusher`] each pass —
/// e.g. draining a journal's checkpoint backlog before cache writeback.
pub type FlushHook = Box<dyn Fn() -> KResult<()> + Send + Sync>;

/// The writeback daemon: periodically flushes the buffer cache through a
/// work queue, rescheduling itself — the substrate's `pdflush`.
pub struct Flusher {
    cache: Arc<BufferCache>,
    wq: Arc<WorkQueue>,
    interval_ns: u64,
    flushes: AtomicU64,
    hooks: Mutex<Vec<FlushHook>>,
}

impl Flusher {
    /// Creates a flusher over `cache`, waking every `interval_ns`.
    pub fn new(cache: Arc<BufferCache>, wq: Arc<WorkQueue>, interval_ns: u64) -> Arc<Flusher> {
        Arc::new(Flusher {
            cache,
            wq,
            interval_ns,
            flushes: AtomicU64::new(0),
            hooks: Mutex::new(Vec::new()),
        })
    }

    /// Registers a hook that runs at the start of every flush pass (the
    /// journal's deferred-checkpoint drain rides the writeback daemon this
    /// way, like jbd2's kjournald riding behind the flusher threads).
    pub fn add_hook(&self, hook: impl Fn() -> KResult<()> + Send + Sync + 'static) {
        self.hooks.lock().push(Box::new(hook));
    }

    /// Arms the first wakeup.
    pub fn start(self: &Arc<Self>) {
        let me = Arc::clone(self);
        self.wq
            .queue_delayed("flusher", self.interval_ns, move || me.run_once());
    }

    fn run_once(self: Arc<Self>) {
        let _ = self.flush_now();
        let me = Arc::clone(&self);
        self.wq
            .queue_delayed("flusher", self.interval_ns, move || me.run_once());
    }

    /// Flushes immediately (also used by sync paths). Hooks run first so
    /// journal checkpoints retire their records, and so release those
    /// records' Delay pins, before writeback collects the dirty set; the first error wins but writeback still
    /// runs.
    pub fn flush_now(&self) -> KResult<()> {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        let mut first_err = Ok(());
        for hook in self.hooks.lock().iter() {
            let res = hook();
            if first_err.is_ok() {
                first_err = res;
            }
        }
        self.cache.sync_all()?;
        first_err
    }

    /// Number of writeback passes performed.
    pub fn flush_count(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockDevice, RamDisk, BLOCK_SIZE};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn immediate_work_runs_on_pump() {
        let clock = Arc::new(SimClock::new());
        let wq = WorkQueue::new(Arc::clone(&clock));
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        wq.queue_work("t", move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(wq.pending(), 1);
        assert_eq!(wq.pump(), 1);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        assert_eq!(wq.pending(), 0);
    }

    #[test]
    fn delayed_work_waits_for_the_clock() {
        let clock = Arc::new(SimClock::new());
        let wq = WorkQueue::new(Arc::clone(&clock));
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        wq.queue_delayed("t", 100, move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(wq.pump(), 0, "not due yet");
        clock.advance(99);
        assert_eq!(wq.pump(), 0);
        clock.advance(1);
        assert_eq!(wq.pump(), 1);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn due_items_run_in_deadline_then_fifo_order() {
        let clock = Arc::new(SimClock::new());
        let wq = WorkQueue::new(Arc::clone(&clock));
        let log = Arc::new(Mutex::new(Vec::new()));
        for (delay, tag) in [(50u64, "b"), (10, "a"), (50, "c")] {
            let log = Arc::clone(&log);
            wq.queue_delayed("t", delay, move || log.lock().push(tag));
        }
        clock.advance(100);
        assert_eq!(wq.pump(), 3);
        assert_eq!(*log.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn work_can_enqueue_more_work() {
        let clock = Arc::new(SimClock::new());
        let wq = WorkQueue::new(Arc::clone(&clock));
        let counter = Arc::new(AtomicUsize::new(0));
        let wq2 = Arc::clone(&wq);
        let c = Arc::clone(&counter);
        wq.queue_work("outer", move || {
            let c2 = Arc::clone(&c);
            c.fetch_add(1, Ordering::Relaxed);
            wq2.queue_work("inner", move || {
                c2.fetch_add(10, Ordering::Relaxed);
            });
        });
        assert_eq!(wq.pump(), 2, "chained item ran in the same pump");
        assert_eq!(counter.load(Ordering::Relaxed), 11);
        assert_eq!(wq.stats().executed, 2);
    }

    #[test]
    fn periodic_work_rearms_itself_each_interval() {
        let clock = Arc::new(SimClock::new());
        let wq = WorkQueue::new(Arc::clone(&clock));
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        wq.queue_periodic("kupdate", 100, move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(wq.pump(), 0, "not due before the first interval");
        for tick in 1..=3 {
            clock.advance(100);
            assert_eq!(wq.pump(), 1);
            assert_eq!(counter.load(Ordering::Relaxed), tick);
        }
        // A large jump runs the item once, then re-arms from *now* — the
        // deterministic analogue of kupdate catching up after a stall.
        clock.advance(1_000);
        assert_eq!(wq.pump(), 1);
        assert_eq!(wq.pending(), 1, "still armed for the next interval");
    }

    #[test]
    fn flush_hooks_run_before_writeback_and_errors_surface() {
        let clock = Arc::new(SimClock::new());
        let dev = Arc::new(RamDisk::with_geometry(16, BLOCK_SIZE, Arc::clone(&clock)));
        let cache = Arc::new(BufferCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            8,
        ));
        let wq = WorkQueue::new(Arc::clone(&clock));
        let flusher = Flusher::new(Arc::clone(&cache), Arc::clone(&wq), 1_000);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        flusher.add_hook(move || {
            r.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        flusher.add_hook(|| Err(crate::errno::Errno::EIO));
        assert_eq!(flusher.flush_now(), Err(crate::errno::Errno::EIO));
        assert_eq!(ran.load(Ordering::Relaxed), 1, "earlier hooks still ran");
        assert_eq!(flusher.flush_count(), 1);
    }

    #[test]
    fn flusher_writes_back_dirty_buffers_periodically() {
        let clock = Arc::new(SimClock::new());
        let dev = Arc::new(RamDisk::with_geometry(16, BLOCK_SIZE, Arc::clone(&clock)));
        let cache = Arc::new(BufferCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            8,
        ));
        let wq = WorkQueue::new(Arc::clone(&clock));
        let flusher = Flusher::new(Arc::clone(&cache), Arc::clone(&wq), 1_000_000);
        flusher.start();

        let buf = cache.bread(3).unwrap();
        buf.write(|d| d[0] = 0xDD);
        // Not yet flushed: the raw device still has zeros... but the IO
        // latency model advanced the clock during bread; pump only runs
        // the flusher once its interval elapses from arming time.
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 0);
        clock.advance(1_000_000);
        assert!(wq.pump() >= 1);
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 0xDD, "the daemon wrote it back");
        assert!(flusher.flush_count() >= 1);
        // And it re-armed itself.
        assert_eq!(wq.pending(), 1);
        clock.advance(1_000_000);
        assert!(wq.pump() >= 1);
        assert!(flusher.flush_count() >= 2);
    }
}
