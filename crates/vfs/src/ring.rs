//! Typed submission/completion rings over the modular file system
//! interface — io_uring's shape, with the paper's ownership discipline.
//!
//! The per-call VFS boundary costs one crossing per operation; at
//! hundreds of thousands of ops per second the boundary itself becomes
//! the bottleneck. The ring amortizes it: clients enqueue typed SQEs
//! ([`crate::modular::BatchOp`]) whose payload buffers *move into* the
//! ring, a reactor thread drains whole batches into one
//! [`FileSystem::submit_batch`] call, and CQEs ([`Cqe`]) return each
//! result together with the buffer, ownership restored to the submitter.
//! No `void *` user_data, no borrowed buffers that the kernel might
//! outlive — the type system enforces what io_uring documents.
//!
//! Backpressure is structural, never advisory:
//!
//! - a full submission queue **blocks the submitter** in
//!   [`Ring::submit`] until the reactor drains entries — clients cannot
//!   out-run the file system into unbounded queues;
//! - the reactor consults a [`RingThrottle`] (journal log pressure)
//!   **between batches** and relieves it (commit + checkpoint) before
//!   admitting more work, so a slow disk propagates to blocked
//!   submitters instead of ballooning the running transaction.
//!
//! The ring's own lock is a [`TrackedMutex`] in the mounted system's
//! lockdep registry, so the reactor path is ordered against the file
//! system's classes like every other hot path. The lock is never held
//! across a file system call: drain, release, process, re-acquire to
//! post completions.
//!
//! One ring supports **N reactors** draining it concurrently
//! (work-stealing): each batch claim happens under the state lock, so
//! a batch is owned by exactly one reactor, and the claim grain
//! ([`Ring::set_claim_grain`], set automatically by the pool spawners)
//! splits a full queue across the pool instead of letting one reactor
//! take everything. Completions use *batched* CQE wakeups — one
//! broadcast per posted batch rather than one notify per ticket — and
//! idle reactors follow an adaptive spin-then-park policy so a busy
//! ring never pays a park/unpark per batch. Every wake is gated on a
//! count of threads parked on that condvar, kept under the state lock:
//! a submit wakes a reactor only if one is parked, a drain wakes at most
//! one parked submitter per freed slot, and a post broadcasts only if a
//! client is parked, so no wake goes to nobody.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use sk_core::modularity::InterfaceHandle;
use sk_ksim::lock::{LockRegistry, TrackedMutex, TrackedMutexGuard};

use crate::migrate::SwapGate;
use crate::modular::{BatchOp, BatchReply, FileSystem};

/// Completion-queue entry: the submission's ticket plus its typed reply
/// (result and, for ops that carried one, the buffer — returned on
/// success *and* failure).
#[derive(Debug)]
pub struct Cqe {
    /// The ticket [`Ring::submit`] returned for this op.
    pub ticket: u64,
    /// The op's outcome, buffer ownership included.
    pub reply: BatchReply,
}

/// Ring traffic counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct RingStats {
    /// SQEs accepted.
    pub submitted: u64,
    /// CQEs posted.
    pub completed: u64,
    /// Batches handed to [`FileSystem::submit_batch`].
    pub batches: u64,
    /// Times a submitter blocked on a full submission queue — the
    /// structural-backpressure counter.
    pub sq_full_blocks: u64,
    /// Times the reactor stalled a batch to relieve log pressure.
    pub throttle_stalls: u64,
}

struct RingState {
    sq: VecDeque<(u64, BatchOp)>,
    cq: HashMap<u64, BatchReply>,
    next_ticket: u64,
    shutdown: bool,
    /// Threads parked on each condvar, counted under this lock so a
    /// signaller skips the wake syscall when nobody is there to wake.
    parked: Parked,
}

#[derive(Default)]
struct Parked {
    /// Submitters blocked on a full queue (`sq_space`).
    submitters: usize,
    /// Reactors idle on an empty queue (`sq_ready`).
    reactors: usize,
    /// Clients blocked in [`Ring::wait`] (`cq_ready`).
    waiters: usize,
}

/// Waits on `cv` with `count` raised for the duration, so the signalling
/// side, which reads the count under the same lock, knows to wake. A
/// counted thread is always inside the wait (or woken and about to
/// retake the lock), so no signal the count asks for can be lost.
fn park(
    st: &mut TrackedMutexGuard<'_, RingState>,
    cv: &Condvar,
    count: fn(&mut Parked) -> &mut usize,
) {
    *count(&mut st.parked) += 1;
    st.wait(cv);
    *count(&mut st.parked) -= 1;
}

/// A fixed-depth submission/completion ring bound to one reactor.
///
/// `depth` bounds the submission queue: [`Ring::submit`] blocks while
/// the queue is full, and the reactor drains at most `depth` SQEs per
/// batch, so `depth` is also the batching grain the sweep in
/// `bench_report` varies.
pub struct Ring {
    depth: usize,
    /// Per-claim drain cap. `depth` for a lone reactor; the pool
    /// spawners set it to `depth / reactors` so one batch claim cannot
    /// starve the rest of the pool — the work-stealing grain.
    claim: AtomicUsize,
    state: TrackedMutex<RingState>,
    /// Signalled when the submission queue gains room.
    sq_space: Condvar,
    /// Signalled when the submission queue gains entries (or shutdown).
    sq_ready: Condvar,
    /// Batched CQE wakeup: one broadcast per posted batch. Waiters
    /// re-check their own ticket under the state lock; at any real
    /// depth most parked clients have a completion in the batch that
    /// woke them, so the broadcast replaces a notify-per-ticket storm
    /// with a single call.
    cq_ready: Condvar,
    /// Lock-free mirror of `sq.len()` for the spin phase of the idle
    /// policy — reactors peek at it without touching the state lock.
    sq_len: AtomicUsize,
    /// Adaptive spin budget shared by all reactors on this ring:
    /// doubled when a spin finds work (arrivals outpace park cost),
    /// halved when a spin expires and the reactor parks.
    spin_budget: AtomicU32,
    /// Claimed by the one reactor relieving throttle pressure; the
    /// others admit their batch instead of stacking redundant
    /// commit+checkpoint cycles behind the same journal group lock.
    relieving: AtomicBool,
    /// Leaf counters; never held across another acquisition.
    stats: Mutex<RingStats>,
}

/// Spin-budget bounds for the adaptive idle policy (iterations of
/// [`std::hint::spin_loop`] between queue peeks).
const SPIN_MIN: u32 = 64;
const SPIN_MAX: u32 = 4096;

impl Ring {
    /// Creates a ring of the given depth, its lock reporting to
    /// `registry` so lockdep covers the submit/reactor path.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(registry: &Arc<LockRegistry>, depth: usize) -> Ring {
        assert!(depth > 0, "ring depth must be at least 1");
        Ring {
            depth,
            claim: AtomicUsize::new(depth),
            state: TrackedMutex::new(
                registry,
                "vfs.ring",
                RingState {
                    sq: VecDeque::with_capacity(depth),
                    cq: HashMap::new(),
                    next_ticket: 1,
                    shutdown: false,
                    parked: Parked::default(),
                },
            ),
            sq_space: Condvar::new(),
            sq_ready: Condvar::new(),
            cq_ready: Condvar::new(),
            sq_len: AtomicUsize::new(0),
            spin_budget: AtomicU32::new(SPIN_MIN),
            relieving: AtomicBool::new(false),
            stats: Mutex::new(RingStats::default()),
        }
    }

    /// The submission-queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Caps how many SQEs one batch claim may take, clamped to
    /// `[1, depth]`. The pool spawners call this with
    /// `depth / reactors`; callers running a single reactor can leave
    /// the default (`depth`).
    pub fn set_claim_grain(&self, grain: usize) {
        self.claim
            .store(grain.clamp(1, self.depth), Ordering::Relaxed);
    }

    /// Traffic counters.
    pub fn stats(&self) -> RingStats {
        *self.stats.lock()
    }

    /// Enqueues one typed operation, transferring ownership of any
    /// payload buffer into the ring. Blocks while the submission queue
    /// is full — ring-full *is* the backpressure contract. Returns the
    /// ticket to pass to [`Ring::wait`].
    ///
    /// After [`Ring::shutdown`] the op is handed straight back
    /// (`Err(op)`), buffer included — a refused submission never leaks.
    pub fn submit(&self, op: BatchOp) -> Result<u64, BatchOp> {
        let mut st = self.state.lock();
        if st.sq.len() >= self.depth && !st.shutdown {
            self.stats.lock().sq_full_blocks += 1;
            while st.sq.len() >= self.depth && !st.shutdown {
                park(&mut st, &self.sq_space, |p| &mut p.submitters);
            }
        }
        if st.shutdown {
            return Err(op);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.sq.push_back((ticket, op));
        self.sq_len.store(st.sq.len(), Ordering::Relaxed);
        self.stats.lock().submitted += 1;
        if st.parked.reactors > 0 {
            self.sq_ready.notify_one();
        }
        Ok(ticket)
    }

    /// Blocks until `ticket`'s completion arrives, then returns it.
    ///
    /// Every ticket [`Ring::submit`] accepted is eventually completed —
    /// the reactor drains the residual queue on shutdown — and each
    /// ticket's CQE can be claimed exactly once.
    pub fn wait(&self, ticket: u64) -> Cqe {
        let mut st = self.state.lock();
        loop {
            if let Some(reply) = st.cq.remove(&ticket) {
                return Cqe { ticket, reply };
            }
            park(&mut st, &self.cq_ready, |p| &mut p.waiters);
        }
    }

    /// Non-blocking [`Ring::wait`].
    pub fn try_reap(&self, ticket: u64) -> Option<Cqe> {
        self.state
            .lock()
            .cq
            .remove(&ticket)
            .map(|reply| Cqe { ticket, reply })
    }

    /// Marks the ring closed: subsequent submissions are refused and the
    /// reactor exits once the residual queue is drained.
    pub fn shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.sq_ready.notify_all();
        self.sq_space.notify_all();
    }

    /// The spin phase of the idle policy: burns the current budget
    /// peeking at the lock-free queue-length mirror before the caller
    /// falls back to parking on `sq_ready`. The budget adapts — work
    /// found while spinning doubles it (arrivals are fast enough that
    /// parking costs more than it saves), an expired spin halves it so
    /// a quiet ring converges to parking almost immediately.
    fn spin_for_work(&self) {
        let budget = self.spin_budget.load(Ordering::Relaxed);
        for _ in 0..budget {
            if self.sq_len.load(Ordering::Relaxed) > 0 {
                self.spin_budget
                    .store((budget * 2).min(SPIN_MAX), Ordering::Relaxed);
                return;
            }
            std::hint::spin_loop();
        }
        self.spin_budget
            .store((budget / 2).max(SPIN_MIN), Ordering::Relaxed);
    }

    /// Claims up to one grain of SQEs, blocking until at least one is
    /// available. Space is released to submitters *before* the batch is
    /// processed, so clients refill the queue while the reactor works.
    /// The claim happens under the state lock, so with N reactors each
    /// SQE is drained by exactly one of them. Returns an empty batch
    /// only when the ring is shut down and fully drained.
    fn drain_batch(&self) -> Vec<(u64, BatchOp)> {
        self.spin_for_work();
        let mut st = self.state.lock();
        while st.sq.is_empty() && !st.shutdown {
            park(&mut st, &self.sq_ready, |p| &mut p.reactors);
        }
        self.take_sqes(st, self.claim.load(Ordering::Relaxed))
    }

    /// Takes up to `cap` SQEs off the queue, then wakes one parked
    /// submitter per freed slot, and no more than are parked — a
    /// broadcast would wake every parked client for a single slot at
    /// depth 1, and a wake with nobody parked is a wasted syscall.
    fn take_sqes(
        &self,
        mut st: TrackedMutexGuard<'_, RingState>,
        cap: usize,
    ) -> Vec<(u64, BatchOp)> {
        let take = st.sq.len().min(cap);
        let batch: Vec<(u64, BatchOp)> = st.sq.drain(..take).collect();
        self.sq_len.store(st.sq.len(), Ordering::Relaxed);
        let wakes = take.min(st.parked.submitters);
        drop(st);
        for _ in 0..wakes {
            self.sq_space.notify_one();
        }
        batch
    }

    /// Posts one reply per drained SQE, then wakes waiters with a
    /// single broadcast — the batched CQE wakeup — if any client is
    /// parked. One notify per *batch*, not per ticket: at any real depth
    /// most parked clients have a completion in the batch, so the
    /// per-ticket bookkeeping bought nothing and cost a waiter map under
    /// the hot lock.
    fn post(&self, tickets: Vec<u64>, replies: Vec<BatchReply>) {
        debug_assert_eq!(tickets.len(), replies.len());
        let n = replies.len() as u64;
        let waiters = {
            let mut st = self.state.lock();
            for (ticket, reply) in tickets.into_iter().zip(replies) {
                st.cq.insert(ticket, reply);
            }
            st.parked.waiters
        };
        if waiters > 0 {
            self.cq_ready.notify_all();
        }
        let mut stats = self.stats.lock();
        stats.completed += n;
        stats.batches += 1;
    }

    /// One reactor step: drain a batch (blocking until work or
    /// shutdown), relieve the throttle if it reads at or over threshold,
    /// process the batch through `fs`, post completions. Returns `false`
    /// once the ring is shut down and drained — the reactor loop's exit.
    pub fn reactor_tick(&self, fs: &dyn FileSystem, throttle: Option<&RingThrottle>) -> bool {
        let batch = self.drain_batch();
        if batch.is_empty() {
            return false;
        }
        self.relieve(throttle);
        let (tickets, ops): (Vec<u64>, Vec<BatchOp>) = batch.into_iter().unzip();
        let replies = fs.submit_batch(ops);
        self.post(tickets, replies);
        true
    }

    /// Relieves the throttle until the pressure reading drops below
    /// threshold — bounded, so a wedged (EROFS) journal cannot spin the
    /// reactor; the batch is then admitted and fails op by op.
    ///
    /// With N reactors the pressure reading is shared, so only one of
    /// them relieves at a time (the `relieving` flag): the others admit
    /// their batch instead of stacking redundant commit+checkpoint
    /// cycles behind the same journal group lock. Pressure is re-read
    /// before every batch, so an admission that raced past the reliever
    /// stalls on its next tick if relief did not land.
    fn relieve(&self, throttle: Option<&RingThrottle>) {
        let Some(t) = throttle else { return };
        if (t.pressure)() < t.threshold {
            return;
        }
        if self
            .relieving
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let mut rounds = 0;
        while (t.pressure)() >= t.threshold && rounds < 8 {
            self.stats.lock().throttle_stalls += 1;
            (t.relieve)();
            rounds += 1;
        }
        self.relieving.store(false, Ordering::Release);
    }

    /// Blocks until the submission queue is non-empty or the ring is
    /// shut down (spinning first, per the idle policy). Returns `false`
    /// only when shut down *and* drained. Nothing is removed: gated
    /// reactors park here with the swap gate released, so a migrator
    /// never finds SQEs trapped in a reactor's hands mid-handoff — with
    /// N reactors, *all* of them idle here between batches, which is
    /// why the SwapGate handshake needs no per-reactor bookkeeping.
    fn wait_ready(&self) -> bool {
        self.spin_for_work();
        let mut st = self.state.lock();
        while st.sq.is_empty() && !st.shutdown {
            park(&mut st, &self.sq_ready, |p| &mut p.reactors);
        }
        !(st.sq.is_empty() && st.shutdown)
    }

    /// Claims up to one grain of SQEs without blocking.
    fn drain_nonblocking(&self) -> Vec<(u64, BatchOp)> {
        self.take_sqes(self.state.lock(), self.claim.load(Ordering::Relaxed))
    }

    /// One generation-aware reactor step — the swap-hazard fix. The
    /// plain [`Ring::reactor_tick`] captures one `Arc<dyn FileSystem>`
    /// for the reactor's lifetime, so SQEs processed after a registry
    /// swap still execute against the retired generation and their
    /// effects are lost from the new one. This tick instead:
    ///
    /// 1. waits for work with the gate **released** (a parked reactor
    ///    must not hold SQEs hostage across a handoff — the migrator
    ///    drains the queue itself while the gate is closed);
    /// 2. enters the gate shared, like any other admission;
    /// 3. drains without blocking and dispatches through the interface
    ///    handle, so the batch runs against whichever generation is
    ///    current *at processing time*.
    ///
    /// An empty drain after the wait is the benign race where a migrator
    /// took the queued SQEs first; the reactor just parks again.
    pub fn reactor_tick_gated(
        &self,
        fs: &InterfaceHandle<dyn FileSystem>,
        gate: &SwapGate,
        throttle: Option<&RingThrottle>,
    ) -> bool {
        if !self.wait_ready() {
            return false;
        }
        let _admission = gate.enter();
        let batch = self.drain_nonblocking();
        if batch.is_empty() {
            return true;
        }
        self.relieve(throttle);
        let (tickets, ops): (Vec<u64>, Vec<BatchOp>) = batch.into_iter().unzip();
        let replies = fs.get().submit_batch(ops);
        self.post(tickets, replies);
        true
    }

    /// Deterministic single-step drain for tests: processes whatever is
    /// queued right now (no blocking) and returns how many ops
    /// completed.
    pub fn drain_once(&self, fs: &dyn FileSystem) -> usize {
        let batch = self.take_sqes(self.state.lock(), self.depth);
        if batch.is_empty() {
            return 0;
        }
        let (tickets, ops): (Vec<u64>, Vec<BatchOp>) = batch.into_iter().unzip();
        let n = ops.len();
        let replies = fs.submit_batch(ops);
        self.post(tickets, replies);
        n
    }
}

/// The reactor's admission throttle: a pressure reading (journal log
/// pressure via `Journal::log_pressure`) plus the action that relieves
/// it (commit the running transaction, checkpoint). Checked between
/// batches, so relief time is charged to the ring — submitters stay
/// blocked on a full queue — rather than to an unbounded running
/// transaction.
pub struct RingThrottle {
    /// Current pressure in `[0, 1]`-ish; compared against `threshold`.
    pub pressure: Box<dyn Fn() -> f32 + Send + Sync>,
    /// Action that lowers the reading.
    pub relieve: Box<dyn Fn() + Send + Sync>,
    /// Admission stalls while `pressure() >= threshold`.
    pub threshold: f32,
}

/// The reactor thread: drains SQE batches from a [`Ring`] into a
/// [`FileSystem`] until shutdown. Dropping joins the thread (after
/// shutting the ring down), so accepted submissions always complete.
pub struct RingReactor {
    ring: Arc<Ring>,
    handle: Option<JoinHandle<()>>,
}

impl RingReactor {
    /// Starts `reactors` work-stealing reactors over one `ring` — each
    /// claims batches of at most `depth / reactors` SQEs (the claim
    /// grain), so a full queue splits across the pool. Dropping (or
    /// joining) any reactor in the returned pool shuts the ring down;
    /// the rest exit once the residual queue is drained, and their own
    /// drops join them.
    ///
    /// # Panics
    ///
    /// Panics if `reactors == 0`.
    pub fn spawn_pool(
        ring: Arc<Ring>,
        fs: Arc<dyn FileSystem>,
        throttle: Option<Arc<RingThrottle>>,
        reactors: usize,
    ) -> Vec<RingReactor> {
        assert!(reactors > 0, "reactor pool must have at least one reactor");
        ring.set_claim_grain(ring.depth() / reactors);
        (0..reactors)
            .map(|i| {
                let r = Arc::clone(&ring);
                let fs = Arc::clone(&fs);
                let throttle = throttle.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("ring-reactor-{i}"))
                    .spawn(move || while r.reactor_tick(fs.as_ref(), throttle.as_deref()) {})
                    .expect("spawn ring reactor");
                RingReactor {
                    ring: Arc::clone(&ring),
                    handle: Some(handle),
                }
            })
            .collect()
    }

    /// Starts `reactors` generation-aware reactors over one `ring`:
    /// batches are dispatched through `handle` under a shared hold of
    /// `gate`, so every SQE completes against the generation that is
    /// current when it is processed — see [`Ring::reactor_tick_gated`].
    /// This is the pool to use on a [`Vfs`](crate::path::Vfs) whose
    /// backend may be hot-swapped by a
    /// [`Migrator`](crate::migrate::Migrator). Every reactor parks in
    /// `wait_ready` *outside* its shared gate hold, so a migrator closing
    /// the [`SwapGate`] sees the whole pool idle and drains queued SQEs
    /// itself.
    ///
    /// # Panics
    ///
    /// Panics if `reactors == 0`.
    pub fn spawn_gated_pool(
        ring: Arc<Ring>,
        handle: InterfaceHandle<dyn FileSystem>,
        gate: Arc<SwapGate>,
        throttle: Option<Arc<RingThrottle>>,
        reactors: usize,
    ) -> Vec<RingReactor> {
        assert!(reactors > 0, "reactor pool must have at least one reactor");
        ring.set_claim_grain(ring.depth() / reactors);
        (0..reactors)
            .map(|i| {
                let r = Arc::clone(&ring);
                let handle = handle.clone();
                let gate = Arc::clone(&gate);
                let throttle = throttle.clone();
                let h = std::thread::Builder::new()
                    .name(format!("ring-reactor-{i}"))
                    .spawn(
                        move || {
                            while r.reactor_tick_gated(&handle, &gate, throttle.as_deref()) {}
                        },
                    )
                    .expect("spawn ring reactor");
                RingReactor {
                    ring: Arc::clone(&ring),
                    handle: Some(h),
                }
            })
            .collect()
    }

    /// Shuts the ring down and joins the reactor once the residual
    /// queue is drained.
    pub fn join(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.ring.shutdown();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RingReactor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;
    use crate::modular::BatchOp;

    #[test]
    fn submit_process_reap_roundtrip() {
        let registry = LockRegistry::new();
        let ring = Arc::new(Ring::new(&registry, 32));
        let fs = MemFs::new();
        let root = fs.root_ino();

        let t_create = ring
            .submit(BatchOp::Create {
                dir: root,
                name: "f".into(),
            })
            .unwrap();
        assert_eq!(ring.drain_once(&fs), 1);
        let ino = match ring.wait(t_create).reply {
            BatchReply::Create(Ok(ino)) => ino,
            other => panic!("create reply: {other:?}"),
        };

        let t_write = ring
            .submit(BatchOp::Write {
                ino,
                off: 0,
                data: b"ring".to_vec(),
            })
            .unwrap();
        let t_read = ring
            .submit(BatchOp::Read {
                ino,
                off: 0,
                buf: vec![0u8; 4],
            })
            .unwrap();
        assert_eq!(ring.drain_once(&fs), 2);
        match ring.wait(t_write).reply {
            BatchReply::Write { result, buf } => {
                assert_eq!(result, Ok(4));
                assert_eq!(buf, b"ring");
            }
            other => panic!("write reply: {other:?}"),
        }
        match ring.wait(t_read).reply {
            BatchReply::Read { result, buf } => {
                assert_eq!(result, Ok(4));
                assert_eq!(buf, b"ring");
            }
            other => panic!("read reply: {other:?}"),
        }
        assert_eq!(ring.stats().submitted, 3);
        assert_eq!(ring.stats().completed, 3);
        assert_eq!(registry.violations().len(), 0);
    }

    #[test]
    fn failed_ops_return_their_buffers() {
        let registry = LockRegistry::new();
        let ring = Arc::new(Ring::new(&registry, 4));
        let fs = MemFs::new();
        // Write to a nonexistent inode: the op fails, the buffer comes back.
        let t = ring
            .submit(BatchOp::Write {
                ino: 9999,
                off: 0,
                data: vec![7u8; 16],
            })
            .unwrap();
        ring.drain_once(&fs);
        match ring.wait(t).reply {
            BatchReply::Write { result, buf } => {
                assert!(result.is_err());
                assert_eq!(buf, vec![7u8; 16]);
            }
            other => panic!("reply: {other:?}"),
        }
    }

    #[test]
    fn shutdown_refuses_new_submissions_with_buffer_returned() {
        let registry = LockRegistry::new();
        let ring = Arc::new(Ring::new(&registry, 4));
        ring.shutdown();
        let refused = ring.submit(BatchOp::Write {
            ino: 1,
            off: 0,
            data: vec![1, 2, 3],
        });
        match refused {
            Err(BatchOp::Write { data, .. }) => assert_eq!(data, vec![1, 2, 3]),
            other => panic!("expected refusal with buffer, got {other:?}"),
        }
    }

    #[test]
    fn reactor_pool_splits_work_and_completes_everything() {
        let registry = LockRegistry::new();
        let ring = Arc::new(Ring::new(&registry, 64));
        let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let root = fs.root_ino();
        let pool = RingReactor::spawn_pool(Arc::clone(&ring), Arc::clone(&fs), None, 4);
        // Claim grain splits the queue: 64 / 4 reactors.
        assert_eq!(ring.claim.load(Ordering::Relaxed), 16);
        let mut tickets = Vec::new();
        for i in 0..256 {
            tickets.push(
                ring.submit(BatchOp::Create {
                    dir: root,
                    name: format!("p{i}"),
                })
                .unwrap(),
            );
        }
        for t in tickets {
            assert!(matches!(ring.wait(t).reply, BatchReply::Create(Ok(_))));
        }
        for r in pool {
            r.join();
        }
        assert_eq!(fs.readdir(root).unwrap().len(), 256);
        assert_eq!(ring.stats().completed, 256);
        assert_eq!(registry.violations().len(), 0);
    }

    #[test]
    fn reactor_thread_drains_to_completion() {
        let registry = LockRegistry::new();
        let ring = Arc::new(Ring::new(&registry, 8));
        let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let root = fs.root_ino();
        let reactor = RingReactor::spawn_pool(Arc::clone(&ring), Arc::clone(&fs), None, 1);
        let mut tickets = Vec::new();
        for i in 0..64 {
            tickets.push(
                ring.submit(BatchOp::Create {
                    dir: root,
                    name: format!("f{i}"),
                })
                .unwrap(),
            );
        }
        for t in tickets {
            assert!(matches!(ring.wait(t).reply, BatchReply::Create(Ok(_))));
        }
        reactor.into_iter().for_each(RingReactor::join);
        assert_eq!(fs.readdir(root).unwrap().len(), 64);
    }
}
