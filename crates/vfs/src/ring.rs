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
//! a batch is owned by exactly one reactor, and the claim grain (set by
//! the pool spawners to `depth / reactors`) splits a full queue across
//! the pool instead of letting one reactor take everything. Completions
//! wake *exactly* the clients waiting on them: a client that finds no
//! reply registers its thread under its ticket and parks, and a post
//! unparks the threads registered under the tickets it posted, so no
//! client wakes for another client's reply and a client that finds its
//! reply posted never parks. Idle reactors follow an adaptive
//! spin-then-park policy so a busy ring never pays a park/unpark per
//! batch. The queue-side wakes are gated on a count of
//! threads parked on that condvar, kept under the state lock: a submit
//! wakes a reactor only if one is parked, and a drain wakes at most one
//! parked submitter per freed slot.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

use parking_lot::Condvar;
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
    /// Clients parked in [`Ring::wait`], by the ticket each waits for;
    /// a post unparks exactly the entries of the tickets it posts.
    waiting: HashMap<u64, Thread>,
    next_ticket: u64,
    shutdown: bool,
    /// Threads parked on each condvar, counted under this lock so a
    /// signaller skips the wake syscall when nobody is there to wake.
    parked: Parked,
    stats: RingStats,
}

#[derive(Default)]
struct Parked {
    /// Submitters blocked on a full queue (`sq_space`).
    submitters: usize,
    /// Reactors idle on an empty queue (`sq_ready`).
    reactors: usize,
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

/// A fixed-depth submission/completion ring drained by a reactor pool.
///
/// `depth` bounds the submission queue: [`Ring::submit`] blocks while
/// the queue is full, and the reactor drains at most `depth` SQEs per
/// batch, so `depth` is also the batching grain the sweep in
/// `bench_report` varies.
pub struct Ring {
    depth: usize,
    /// Per-claim drain cap, set by the pool spawners to
    /// `depth / reactors` so one batch claim cannot starve the rest of
    /// the pool — the work-stealing grain.
    claim: AtomicUsize,
    state: TrackedMutex<RingState>,
    /// Signalled when the submission queue gains room.
    sq_space: Condvar,
    /// Signalled when the submission queue gains entries (or shutdown).
    sq_ready: Condvar,
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
                    waiting: HashMap::new(),
                    next_ticket: 1,
                    shutdown: false,
                    parked: Parked::default(),
                    stats: RingStats::default(),
                },
            ),
            sq_space: Condvar::new(),
            sq_ready: Condvar::new(),
            sq_len: AtomicUsize::new(0),
            spin_budget: AtomicU32::new(SPIN_MIN),
            relieving: AtomicBool::new(false),
        }
    }

    /// The submission-queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Traffic counters.
    pub fn stats(&self) -> RingStats {
        self.state.lock().stats
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
            st.stats.sq_full_blocks += 1;
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
        st.stats.submitted += 1;
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
    ///
    /// A client whose reply is not there yet registers its thread under
    /// `ticket` and parks until the post of that ticket unparks it. The
    /// registration happens under the state lock, and the thread's park
    /// token keeps an unpark that lands between the registration and the
    /// park, so no wake is lost; the loop absorbs spurious returns.
    pub fn wait(&self, ticket: u64) -> Cqe {
        loop {
            {
                let mut st = self.state.lock();
                if let Some(reply) = st.cq.remove(&ticket) {
                    return Cqe { ticket, reply };
                }
                st.waiting.insert(ticket, std::thread::current());
            }
            std::thread::park();
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

    /// Posts one reply per drained SQE, then unparks exactly the clients
    /// registered as waiting on the posted tickets, after the state lock
    /// is dropped. A client parked on another ticket sleeps on, and a
    /// client that has not reached [`Ring::wait`] yet finds its reply
    /// there without parking.
    fn post(&self, tickets: Vec<u64>, replies: Vec<BatchReply>) {
        debug_assert_eq!(tickets.len(), replies.len());
        let wake: Vec<Thread> = {
            let mut st = self.state.lock();
            st.stats.completed += replies.len() as u64;
            st.stats.batches += 1;
            tickets
                .into_iter()
                .zip(replies)
                .filter_map(|(ticket, reply)| {
                    st.cq.insert(ticket, reply);
                    st.waiting.remove(&ticket)
                })
                .collect()
        };
        for t in wake {
            t.unpark();
        }
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
    /// stalls on its next step if relief did not land.
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
            self.state.lock().stats.throttle_stalls += 1;
            (t.relieve)();
            rounds += 1;
        }
        self.relieving.store(false, Ordering::Release);
    }

    /// Blocks until the submission queue is non-empty or the ring is
    /// shut down (spinning first, per the idle policy). Returns the
    /// state guard with work queued, or `None` once shut down *and*
    /// drained. Nothing is removed: gated reactors park here with the
    /// swap gate released, so a migrator never finds SQEs trapped in a
    /// reactor's hands mid-handoff — with N reactors, *all* of them idle
    /// here between batches, which is why the SwapGate handshake needs
    /// no per-reactor bookkeeping.
    fn wait_ready(&self) -> Option<TrackedMutexGuard<'_, RingState>> {
        self.spin_for_work();
        let mut st = self.state.lock();
        while st.sq.is_empty() && !st.shutdown {
            park(&mut st, &self.sq_ready, |p| &mut p.reactors);
        }
        (!st.sq.is_empty()).then_some(st)
    }

    /// One reactor step, the same for both pools:
    ///
    /// 1. wait for work with no gate held (a parked reactor must not
    ///    hold SQEs hostage across a handoff — the migrator drains the
    ///    queue itself while the gate is closed);
    /// 2. enter the gate shared, for a swappable backend only, with the
    ///    ring lock released (the migrator takes it under the gate);
    /// 3. claim one grain without blocking — a fixed backend claims
    ///    under the same lock hold as the wait;
    /// 4. relieve the throttle;
    /// 5. dispatch the batch — through the interface handle for a
    ///    swappable backend, so it runs against whichever generation is
    ///    current *at processing time*;
    /// 6. post the completions.
    ///
    /// A swappable backend's claim retakes the lock, so it can come back
    /// empty: the benign race where another reactor or a migrator took
    /// the queued SQEs first; the reactor just waits again. Returns `false` once the ring is shut down and
    /// drained — the reactor loop's exit.
    fn step(&self, backend: &Backend, throttle: Option<&RingThrottle>) -> bool {
        let Some(st) = self.wait_ready() else {
            return false;
        };
        let (st, _admission) = match backend {
            Backend::Fixed(_) => (st, None),
            Backend::Swappable { gate, .. } => {
                drop(st);
                let admission = gate.enter();
                (self.state.lock(), Some(admission))
            }
        };
        let batch = self.take_sqes(st, self.claim.load(Ordering::Relaxed));
        if batch.is_empty() {
            return true;
        }
        self.relieve(throttle);
        let (tickets, ops): (Vec<u64>, Vec<BatchOp>) = batch.into_iter().unzip();
        let replies = match backend {
            Backend::Fixed(fs) => fs.submit_batch(ops),
            Backend::Swappable { handle, .. } => handle.get().submit_batch(ops),
        };
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

/// What a reactor pool dispatches to.
enum Backend {
    /// One file system for the pool's lifetime.
    Fixed(Arc<dyn FileSystem>),
    /// A hot-swappable file system: batches go through `handle` under a
    /// shared hold of `gate`.
    Swappable {
        handle: InterfaceHandle<dyn FileSystem>,
        gate: Arc<SwapGate>,
    },
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
        Self::spawn(ring, Backend::Fixed(fs), throttle, reactors)
    }

    /// Starts `reactors` generation-aware reactors over one `ring`:
    /// batches are dispatched through `handle` under a shared hold of
    /// `gate`, so every SQE completes against the generation that is
    /// current when it is processed. This is the pool to use on a
    /// [`Vfs`](crate::path::Vfs) whose backend may be hot-swapped by a
    /// [`Migrator`](crate::migrate::Migrator). Every reactor waits for
    /// work *outside* its shared gate hold, so a migrator closing the
    /// [`SwapGate`] sees the whole pool idle and drains queued SQEs
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
        Self::spawn(
            ring,
            Backend::Swappable { handle, gate },
            throttle,
            reactors,
        )
    }

    fn spawn(
        ring: Arc<Ring>,
        backend: Backend,
        throttle: Option<Arc<RingThrottle>>,
        reactors: usize,
    ) -> Vec<RingReactor> {
        assert!(reactors > 0, "reactor pool must have at least one reactor");
        ring.claim.store(
            (ring.depth / reactors).clamp(1, ring.depth),
            Ordering::Relaxed,
        );
        let backend = Arc::new(backend);
        (0..reactors)
            .map(|i| {
                let r = Arc::clone(&ring);
                let backend = Arc::clone(&backend);
                let throttle = throttle.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("ring-reactor-{i}"))
                    .spawn(move || while r.step(&backend, throttle.as_deref()) {})
                    .expect("spawn ring reactor");
                RingReactor {
                    ring: Arc::clone(&ring),
                    handle: Some(handle),
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
    use crate::inode::InodeNo;
    use crate::memfs::MemFs;
    use crate::modular::BatchOp;
    use std::time::Duration;

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

    /// Drains at most one SQE and posts its reply: one batch per ticket.
    fn step_one(ring: &Ring, fs: &dyn FileSystem) {
        let (tickets, ops): (Vec<u64>, Vec<BatchOp>) =
            ring.take_sqes(ring.state.lock(), 1).into_iter().unzip();
        ring.post(tickets, fs.submit_batch(ops));
    }

    fn create(ring: &Ring, dir: InodeNo, name: &str) -> u64 {
        ring.submit(BatchOp::Create {
            dir,
            name: name.into(),
        })
        .unwrap()
    }

    #[test]
    fn post_wakes_only_the_client_waiting_on_its_ticket() {
        let registry = LockRegistry::new();
        let ring = Arc::new(Ring::new(&registry, 4));
        let fs = MemFs::new();
        let root = fs.root_ino();
        let a = create(&ring, root, "a");
        let b = create(&ring, root, "b");
        let (tx, rx) = std::sync::mpsc::channel();
        let client = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || tx.send(ring.wait(b).ticket).unwrap())
        };
        while !ring.state.lock().waiting.contains_key(&b) {
            std::thread::sleep(Duration::from_millis(1));
        }

        let ring_acquisitions = || {
            registry
                .class_stats()
                .iter()
                .find(|s| s.name == "vfs.ring")
                .map_or(0, |s| s.acquisitions)
        };
        let before = ring_acquisitions();
        step_one(&ring, &fs);
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "the client on B returned when A posted"
        );
        // A client woken for A would retake the ring lock to look for
        // its reply; only the claim and the post may have taken it.
        assert_eq!(ring_acquisitions() - before, 2, "A's post woke B's client");
        let st = ring.state.lock();
        assert!(st.cq.contains_key(&a), "A's reply is posted");
        assert!(st.waiting.contains_key(&b), "A's post left B's waiter");
        drop(st);

        step_one(&ring, &fs);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(b));
        client.join().unwrap();
        assert!(ring.state.lock().waiting.is_empty());
        assert!(ring.try_reap(a).is_some());
    }

    #[test]
    fn wait_on_a_posted_ticket_returns_without_parking() {
        let registry = LockRegistry::new();
        let ring = Arc::new(Ring::new(&registry, 4));
        let fs = MemFs::new();
        let t = create(&ring, fs.root_ino(), "f");
        assert_eq!(ring.drain_once(&fs), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        let client = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || tx.send(ring.wait(t).reply).unwrap())
        };
        // Nothing will post again: a client that parked would stay parked.
        let reply = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("wait parked on a posted ticket");
        assert!(matches!(reply, BatchReply::Create(Ok(_))));
        client.join().unwrap();
        assert!(ring.state.lock().waiting.is_empty(), "never registered");
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
