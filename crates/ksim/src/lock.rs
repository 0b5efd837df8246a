//! Lock primitives with lockdep-style discipline tracking.
//!
//! The paper's §4.3 example: the VFS `inode` has fields "only modified on
//! specific, known code paths protected by other synchronization mechanisms",
//! three fields protected by `i_lock`, and one (`i_size`) "only *maybe*
//! protected, according to the relevant comment". Nothing but vigilant code
//! review enforces any of this in C.
//!
//! This module makes the discipline *observable*, in the style of the Linux
//! kernel's lockdep:
//!
//! - **Lock classes.** Every tracked lock belongs to a *class* named at
//!   construction ("buffer.shard", "journal.group", …). All N shards of a
//!   striped structure share one class, so the acquires-after graph stays
//!   small no matter how wide the striping is. Per-instance [`LockId`]s are
//!   retained for [`Protected`] field contracts.
//! - **Acquires-after DAG with transitive cycle detection.** Taking lock
//!   class B while holding class A records the edge A→B. Before a new edge
//!   is admitted, a BFS checks whether the reverse path already exists; if
//!   it does, the full witness chain (A→B→…→A) is reported — not just the
//!   closing pair — and the closing edge is *not* inserted, so the graph
//!   stays acyclic and later witnesses stay meaningful. Direct two-lock
//!   inversions still report as [`Violation::OrderInversion`]; longer
//!   cycles report as [`Violation::OrderCycle`].
//! - **Trylock exemption.** A trylock is not an ordering commitment: a
//!   successful `try_lock` never *creates* incoming edges (the acquirer
//!   would have backed off rather than blocked), but the lock it now holds
//!   does source edges for later blocking acquisitions.
//! - **Same-class nesting ranks.** Holding two locks of one class is
//!   normally a self-deadlock hazard and reports
//!   [`Violation::SameClassNesting`]; striped structures that sweep their
//!   shards in fixed index order declare a per-instance *rank* and may nest
//!   in strictly increasing rank order (the dcache's snapshot walk). A
//!   successful same-class `try_lock` is exempt like any other trylock —
//!   it backs off rather than deadlocks (the sharded op-lock extension).
//! - **Held-across-blocking-I/O.** Device drivers call
//!   [`LockRegistry::note_blocking_io`] at the `BlockDevice` boundary; any
//!   lock class held there that was not declared `io_ok` at construction is
//!   reported as [`Violation::HeldAcrossIo`]. In the simulated substrate
//!   "blocking I/O" means a `BlockDevice` call — the operation a real
//!   kernel would sleep on.
//! - **Per-class counters.** Acquisitions, contended acquisitions and
//!   cumulative hold time per class, surfaced via
//!   [`LockRegistry::class_stats`] for `bench_report --lockdep`. Hold
//!   time needs two clock reads per acquisition, so it is measured only
//!   while lockdep is enabled; a disabled registry reports 0.
//!
//! Reports are deduplicated per class pair (cycles), per class (nesting)
//! and per class+operation (I/O), so a hot loop produces one finding, not
//! a flood.
//!
//! [`KLock`] / [`Protected`] keep the original field-discipline semantics:
//! the legacy file system commits exactly the undisciplined `i_size` access
//! the paper describes, and the bug study counts the recorded violations.
//! [`TrackedMutex`] and [`TrackedRwLock`] wrap `parking_lot` primitives for
//! the hot paths (buffer-cache shards, journal state, dcache shards,
//! netstack tables); a registry constructed with
//! [`LockRegistry::new_disabled`] skips all graph work and the hold-time
//! clock, so benchmarks can opt out of the instrumentation cost.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Identity of a registered lock *instance*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(u64);

/// A recorded lock-discipline violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A [`Protected`] field was accessed without holding its lock.
    UnlockedFieldAccess {
        /// Name of the protecting lock.
        lock: &'static str,
        /// Name of the field that was touched.
        field: &'static str,
    },
    /// Two lock classes were acquired in both orders by different call
    /// paths (a direct two-class cycle).
    OrderInversion {
        /// Name of the class held first on the established path.
        a: &'static str,
        /// Name of the class whose acquisition closed the cycle.
        b: &'static str,
    },
    /// A new acquires-after edge closed a cycle of three or more classes.
    OrderCycle {
        /// The witness chain: class names from the held class through the
        /// existing path back to itself (first and last entries repeat).
        chain: Vec<&'static str>,
    },
    /// A lock class not declared `io_ok` was held across a blocking
    /// `BlockDevice` operation.
    HeldAcrossIo {
        /// Name of the held class.
        lock: &'static str,
        /// The device operation (e.g. `"write_block"`).
        op: &'static str,
    },
    /// Two locks of one class were nested outside the fixed-rank order.
    SameClassNesting {
        /// Name of the class.
        class: &'static str,
    },
}

/// Per-class usage counters (snapshot from [`LockRegistry::class_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Class name.
    pub name: &'static str,
    /// Successful acquisitions (including trylocks and reacquisitions
    /// after a condvar wait).
    pub acquisitions: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
    /// Cumulative wall-clock hold time in nanoseconds, measured only
    /// while the registry is enabled (0 on a disabled registry).
    pub held_ns: u64,
}

#[derive(Default)]
struct ClassCounters {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    held_ns: AtomicU64,
}

struct ClassInfo {
    name: &'static str,
    io_ok: bool,
    counters: Arc<ClassCounters>,
}

struct HeldEntry {
    id: LockId,
    class: u32,
    rank: Option<u64>,
}

#[derive(Default)]
struct RegistryInner {
    /// Locks currently held, per thread, in acquisition order.
    held: HashMap<ThreadId, Vec<HeldEntry>>,
    /// Class name → class index.
    classes: HashMap<&'static str, u32>,
    class_info: Vec<ClassInfo>,
    /// Acquires-after edges between classes; kept acyclic.
    edges: HashMap<u32, HashSet<u32>>,
    /// Cycle reports already made, per (held, acquired) class pair.
    cycle_reported: HashSet<(u32, u32)>,
    /// Held-across-I/O reports already made, per (class, op).
    io_reported: HashSet<(u32, &'static str)>,
    /// Same-class nesting reports already made, per class.
    nest_reported: HashSet<u32>,
    cycles_found: u64,
    violations: Vec<Violation>,
}

/// BFS over `edges` from `from` to `to`; returns the node path
/// (inclusive of both endpoints) if one exists.
fn reach(edges: &HashMap<u32, HashSet<u32>>, from: u32, to: u32) -> Option<Vec<u32>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut parent: HashMap<u32, u32> = HashMap::new();
    parent.insert(from, from);
    let mut queue = VecDeque::from([from]);
    while let Some(n) = queue.pop_front() {
        let Some(next) = edges.get(&n) else { continue };
        for &m in next {
            if parent.contains_key(&m) {
                continue;
            }
            parent.insert(m, n);
            if m == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(m);
        }
    }
    None
}

/// Tracks lock acquisitions across a subsystem.
pub struct LockRegistry {
    inner: Mutex<RegistryInner>,
    next_id: AtomicU64,
    /// Fixed at construction: [`LockRegistry::new`] or
    /// [`LockRegistry::new_disabled`].
    enabled: bool,
}

impl Default for LockRegistry {
    fn default() -> Self {
        LockRegistry {
            inner: Mutex::new(RegistryInner::default()),
            next_id: AtomicU64::new(0),
            enabled: true,
        }
    }
}

impl LockRegistry {
    /// Creates an empty registry with lockdep checking enabled.
    pub fn new() -> Arc<Self> {
        Arc::new(LockRegistry::default())
    }

    /// Creates a registry with lockdep checking disabled: acquisition and
    /// contention counters still accumulate, but no graph or held-stack
    /// work happens for the tracked wrapper types and no guard reads the
    /// clock, so `held_ns` stays 0 (benchmarks use this to measure the
    /// uninstrumented hot path).
    pub fn new_disabled() -> Arc<Self> {
        Arc::new(LockRegistry {
            enabled: false,
            ..LockRegistry::default()
        })
    }

    /// Whether lockdep checking is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers one lock instance under class `name`. The first
    /// registration of a class fixes its `io_ok` policy.
    fn register(&self, name: &'static str, io_ok: bool) -> (LockId, u32, Arc<ClassCounters>) {
        let id = LockId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut inner = self.inner.lock();
        let class = match inner.classes.get(name) {
            Some(&c) => c,
            None => {
                let c = inner.class_info.len() as u32;
                inner.classes.insert(name, c);
                inner.class_info.push(ClassInfo {
                    name,
                    io_ok,
                    counters: Arc::default(),
                });
                c
            }
        };
        let counters = Arc::clone(&inner.class_info[class as usize].counters);
        (id, class, counters)
    }

    /// Graph bookkeeping for one blocking or trylock acquisition. The
    /// held-stack push happens here too, so pairing with
    /// [`LockRegistry::on_release`] is the caller's only obligation.
    fn on_acquire(&self, id: LockId, class: u32, rank: Option<u64>, trylock: bool) {
        let tid = thread::current().id();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let held: Vec<(u32, Option<u64>)> = inner
            .held
            .get(&tid)
            .map(|v| v.iter().map(|e| (e.class, e.rank)).collect())
            .unwrap_or_default();

        // Same-class nesting: legal only in strictly increasing rank
        // order (the fixed-index shard sweep) — or via trylock, which
        // cannot self-deadlock because it backs off instead of blocking
        // (the sharded op-lock path uses this for out-of-order stripe
        // extension); anything else is a self-deadlock hazard.
        if !trylock {
            for &(hc, hr) in &held {
                if hc != class {
                    continue;
                }
                let ordered = matches!((hr, rank), (Some(a), Some(b)) if a < b);
                if !ordered && inner.nest_reported.insert(class) {
                    inner.violations.push(Violation::SameClassNesting {
                        class: inner.class_info[class as usize].name,
                    });
                }
            }
        }

        // A trylock is not an ordering commitment: had the lock been
        // held, the acquirer would have backed off, not blocked.
        if !trylock {
            for &(hc, _) in &held {
                if hc == class {
                    continue;
                }
                if inner.edges.get(&hc).is_some_and(|s| s.contains(&class)) {
                    continue;
                }
                // New edge hc → class. If class already reaches hc the
                // edge would close a cycle: report the witness and leave
                // the graph acyclic.
                if let Some(path) = reach(&inner.edges, class, hc) {
                    if inner.cycle_reported.insert((hc, class)) {
                        inner.cycles_found += 1;
                        let name = |c: u32| inner.class_info[c as usize].name;
                        if path.len() == 2 {
                            inner.violations.push(Violation::OrderInversion {
                                a: name(hc),
                                b: name(class),
                            });
                        } else {
                            let mut chain: Vec<&'static str> = Vec::with_capacity(path.len() + 1);
                            chain.push(name(hc));
                            chain.extend(path.iter().map(|&c| name(c)));
                            inner.violations.push(Violation::OrderCycle { chain });
                        }
                    }
                } else {
                    inner.edges.entry(hc).or_default().insert(class);
                }
            }
        }

        inner
            .held
            .entry(tid)
            .or_default()
            .push(HeldEntry { id, class, rank });
    }

    fn on_release(&self, id: LockId) {
        let tid = thread::current().id();
        let mut inner = self.inner.lock();
        if let Some(held) = inner.held.get_mut(&tid) {
            if let Some(pos) = held.iter().rposition(|e| e.id == id) {
                held.remove(pos);
            }
        }
    }

    /// Reports a blocking `BlockDevice` operation: every lock class the
    /// calling thread holds that was not declared `io_ok` is flagged
    /// (once per class+operation).
    pub fn note_blocking_io(&self, op: &'static str) {
        if !self.is_enabled() {
            return;
        }
        let tid = thread::current().id();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let held: Vec<u32> = inner
            .held
            .get(&tid)
            .map(|v| v.iter().map(|e| e.class).collect())
            .unwrap_or_default();
        for c in held {
            if inner.class_info[c as usize].io_ok {
                continue;
            }
            if inner.io_reported.insert((c, op)) {
                inner.violations.push(Violation::HeldAcrossIo {
                    lock: inner.class_info[c as usize].name,
                    op,
                });
            }
        }
    }

    /// True if the calling thread currently holds `id`.
    pub fn holds(&self, id: LockId) -> bool {
        let tid = thread::current().id();
        self.inner
            .lock()
            .held
            .get(&tid)
            .map(|v| v.iter().any(|e| e.id == id))
            .unwrap_or(false)
    }

    /// Records an undisciplined access to a protected field.
    pub fn record_field_violation(&self, lock: &'static str, field: &'static str) {
        self.inner
            .lock()
            .violations
            .push(Violation::UnlockedFieldAccess { lock, field });
    }

    /// Returns all recorded violations.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().violations.clone()
    }

    /// Clears recorded violations (between test cases). The graph, the
    /// report-dedup sets and the counters are left intact.
    pub fn clear_violations(&self) {
        self.inner.lock().violations.clear();
    }

    /// Number of lock classes registered so far.
    pub fn class_count(&self) -> usize {
        self.inner.lock().class_info.len()
    }

    /// Number of cycles found (deduplicated) since creation.
    pub fn cycles_found(&self) -> u64 {
        self.inner.lock().cycles_found
    }

    /// Snapshot of the acquires-after edges, as class-name pairs.
    pub fn edges(&self) -> Vec<(&'static str, &'static str)> {
        let inner = self.inner.lock();
        let mut out: Vec<(&'static str, &'static str)> = Vec::new();
        for (&a, next) in &inner.edges {
            for &b in next {
                out.push((
                    inner.class_info[a as usize].name,
                    inner.class_info[b as usize].name,
                ));
            }
        }
        out.sort_unstable();
        out
    }

    /// Per-class counter snapshot, sorted by class name.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let inner = self.inner.lock();
        let mut out: Vec<ClassStats> = inner
            .class_info
            .iter()
            .map(|c| ClassStats {
                name: c.name,
                acquisitions: c.counters.acquisitions.load(Ordering::Relaxed),
                contended: c.counters.contended.load(Ordering::Relaxed),
                held_ns: c.counters.held_ns.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_unstable_by_key(|s| s.name);
        out
    }
}

/// Adds the hold time since `since` to the class total. Guards stamp
/// `since` only while the registry is enabled, so a disabled registry's
/// acquisitions read no clock at all.
fn add_held(counters: &ClassCounters, since: Option<Instant>) {
    if let Some(t) = since {
        counters
            .held_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A mutex whose acquisitions are tracked by a [`LockRegistry`].
///
/// `KLock` is the op-level primitive: it always maintains the held stack
/// and feeds the acquires-after graph (so [`Protected`] contracts work
/// even on a disabled registry), but it measures hold time only when the
/// registry is enabled.
pub struct KLock<T> {
    mutex: Mutex<T>,
    id: LockId,
    class: u32,
    name: &'static str,
    counters: Arc<ClassCounters>,
    registry: Arc<LockRegistry>,
}

/// Guard for a [`KLock`]; releases and unregisters on drop.
pub struct KLockGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    id: LockId,
    counters: &'a ClassCounters,
    registry: &'a LockRegistry,
    since: Option<Instant>,
}

impl<T> KLock<T> {
    /// Creates a tracked lock in class `name` in `registry`.
    pub fn new(registry: Arc<LockRegistry>, name: &'static str, value: T) -> Self {
        let (id, class, counters) = registry.register(name, false);
        KLock {
            mutex: Mutex::new(value),
            id,
            class,
            name,
            counters,
            registry,
        }
    }

    /// Acquires the lock, recording the acquisition.
    pub fn lock(&self) -> KLockGuard<'_, T> {
        let guard = match self.mutex.try_lock() {
            Some(g) => g,
            None => {
                self.counters.contended.fetch_add(1, Ordering::Relaxed);
                self.mutex.lock()
            }
        };
        self.counters.acquisitions.fetch_add(1, Ordering::Relaxed);
        self.registry.on_acquire(self.id, self.class, None, false);
        KLockGuard {
            guard: Some(guard),
            id: self.id,
            counters: &self.counters,
            registry: &self.registry,
            since: self.registry.is_enabled().then(Instant::now),
        }
    }

    /// This lock's registry identity (for [`Protected`] contracts).
    pub fn id(&self) -> LockId {
        self.id
    }

    /// This lock's class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The registry this lock reports to.
    pub fn registry(&self) -> &Arc<LockRegistry> {
        &self.registry
    }
}

impl<T> std::ops::Deref for KLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for KLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for KLockGuard<'_, T> {
    fn drop(&mut self) {
        add_held(self.counters, self.since);
        // Unregister before the underlying mutex releases so a racing
        // acquirer never observes us as "still holding".
        self.registry.on_release(self.id);
        drop(self.guard.take());
    }
}

/// A `parking_lot::Mutex` whose acquisitions feed the lockdep graph.
///
/// This is the hot-path primitive: when the registry is disabled the only
/// overhead over the raw mutex is its relaxed atomic counter updates (no
/// graph work, no clock reads).
pub struct TrackedMutex<T> {
    mutex: Mutex<T>,
    id: LockId,
    class: u32,
    rank: Option<u64>,
    counters: Arc<ClassCounters>,
    registry: Arc<LockRegistry>,
}

/// Guard for a [`TrackedMutex`].
pub struct TrackedMutexGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    lock: &'a TrackedMutex<T>,
    registered: bool,
    since: Option<Instant>,
}

impl<T> TrackedMutex<T> {
    fn build(
        registry: &Arc<LockRegistry>,
        name: &'static str,
        rank: Option<u64>,
        io_ok: bool,
        value: T,
    ) -> Self {
        let (id, class, counters) = registry.register(name, io_ok);
        TrackedMutex {
            mutex: Mutex::new(value),
            id,
            class,
            rank,
            counters,
            registry: Arc::clone(registry),
        }
    }

    /// Creates a tracked mutex in class `name` (no rank, I/O under it
    /// flagged).
    pub fn new(registry: &Arc<LockRegistry>, name: &'static str, value: T) -> Self {
        Self::build(registry, name, None, false, value)
    }

    /// Creates a tracked mutex with a same-class nesting rank: locks of
    /// one class may be nested only in strictly increasing rank order
    /// (the fixed-index shard sweep).
    pub fn new_ranked(
        registry: &Arc<LockRegistry>,
        name: &'static str,
        rank: u64,
        value: T,
    ) -> Self {
        Self::build(registry, name, Some(rank), false, value)
    }

    /// Creates a tracked mutex whose class may legitimately be held
    /// across blocking device I/O (e.g. a lock that exists to serialize
    /// the I/O itself).
    pub fn new_io_ok(registry: &Arc<LockRegistry>, name: &'static str, value: T) -> Self {
        Self::build(registry, name, None, true, value)
    }

    /// Ranked *and* I/O-exempt: a striped lock whose stripes are taken
    /// in fixed ascending index order and held across the device I/O
    /// they serialize (the sharded op-lock idiom).
    pub fn new_ranked_io_ok(
        registry: &Arc<LockRegistry>,
        name: &'static str,
        rank: u64,
        value: T,
    ) -> Self {
        Self::build(registry, name, Some(rank), true, value)
    }

    /// Acquires the lock, blocking if contended.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let guard = match self.mutex.try_lock() {
            Some(g) => g,
            None => {
                self.counters.contended.fetch_add(1, Ordering::Relaxed);
                self.mutex.lock()
            }
        };
        self.counters.acquisitions.fetch_add(1, Ordering::Relaxed);
        let registered = self.registry.is_enabled();
        if registered {
            self.registry
                .on_acquire(self.id, self.class, self.rank, false);
        }
        TrackedMutexGuard {
            guard: Some(guard),
            lock: self,
            registered,
            since: registered.then(Instant::now),
        }
    }

    /// Opportunistic acquisition; exempt from ordering checks (a failed
    /// or opportunistic trylock is not an ordering commitment).
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        let guard = self.mutex.try_lock()?;
        self.counters.acquisitions.fetch_add(1, Ordering::Relaxed);
        let registered = self.registry.is_enabled();
        if registered {
            self.registry
                .on_acquire(self.id, self.class, self.rank, true);
        }
        Some(TrackedMutexGuard {
            guard: Some(guard),
            lock: self,
            registered,
            since: registered.then(Instant::now),
        })
    }
}

impl<'a, T> TrackedMutexGuard<'a, T> {
    /// Blocks on `cv`, releasing the mutex while waiting. The lock is
    /// de-registered for the duration — a waiter holds nothing.
    pub fn wait(&mut self, cv: &Condvar) {
        add_held(&self.lock.counters, self.since);
        if self.registered {
            self.lock.registry.on_release(self.lock.id);
        }
        cv.wait(self.guard.as_mut().expect("guard present until drop"));
        if self.registered {
            self.lock
                .registry
                .on_acquire(self.lock.id, self.lock.class, self.lock.rank, false);
        }
        self.lock
            .counters
            .acquisitions
            .fetch_add(1, Ordering::Relaxed);
        self.since = self.registered.then(Instant::now);
    }

    /// Temporarily releases the mutex around `f` (device I/O without the
    /// lock), re-acquiring afterwards.
    pub fn unlocked<R>(&mut self, f: impl FnOnce() -> R) -> R {
        add_held(&self.lock.counters, self.since);
        if self.registered {
            self.lock.registry.on_release(self.lock.id);
        }
        let r = MutexGuard::unlocked(self.guard.as_mut().expect("guard present until drop"), f);
        if self.registered {
            self.lock
                .registry
                .on_acquire(self.lock.id, self.lock.class, self.lock.rank, false);
        }
        self.lock
            .counters
            .acquisitions
            .fetch_add(1, Ordering::Relaxed);
        self.since = self.registered.then(Instant::now);
        r
    }
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        add_held(&self.lock.counters, self.since);
        if self.registered {
            self.lock.registry.on_release(self.lock.id);
        }
        drop(self.guard.take());
    }
}

/// A `parking_lot::RwLock` whose acquisitions feed the lockdep graph.
///
/// Read acquisitions participate in the ordering graph exactly like
/// writes: a reader blocking on a writer deadlocks the same way.
pub struct TrackedRwLock<T> {
    rw: RwLock<T>,
    id: LockId,
    class: u32,
    rank: Option<u64>,
    counters: Arc<ClassCounters>,
    registry: Arc<LockRegistry>,
}

/// Shared-read guard for a [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T> {
    guard: Option<RwLockReadGuard<'a, T>>,
    lock: &'a TrackedRwLock<T>,
    registered: bool,
    since: Option<Instant>,
}

/// Exclusive-write guard for a [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T> {
    guard: Option<RwLockWriteGuard<'a, T>>,
    lock: &'a TrackedRwLock<T>,
    registered: bool,
    since: Option<Instant>,
}

impl<T> TrackedRwLock<T> {
    fn build(
        registry: &Arc<LockRegistry>,
        name: &'static str,
        rank: Option<u64>,
        io_ok: bool,
        value: T,
    ) -> Self {
        let (id, class, counters) = registry.register(name, io_ok);
        TrackedRwLock {
            rw: RwLock::new(value),
            id,
            class,
            rank,
            counters,
            registry: Arc::clone(registry),
        }
    }

    /// Creates a tracked rwlock in class `name`.
    pub fn new(registry: &Arc<LockRegistry>, name: &'static str, value: T) -> Self {
        Self::build(registry, name, None, false, value)
    }

    /// Creates a tracked rwlock with a same-class nesting rank (see
    /// [`TrackedMutex::new_ranked`]).
    pub fn new_ranked(
        registry: &Arc<LockRegistry>,
        name: &'static str,
        rank: u64,
        value: T,
    ) -> Self {
        Self::build(registry, name, Some(rank), false, value)
    }

    fn note_acquire(&self, trylock: bool) -> bool {
        self.counters.acquisitions.fetch_add(1, Ordering::Relaxed);
        let registered = self.registry.is_enabled();
        if registered {
            self.registry
                .on_acquire(self.id, self.class, self.rank, trylock);
        }
        registered
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let guard = match self.rw.try_read() {
            Some(g) => g,
            None => {
                self.counters.contended.fetch_add(1, Ordering::Relaxed);
                self.rw.read()
            }
        };
        let registered = self.note_acquire(false);
        TrackedReadGuard {
            guard: Some(guard),
            lock: self,
            registered,
            since: registered.then(Instant::now),
        }
    }

    /// Acquires the exclusive write guard.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let guard = match self.rw.try_write() {
            Some(g) => g,
            None => {
                self.counters.contended.fetch_add(1, Ordering::Relaxed);
                self.rw.write()
            }
        };
        let registered = self.note_acquire(false);
        TrackedWriteGuard {
            guard: Some(guard),
            lock: self,
            registered,
            since: registered.then(Instant::now),
        }
    }

    /// Opportunistic write acquisition; exempt from ordering checks.
    pub fn try_write(&self) -> Option<TrackedWriteGuard<'_, T>> {
        let guard = self.rw.try_write()?;
        let registered = self.note_acquire(true);
        Some(TrackedWriteGuard {
            guard: Some(guard),
            lock: self,
            registered,
            since: registered.then(Instant::now),
        })
    }
}

macro_rules! rw_guard_impl {
    ($guard:ident) => {
        impl<T> std::ops::Deref for $guard<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                self.guard.as_ref().expect("guard present until drop")
            }
        }

        impl<T> Drop for $guard<'_, T> {
            fn drop(&mut self) {
                add_held(&self.lock.counters, self.since);
                if self.registered {
                    self.lock.registry.on_release(self.lock.id);
                }
                drop(self.guard.take());
            }
        }
    };
}

rw_guard_impl!(TrackedReadGuard);
rw_guard_impl!(TrackedWriteGuard);

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

/// A field that a specific lock is documented to protect.
///
/// Reads and writes go through [`Protected::read`] / [`Protected::write`],
/// which verify the protecting lock is held by the calling thread, or
/// through the `_unchecked` variants, which model the legacy kernel's
/// "access it anyway" paths and record a [`Violation`] when undisciplined.
///
/// Interior storage is a plain atomic-free cell guarded by its own private
/// mutex, so *memory* safety is never at stake — only the discipline is.
pub struct Protected<T> {
    value: Mutex<T>,
    lock: LockId,
    lock_name: &'static str,
    field: &'static str,
    registry: Arc<LockRegistry>,
}

impl<T: Clone> Protected<T> {
    /// Declares that `field` is protected by `lock`.
    pub fn new<L>(lock: &KLock<L>, field: &'static str, value: T) -> Self {
        Protected {
            value: Mutex::new(value),
            lock: lock.id(),
            lock_name: lock.name(),
            field,
            registry: Arc::clone(lock.registry()),
        }
    }

    /// Disciplined read: requires the protecting lock to be held.
    ///
    /// Returns `None` (and records a violation) when undisciplined, so
    /// callers cannot accidentally ignore the contract.
    pub fn read(&self) -> Option<T> {
        if !self.registry.holds(self.lock) {
            self.registry
                .record_field_violation(self.lock_name, self.field);
            return None;
        }
        Some(self.value.lock().clone())
    }

    /// Disciplined write; same contract as [`Protected::read`].
    pub fn write(&self, v: T) -> bool {
        if !self.registry.holds(self.lock) {
            self.registry
                .record_field_violation(self.lock_name, self.field);
            return false;
        }
        *self.value.lock() = v;
        true
    }

    /// Legacy-style read that goes through regardless, recording a
    /// violation when the lock is not held (the `i_size` "maybe protected"
    /// pattern).
    pub fn read_unchecked(&self) -> T {
        if !self.registry.holds(self.lock) {
            self.registry
                .record_field_violation(self.lock_name, self.field);
        }
        self.value.lock().clone()
    }

    /// Legacy-style write that goes through regardless (recording a
    /// violation when undisciplined).
    pub fn write_unchecked(&self, v: T) {
        if !self.registry.holds(self.lock) {
            self.registry
                .record_field_violation(self.lock_name, self.field);
        }
        *self.value.lock() = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn guard_registers_and_unregisters() {
        let reg = LockRegistry::new();
        let l = KLock::new(Arc::clone(&reg), "l", 0u32);
        assert!(!reg.holds(l.id()));
        {
            let _g = l.lock();
            assert!(reg.holds(l.id()));
        }
        assert!(!reg.holds(l.id()));
    }

    #[test]
    fn protected_field_requires_lock() {
        let reg = LockRegistry::new();
        let l = KLock::new(Arc::clone(&reg), "i_lock", ());
        let size = Protected::new(&l, "i_size", 0u64);
        assert_eq!(size.read(), None, "undisciplined read refused");
        assert!(!size.write(10));
        assert_eq!(reg.violations().len(), 2);
        let _g = l.lock();
        assert!(size.write(10));
        assert_eq!(size.read(), Some(10));
        assert_eq!(reg.violations().len(), 2, "disciplined access is clean");
    }

    #[test]
    fn unchecked_access_goes_through_but_is_recorded() {
        let reg = LockRegistry::new();
        let l = KLock::new(Arc::clone(&reg), "i_lock", ());
        let size = Protected::new(&l, "i_size", 5u64);
        size.write_unchecked(6);
        assert_eq!(size.read_unchecked(), 6);
        assert_eq!(
            reg.violations(),
            vec![
                Violation::UnlockedFieldAccess {
                    lock: "i_lock",
                    field: "i_size"
                };
                2
            ]
        );
    }

    #[test]
    fn lock_order_inversion_detected() {
        let reg = LockRegistry::new();
        let a = KLock::new(Arc::clone(&reg), "a", ());
        let b = KLock::new(Arc::clone(&reg), "b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // Order a -> b recorded.
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // Order b -> a: inversion.
        }
        let v = reg.violations();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::OrderInversion { .. }));
        assert_eq!(reg.cycles_found(), 1);
    }

    #[test]
    fn reacquiring_same_pair_in_same_order_is_clean() {
        let reg = LockRegistry::new();
        let a = KLock::new(Arc::clone(&reg), "a", ());
        let b = KLock::new(Arc::clone(&reg), "b", ());
        for _ in 0..3 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(reg.violations().is_empty());
    }

    #[test]
    fn violations_clearable() {
        let reg = LockRegistry::new();
        reg.record_field_violation("l", "f");
        assert_eq!(reg.violations().len(), 1);
        reg.clear_violations();
        assert!(reg.violations().is_empty());
    }

    /// The acceptance-criteria case: a transitive three-lock cycle
    /// (a→b, b→c, then c→a) that the old pairwise check — which only
    /// looked for a direct (new, held) edge — could never see.
    #[test]
    fn transitive_three_lock_cycle_detected_with_witness_chain() {
        let reg = LockRegistry::new();
        let a = KLock::new(Arc::clone(&reg), "a", ());
        let b = KLock::new(Arc::clone(&reg), "b", ());
        let c = KLock::new(Arc::clone(&reg), "c", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a -> b
        }
        {
            let _gb = b.lock();
            let _gc = c.lock(); // b -> c
        }
        assert!(
            reg.violations().is_empty(),
            "no direct pair is ever inverted"
        );
        {
            let _gc = c.lock();
            let _ga = a.lock(); // c -> a closes a ⇒ b ⇒ c ⇒ a
        }
        let v = reg.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        match &v[0] {
            Violation::OrderCycle { chain } => {
                assert_eq!(chain, &vec!["c", "a", "b", "c"], "full witness chain");
            }
            other => panic!("expected OrderCycle, got {other:?}"),
        }
        assert_eq!(reg.cycles_found(), 1);
    }

    /// Satellite: repeated traversals of a known-bad pair report once,
    /// not once per acquisition.
    #[test]
    fn cycle_reports_dedupe_per_class_pair() {
        let reg = LockRegistry::new();
        let a = KLock::new(Arc::clone(&reg), "a", ());
        let b = KLock::new(Arc::clone(&reg), "b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        for _ in 0..10 {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        assert_eq!(reg.violations().len(), 1, "one report for ten traversals");
        assert_eq!(reg.cycles_found(), 1);
    }

    /// Satellite: a successful trylock against the established order is
    /// not an ordering commitment — had the lock been held, the acquirer
    /// would have backed off rather than deadlocked.
    #[test]
    fn trylock_is_exempt_from_ordering() {
        let reg = LockRegistry::new();
        let a = TrackedMutex::new(&reg, "a", ());
        let b = TrackedMutex::new(&reg, "b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a -> b
        }
        {
            let _gb = b.lock();
            let _ga = a.try_lock().expect("uncontended"); // reversed, but try
        }
        assert!(reg.violations().is_empty(), "{:?}", reg.violations());
    }

    /// …but a lock *held* via trylock does source edges for later
    /// blocking acquisitions: blocking while holding it can deadlock.
    #[test]
    fn trylock_held_lock_still_sources_edges() {
        let reg = LockRegistry::new();
        let a = TrackedMutex::new(&reg, "a", ());
        let b = TrackedMutex::new(&reg, "b", ());
        {
            let _ga = a.try_lock().expect("uncontended");
            let _gb = b.lock(); // records a -> b even though a came via try
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // b -> a: inversion against the try-sourced edge
        }
        assert_eq!(reg.violations().len(), 1);
        assert!(matches!(
            reg.violations()[0],
            Violation::OrderInversion { a: "b", b: "a" }
        ));
    }

    #[test]
    fn held_across_blocking_io_flagged_once_per_class_and_op() {
        let reg = LockRegistry::new();
        let shard = TrackedMutex::new(&reg, "shard", ());
        let iolock = TrackedMutex::new_io_ok(&reg, "iolock", ());
        {
            let _s = shard.lock();
            let _i = iolock.lock();
            reg.note_blocking_io("write_block");
            reg.note_blocking_io("write_block"); // deduped
            reg.note_blocking_io("flush"); // distinct op: second report
        }
        let v = reg.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v
            .iter()
            .all(|v| matches!(v, Violation::HeldAcrossIo { lock: "shard", .. })));
        reg.note_blocking_io("write_block");
        assert_eq!(reg.violations().len(), 2, "nothing held: no new report");
    }

    #[test]
    fn same_class_nesting_needs_increasing_rank() {
        let reg = LockRegistry::new();
        let s0 = TrackedMutex::new_ranked(&reg, "shard", 0, ());
        let s1 = TrackedMutex::new_ranked(&reg, "shard", 1, ());
        {
            let _a = s0.lock();
            let _b = s1.lock(); // ascending sweep: fine
        }
        assert!(reg.violations().is_empty());
        {
            let _b = s1.lock();
            let _a = s0.lock(); // descending: self-deadlock hazard
        }
        let v = reg.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0],
            Violation::SameClassNesting { class: "shard" }
        ));
    }

    #[test]
    fn unranked_same_class_nesting_flagged() {
        let reg = LockRegistry::new();
        let x = TrackedMutex::new(&reg, "table", ());
        let y = TrackedMutex::new(&reg, "table", ());
        let _gx = x.lock();
        let _gy = y.lock();
        assert_eq!(reg.violations().len(), 1);
        assert!(matches!(
            reg.violations()[0],
            Violation::SameClassNesting { class: "table" }
        ));
    }

    #[test]
    fn disabled_registry_skips_graph_but_keeps_counters() {
        let reg = LockRegistry::new_disabled();
        let a = TrackedMutex::new(&reg, "a", ());
        let b = TrackedMutex::new(&reg, "b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
            reg.note_blocking_io("write_block");
        }
        assert!(reg.violations().is_empty(), "lockdep off: no findings");
        let stats = reg.class_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.acquisitions == 2));
    }

    /// Runs every guard kind once, each in its own class, sleeping `hold`
    /// under it: `lock`, `try_lock`, across a condvar `wait` (the sleep
    /// follows the reacquisition), across `unlocked`, rw `read`, `write`
    /// and `try_write`, and `KLock`.
    fn hold_every_guard_kind(reg: &Arc<LockRegistry>, hold: Duration) {
        let lock = TrackedMutex::new(reg, "lock", ());
        let try_lock = TrackedMutex::new(reg, "try_lock", ());
        let wait = TrackedMutex::new(reg, "wait", false);
        let unlocked = TrackedMutex::new(reg, "unlocked", ());
        let read = TrackedRwLock::new(reg, "read", ());
        let write = TrackedRwLock::new(reg, "write", ());
        let try_write = TrackedRwLock::new(reg, "try_write", ());
        let klock = KLock::new(Arc::clone(reg), "klock", ());
        {
            let _g = lock.lock();
            thread::sleep(hold);
        }
        {
            let _g = try_lock.try_lock().expect("uncontended");
            thread::sleep(hold);
        }
        let cv = Condvar::new();
        thread::scope(|s| {
            let mut g = wait.lock();
            // The notifier can take the lock only once `wait` released it.
            s.spawn(|| {
                *wait.lock() = true;
                cv.notify_all();
            });
            while !*g {
                g.wait(&cv);
            }
            thread::sleep(hold);
        });
        {
            let mut g = unlocked.lock();
            g.unlocked(|| ());
            thread::sleep(hold);
        }
        {
            let _g = read.read();
            thread::sleep(hold);
        }
        {
            let _g = write.write();
            thread::sleep(hold);
        }
        {
            let _g = try_write.try_write().expect("uncontended");
            thread::sleep(hold);
        }
        {
            let _g = klock.lock();
            thread::sleep(hold);
        }
    }

    #[test]
    fn disabled_registry_reads_no_clock_but_counts_acquisitions() {
        let reg = LockRegistry::new_disabled();
        hold_every_guard_kind(&reg, Duration::from_millis(1));
        let stats = reg.class_stats();
        assert_eq!(stats.len(), 8);
        for s in &stats {
            assert_eq!(s.held_ns, 0, "{}: lockdep off, no hold time", s.name);
            // The waiter takes its lock twice (before and after the
            // wait) and the notifier once; every other kind once, and
            // `unlocked` twice.
            let want = match s.name {
                "wait" => 3,
                "unlocked" => 2,
                _ => 1,
            };
            assert!(s.acquisitions >= want, "{}: {}", s.name, s.acquisitions);
        }
    }

    #[test]
    fn enabled_registry_measures_hold_time_under_every_guard_kind() {
        let reg = LockRegistry::new();
        hold_every_guard_kind(&reg, Duration::from_millis(1));
        let stats = reg.class_stats();
        assert_eq!(stats.len(), 8);
        for s in &stats {
            assert!(s.held_ns >= 1_000_000, "{}: held {} ns", s.name, s.held_ns);
        }
        assert!(reg.violations().is_empty(), "{:?}", reg.violations());
    }

    #[test]
    fn class_stats_and_edges_snapshot() {
        let reg = LockRegistry::new();
        let a = TrackedMutex::new(&reg, "outer", ());
        let b = TrackedRwLock::new(&reg, "inner", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.write();
        }
        {
            let _gb = b.read();
        }
        assert_eq!(reg.class_count(), 2);
        assert_eq!(reg.edges(), vec![("outer", "inner")]);
        let stats = reg.class_stats();
        let inner = stats.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.acquisitions, 2, "read and write both counted");
        assert_eq!(reg.cycles_found(), 0);
    }

    #[test]
    fn condvar_wait_releases_the_lock_for_ordering_purposes() {
        let reg = LockRegistry::new();
        let m = Arc::new(TrackedMutex::new(&reg, "group", false));
        let cv = Arc::new(Condvar::new());
        let waiter = {
            let m = Arc::clone(&m);
            let cv = Arc::clone(&cv);
            std::thread::spawn(move || {
                let mut g = m.lock();
                while !*g {
                    g.wait(&cv);
                }
            })
        };
        {
            let mut g = m.lock();
            *g = true;
            cv.notify_all();
        }
        waiter.join().unwrap();
        assert!(reg.violations().is_empty());
    }
}
