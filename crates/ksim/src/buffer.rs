//! Buffer cache with Linux `buffer_head` state flags.
//!
//! The paper's §4.4 singles out `buffer_head` as its example of complex
//! interface semantics: "includes 16 state flags … set independently,
//! resulting in many possible combinations of states. Not all of the
//! combinations are valid, but even determining which are can be
//! complicated." This module reproduces that interface: a write-back buffer
//! cache whose buffers carry the sixteen flags, set independently by file
//! systems and the journal, plus a [`Buffer::validate`] routine encoding
//! the legal-combination rules — the machine-checkable fragment of the
//! specification the paper says a verified file system would need.
//! One flag is not set by hand: `Delay` follows the buffer's count of
//! live [`DelayPin`]s (§4.3's ownership model in place of a convention).
//!
//! **The hit path.** A cached `bread` takes the shard's read lock, clones
//! the buffer's `Arc`, and writes no other line that a second CPU reads:
//! the hit counts into the calling thread's slot of a
//! [`crate::percpu::Counter`], the LRU stamp is stored only if it changed
//! since the last insertion, and `Uptodate` is tested with one atomic
//! load of the flag word. The flag word is written only under the head
//! lock and `Uptodate` is never cleared, so a set bit seen without the
//! lock stays true.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;

use crate::block::BlockDevice;
use crate::errno::KResult;
use crate::lock::{LockRegistry, TrackedMutex, TrackedRwLock};
use crate::percpu::Counter;

/// The sixteen `buffer_head` state flags (names follow Linux's
/// `enum bh_state_bits`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
#[allow(missing_docs)]
pub enum BhFlag {
    Uptodate = 1 << 0,
    Dirty = 1 << 1,
    Lock = 1 << 2,
    Req = 1 << 3,
    Mapped = 1 << 4,
    New = 1 << 5,
    AsyncRead = 1 << 6,
    AsyncWrite = 1 << 7,
    Delay = 1 << 8,
    Boundary = 1 << 9,
    WriteEio = 1 << 10,
    Unwritten = 1 << 11,
    Quiet = 1 << 12,
    Meta = 1 << 13,
    Prio = 1 << 14,
    DeferCompletion = 1 << 15,
}

/// All sixteen flags, for exhaustive enumeration in tests and the study.
pub const ALL_FLAGS: [BhFlag; 16] = [
    BhFlag::Uptodate,
    BhFlag::Dirty,
    BhFlag::Lock,
    BhFlag::Req,
    BhFlag::Mapped,
    BhFlag::New,
    BhFlag::AsyncRead,
    BhFlag::AsyncWrite,
    BhFlag::Delay,
    BhFlag::Boundary,
    BhFlag::WriteEio,
    BhFlag::Unwritten,
    BhFlag::Quiet,
    BhFlag::Meta,
    BhFlag::Prio,
    BhFlag::DeferCompletion,
];

/// A packed set of [`BhFlag`]s.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferState(pub u16);

impl BufferState {
    /// The empty state.
    pub const EMPTY: BufferState = BufferState(0);

    /// True if `flag` is set.
    pub fn has(self, flag: BhFlag) -> bool {
        self.0 & flag as u16 != 0
    }

    /// Returns the state with `flag` set.
    #[must_use]
    pub fn with(self, flag: BhFlag) -> BufferState {
        BufferState(self.0 | flag as u16)
    }

    /// Returns the state with `flag` cleared.
    #[must_use]
    pub fn without(self, flag: BhFlag) -> BufferState {
        BufferState(self.0 & !(flag as u16))
    }
}

/// A violated `buffer_head` flag invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagViolation {
    /// `Dirty` without `Uptodate`: modified contents that were never valid.
    DirtyNotUptodate,
    /// `Dirty` without `Mapped`: nothing to write the buffer back to.
    DirtyNotMapped,
    /// `Unwritten` without `Mapped`: an unwritten extent must be mapped.
    UnwrittenNotMapped,
    /// `New` without `Mapped`: `New` marks a freshly mapped block.
    NewNotMapped,
    /// `AsyncRead` without `Lock`: IO in flight must hold the buffer lock.
    AsyncReadNotLocked,
    /// `AsyncWrite` without `Lock`.
    AsyncWriteNotLocked,
    /// `AsyncRead` and `AsyncWrite` simultaneously.
    ReadWriteRace,
    /// `Unwritten` and `Dirty` simultaneously (ext4 converts before dirtying).
    DirtyUnwritten,
}

/// Checks the legal-combination rules for a flag state.
///
/// These eight rules are the subset of `buffer_head` semantics that the
/// workspace's file systems and journal rely on; they correspond to the
/// axioms the §4.4 "axiomatic model of unverified code" exports.
pub fn validate_state(s: BufferState) -> Result<(), FlagViolation> {
    use BhFlag::*;
    if s.has(Dirty) && !s.has(Uptodate) {
        return Err(FlagViolation::DirtyNotUptodate);
    }
    if s.has(Dirty) && !s.has(Mapped) {
        return Err(FlagViolation::DirtyNotMapped);
    }
    if s.has(Unwritten) && !s.has(Mapped) {
        return Err(FlagViolation::UnwrittenNotMapped);
    }
    if s.has(New) && !s.has(Mapped) {
        return Err(FlagViolation::NewNotMapped);
    }
    if s.has(AsyncRead) && !s.has(Lock) {
        return Err(FlagViolation::AsyncReadNotLocked);
    }
    if s.has(AsyncWrite) && !s.has(Lock) {
        return Err(FlagViolation::AsyncWriteNotLocked);
    }
    if s.has(AsyncRead) && s.has(AsyncWrite) {
        return Err(FlagViolation::ReadWriteRace);
    }
    if s.has(Unwritten) && s.has(Dirty) {
        return Err(FlagViolation::DirtyUnwritten);
    }
    Ok(())
}

/// The lock-protected part of one cached block: its contents and its
/// pin count. The flag word lives beside it in [`Buffer`], written only
/// while this head is locked.
#[derive(Debug)]
pub struct BufferHead {
    /// The block this buffer shadows.
    pub blkno: u64,
    /// Block contents.
    pub data: Vec<u8>,
    /// Live [`DelayPin`]s on this buffer; `Delay` is set exactly while
    /// this is nonzero.
    pins: usize,
}

/// A cached buffer; shared between the cache and its users.
pub struct Buffer {
    blkno: u64,
    head: TrackedMutex<BufferHead>,
    /// The packed [`BufferState`]. Written only under `head` (see
    /// [`Buffer::set_state`]), read with one load: a reader without the
    /// lock sees the state as of some recent head-lock release. Stores
    /// are `Release` and loads `Acquire`, so a reader that sees
    /// `Uptodate` also sees the fill that preceded it.
    flags: AtomicU16,
    /// LRU stamp: the cache tick at the buffer's insertion or last hit.
    last_used: AtomicU64,
}

impl Buffer {
    /// The block number this buffer shadows.
    pub fn blkno(&self) -> u64 {
        self.blkno
    }

    /// Replaces the flag word with `f(current)`. Taking the locked head
    /// is the proof that the caller holds the head lock, so the flag
    /// word has one writer at a time and no update is lost.
    fn set_state(&self, _held: &mut BufferHead, f: impl FnOnce(BufferState) -> BufferState) {
        let s = f(self.state());
        self.flags.store(s.0, Ordering::Release);
    }

    /// Starts a writeback if the buffer is dirty and unpinned,
    /// snapshotting the image into `out` under the caller's head hold.
    /// Dirtiness moves to the IO: a re-dirty during the write stays set
    /// and reaches the device on the next sync.
    fn start_writeback(&self, h: &mut BufferHead, out: &mut Vec<u8>) -> bool {
        if !writable(self.state()) {
            return false;
        }
        self.set_state(h, |s| {
            s.with(BhFlag::Lock)
                .with(BhFlag::AsyncWrite)
                .without(BhFlag::Dirty)
        });
        out.extend_from_slice(&h.data);
        true
    }

    /// Runs `f` over the buffer contents.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.head.lock().data)
    }

    /// Runs `f` over mutable contents and marks the buffer dirty
    /// (`Dirty | Uptodate | Mapped`), clearing `New`.
    pub fn write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut h = self.head.lock();
        let r = f(&mut h.data);
        self.set_state(&mut h, written);
        r
    }

    /// Publishes `data` as this buffer's newest image, marked as by
    /// [`Buffer::write`] and pinned in the same critical section.
    pub fn publish(self: &Arc<Self>, data: &[u8]) -> DelayPin {
        let mut h = self.head.lock();
        h.data.copy_from_slice(data);
        h.pins += 1;
        self.set_state(&mut h, |s| written(s).with(BhFlag::Delay));
        drop(h);
        DelayPin(Arc::clone(self))
    }

    /// True while some [`DelayPin`] on this buffer is alive.
    pub fn is_pinned(&self) -> bool {
        self.test_flag(BhFlag::Delay)
    }

    /// Current flag state (`Delay` while pinned), read without the head
    /// lock.
    pub fn state(&self) -> BufferState {
        BufferState(self.flags.load(Ordering::Acquire))
    }

    /// Sets a flag (raw access for legacy code), except `Delay`.
    pub fn set_flag(&self, flag: BhFlag) {
        assert_ne!(flag, BhFlag::Delay, "Delay is taken with Buffer::publish");
        let mut h = self.head.lock();
        self.set_state(&mut h, |s| s.with(flag));
    }

    /// Clears a flag, except `Delay` and `Uptodate`. `Delay` clears when
    /// the last pin drops. `Uptodate` is never cleared: the cache's hit
    /// path trusts a set `Uptodate` it reads without the head lock.
    pub fn clear_flag(&self, flag: BhFlag) {
        assert_ne!(flag, BhFlag::Delay, "Delay clears when its pins drop");
        assert_ne!(flag, BhFlag::Uptodate, "Uptodate is never cleared");
        let mut h = self.head.lock();
        self.set_state(&mut h, |s| s.without(flag));
    }

    /// Tests a flag.
    pub fn test_flag(&self, flag: BhFlag) -> bool {
        self.state().has(flag)
    }

    /// Validates the current flag combination.
    pub fn validate(&self) -> Result<(), FlagViolation> {
        validate_state(self.state())
    }
}

/// New contents: `Dirty | Uptodate | Mapped`, clearing `New`.
fn written(s: BufferState) -> BufferState {
    s.with(BhFlag::Uptodate)
        .with(BhFlag::Mapped)
        .with(BhFlag::Dirty)
        .without(BhFlag::New)
}

/// Dirty and unpinned: the image is the cache's to write home.
fn writable(s: BufferState) -> bool {
    s.has(BhFlag::Dirty) && !s.has(BhFlag::Delay)
}

/// A write-ahead claim on a published image, made only by
/// [`Buffer::publish`]. While a buffer has pins, writeback, eviction and
/// [`BufferCache::invalidate_blocks`] leave it alone. Its journal drops a
/// pin once a checkpoint wrote the image home, or when the transaction
/// failed (the image must never reach home), so the last drop marks the
/// buffer clean.
///
/// A pin is one count, so it cannot be duplicated:
///
/// ```compile_fail
/// # use sk_ksim::buffer::DelayPin;
/// fn share(pin: DelayPin) -> (DelayPin, DelayPin) {
///     (pin.clone(), pin)
/// }
/// ```
///
/// and it is released exactly once — it cannot be used after that:
///
/// ```compile_fail
/// # use sk_ksim::buffer::DelayPin;
/// fn release_twice(pin: DelayPin) {
///     drop(pin);
///     drop(pin);
/// }
/// ```
#[must_use = "dropping a pin releases it at once"]
pub struct DelayPin(Arc<Buffer>);

impl Drop for DelayPin {
    fn drop(&mut self) {
        let mut h = self.0.head.lock();
        h.pins -= 1;
        if h.pins == 0 {
            self.0
                .set_state(&mut h, |s| s.without(BhFlag::Dirty).without(BhFlag::Delay));
        }
    }
}

/// Cache statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that went to the device.
    pub misses: u64,
    /// Dirty buffers written back.
    pub writebacks: u64,
    /// Clean buffers evicted to stay under capacity.
    pub evictions: u64,
}

/// Default shard count for [`BufferCache`] (a modest power of two: enough
/// to take lock contention off the storage hot path without fragmenting
/// small caches).
pub const DEFAULT_SHARDS: usize = 8;

/// One lock stripe: a hash-partitioned slice of the cache.
struct Shard {
    map: HashMap<u64, Arc<Buffer>>,
}

/// Per-shard statistics: one thread-sharded counter whose lanes are
/// [`HITS`], [`MISSES`], [`WRITEBACKS`] and [`EVICTIONS`], so a hit
/// under the shard read lock counts into the caller's own line.
type ShardStats = Counter<4>;
const HITS: usize = 0;
const MISSES: usize = 1;
const WRITEBACKS: usize = 2;
const EVICTIONS: usize = 3;

fn snapshot(stats: &ShardStats) -> CacheStats {
    let [hits, misses, writebacks, evictions] = stats.sum();
    CacheStats {
        hits,
        misses,
        writebacks,
        evictions,
    }
}

/// A write-back buffer cache over a block device, lock-striped into
/// [`DEFAULT_SHARDS`] shards (hash of the block number picks the stripe).
///
/// Reads of already-cached buffers take only a shard *read* lock (see
/// the module doc's hit path); LRU position is a relaxed atomic stamp on
/// the buffer, so concurrent readers of different blocks — and even of
/// the same shard — never serialize on an exclusive cache lock. Device IO
/// (miss fill, write-back) happens outside every shard lock, so slow
/// simulated IO overlaps across threads instead of queueing behind one
/// cache-wide mutex.
pub struct BufferCache {
    dev: Arc<dyn BlockDevice>,
    /// Per-shard buffer capacity (total ≈ `per_shard_cap × shards.len()`).
    per_shard_cap: usize,
    shards: Vec<TrackedRwLock<Shard>>,
    stats: Vec<ShardStats>,
    /// LRU clock. It advances only on insertion, by two: a new buffer
    /// takes the odd stamp in between, and a hit stores the (even) tick
    /// itself, so buffers hit between two insertions tie with each other
    /// but stay ordered against every insertion.
    tick: AtomicU64,
    /// Lockdep registry observing the shard locks, buffer-head mutexes
    /// and the `BlockDevice` boundary.
    registry: Arc<LockRegistry>,
}

impl BufferCache {
    /// Creates a cache of at most `capacity` buffers over `dev`, striped
    /// into [`DEFAULT_SHARDS`] shards (fewer for tiny capacities).
    /// Lockdep is disabled; use [`BufferCache::with_registry`] to observe
    /// this cache in a shared registry.
    pub fn new(dev: Arc<dyn BlockDevice>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self::with_shards(dev, capacity, DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (clamped to
    /// `[1, capacity]` so every shard holds at least one buffer). The
    /// single-shard configuration reproduces the old global-lock design
    /// for ablation benchmarks. Lockdep is disabled.
    pub fn with_shards(dev: Arc<dyn BlockDevice>, capacity: usize, shards: usize) -> Self {
        Self::with_registry(dev, capacity, shards, LockRegistry::new_disabled())
    }

    /// Creates a cache whose locks report to `registry`, so one lockdep
    /// graph can observe the cache together with the journal and file
    /// system built on top of it.
    pub fn with_registry(
        dev: Arc<dyn BlockDevice>,
        capacity: usize,
        shards: usize,
        registry: Arc<LockRegistry>,
    ) -> Self {
        let capacity = capacity.max(1);
        let nshards = shards.clamp(1, capacity);
        BufferCache {
            dev,
            per_shard_cap: (capacity / nshards).max(1),
            shards: (0..nshards)
                .map(|i| {
                    TrackedRwLock::new_ranked(
                        &registry,
                        "buffer.shard",
                        i as u64,
                        Shard {
                            map: HashMap::new(),
                        },
                    )
                })
                .collect(),
            stats: (0..nshards).map(|_| ShardStats::new()).collect(),
            tick: AtomicU64::new(0),
            registry,
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }

    /// The lockdep registry this cache reports to.
    pub fn lock_registry(&self) -> &Arc<LockRegistry> {
        &self.registry
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index for a block number (multiplicative hash so strided
    /// access patterns still spread across stripes).
    fn shard_of(&self, blkno: u64) -> usize {
        let h = blkno.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Stamps a hit buffer with the current tick, writing its line only
    /// if it was not already hit since the last insertion.
    fn touch(&self, buf: &Buffer) {
        let t = self.tick.load(Ordering::Relaxed);
        if buf.last_used.load(Ordering::Relaxed) != t {
            buf.last_used.store(t, Ordering::Relaxed);
        }
    }

    /// A buffer to insert, stamped newer than every earlier hit and
    /// insertion (the odd stamp between two ticks).
    fn new_buffer(&self, blkno: u64, data: Vec<u8>, state: BufferState) -> Arc<Buffer> {
        Arc::new(Buffer {
            blkno,
            head: TrackedMutex::new(
                &self.registry,
                "buffer.head",
                BufferHead {
                    blkno,
                    data,
                    pins: 0,
                },
            ),
            flags: AtomicU16::new(state.0),
            last_used: AtomicU64::new(self.tick.fetch_add(2, Ordering::Relaxed) + 1),
        })
    }

    /// Evicts clean, unreferenced buffers (least-recently used first)
    /// until the shard fits its capacity; buffers still referenced
    /// elsewhere are skipped. Dirty victims are *not* written back here —
    /// the caller holds the shard write lock, and device I/O under a
    /// shard lock is exactly what lockdep's held-across-I/O check
    /// forbids. They stay in the map and are returned for the caller to
    /// hand to [`BufferCache::writeback_deferred`] once the lock drops,
    /// which writes them back and then completes the eviction.
    ///
    /// Deferring (rather than remove-then-write) is load-bearing for the
    /// no-lost-update invariant: were a dirty victim removed before its
    /// home write landed, a concurrent miss on the same block would
    /// reserve a fresh buffer and fill it with the stale device image.
    #[must_use = "dirty victims must be written back after the shard lock drops"]
    fn shrink(&self, idx: usize, shard: &mut Shard) -> Vec<Arc<Buffer>> {
        let mut deferred: Vec<Arc<Buffer>> = Vec::new();
        if shard.map.len() <= self.per_shard_cap {
            return deferred;
        }
        let mut order: Vec<(u64, u64)> = shard
            .map
            .values()
            .map(|b| (b.last_used.load(Ordering::Relaxed), b.blkno()))
            .collect();
        order.sort_unstable();
        for (_, blkno) in order {
            if shard.map.len() <= self.per_shard_cap {
                break;
            }
            let buf = match shard.map.get(&blkno) {
                Some(b) => Arc::clone(b),
                None => continue,
            };
            // Two strong refs: the map's and ours. A pin holds one too, so
            // a pinned buffer (its newest image not yet journal-durable)
            // is never dropped here.
            if Arc::strong_count(&buf) > 2 {
                continue;
            }
            if buf.test_flag(BhFlag::Dirty) {
                deferred.push(buf);
                continue;
            }
            shard.map.remove(&blkno);
            self.stats[idx].add(EVICTIONS, 1);
        }
        deferred
    }

    /// Writes back the dirty victims a `shrink` pass deferred, then
    /// finishes their eviction. Must be called with no shard lock held:
    /// the device write happens lock-free, and the removal re-checks the
    /// buffer under the shard lock (a concurrent `bread` may have
    /// re-referenced, re-dirtied, or pinned it meanwhile — or replaced the
    /// map entry entirely).
    fn writeback_deferred(&self, deferred: &[Arc<Buffer>]) -> KResult<()> {
        for buf in deferred {
            let idx = self.shard_of(buf.blkno());
            self.writeback(buf)?;
            let mut shard = self.shards[idx].write();
            match shard.map.get(&buf.blkno()) {
                Some(b) if Arc::ptr_eq(b, buf) => {}
                _ => continue,
            }
            // Two strong refs: the map's and the deferred list's (a pin
            // would be a third).
            if Arc::strong_count(buf) > 2 || buf.test_flag(BhFlag::Dirty) {
                continue;
            }
            shard.map.remove(&buf.blkno());
            self.stats[idx].add(EVICTIONS, 1);
        }
        Ok(())
    }

    /// Writes one buffer back to the device if it is dirty and unpinned.
    fn writeback(&self, buf: &Buffer) -> KResult<()> {
        let mut data = Vec::new();
        if !buf.start_writeback(&mut buf.head.lock(), &mut data) {
            return Ok(());
        }
        self.registry.note_blocking_io("write_block");
        let res = self.dev.write_block(buf.blkno(), &data);
        self.end_writeback(buf, res.is_ok());
        res
    }

    /// Writes `run`, contiguous buffers whose images `payload` holds, as
    /// one vectored extent; empties both.
    fn write_run(&self, run: &mut Vec<Arc<Buffer>>, payload: &mut Vec<u8>) -> KResult<()> {
        let Some(start) = run.first().map(|b| b.blkno()) else {
            return Ok(());
        };
        self.registry.note_blocking_io("write_blocks");
        let res = self.dev.write_blocks(start, run.len(), payload);
        for buf in run.drain(..) {
            self.end_writeback(&buf, res.is_ok());
        }
        payload.clear();
        res
    }

    /// Ends `buf`'s writeback with the device's verdict: `Req` and a
    /// counted writeback, or `WriteEio` with the dirtiness restored.
    fn end_writeback(&self, buf: &Buffer, ok: bool) {
        buf.set_state(&mut buf.head.lock(), |s| {
            let s = s.without(BhFlag::AsyncWrite).without(BhFlag::Lock);
            if ok {
                s.with(BhFlag::Req)
            } else {
                s.with(BhFlag::WriteEio).with(BhFlag::Dirty)
            }
        });
        if ok {
            let idx = self.shard_of(buf.blkno());
            self.stats[idx].add(WRITEBACKS, 1);
        }
    }

    /// Reads block `blkno` through the cache (`bread` in Linux terms):
    /// the returned buffer is `Uptodate | Mapped`.
    pub fn bread(&self, blkno: u64) -> KResult<Arc<Buffer>> {
        let idx = self.shard_of(blkno);
        // Fast path: shard read lock only. The common case — an
        // already-cached, uptodate buffer — never blocks other readers.
        // The lookup is a standalone statement so the read guard is
        // released before the miss path below takes the write lock
        // (an `if let` scrutinee guard would outlive the else branch
        // on edition 2021 and self-deadlock).
        let cached = self.shards[idx].read().map.get(&blkno).cloned();
        let mut deferred: Vec<Arc<Buffer>> = Vec::new();
        let buf = if let Some(buf) = cached {
            self.stats[idx].add(HITS, 1);
            self.touch(&buf);
            buf
        } else {
            // Miss: reserve a placeholder under the shard write lock,
            // then fill it from the device *outside* the lock. The
            // reservation must come before the device read: with
            // read-then-insert, a concurrent thread can create, dirty,
            // write back, and evict a buffer for this block while our
            // read is in flight, and inserting our pre-writeback image
            // afterwards would silently discard its committed update.
            let mut shard = self.shards[idx].write();
            if let Some(raced) = shard.map.get(&blkno).cloned() {
                self.stats[idx].add(HITS, 1);
                self.touch(&raced);
                raced
            } else {
                self.stats[idx].add(MISSES, 1);
                let buf = self.new_buffer(
                    blkno,
                    vec![0u8; self.dev.block_size()],
                    BufferState::EMPTY.with(BhFlag::Mapped),
                );
                shard.map.insert(blkno, Arc::clone(&buf));
                deferred = self.shrink(idx, &mut shard);
                buf
            }
        };
        self.writeback_deferred(&deferred)?;
        // Whether cached, raced, or freshly reserved: anything not yet
        // uptodate (placeholder or earlier getblk) is read in here, so
        // the documented `Uptodate | Mapped` contract holds on every
        // path. Device IO overlaps across threads — no shard lock held.
        self.fill_uptodate(&buf)?;
        Ok(buf)
    }

    /// Reads `buf` in from the device unless it is already uptodate.
    /// `Uptodate` is never cleared once set ([`Buffer::clear_flag`]
    /// refuses it), so a set bit read without the head lock is final,
    /// and the re-check under the lock is decisive: a concurrent writer
    /// that made the buffer uptodate (and possibly dirty) wins, and the
    /// device image — which may predate that write — is discarded.
    fn fill_uptodate(&self, buf: &Arc<Buffer>) -> KResult<()> {
        if buf.test_flag(BhFlag::Uptodate) {
            return Ok(());
        }
        let mut data = vec![0u8; self.dev.block_size()];
        self.registry.note_blocking_io("read_block");
        self.dev.read_block(buf.blkno(), &mut data)?;
        let mut h = buf.head.lock();
        if !buf.test_flag(BhFlag::Uptodate) {
            h.data = data;
            buf.set_state(&mut h, |s| {
                s.with(BhFlag::Uptodate)
                    .with(BhFlag::Mapped)
                    .with(BhFlag::Req)
            });
        }
        Ok(())
    }

    /// Gets a buffer for `blkno` without reading the device (`getblk`):
    /// contents are zeroed and the buffer is `Mapped | New`, not `Uptodate`.
    pub fn getblk(&self, blkno: u64) -> KResult<Arc<Buffer>> {
        let idx = self.shard_of(blkno);
        if let Some(buf) = self.shards[idx].read().map.get(&blkno).cloned() {
            self.stats[idx].add(HITS, 1);
            self.touch(&buf);
            return Ok(buf);
        }
        let mut shard = self.shards[idx].write();
        if let Some(buf) = shard.map.get(&blkno).cloned() {
            self.stats[idx].add(HITS, 1);
            self.touch(&buf);
            return Ok(buf);
        }
        self.stats[idx].add(MISSES, 1);
        let buf = self.new_buffer(
            blkno,
            vec![0u8; self.dev.block_size()],
            BufferState::EMPTY.with(BhFlag::Mapped).with(BhFlag::New),
        );
        shard.map.insert(blkno, Arc::clone(&buf));
        let deferred = self.shrink(idx, &mut shard);
        drop(shard);
        self.writeback_deferred(&deferred)?;
        Ok(buf)
    }

    /// Writes back one block if it is cached, dirty and unpinned.
    pub fn sync_block(&self, blkno: u64) -> KResult<()> {
        match self.peek(blkno) {
            Some(buf) => self.writeback(&buf),
            None => Ok(()),
        }
    }

    /// Writes back every dirty, unpinned buffer (ascending block order,
    /// for determinism) and issues a device flush barrier. Adjacent dirty
    /// blocks coalesce into vectored [`BlockDevice::write_blocks`]
    /// extents, charging one seek per run instead of one per block.
    pub fn sync_all(&self) -> KResult<()> {
        let mut dirty: Vec<Arc<Buffer>> = Vec::new();
        for shard in &self.shards {
            dirty.extend(
                shard
                    .read()
                    .map
                    .values()
                    .filter(|b| writable(b.state()))
                    .cloned(),
            );
        }
        dirty.sort_by_key(|b| b.blkno());
        let mut run: Vec<Arc<Buffer>> = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        for buf in dirty {
            if run
                .last()
                .is_some_and(|prev| prev.blkno() + 1 != buf.blkno())
            {
                self.write_run(&mut run, &mut payload)?;
            }
            // The scan's verdict may be stale by now: the snapshot
            // decides again, and a buffer pinned or cleaned since is
            // skipped, which also ends the run.
            if buf.start_writeback(&mut buf.head.lock(), &mut payload) {
                run.push(buf);
            }
        }
        self.write_run(&mut run, &mut payload)?;
        self.registry.note_blocking_io("flush");
        self.dev.flush()
    }

    /// Returns the cached buffer for `blkno`, if any, without touching
    /// LRU position, statistics, or the device — unlike [`Self::getblk`],
    /// a miss does not insert anything.
    pub fn peek(&self, blkno: u64) -> Option<Arc<Buffer>> {
        let idx = self.shard_of(blkno);
        self.shards[idx].read().map.get(&blkno).cloned()
    }

    /// Drops every cached buffer without writeback (used after a simulated
    /// crash, when cached state is by definition lost).
    pub fn invalidate(&self) {
        for shard in &self.shards {
            shard.write().map.clear();
        }
    }

    /// Drops the listed blocks' buffers without writeback — except
    /// pinned buffers, whose newest image belongs to an in-flight journal
    /// transaction and must stay visible to readers. Failed-commit paths
    /// use this to revert only their own published blocks instead of
    /// clobbering the whole cache.
    pub fn invalidate_blocks(&self, blknos: &[u64]) {
        for &blkno in blknos {
            let idx = self.shard_of(blkno);
            let mut shard = self.shards[idx].write();
            let pinned = shard.map.get(&blkno).is_some_and(|b| b.is_pinned());
            if !pinned {
                shard.map.remove(&blkno);
            }
        }
    }

    /// Number of cached buffers some [`DelayPin`] still holds.
    pub fn pinned(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().map.values().filter(|b| b.is_pinned()).count())
            .sum()
    }

    /// Number of buffers currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// True if the cache holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of cache statistics, summed over shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.stats {
            let snap = snapshot(s);
            total.hits += snap.hits;
            total.misses += snap.misses;
            total.writebacks += snap.writebacks;
            total.evictions += snap.evictions;
        }
        total
    }

    /// Per-shard statistics snapshots (for the striping ablation).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.stats.iter().map(snapshot).collect()
    }

    /// Validates the flag state of every cached buffer, returning the block
    /// numbers (with violations) that fail.
    pub fn validate_all(&self) -> Vec<(u64, FlagViolation)> {
        let mut bad: Vec<(u64, FlagViolation)> = Vec::new();
        for shard in &self.shards {
            bad.extend(
                shard
                    .read()
                    .map
                    .values()
                    .filter_map(|b| b.validate().err().map(|v| (b.blkno(), v))),
            );
        }
        bad.sort_by_key(|&(b, _)| b);
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{RamDisk, BLOCK_SIZE};

    fn cache(blocks: u64, cap: usize) -> BufferCache {
        BufferCache::new(Arc::new(RamDisk::new(blocks)), cap)
    }

    #[test]
    fn bread_sets_uptodate_mapped() {
        let c = cache(8, 4);
        let b = c.bread(0).unwrap();
        assert!(b.test_flag(BhFlag::Uptodate));
        assert!(b.test_flag(BhFlag::Mapped));
        assert!(!b.test_flag(BhFlag::Dirty));
        b.validate().unwrap();
    }

    #[test]
    fn getblk_is_new_not_uptodate() {
        let c = cache(8, 4);
        let b = c.getblk(1).unwrap();
        assert!(b.test_flag(BhFlag::New));
        assert!(!b.test_flag(BhFlag::Uptodate));
        b.validate().unwrap();
    }

    #[test]
    fn write_marks_dirty_and_sync_writes_back() {
        let c = cache(8, 4);
        let b = c.bread(2).unwrap();
        b.write(|d| d[0] = 0xEE);
        assert!(b.test_flag(BhFlag::Dirty));
        c.sync_all().unwrap();
        assert!(!b.test_flag(BhFlag::Dirty));
        let mut out = vec![0u8; BLOCK_SIZE];
        c.device().read_block(2, &mut out).unwrap();
        assert_eq!(out[0], 0xEE);
    }

    #[test]
    fn cache_hits_counted() {
        let c = cache(8, 4);
        c.bread(0).unwrap();
        c.bread(0).unwrap();
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn eviction_respects_capacity_and_writes_back_dirty() {
        // Single shard reproduces the global-LRU eviction order exactly.
        let c = BufferCache::with_shards(Arc::new(RamDisk::new(16)), 2, 1);
        for i in 0..4u64 {
            let b = c.bread(i).unwrap();
            b.write(|d| d[0] = i as u8);
            drop(b);
        }
        assert!(c.len() <= 2);
        assert!(c.stats().evictions >= 2);
        // Evicted dirty data must have reached the device.
        let mut out = vec![0u8; BLOCK_SIZE];
        c.device().read_block(0, &mut out).unwrap();
        assert_eq!(out[0], 0);
        c.device().read_block(1, &mut out).unwrap();
        assert_eq!(out[0], 1);
    }

    #[test]
    fn sharded_eviction_writes_back_dirty() {
        // With striping, which blocks evict is hash-dependent; what must
        // hold is that every dirty buffer's data is either still cached
        // or already on the device.
        let c = cache(64, 4);
        assert!(c.shard_count() > 1);
        for i in 0..16u64 {
            let b = c.bread(i).unwrap();
            b.write(|d| d[0] = 0x40 + i as u8);
            drop(b);
        }
        assert!(c.len() <= 8, "len {} exceeds total capacity", c.len());
        assert!(c.stats().evictions >= 8);
        c.sync_all().unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        for i in 0..16u64 {
            c.device().read_block(i, &mut out).unwrap();
            assert_eq!(out[0], 0x40 + i as u8, "block {i} lost its write");
        }
    }

    #[test]
    fn referenced_buffers_not_evicted() {
        let c = cache(16, 2);
        let held = c.bread(0).unwrap();
        for i in 1..5u64 {
            c.bread(i).unwrap();
        }
        // Buffer 0 is still reachable through `held` and must stay cached.
        let again = c.bread(0).unwrap();
        assert!(Arc::ptr_eq(&held, &again));
    }

    #[test]
    fn getblk_then_bread_reads_device() {
        let c = cache(8, 4);
        // Write directly to the device, then getblk (no read), then bread.
        let mut raw = vec![0u8; BLOCK_SIZE];
        raw[0] = 7;
        c.device().write_block(3, &raw).unwrap();
        let g = c.getblk(3).unwrap();
        assert!(!g.test_flag(BhFlag::Uptodate));
        let b = c.bread(3).unwrap();
        assert!(b.test_flag(BhFlag::Uptodate));
        assert_eq!(b.read(|d| d[0]), 7);
    }

    #[test]
    fn validate_rejects_illegal_combinations() {
        use BhFlag::*;
        let bad = BufferState::EMPTY.with(Dirty).with(Mapped);
        assert_eq!(validate_state(bad), Err(FlagViolation::DirtyNotUptodate));
        let bad = BufferState::EMPTY.with(Dirty).with(Uptodate);
        assert_eq!(validate_state(bad), Err(FlagViolation::DirtyNotMapped));
        let bad = BufferState::EMPTY.with(AsyncRead);
        assert_eq!(validate_state(bad), Err(FlagViolation::AsyncReadNotLocked));
        let bad = BufferState::EMPTY
            .with(AsyncRead)
            .with(AsyncWrite)
            .with(Lock);
        assert_eq!(validate_state(bad), Err(FlagViolation::ReadWriteRace));
        let ok = BufferState::EMPTY.with(Uptodate).with(Mapped).with(Dirty);
        assert_eq!(validate_state(ok), Ok(()));
    }

    #[test]
    fn validate_all_reports_bad_buffers() {
        let c = cache(8, 4);
        let b = c.bread(1).unwrap();
        // Force an illegal combination through the raw flag API.
        b.set_flag(BhFlag::AsyncWrite);
        let bad = c.validate_all();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, 1);
        assert_eq!(bad[0].1, FlagViolation::AsyncWriteNotLocked);
    }

    #[test]
    fn flag_set_has_sixteen_distinct_bits() {
        let mut seen = std::collections::HashSet::new();
        for f in ALL_FLAGS {
            assert!(seen.insert(f as u16));
        }
        assert_eq!(seen.len(), 16);
    }

    /// Regression for the bread miss-path lost-update race: with
    /// read-then-insert, a thread's cold miss could read the device and
    /// lose the CPU while another thread inserted, dirtied, wrote back,
    /// and evicted the same block, then insert its stale pre-writeback
    /// image as clean and uptodate. The slow device stretches every read
    /// so the window — now closed by reserve-then-fill — is hit
    /// constantly if it exists at all.
    #[test]
    fn concurrent_cold_misses_lose_no_updates_on_slow_device() {
        use std::thread;

        struct SlowDev(RamDisk);
        impl BlockDevice for SlowDev {
            fn num_blocks(&self) -> u64 {
                self.0.num_blocks()
            }
            fn block_size(&self) -> usize {
                self.0.block_size()
            }
            fn read_block(&self, b: u64, buf: &mut [u8]) -> KResult<()> {
                std::thread::sleep(std::time::Duration::from_micros(20));
                self.0.read_block(b, buf)
            }
            fn write_block(&self, b: u64, buf: &[u8]) -> KResult<()> {
                self.0.write_block(b, buf)
            }
            fn flush(&self) -> KResult<()> {
                self.0.flush()
            }
            fn stats(&self) -> crate::block::DeviceStats {
                self.0.stats()
            }
        }

        const THREADS: usize = 4;
        const INCS: usize = 150;
        // More hot blocks than threads: shrink refuses to evict a
        // buffer some thread still holds, so with as many blocks as
        // threads the cache can reach a stable all-resident state and
        // stop missing entirely. With 8 blocks and at most 4 held,
        // every shrink finds an unreferenced victim and churn persists.
        const HOT_BLOCKS: u64 = 8;
        let dev: Arc<dyn BlockDevice> = Arc::new(SlowDev(RamDisk::new(16)));
        // Capacity 1, one shard: every miss immediately evicts (and
        // writes back) whatever the other threads just dirtied.
        let c = Arc::new(BufferCache::with_shards(Arc::clone(&dev), 1, 1));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for i in 0..INCS {
                    let blk = (t as u64 + i as u64) % HOT_BLOCKS;
                    let buf = c.bread(blk).expect("bread");
                    buf.write(|d| d[t] = d[t].wrapping_add(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.sync_all().unwrap();
        let mut expected = [[0u8; THREADS]; HOT_BLOCKS as usize];
        for t in 0..THREADS {
            for i in 0..INCS {
                expected[((t as u64 + i as u64) % HOT_BLOCKS) as usize][t] += 1;
            }
        }
        let mut out = vec![0u8; BLOCK_SIZE];
        for blk in 0..HOT_BLOCKS {
            dev.read_block(blk, &mut out).unwrap();
            for t in 0..THREADS {
                assert_eq!(
                    out[t], expected[blk as usize][t],
                    "block {blk} slot {t}: lost update"
                );
            }
        }
        assert!(c.stats().evictions > 0, "the cache actually churned");
    }

    #[test]
    fn peek_does_not_insert_or_count() {
        let c = cache(8, 4);
        assert!(c.peek(3).is_none());
        assert!(c.is_empty());
        c.bread(3).unwrap();
        let stats_before = c.stats();
        let b = c.peek(3).expect("cached");
        assert!(b.test_flag(BhFlag::Uptodate));
        assert_eq!(c.stats(), stats_before);
    }

    #[test]
    fn invalidate_blocks_spares_pinned() {
        let c = cache(8, 8);
        let pin = c.bread(1).unwrap().publish(&[9; BLOCK_SIZE]);
        c.bread(2).unwrap();
        c.invalidate_blocks(&[1, 2]);
        assert!(c.peek(1).is_some(), "pinned buffer survives");
        assert!(c.peek(2).is_none(), "unpinned buffer dropped");
        drop(pin);
        c.invalidate_blocks(&[1]);
        assert!(c.peek(1).is_none(), "released, it is dropped too");
    }

    /// The pin count is the only source of truth: two pins keep a buffer
    /// pinned (`Delay`) and dirty, out of writeback, until the second
    /// drops; the last drop marks it clean.
    #[test]
    fn two_pins_hold_until_the_second_drops() {
        let c = cache(8, 8);
        let buf = c.getblk(3).unwrap();
        let first = buf.publish(&[1; BLOCK_SIZE]);
        let second = buf.publish(&[2; BLOCK_SIZE]);
        assert_eq!(c.pinned(), 1);
        drop(first);
        assert!(buf.is_pinned() && buf.test_flag(BhFlag::Delay));
        assert!(buf.test_flag(BhFlag::Dirty));
        buf.validate().unwrap();
        c.sync_all().unwrap();
        c.sync_block(3).unwrap();
        assert_eq!(c.stats().writebacks, 0, "pinned images never go home");
        drop(second);
        assert!(!buf.test_flag(BhFlag::Delay) && !buf.test_flag(BhFlag::Dirty));
        assert_eq!(buf.read(|d| d[0]), 2, "the newest image stays cached");
        assert_eq!(c.pinned(), 0);
    }

    /// Publishing onto a pinned buffer adds a pin; it never resets the
    /// count, so the older pin's drop leaves the buffer pinned.
    #[test]
    fn publish_onto_a_pinned_buffer_keeps_it_pinned() {
        let c = cache(8, 8);
        let buf = c.bread(4).unwrap();
        let older = buf.publish(&[1; BLOCK_SIZE]);
        let newer = buf.publish(&[2; BLOCK_SIZE]);
        drop(older);
        assert!(buf.is_pinned());
        drop(newer);
        assert!(!buf.is_pinned());
    }

    #[test]
    #[should_panic(expected = "Delay is taken with Buffer::publish")]
    fn delay_is_not_a_settable_flag() {
        cache(8, 4).bread(0).unwrap().set_flag(BhFlag::Delay);
    }

    /// The hit path reads `Uptodate` without the head lock, which is
    /// sound only because nothing clears it.
    #[test]
    #[should_panic(expected = "Uptodate is never cleared")]
    fn uptodate_is_not_clearable() {
        cache(8, 4).bread(0).unwrap().clear_flag(BhFlag::Uptodate);
    }

    /// The LRU tick moves only on insertion, yet a buffer hit after the
    /// last insertion still ranks newer than one inserted earlier and
    /// not hit since: the shrink evicts the unhit one.
    #[test]
    fn hit_since_last_insertion_survives_shrink() {
        let c = BufferCache::with_shards(Arc::new(RamDisk::new(8)), 2, 1);
        c.bread(0).unwrap();
        c.bread(1).unwrap();
        c.bread(0).unwrap();
        c.bread(2).unwrap();
        assert!(c.peek(0).is_some(), "the hit buffer survives");
        assert!(c.peek(1).is_none(), "the unhit buffer is evicted");
        assert!(c.peek(2).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    /// A cached `bread` takes no buffer-head lock: `Uptodate` is one
    /// atomic load.
    #[test]
    fn bread_hit_takes_no_head_lock() {
        let reg = LockRegistry::new_disabled();
        let c = BufferCache::with_registry(Arc::new(RamDisk::new(8)), 4, 1, Arc::clone(&reg));
        c.bread(3).unwrap();
        let heads = || {
            reg.class_stats()
                .iter()
                .find(|s| s.name == "buffer.head")
                .map_or(0, |s| s.acquisitions)
        };
        let before = heads();
        for _ in 0..100 {
            c.bread(3).unwrap();
        }
        assert_eq!(heads(), before);
        assert_eq!(c.stats().hits, 100);
    }

    /// A publish dirties and pins in one head-lock hold, and a pin's last
    /// drop cleans in the same hold as the count reaches zero, so a
    /// concurrent `sync_all` never finds a published image dirty and
    /// unpinned. Split either step in two and this counts writebacks.
    #[test]
    fn sync_all_never_writes_a_published_image_home() {
        use std::thread;
        let c = Arc::new(cache(64, 64));
        let bufs: Vec<Arc<Buffer>> = (0..32).map(|b| c.getblk(b).unwrap()).collect();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let syncer = {
            let (c, stop) = (Arc::clone(&c), Arc::clone(&stop));
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    c.sync_all().unwrap();
                }
            })
        };
        // Every publish pins its image until the pin drops, and a drop
        // marks it clean: no home write may ever carry a pinned image.
        for round in 0..2_000u32 {
            let pins: Vec<DelayPin> = bufs
                .iter()
                .map(|b| b.publish(&[round as u8; BLOCK_SIZE]))
                .collect();
            drop(pins);
        }
        stop.store(true, Ordering::Relaxed);
        syncer.join().unwrap();
        assert_eq!(c.stats().writebacks, 0);
    }

    /// Regression for the shrink held-across-I/O bug: eviction used to
    /// write dirty victims back *inside* `shrink`, i.e. while the caller
    /// held the shard write lock — a blocking device write under a cache
    /// lock, the exact hazard lockdep's `BlockDevice`-boundary check
    /// exists to catch (and a real-kernel deadlock once the device path
    /// needs memory reclaim, which needs the cache lock). Reverting the
    /// deferred-writeback fix makes the `HeldAcrossIo` assertion fail.
    #[test]
    fn eviction_writeback_never_runs_under_a_shard_lock() {
        use crate::lock::{LockRegistry, Violation};
        let reg = LockRegistry::new();
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(16));
        // Capacity 1, one shard: every second miss must evict a dirty
        // victim, exercising the deferred-writeback path constantly.
        let c = BufferCache::with_registry(Arc::clone(&dev), 1, 1, Arc::clone(&reg));
        for i in 0..6u64 {
            let b = c.bread(i).unwrap();
            b.write(|d| d[0] = 0x50 + i as u8);
            drop(b);
        }
        c.sync_all().unwrap();
        let io: Vec<_> = reg
            .violations()
            .into_iter()
            .filter(|v| matches!(v, Violation::HeldAcrossIo { .. }))
            .collect();
        assert!(io.is_empty(), "device I/O under a shard lock: {io:?}");
        assert!(c.stats().evictions > 0, "eviction actually happened");
        // And the deferred writebacks lost nothing.
        let mut out = vec![0u8; BLOCK_SIZE];
        for i in 0..6u64 {
            dev.read_block(i, &mut out).unwrap();
            assert_eq!(out[0], 0x50 + i as u8, "block {i} lost its write");
        }
    }

    /// The whole cache hot path — misses, hits, eviction, write-back,
    /// sync — runs lockdep-clean: no cycles, no held-across-I/O, no
    /// same-class nesting.
    #[test]
    fn cache_hot_paths_are_lockdep_clean() {
        use crate::lock::LockRegistry;
        let reg = LockRegistry::new();
        let c = BufferCache::with_registry(Arc::new(RamDisk::new(64)), 8, 4, Arc::clone(&reg));
        for i in 0..32u64 {
            let b = c.bread(i % 20).unwrap();
            b.write(|d| d[1] = i as u8);
            drop(b);
        }
        c.sync_all().unwrap();
        c.invalidate_blocks(&[1, 2]);
        assert!(reg.violations().is_empty(), "{:?}", reg.violations());
        assert!(reg.class_count() >= 2, "shard and head classes");
    }

    #[test]
    fn invalidate_clears_cache() {
        let c = cache(8, 4);
        c.bread(0).unwrap();
        c.bread(1).unwrap();
        assert_eq!(c.len(), 2);
        c.invalidate();
        assert!(c.is_empty());
    }
}
