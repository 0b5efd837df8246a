//! Per-layer accounting for `--trace 1` runs.
//!
//! Counts come from the statistics the crates already keep — the block
//! device's `DeviceStats`, the ring's `RingStats`, the wire's frame
//! counter and the swap gate's counters — read at the two edges of the
//! measured window. Time comes from spans, since no crate keeps it:
//! [`TracedFs`] wraps the file system interface the ring reactors, the
//! VFS and the migrator call into, [`TracedDev`] wraps the block device
//! under the file system, and the workload loops time their calls into
//! the ring and the network stack. Each span is folded into a
//! process-wide total as it ends.
//!
//! Self time: device time is accumulated in a thread-local as well, so
//! the file system span subtracts the device time spent inside it on
//! the same thread. The file system itself runs no background threads,
//! so every device access happens inside some caller's span.
//!
//! With `--trace 0` none of the wrappers is installed and the workload
//! loops skip their timers: end-to-end figures are measured untraced.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sk_ksim::block::{BlockDevice, DeviceStats};
use sk_ksim::errno::KResult;
use sk_vfs::inode::{Attr, InodeNo};
use sk_vfs::modular::{BatchOp, BatchReply, DirEntry, FileSystem, StatFs, WriteCtx};
use sk_vfs::ring::RingStats;

static ON: AtomicBool = AtomicBool::new(false);

/// Turns tracing on for the whole process. Call before building any
/// system so the wrappers get installed.
pub fn enable(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Whether this run is traced.
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// One figure per layer: span totals first, then the counters the
/// crates keep, which a snapshot takes from its caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum C {
    /// Nanoseconds spent inside `Ring::submit`.
    RingSubmitNs,
    /// Wall nanoseconds inside `submit_batch`.
    FsBatchNs,
    /// Per-call file system operations (VFS path walks, tree copies).
    FsCalls,
    /// Wall nanoseconds inside per-call operations.
    FsCallNs,
    /// Device nanoseconds spent inside file system spans.
    FsDevNs,
    /// Wall nanoseconds inside the device.
    DevNs,
    /// Wall nanoseconds of journal relief (commit + checkpoint).
    ReliefNs,
    /// Wall nanoseconds the serve loop spent inside the network stacks.
    NetNs,
    /// Nanoseconds the swap gate was held closed (`SwapReport`).
    SwapBlackoutNs,
    /// SQEs the ring accepted (`RingStats::submitted`).
    RingSubmitted,
    /// CQEs the ring posted (`RingStats::completed`).
    RingOps,
    /// Batches the ring handed to the file system (`RingStats::batches`).
    RingBatches,
    /// Block reads reaching the device (`DeviceStats::reads`).
    DevReads,
    /// Block writes reaching the device (`DeviceStats::writes`).
    DevWrites,
    /// Flush barriers reaching the device (`DeviceStats::flushes`).
    DevFlushes,
    /// Frames sent over the link (`Wire::stats`).
    NetFrames,
    /// Completed generation swaps (`SwapGate::swaps`).
    Swaps,
    /// Operations that found the swap gate closed
    /// (`SwapGate::blocked_ops`).
    SwapBlocked,
}

const COUNTERS: usize = C::SwapBlocked as usize + 1;

static TOTALS: [AtomicU64; COUNTERS] = [const { AtomicU64::new(0) }; COUNTERS];

thread_local! {
    static DEV_NS_HERE: Cell<u64> = const { Cell::new(0) };
}

/// Adds `n` to span total `c`.
pub fn add(c: C, n: u64) {
    TOTALS[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Adds the nanoseconds elapsed since `t0` to span total `c`.
pub fn add_since(c: C, t0: Instant) {
    add(c, t0.elapsed().as_nanos() as u64);
}

/// Every figure at one instant.
#[derive(Clone, Copy)]
pub struct Snapshot([u64; COUNTERS]);

impl Snapshot {
    /// The figure's value in this snapshot.
    pub fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    /// Figure-wise difference `self - earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = [0u64; COUNTERS];
        for (i, v) in d.iter_mut().enumerate() {
            *v = self.0[i].saturating_sub(earlier.0[i]);
        }
        Snapshot(d)
    }
}

/// Reads every span total and takes the crate-kept counters from `kept`
/// (those not named stay 0).
pub fn snapshot(kept: &[(C, u64)]) -> Snapshot {
    let mut s = [0u64; COUNTERS];
    for (i, v) in s.iter_mut().enumerate() {
        *v = TOTALS[i].load(Ordering::Relaxed);
    }
    for &(c, v) in kept {
        s[c as usize] = v;
    }
    Snapshot(s)
}

/// A device's counters, as snapshot entries.
pub fn device(s: DeviceStats) -> [(C, u64); 3] {
    [
        (C::DevReads, s.reads),
        (C::DevWrites, s.writes),
        (C::DevFlushes, s.flushes),
    ]
}

/// A ring's counters, as snapshot entries.
pub fn ring(s: RingStats) -> [(C, u64); 3] {
    [
        (C::RingSubmitted, s.submitted),
        (C::RingOps, s.completed),
        (C::RingBatches, s.batches),
    ]
}

fn dev_ns_here() -> u64 {
    DEV_NS_HERE.with(Cell::get)
}

/// A block device span: every request is timed.
pub struct TracedDev {
    inner: Arc<dyn BlockDevice>,
}

impl TracedDev {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn BlockDevice>) -> TracedDev {
        TracedDev { inner }
    }

    fn span<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        add(C::DevNs, ns);
        DEV_NS_HERE.with(|d| d.set(d.get() + ns));
        r
    }
}

impl BlockDevice for TracedDev {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
        self.span(|| self.inner.read_block(blkno, buf))
    }
    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
        self.span(|| self.inner.write_block(blkno, buf))
    }
    fn read_blocks(&self, start: u64, count: usize, buf: &mut [u8]) -> KResult<()> {
        self.span(|| self.inner.read_blocks(start, count, buf))
    }
    fn write_blocks(&self, start: u64, count: usize, buf: &[u8]) -> KResult<()> {
        self.span(|| self.inner.write_blocks(start, count, buf))
    }
    fn flush(&self) -> KResult<()> {
        self.span(|| self.inner.flush())
    }
    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

/// A file system interface span. Every method delegates, including the
/// ones with default bodies, so the wrapped implementation's overrides
/// (batch staging, handoff quiescence, per-file fsync) still run.
pub struct TracedFs {
    inner: Arc<dyn FileSystem>,
}

impl TracedFs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn FileSystem>) -> TracedFs {
        TracedFs { inner }
    }

    fn call<R>(&self, f: impl FnOnce(&dyn FileSystem) -> R) -> R {
        let dev0 = dev_ns_here();
        let t0 = Instant::now();
        let r = f(&*self.inner);
        add_since(C::FsCallNs, t0);
        add(C::FsCalls, 1);
        add(C::FsDevNs, dev_ns_here() - dev0);
        r
    }
}

impl FileSystem for TracedFs {
    fn fs_name(&self) -> &'static str {
        self.inner.fs_name()
    }
    fn root_ino(&self) -> InodeNo {
        self.inner.root_ino()
    }
    fn lookup(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        self.call(|fs| fs.lookup(dir, name))
    }
    fn getattr(&self, ino: InodeNo) -> KResult<Attr> {
        self.call(|fs| fs.getattr(ino))
    }
    fn create(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        self.call(|fs| fs.create(dir, name))
    }
    fn mkdir(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        self.call(|fs| fs.mkdir(dir, name))
    }
    fn unlink(&self, dir: InodeNo, name: &str) -> KResult<()> {
        self.call(|fs| fs.unlink(dir, name))
    }
    fn rmdir(&self, dir: InodeNo, name: &str) -> KResult<()> {
        self.call(|fs| fs.rmdir(dir, name))
    }
    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> KResult<usize> {
        self.call(|fs| fs.read(ino, off, buf))
    }
    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> KResult<usize> {
        self.call(|fs| fs.write(ino, off, data))
    }
    fn write_begin(&self, ino: InodeNo, off: u64, len: usize) -> KResult<WriteCtx> {
        self.call(|fs| fs.write_begin(ino, off, len))
    }
    fn write_end(&self, ino: InodeNo, off: u64, data: &[u8], ctx: WriteCtx) -> KResult<usize> {
        self.call(|fs| fs.write_end(ino, off, data, ctx))
    }
    fn readdir(&self, dir: InodeNo) -> KResult<Vec<DirEntry>> {
        self.call(|fs| fs.readdir(dir))
    }
    fn rename(
        &self,
        olddir: InodeNo,
        oldname: &str,
        newdir: InodeNo,
        newname: &str,
    ) -> KResult<()> {
        self.call(|fs| fs.rename(olddir, oldname, newdir, newname))
    }
    fn truncate(&self, ino: InodeNo, size: u64) -> KResult<()> {
        self.call(|fs| fs.truncate(ino, size))
    }
    fn sync(&self) -> KResult<()> {
        self.call(|fs| fs.sync())
    }
    fn fsync(&self, ino: InodeNo) -> KResult<()> {
        self.call(|fs| fs.fsync(ino))
    }
    fn statfs(&self) -> KResult<StatFs> {
        self.call(|fs| fs.statfs())
    }
    fn quiesce_for_handoff(&self) -> KResult<()> {
        self.call(|fs| fs.quiesce_for_handoff())
    }
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<BatchReply> {
        let dev0 = dev_ns_here();
        let t0 = Instant::now();
        let replies = self.inner.submit_batch(ops);
        add_since(C::FsBatchNs, t0);
        add(C::FsDevNs, dev_ns_here() - dev0);
        replies
    }
}
