//! Block device layer.
//!
//! Three devices compose into the substrate the file systems run on:
//!
//! - [`RamDisk`]: the "hardware" — a RAM-backed array of fixed-size blocks
//!   with IO accounting and a simple seek/transfer latency model driven by
//!   the simulated clock.
//! - [`FaultyDisk`]: the one fault-injecting wrapper — seeded read, write
//!   and flush `EIO`, *sector*-granular torn writes, silent read
//!   corruption, and one-shot fail-the-nth-IO schedules for exhaustive
//!   error-point enumeration (the storage twin of
//!   `netstack::fault::FaultyLink`).
//! - [`CrashDevice`]: wraps any device and models a **volatile write cache**:
//!   writes land in the cache and only reach the backing device on `flush`.
//!   A simulated crash discards the cache — and, crucially for §4.4's
//!   crash-consistency checking, the wrapper can enumerate *every* crash
//!   point (each prefix of the pending write sequence, plus reorderings) so
//!   a checker can exhaustively explore what the disk may look like after a
//!   power failure.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::errno::{Errno, KResult};
use crate::scenario::{subsys, EngineStream, ScenarioEngine};
use crate::time::SimClock;

/// Default block size, matching Linux's default page/block size.
pub const BLOCK_SIZE: usize = 4096;

/// Sector size: the unit the hardware writes atomically. A power failure
/// mid-write can tear a 4 KiB block at any 512-byte sector boundary, but
/// never inside a sector — the granularity [`FaultyDisk`] tears at and
/// the `Torn` crash policy enumerates over.
pub const SECTOR_SIZE: usize = 512;

/// Cumulative IO statistics for a device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of block reads served.
    pub reads: u64,
    /// Number of block writes accepted.
    pub writes: u64,
    /// Number of flushes (cache barriers) processed.
    pub flushes: u64,
    /// Number of injected IO errors returned to callers.
    pub io_errors: u64,
    /// Number of writes that were torn at a sector boundary (only a prefix
    /// of the block's sectors reached media).
    pub torn_writes: u64,
    /// Number of reads whose returned data was silently corrupted.
    pub corrupt_reads: u64,
    /// Number of vectored multi-block requests served natively (devices
    /// falling back to the per-block default leave this at zero).
    pub vec_ios: u64,
}

/// A block device: fixed-size blocks addressed by index.
///
/// All file systems in the workspace — legacy and safe — sit on this trait,
/// which plays the role of the paper's "unverified block I/O layer" (§4.4).
/// The axiomatic model of this interface lives in `sk-core::spec::axioms`.
pub trait BlockDevice: Send + Sync {
    /// Number of blocks on the device.
    fn num_blocks(&self) -> u64;

    /// Block size in bytes. Every read/write moves exactly one block.
    fn block_size(&self) -> usize;

    /// Reads block `blkno` into `buf`.
    ///
    /// `buf.len()` must equal [`BlockDevice::block_size`]; short buffers
    /// return `EINVAL`, out-of-range block numbers return `ENXIO`.
    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()>;

    /// Writes `buf` to block `blkno`. Same size/range rules as reads.
    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()>;

    /// Vectored read: `count` consecutive blocks starting at `start` into
    /// `buf` (`buf.len()` must be `count × block_size`). The default
    /// implementation loops over [`BlockDevice::read_block`]; devices with
    /// a seek cost override it to charge one seek for the whole extent.
    fn read_blocks(&self, start: u64, count: usize, buf: &mut [u8]) -> KResult<()> {
        let bs = self.block_size();
        if buf.len() != count * bs {
            return Err(Errno::EINVAL);
        }
        for (i, chunk) in buf.chunks_mut(bs).enumerate() {
            self.read_block(start + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Vectored write: `count` consecutive blocks starting at `start` from
    /// `buf`. Same contract as [`BlockDevice::read_blocks`].
    fn write_blocks(&self, start: u64, count: usize, buf: &[u8]) -> KResult<()> {
        let bs = self.block_size();
        if buf.len() != count * bs {
            return Err(Errno::EINVAL);
        }
        for (i, chunk) in buf.chunks(bs).enumerate() {
            self.write_block(start + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Write barrier: all previously accepted writes become durable.
    fn flush(&self) -> KResult<()>;

    /// Returns a snapshot of the device's IO statistics.
    fn stats(&self) -> DeviceStats;
}

struct RamDiskInner {
    data: Vec<u8>,
    stats: DeviceStats,
}

/// RAM-backed block device with a seek/transfer latency model.
///
/// The latency model exists so benchmarks have a stable notion of "device
/// time": each read/write advances the shared [`SimClock`] by a fixed
/// per-operation seek cost plus a per-byte transfer cost.
pub struct RamDisk {
    inner: Mutex<RamDiskInner>,
    num_blocks: u64,
    block_size: usize,
    clock: Arc<SimClock>,
    seek_ns: u64,
    ns_per_byte: u64,
    /// Extra simulated cost per block of head travel (0 = flat model).
    seek_ns_per_block: u64,
    last_blkno: Mutex<u64>,
}

impl RamDisk {
    /// Creates a RAM disk of `num_blocks` blocks of [`BLOCK_SIZE`] bytes.
    pub fn new(num_blocks: u64) -> Self {
        Self::with_geometry(num_blocks, BLOCK_SIZE, Arc::new(SimClock::new()))
    }

    /// Creates a RAM disk with explicit geometry and clock.
    pub fn with_geometry(num_blocks: u64, block_size: usize, clock: Arc<SimClock>) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(num_blocks > 0, "device must have at least one block");
        RamDisk {
            inner: Mutex::new(RamDiskInner {
                data: vec![0u8; num_blocks as usize * block_size],
                stats: DeviceStats::default(),
            }),
            num_blocks,
            block_size,
            clock,
            // Defaults loosely modelled on a fast NVMe device: ~10us access,
            // ~3GB/s transfer. Absolute values only matter relatively.
            seek_ns: 10_000,
            ns_per_byte: 1,
            seek_ns_per_block: 0,
            last_blkno: Mutex::new(0),
        }
    }

    /// Enables a rotational-style seek model: each IO additionally costs
    /// `ns_per_block` × the head-travel distance from the previous IO.
    /// Used by `bench_report`'s vectored-IO section.
    pub fn set_seek_model(&mut self, ns_per_block: u64) {
        self.seek_ns_per_block = ns_per_block;
    }

    fn charge_io(&self, blkno: u64) {
        self.charge_extent(blkno, 1);
    }

    /// Charges one seek plus per-byte transfer for a `count`-block extent
    /// starting at `blkno` — the latency model's reward for vectored IO.
    fn charge_extent(&self, blkno: u64, count: usize) {
        let mut cost = self.seek_ns + self.ns_per_byte * (count * self.block_size) as u64;
        if self.seek_ns_per_block > 0 {
            let mut last = self.last_blkno.lock();
            cost += self.seek_ns_per_block * blkno.abs_diff(*last);
            *last = blkno + count as u64 - 1;
        }
        self.clock.advance(cost);
    }

    fn check_extent(&self, start: u64, count: usize, len: usize) -> KResult<usize> {
        if count == 0 || len != count * self.block_size {
            return Err(Errno::EINVAL);
        }
        if start + count as u64 > self.num_blocks {
            return Err(Errno::ENXIO);
        }
        Ok(start as usize * self.block_size)
    }

    /// The simulated clock this device charges IO time to.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// Returns a full snapshot of the device contents (for crash checking).
    pub fn snapshot(&self) -> Vec<u8> {
        self.inner.lock().data.clone()
    }

    /// Restores a snapshot previously taken with [`RamDisk::snapshot`].
    ///
    /// Returns `EINVAL` if the image size does not match the geometry.
    pub fn restore(&self, image: &[u8]) -> KResult<()> {
        let mut inner = self.inner.lock();
        if image.len() != inner.data.len() {
            return Err(Errno::EINVAL);
        }
        inner.data.copy_from_slice(image);
        Ok(())
    }

    fn check(&self, blkno: u64, len: usize) -> KResult<usize> {
        if len != self.block_size {
            return Err(Errno::EINVAL);
        }
        if blkno >= self.num_blocks {
            return Err(Errno::ENXIO);
        }
        Ok(blkno as usize * self.block_size)
    }
}

impl BlockDevice for RamDisk {
    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
        let off = self.check(blkno, buf.len())?;
        let mut inner = self.inner.lock();
        buf.copy_from_slice(&inner.data[off..off + self.block_size]);
        inner.stats.reads += 1;
        drop(inner);
        self.charge_io(blkno);
        Ok(())
    }

    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
        let off = self.check(blkno, buf.len())?;
        let mut inner = self.inner.lock();
        inner.data[off..off + self.block_size].copy_from_slice(buf);
        inner.stats.writes += 1;
        drop(inner);
        self.charge_io(blkno);
        Ok(())
    }

    fn read_blocks(&self, start: u64, count: usize, buf: &mut [u8]) -> KResult<()> {
        if count == 0 && buf.is_empty() {
            return Ok(());
        }
        let off = self.check_extent(start, count, buf.len())?;
        let mut inner = self.inner.lock();
        buf.copy_from_slice(&inner.data[off..off + buf.len()]);
        inner.stats.reads += count as u64;
        inner.stats.vec_ios += 1;
        drop(inner);
        self.charge_extent(start, count);
        Ok(())
    }

    fn write_blocks(&self, start: u64, count: usize, buf: &[u8]) -> KResult<()> {
        if count == 0 && buf.is_empty() {
            return Ok(());
        }
        let off = self.check_extent(start, count, buf.len())?;
        let mut inner = self.inner.lock();
        inner.data[off..off + buf.len()].copy_from_slice(buf);
        inner.stats.writes += count as u64;
        inner.stats.vec_ios += 1;
        drop(inner);
        self.charge_extent(start, count);
        Ok(())
    }

    fn flush(&self) -> KResult<()> {
        let mut inner = self.inner.lock();
        inner.stats.flushes += 1;
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.inner.lock().stats
    }
}

/// Fault probabilities for [`FaultyDisk`], all independent per operation.
///
/// The disk-side twin of `netstack::fault::FaultConfig`: every fault kind
/// is seeded, so a failing run replays exactly from its seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskFaultConfig {
    /// Probability a read fails with transient `EIO` (nothing delivered).
    pub read_eio: f64,
    /// Probability a write fails with transient `EIO` (nothing persisted).
    pub write_eio: f64,
    /// Probability a flush fails with transient `EIO` (barrier not issued).
    pub flush_eio: f64,
    /// Probability a read returns silently corrupted data (one bit flipped
    /// in the returned buffer; media contents untouched).
    pub read_corrupt: f64,
    /// Probability a write is torn at a sector boundary: only the first
    /// `k` sectors (seeded `k` in `1..sectors_per_block`) reach media.
    pub torn_write: f64,
    /// Wall-clock delay added to every write (nanoseconds). Models a
    /// slow device for backpressure tests: the sleep happens outside the
    /// fault-state lock, before the inner write.
    pub write_delay_ns: u64,
    /// Wall-clock delay added to every flush barrier (nanoseconds).
    pub flush_delay_ns: u64,
}

impl DiskFaultConfig {
    /// The adversarial profile used by the crash-enumeration soak: every
    /// fault kind enabled at rates a recoverable filesystem must survive.
    pub fn adversarial() -> DiskFaultConfig {
        DiskFaultConfig {
            read_eio: 0.02,
            write_eio: 0.02,
            flush_eio: 0.01,
            read_corrupt: 0.02,
            torn_write: 0.05,
            ..DiskFaultConfig::default()
        }
    }
}

struct FaultyDiskState {
    cfg: DiskFaultConfig,
    injected: DeviceStats,
    reads_seen: u64,
    writes_seen: u64,
    flushes_seen: u64,
    fail_read_at: Option<u64>,
    fail_write_at: Option<u64>,
    fail_flush_at: Option<u64>,
    tear_write_at: Option<(u64, usize)>,
}

/// Seeded fault-injecting disk: transient `EIO`, silent read corruption,
/// and sector-granular torn writes.
///
/// Two injection modes compose:
///
/// - **probabilistic** ([`DiskFaultConfig`] rates under a seeded RNG) for
///   soak testing — reproducible chaos;
/// - **scheduled** ([`FaultyDisk::fail_nth_write`] and friends) for
///   exhaustive error-point enumeration: run a workload once to count its
///   IOs, then re-run it once per IO index with exactly that operation
///   failing, so every mid-commit / mid-checkpoint / mid-replay `EIO` path
///   is visited deterministically.
///
/// `EIO` here is *transient and fail-stop*: the failed operation has no
/// effect on media and later operations succeed — the discipline a storage
/// stack must tolerate without corrupting itself. Torn writes model power
/// loss mid-write: the hardware promises sector atomicity ([`SECTOR_SIZE`])
/// but nothing block-wide, so only a prefix of the block's sectors lands.
///
/// Since the scenario-engine unification, every `FaultyDisk` draws its
/// fault decisions from a [`ScenarioEngine`]'s `disk` stream and logs each
/// injected fault to the engine trace. [`FaultyDisk::new`] wraps a private
/// single-seed engine for standalone use; [`FaultyDisk::on_engine`] joins
/// a shared scenario so disk, link, and crash schedules all replay from
/// one seed. Lock discipline: the fault decision is drawn from the stream
/// (its own short-lived lock), the lock is released, and only then is the
/// inner device touched — holding the shared stream mutex across device
/// IO would serialize every other subsystem's fault decisions behind this
/// disk (the held-across-IO probe test below pins this).
pub struct FaultyDisk<D> {
    inner: D,
    engine: Arc<ScenarioEngine>,
    stream: Arc<EngineStream>,
    state: Mutex<FaultyDiskState>,
}

impl<D: BlockDevice> FaultyDisk<D> {
    /// Wraps `inner` with `cfg` fault rates, deterministic under `seed`
    /// (a standalone engine is created; see [`FaultyDisk::on_engine`]).
    pub fn new(inner: D, cfg: DiskFaultConfig, seed: u64) -> Self {
        Self::on_engine(inner, cfg, &ScenarioEngine::new(seed))
    }

    /// Wraps `inner` with `cfg` fault rates, drawing every decision from
    /// `engine`'s `disk` stream so one engine seed replays the run.
    pub fn on_engine(inner: D, cfg: DiskFaultConfig, engine: &Arc<ScenarioEngine>) -> Self {
        FaultyDisk {
            inner,
            engine: Arc::clone(engine),
            stream: engine.stream(subsys::DISK),
            state: Mutex::new(FaultyDiskState {
                cfg,
                injected: DeviceStats::default(),
                reads_seen: 0,
                writes_seen: 0,
                flushes_seen: 0,
                fail_read_at: None,
                fail_write_at: None,
                fail_flush_at: None,
                tear_write_at: None,
            }),
        }
    }

    /// The scenario engine this disk draws from (for trace inspection).
    pub fn engine(&self) -> &Arc<ScenarioEngine> {
        &self.engine
    }

    /// Replaces the fault rates at runtime.
    pub fn set_config(&self, cfg: DiskFaultConfig) {
        self.state.lock().cfg = cfg;
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Arms a one-shot `EIO` on the `n`-th subsequent read (0-based).
    pub fn fail_nth_read(&self, n: u64) {
        let mut st = self.state.lock();
        let at = st.reads_seen + n;
        st.fail_read_at = Some(at);
    }

    /// Arms a one-shot `EIO` on the `n`-th subsequent write (0-based).
    pub fn fail_nth_write(&self, n: u64) {
        let mut st = self.state.lock();
        let at = st.writes_seen + n;
        st.fail_write_at = Some(at);
    }

    /// Arms a one-shot `EIO` on the `n`-th subsequent flush (0-based).
    pub fn fail_nth_flush(&self, n: u64) {
        let mut st = self.state.lock();
        let at = st.flushes_seen + n;
        st.fail_flush_at = Some(at);
    }

    /// Arms a one-shot torn write: the `n`-th subsequent write (0-based)
    /// persists only its first `keep_sectors` sectors.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ keep_sectors < block_size / SECTOR_SIZE` — keeping
    /// zero sectors is a dropped write and keeping all of them isn't torn.
    pub fn tear_nth_write(&self, n: u64, keep_sectors: usize) {
        let spb = self.inner.block_size() / SECTOR_SIZE;
        assert!(
            keep_sectors >= 1 && keep_sectors < spb,
            "keep_sectors must be in 1..{spb}"
        );
        let mut st = self.state.lock();
        let at = st.writes_seen + n;
        st.tear_write_at = Some((at, keep_sectors));
    }

    /// Disarms any scheduled one-shot faults.
    pub fn clear_schedule(&self) {
        let mut st = self.state.lock();
        st.fail_read_at = None;
        st.fail_write_at = None;
        st.fail_flush_at = None;
        st.tear_write_at = None;
    }

    /// Counters for faults injected so far (`io_errors`, `torn_writes`,
    /// `corrupt_reads`; the rest zero).
    pub fn injected(&self) -> DeviceStats {
        self.state.lock().injected
    }
}

impl<D: BlockDevice> BlockDevice for FaultyDisk<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
        // Scheduled one-shot faults are checked (and the IO indexed) under
        // the state lock; probabilistic decisions are drawn from the
        // engine stream after it drops, and the inner device is only
        // touched once neither lock is held.
        let cfg = {
            let mut st = self.state.lock();
            let idx = st.reads_seen;
            st.reads_seen += 1;
            if st.fail_read_at == Some(idx) {
                st.fail_read_at = None;
                st.injected.io_errors += 1;
                drop(st);
                self.stream
                    .emit(format!("read_eio blk={blkno} scheduled#{idx}"));
                return Err(Errno::EIO);
            }
            st.cfg
        };
        if self.stream.roll(cfg.read_eio) {
            self.state.lock().injected.io_errors += 1;
            self.stream.emit(format!("read_eio blk={blkno}"));
            return Err(Errno::EIO);
        }
        let corrupt = self.stream.roll(cfg.read_corrupt);
        self.inner.read_block(blkno, buf)?;
        if corrupt {
            let bit = self.stream.gen_range(0..buf.len() * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
            self.state.lock().injected.corrupt_reads += 1;
            self.stream
                .emit(format!("read_corrupt blk={blkno} bit={bit}"));
        }
        Ok(())
    }

    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
        let delay = self.state.lock().cfg.write_delay_ns;
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(delay));
        }
        let (cfg, scheduled_tear) = {
            let mut st = self.state.lock();
            let idx = st.writes_seen;
            st.writes_seen += 1;
            if st.fail_write_at == Some(idx) {
                st.fail_write_at = None;
                st.injected.io_errors += 1;
                drop(st);
                self.stream
                    .emit(format!("write_eio blk={blkno} scheduled#{idx}"));
                return Err(Errno::EIO);
            }
            if let Some((at, keep)) = st.tear_write_at {
                if at == idx {
                    st.tear_write_at = None;
                    st.injected.torn_writes += 1;
                    drop(st);
                    self.stream.emit(format!(
                        "torn_write blk={blkno} keep={keep} scheduled#{idx}"
                    ));
                    (None, Some(keep))
                } else {
                    (Some(st.cfg), None)
                }
            } else {
                (Some(st.cfg), None)
            }
        };
        let tear = match (cfg, scheduled_tear) {
            (_, Some(keep)) => Some(keep),
            (Some(cfg), None) => {
                if self.stream.roll(cfg.write_eio) {
                    self.state.lock().injected.io_errors += 1;
                    self.stream.emit(format!("write_eio blk={blkno}"));
                    return Err(Errno::EIO);
                }
                if self.stream.roll(cfg.torn_write) {
                    let spb = (self.inner.block_size() / SECTOR_SIZE).max(2);
                    let keep = self.stream.gen_range(1..spb);
                    self.state.lock().injected.torn_writes += 1;
                    self.stream
                        .emit(format!("torn_write blk={blkno} keep={keep}"));
                    Some(keep)
                } else {
                    None
                }
            }
            (None, None) => None,
        };
        match tear {
            None => self.inner.write_block(blkno, buf),
            Some(keep_sectors) => {
                // Sector-atomic power loss: the first `keep_sectors` sectors
                // of the new data land, the rest of the block keeps its old
                // contents.
                let cut = keep_sectors * SECTOR_SIZE;
                let bs = self.inner.block_size();
                let mut merged = vec![0u8; bs];
                self.inner.read_block(blkno, &mut merged)?;
                merged[..cut].copy_from_slice(&buf[..cut]);
                self.inner.write_block(blkno, &merged)
            }
        }
    }

    fn flush(&self) -> KResult<()> {
        let delay = self.state.lock().cfg.flush_delay_ns;
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(delay));
        }
        let cfg = {
            let mut st = self.state.lock();
            let idx = st.flushes_seen;
            st.flushes_seen += 1;
            if st.fail_flush_at == Some(idx) {
                st.fail_flush_at = None;
                st.injected.io_errors += 1;
                drop(st);
                self.stream.emit(format!("flush_eio scheduled#{idx}"));
                return Err(Errno::EIO);
            }
            st.cfg
        };
        if self.stream.roll(cfg.flush_eio) {
            self.state.lock().injected.io_errors += 1;
            self.stream.emit("flush_eio");
            return Err(Errno::EIO);
        }
        self.inner.flush()
    }

    fn stats(&self) -> DeviceStats {
        let mut s = self.inner.stats();
        let inj = self.state.lock().injected;
        s.io_errors += inj.io_errors;
        s.torn_writes += inj.torn_writes;
        s.corrupt_reads += inj.corrupt_reads;
        s
    }
}

/// A single write sitting in the volatile cache of a [`CrashDevice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWrite {
    /// Destination block number.
    pub blkno: u64,
    /// Full block payload.
    pub data: Vec<u8>,
}

struct CrashInner {
    /// Writes accepted since the last flush, in arrival order.
    pending: Vec<PendingWrite>,
    /// The pending set at entry to each `flush` call since the last
    /// [`CrashDevice::take_barriers`], oldest first.
    barriers: Vec<Vec<PendingWrite>>,
    /// Set when `crash()` is called: all IO fails with `EIO` until `recover`.
    crashed: bool,
    stats: DeviceStats,
}

/// Volatile-write-cache wrapper used for crash-consistency checking.
///
/// Writes are buffered; `flush` drains them (in order) to the backing
/// device. [`CrashDevice::crash`] discards the cache and takes the device
/// offline, modelling power failure. For exhaustive checking,
/// [`CrashDevice::pending_writes`] exposes the buffered sequence so a checker
/// can replay every prefix (and, with reordering enabled in the checker,
/// every admissible subset) onto a snapshot of the backing store.
///
/// Every `flush` call also records its barrier interval: the pending set
/// at the call's entry, before the crashed check, and also when the drain
/// then fails. [`CrashDevice::take_barriers`] hands the log to a crash
/// checker, which walks it with `sk_core::spec::crash::barrier_images`.
/// The log holds every flushed write until it is taken, so this wrapper
/// is for checkers, not for long-running workloads.
pub struct CrashDevice<D> {
    inner: D,
    state: Mutex<CrashInner>,
}

impl<D: BlockDevice> CrashDevice<D> {
    /// Wraps `inner` with an empty volatile cache.
    pub fn new(inner: D) -> Self {
        CrashDevice {
            inner,
            state: Mutex::new(CrashInner {
                pending: Vec::new(),
                barriers: Vec::new(),
                crashed: false,
                stats: DeviceStats::default(),
            }),
        }
    }

    /// The wrapped (durable) device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Returns the writes currently sitting in the volatile cache.
    pub fn pending_writes(&self) -> Vec<PendingWrite> {
        self.state.lock().pending.clone()
    }

    /// Returns the barrier log and clears it: one interval per `flush`
    /// call since the last take, oldest first, each the writes pending at
    /// that call's entry.
    pub fn take_barriers(&self) -> Vec<Vec<PendingWrite>> {
        std::mem::take(&mut self.state.lock().barriers)
    }

    /// Simulates power failure: the volatile cache is lost and the device
    /// goes offline (all IO returns `EIO`) until [`CrashDevice::recover`].
    pub fn crash(&self) {
        let mut st = self.state.lock();
        st.pending.clear();
        st.crashed = true;
    }

    /// Brings the device back online after a crash, cache empty.
    pub fn recover(&self) {
        let mut st = self.state.lock();
        st.pending.clear();
        st.crashed = false;
    }

    /// True if the device is currently offline after a crash.
    pub fn is_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Number of writes in the volatile cache.
    pub fn pending_len(&self) -> usize {
        self.state.lock().pending.len()
    }
}

impl<D: BlockDevice> BlockDevice for CrashDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
        if buf.len() != self.inner.block_size() {
            return Err(Errno::EINVAL);
        }
        if blkno >= self.inner.num_blocks() {
            return Err(Errno::ENXIO);
        }
        let mut st = self.state.lock();
        if st.crashed {
            return Err(Errno::EIO);
        }
        st.stats.reads += 1;
        // Reads must observe the cache: newest pending write to this block wins.
        if let Some(w) = st.pending.iter().rev().find(|w| w.blkno == blkno) {
            buf.copy_from_slice(&w.data);
            return Ok(());
        }
        drop(st);
        self.inner.read_block(blkno, buf)
    }

    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
        if buf.len() != self.inner.block_size() {
            return Err(Errno::EINVAL);
        }
        if blkno >= self.inner.num_blocks() {
            return Err(Errno::ENXIO);
        }
        let mut st = self.state.lock();
        if st.crashed {
            return Err(Errno::EIO);
        }
        st.stats.writes += 1;
        st.pending.push(PendingWrite {
            blkno,
            data: buf.to_vec(),
        });
        Ok(())
    }

    fn flush(&self) -> KResult<()> {
        let drained = {
            let mut st = self.state.lock();
            let interval = st.pending.clone();
            st.barriers.push(interval);
            if st.crashed {
                return Err(Errno::EIO);
            }
            st.stats.flushes += 1;
            std::mem::take(&mut st.pending)
        };
        for (i, w) in drained.iter().enumerate() {
            if let Err(e) = self.inner.write_block(w.blkno, &w.data) {
                // A mid-drain failure must not lose the undrained tail: put
                // it back ahead of anything accepted while we were unlocked,
                // preserving arrival order, so a retried flush still drains
                // FIFO and a crash still sees the correct pending set.
                let mut st = self.state.lock();
                let newer = std::mem::take(&mut st.pending);
                st.pending = drained[i..].to_vec();
                st.pending.extend(newer);
                return Err(e);
            }
        }
        self.inner.flush()
    }

    fn stats(&self) -> DeviceStats {
        self.state.lock().stats
    }
}

// `Arc<D>` devices forward transparently so subsystems can share one device.
impl<D: BlockDevice + ?Sized> BlockDevice for Arc<D> {
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
        (**self).read_block(blkno, buf)
    }
    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
        (**self).write_block(blkno, buf)
    }
    fn read_blocks(&self, start: u64, count: usize, buf: &mut [u8]) -> KResult<()> {
        (**self).read_blocks(start, count, buf)
    }
    fn write_blocks(&self, start: u64, count: usize, buf: &[u8]) -> KResult<()> {
        (**self).write_blocks(start, count, buf)
    }
    fn flush(&self) -> KResult<()> {
        (**self).flush()
    }
    fn stats(&self) -> DeviceStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramdisk_read_back_what_was_written() {
        let d = RamDisk::new(8);
        let mut block = vec![0u8; BLOCK_SIZE];
        block[0] = 0xAB;
        block[BLOCK_SIZE - 1] = 0xCD;
        d.write_block(3, &block).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(3, &mut out).unwrap();
        assert_eq!(out, block);
    }

    #[test]
    fn ramdisk_rejects_bad_geometry() {
        let d = RamDisk::new(4);
        let mut small = vec![0u8; 16];
        assert_eq!(d.read_block(0, &mut small), Err(Errno::EINVAL));
        let mut ok = vec![0u8; BLOCK_SIZE];
        assert_eq!(d.read_block(4, &mut ok), Err(Errno::ENXIO));
        assert_eq!(d.write_block(99, &ok), Err(Errno::ENXIO));
    }

    #[test]
    fn ramdisk_counts_io_and_charges_time() {
        let d = RamDisk::new(4);
        let t0 = d.clock().now_ns();
        let buf = vec![0u8; BLOCK_SIZE];
        d.write_block(0, &buf).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut out).unwrap();
        d.flush().unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.writes, s.flushes), (1, 1, 1));
        assert!(d.clock().now_ns() > t0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let d = RamDisk::new(2);
        let mut b = vec![7u8; BLOCK_SIZE];
        d.write_block(1, &b).unwrap();
        let snap = d.snapshot();
        b[0] = 9;
        d.write_block(1, &b).unwrap();
        d.restore(&snap).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(1, &mut out).unwrap();
        assert_eq!(out[0], 7);
        assert_eq!(d.restore(&[0u8; 3]), Err(Errno::EINVAL));
    }

    #[test]
    fn crash_device_loses_unflushed_writes() {
        let d = CrashDevice::new(RamDisk::new(4));
        let ones = vec![1u8; BLOCK_SIZE];
        d.write_block(0, &ones).unwrap();
        assert_eq!(d.pending_len(), 1);
        d.crash();
        d.recover();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut out).unwrap();
        assert_eq!(out[0], 0, "unflushed write must be gone");
    }

    #[test]
    fn crash_device_flush_makes_writes_durable() {
        let d = CrashDevice::new(RamDisk::new(4));
        let ones = vec![1u8; BLOCK_SIZE];
        d.write_block(0, &ones).unwrap();
        d.flush().unwrap();
        d.crash();
        d.recover();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut out).unwrap();
        assert_eq!(out[0], 1);
    }

    #[test]
    fn crash_device_reads_observe_cache() {
        let d = CrashDevice::new(RamDisk::new(4));
        let ones = vec![1u8; BLOCK_SIZE];
        let twos = vec![2u8; BLOCK_SIZE];
        d.write_block(0, &ones).unwrap();
        d.write_block(0, &twos).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut out).unwrap();
        assert_eq!(out[0], 2, "newest pending write wins");
    }

    #[test]
    fn crash_device_offline_until_recover() {
        let d = CrashDevice::new(RamDisk::new(4));
        d.crash();
        let mut out = vec![0u8; BLOCK_SIZE];
        assert_eq!(d.read_block(0, &mut out), Err(Errno::EIO));
        assert_eq!(d.write_block(0, &out), Err(Errno::EIO));
        assert_eq!(d.flush(), Err(Errno::EIO));
        assert!(d.is_crashed());
        d.recover();
        assert!(d.read_block(0, &mut out).is_ok());
    }

    #[test]
    fn pending_writes_exposed_in_order() {
        let d = CrashDevice::new(RamDisk::new(8));
        for i in 0..3u64 {
            let b = vec![i as u8; BLOCK_SIZE];
            d.write_block(i, &b).unwrap();
        }
        let pend = d.pending_writes();
        assert_eq!(pend.len(), 3);
        assert_eq!(pend[0].blkno, 0);
        assert_eq!(pend[2].blkno, 2);
        assert_eq!(pend[1].data[0], 1);
    }

    #[test]
    fn vectored_io_roundtrips_and_counts_one_io() {
        let d = RamDisk::new(16);
        let mut payload = vec![0u8; 4 * BLOCK_SIZE];
        for (i, chunk) in payload.chunks_mut(BLOCK_SIZE).enumerate() {
            chunk[0] = 0x10 + i as u8;
        }
        d.write_blocks(3, 4, &payload).unwrap();
        let mut back = vec![0u8; 4 * BLOCK_SIZE];
        d.read_blocks(3, 4, &mut back).unwrap();
        assert_eq!(payload, back);
        let s = d.stats();
        assert_eq!(s.reads, 4, "per-block read count still charged");
        assert_eq!(s.writes, 4, "per-block write count still charged");
        assert_eq!(s.vec_ios, 2, "one vectored IO each way");
        // The single blocks are what the extent wrote.
        let mut one = vec![0u8; BLOCK_SIZE];
        d.read_block(5, &mut one).unwrap();
        assert_eq!(one[0], 0x12);
    }

    #[test]
    fn vectored_io_validates_bounds() {
        let d = RamDisk::new(8);
        let mut buf = vec![0u8; 2 * BLOCK_SIZE];
        // Wrong buffer size for the count.
        assert_eq!(d.read_blocks(0, 3, &mut buf), Err(Errno::EINVAL));
        assert_eq!(d.write_blocks(0, 3, &buf), Err(Errno::EINVAL));
        // Extent running past the end of the device.
        assert_eq!(d.read_blocks(7, 2, &mut buf), Err(Errno::ENXIO));
        assert_eq!(d.write_blocks(7, 2, &buf), Err(Errno::ENXIO));
        // Zero-count is a no-op, not an error.
        d.read_blocks(0, 0, &mut []).unwrap();
    }

    #[test]
    fn vectored_extent_charges_single_seek() {
        let d = RamDisk::new(64);
        let base = d.clock().now_ns();
        let mut buf = vec![0u8; 8 * BLOCK_SIZE];
        d.read_blocks(0, 8, &mut buf).unwrap();
        let vectored = d.clock().now_ns() - base;
        // Eight scattered single-block reads pay eight seeks.
        let d2 = RamDisk::new(64);
        let base2 = d2.clock().now_ns();
        let mut one = vec![0u8; BLOCK_SIZE];
        for i in 0..8 {
            d2.read_block(i * 7, &mut one).unwrap();
        }
        let scattered = d2.clock().now_ns() - base2;
        assert!(
            vectored < scattered,
            "extent read ({vectored} ns) should be cheaper than scattered reads ({scattered} ns)"
        );
    }

    #[test]
    fn crash_device_read_validates_before_counting() {
        let d = CrashDevice::new(RamDisk::new(4));
        let mut small = vec![0u8; 16];
        // Validation must not depend on whether the block is in the cache,
        // and rejected reads must not bump the counters.
        assert_eq!(d.read_block(0, &mut small), Err(Errno::EINVAL));
        let mut ok = vec![0u8; BLOCK_SIZE];
        assert_eq!(d.read_block(9, &mut ok), Err(Errno::ENXIO));
        assert_eq!(d.stats().reads, 0);
        d.write_block(0, &ok).unwrap();
        assert_eq!(d.read_block(0, &mut small), Err(Errno::EINVAL));
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn crash_device_flush_error_keeps_unflushed_tail() {
        // Back the cache with a disk that fails the second home write: the
        // drain stops there and everything not yet durable must stay pending.
        let faulty = FaultyDisk::new(RamDisk::new(8), DiskFaultConfig::default(), 1);
        let d = CrashDevice::new(faulty);
        for i in 0..3u64 {
            let b = vec![i as u8 + 1; BLOCK_SIZE];
            d.write_block(i, &b).unwrap();
        }
        d.inner().fail_nth_write(1);
        assert_eq!(d.flush(), Err(Errno::EIO));
        let pend = d.pending_writes();
        assert_eq!(
            pend.iter().map(|w| w.blkno).collect::<Vec<_>>(),
            vec![1, 2],
            "the failed write and the undrained tail stay cached, in order"
        );
        // A retried flush drains the remainder; nothing was lost.
        d.flush().unwrap();
        assert_eq!(d.pending_len(), 0);
        let mut out = vec![0u8; BLOCK_SIZE];
        for i in 0..3u64 {
            d.inner().inner().read_block(i, &mut out).unwrap();
            assert_eq!(out[0], i as u8 + 1);
        }
    }

    #[test]
    fn crash_device_logs_the_pending_set_at_every_flush_entry() {
        let blknos = |iv: &[PendingWrite]| iv.iter().map(|w| w.blkno).collect::<Vec<_>>();
        let faulty = FaultyDisk::new(RamDisk::new(8), DiskFaultConfig::default(), 1);
        let d = CrashDevice::new(faulty);
        let b = vec![1u8; BLOCK_SIZE];
        d.write_block(0, &b).unwrap();
        d.write_block(1, &b).unwrap();
        d.flush().unwrap();
        // An empty flush is still a barrier.
        d.flush().unwrap();
        // A drain that fails on its second home write records the full
        // entry set, not the part that reached media.
        d.write_block(2, &b).unwrap();
        d.write_block(3, &b).unwrap();
        d.write_block(4, &b).unwrap();
        d.inner().fail_nth_write(1);
        assert_eq!(d.flush(), Err(Errno::EIO));
        // A flush on a crashed device records an empty interval.
        d.crash();
        assert_eq!(d.flush(), Err(Errno::EIO));
        let log = d.take_barriers();
        assert_eq!(
            log.iter().map(|iv| blknos(iv)).collect::<Vec<_>>(),
            vec![vec![0, 1], vec![], vec![2, 3, 4], vec![]]
        );
        assert_eq!(log[2][0].data, b);
        // Taking clears the log.
        assert!(d.take_barriers().is_empty());
        d.recover();
        d.write_block(5, &b).unwrap();
        d.flush().unwrap();
        assert_eq!(
            d.take_barriers()
                .iter()
                .map(|iv| blknos(iv))
                .collect::<Vec<_>>(),
            vec![vec![5]]
        );
    }

    #[test]
    fn faulty_disk_scheduled_write_error_is_one_shot() {
        let d = FaultyDisk::new(RamDisk::new(8), DiskFaultConfig::default(), 0);
        let b = vec![5u8; BLOCK_SIZE];
        d.fail_nth_write(2);
        d.write_block(0, &b).unwrap();
        d.write_block(1, &b).unwrap();
        assert_eq!(d.write_block(2, &b), Err(Errno::EIO));
        d.write_block(2, &b).unwrap();
        assert_eq!(d.stats().io_errors, 1);
        // The failed write had no effect on media before the retry.
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(2, &mut out).unwrap();
        assert_eq!(out[0], 5);
    }

    #[test]
    fn faulty_disk_scheduled_flush_error_is_one_shot() {
        let d = FaultyDisk::new(RamDisk::new(4), DiskFaultConfig::default(), 0);
        d.fail_nth_flush(0);
        assert_eq!(d.flush(), Err(Errno::EIO));
        d.flush().unwrap();
        assert_eq!(d.stats().io_errors, 1);
    }

    #[test]
    fn faulty_disk_tears_at_sector_boundaries() {
        let d = FaultyDisk::new(RamDisk::new(4), DiskFaultConfig::default(), 0);
        let ones = vec![1u8; BLOCK_SIZE];
        d.tear_nth_write(0, 3);
        d.write_block(0, &ones).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.inner().read_block(0, &mut out).unwrap();
        let cut = 3 * SECTOR_SIZE;
        assert!(out[..cut].iter().all(|&b| b == 1), "first 3 sectors landed");
        assert!(out[cut..].iter().all(|&b| b == 0), "tail kept old data");
        assert_eq!(d.stats().torn_writes, 1);
    }

    #[test]
    fn faulty_disk_read_corruption_leaves_media_intact() {
        let cfg = DiskFaultConfig {
            read_corrupt: 1.0,
            ..DiskFaultConfig::default()
        };
        let d = FaultyDisk::new(RamDisk::new(4), cfg, 9);
        let zeros = vec![0u8; BLOCK_SIZE];
        d.write_block(0, &zeros).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut out).unwrap();
        let flipped: u32 = out.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped in the returned copy");
        assert!(d.stats().corrupt_reads >= 1);
        // The media itself is clean: corruption happens on the wire.
        d.inner().read_block(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn faulty_disk_seeded_runs_are_reproducible() {
        let run = || {
            let d = FaultyDisk::new(RamDisk::new(16), DiskFaultConfig::adversarial(), 1234);
            let b = vec![7u8; BLOCK_SIZE];
            let mut outcomes = Vec::new();
            for i in 0..64u64 {
                outcomes.push(d.write_block(i % 16, &b).is_ok());
                let mut out = vec![0u8; BLOCK_SIZE];
                outcomes.push(d.read_block(i % 16, &mut out).is_ok());
            }
            outcomes.push(d.flush().is_ok());
            // The trace is part of the replay contract: same seed, same
            // fault schedule, byte-identical trace text.
            (outcomes, d.injected(), d.engine().trace_text())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faulty_disk_logs_injected_faults_to_the_engine_trace() {
        let engine = ScenarioEngine::new(5);
        let d = FaultyDisk::on_engine(RamDisk::new(8), DiskFaultConfig::default(), &engine);
        let b = vec![1u8; BLOCK_SIZE];
        d.fail_nth_write(0);
        assert_eq!(d.write_block(2, &b), Err(Errno::EIO));
        d.tear_nth_write(0, 2);
        d.write_block(3, &b).unwrap();
        d.fail_nth_flush(0);
        assert_eq!(d.flush(), Err(Errno::EIO));
        let text = engine.trace_text();
        assert!(text.contains("write_eio blk=2 scheduled#0"), "{text}");
        assert!(text.contains("torn_write blk=3 keep=2"), "{text}");
        assert!(text.contains("flush_eio scheduled#"), "{text}");
        // Successful, un-faulted IO stays out of the trace.
        d.write_block(4, &b).unwrap();
        assert_eq!(engine.trace_len(), 3);
    }

    /// Satellite-2 regression: the fault decision is drawn from the
    /// engine stream and the stream lock *released* before the inner
    /// device is touched. The probe device asserts the stream mutex is
    /// free inside every inner call — if a refactor ever moves the draw
    /// back under a lock held across IO (serializing every subsystem's
    /// fault decisions behind the slowest disk, and deadlocking any
    /// inner device that itself draws from the engine), this fails at
    /// the exact offending call instead of as a distant soak timeout.
    #[test]
    fn faulty_disk_never_holds_the_stream_lock_across_inner_io() {
        struct Probe {
            inner: RamDisk,
            stream: Arc<EngineStream>,
        }
        impl Probe {
            fn check(&self, op: &str) {
                assert!(
                    !self.stream.locked_now(),
                    "disk stream lock held across inner {op}"
                );
            }
        }
        impl BlockDevice for Probe {
            fn num_blocks(&self) -> u64 {
                self.inner.num_blocks()
            }
            fn block_size(&self) -> usize {
                self.inner.block_size()
            }
            fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
                self.check("read");
                self.inner.read_block(blkno, buf)
            }
            fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
                self.check("write");
                self.inner.write_block(blkno, buf)
            }
            fn flush(&self) -> KResult<()> {
                self.check("flush");
                self.inner.flush()
            }
            fn stats(&self) -> DeviceStats {
                self.inner.stats()
            }
        }

        let engine = ScenarioEngine::new(0xD15C);
        let probe = Probe {
            inner: RamDisk::new(16),
            stream: engine.stream(subsys::DISK),
        };
        // Every fault class armed, plus the slow-disk delay knobs, so the
        // probe sees the full decision surface: plain writes, torn-write
        // merges (inner read + write), corrupt reads, and flush barriers.
        let cfg = DiskFaultConfig {
            read_eio: 0.1,
            write_eio: 0.1,
            flush_eio: 0.1,
            read_corrupt: 0.2,
            torn_write: 0.3,
            write_delay_ns: 50,
            flush_delay_ns: 50,
        };
        let d = FaultyDisk::on_engine(probe, cfg, &engine);
        let b = vec![9u8; BLOCK_SIZE];
        let mut out = vec![0u8; BLOCK_SIZE];
        for i in 0..200u64 {
            let _ = d.write_block(i % 16, &b);
            let _ = d.read_block(i % 16, &mut out);
            if i % 16 == 0 {
                let _ = d.flush();
            }
        }
        let inj = d.injected();
        assert!(
            inj.io_errors > 0 && inj.torn_writes > 0 && inj.corrupt_reads > 0,
            "probe run must actually exercise the fault paths: {inj:?}"
        );
    }

    #[test]
    fn crash_device_vectored_writes_stay_per_block_pending() {
        // CrashDevice keeps the default per-block implementation so crash
        // enumeration can cut between any two blocks of an extent.
        let d = CrashDevice::new(RamDisk::new(8));
        let payload = vec![9u8; 3 * BLOCK_SIZE];
        d.write_blocks(2, 3, &payload).unwrap();
        let pend = d.pending_writes();
        assert_eq!(pend.len(), 3);
        assert_eq!(pend[0].blkno, 2);
        assert_eq!(pend[2].blkno, 4);
        let mut back = vec![0u8; 3 * BLOCK_SIZE];
        d.read_blocks(2, 3, &mut back).unwrap();
        assert_eq!(back, payload);
    }
}
