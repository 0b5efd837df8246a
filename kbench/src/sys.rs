//! Building blocks shared by the workloads: file system generations on
//! RAM disks, ring reactor pools, the seeded generator, and the
//! content pattern every check compares against.

use std::sync::Arc;

use sk_fs_legacy::{cext4_ops, BugKnobs, Cext4};
use sk_fs_safe::rsfs::{JournalMode, Rsfs};
use sk_ksim::block::{BlockDevice, RamDisk};
use sk_ksim::lock::LockRegistry;
use sk_legacy::LegacyCtx;
use sk_vfs::modular::{BatchOp, FileSystem};
use sk_vfs::ring::{Ring, RingReactor, RingThrottle};
use sk_vfs::shim::LegacyFsAdapter;

use crate::layers::{self, TracedDev, TracedFs, C};

fn ramdisk(blocks: u64) -> Arc<dyn BlockDevice> {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(blocks));
    if layers::on() {
        Arc::new(TracedDev::new(dev))
    } else {
        dev
    }
}

/// A freshly formatted rsfs in journal mode `mode`, on a `blocks`-block
/// RAM disk with a quarter of it as journal, and that disk. Lockdep is
/// off: the benchmark measures the uninstrumented hot path.
pub fn rsfs(blocks: u64, inodes: u32, mode: JournalMode) -> (Arc<Rsfs>, Arc<dyn BlockDevice>) {
    let dev = ramdisk(blocks);
    Rsfs::mkfs(&dev, inodes, (blocks / 4) as u32).expect("mkfs rsfs");
    let fs = Rsfs::mount_with_registry(Arc::clone(&dev), mode, LockRegistry::new_disabled())
        .expect("mount rsfs");
    (Arc::new(fs), dev)
}

/// A freshly formatted cext4 behind the legacy-to-modular shim, and its
/// disk.
pub fn cext4(blocks: u64, inodes: u32) -> (Arc<dyn FileSystem>, Arc<dyn BlockDevice>) {
    let dev = ramdisk(blocks);
    Cext4::mkfs(&dev, inodes).expect("mkfs cext4");
    let ctx = LegacyCtx::new();
    let fs = Cext4::mount(Arc::clone(&dev), ctx.clone(), Arc::new(BugKnobs::none()))
        .expect("mount cext4");
    let shim = LegacyFsAdapter::new(Arc::new(cext4_ops(Arc::new(fs))), ctx);
    (Arc::new(shim), dev)
}

/// The interface callers see: `fs` itself, or its traced wrapper.
pub fn interface(fs: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
    if layers::on() {
        Arc::new(TracedFs::new(fs))
    } else {
        fs
    }
}

/// The log-pressure throttle the ring is deployed with on rsfs: commit
/// the running transaction and checkpoint once the log is 80% full.
pub fn throttle(fs: &Arc<Rsfs>) -> Arc<RingThrottle> {
    let pressure_fs = Arc::clone(fs);
    let relieve_fs = Arc::clone(fs);
    let traced = layers::on();
    Arc::new(RingThrottle {
        pressure: Box::new(move || pressure_fs.journal().map_or(0.0, |j| j.log_pressure())),
        relieve: Box::new(move || {
            let t0 = std::time::Instant::now();
            let _ = relieve_fs.commit_running();
            let _ = relieve_fs.checkpoint(usize::MAX);
            if traced {
                layers::add_since(C::ReliefNs, t0);
            }
        }),
        threshold: 0.8,
    })
}

/// A ring of `depth` SQEs drained by `reactors` work-stealing reactors.
pub fn ring_pool(
    fs: Arc<dyn FileSystem>,
    throttle: Option<Arc<RingThrottle>>,
    depth: usize,
    reactors: usize,
) -> (Arc<Ring>, Vec<RingReactor>) {
    let ring = Arc::new(Ring::new(&LockRegistry::new_disabled(), depth));
    let pool = RingReactor::spawn_pool(Arc::clone(&ring), fs, throttle, reactors);
    (ring, pool)
}

/// Submits `op`, timing the call when traced. No workload keeps more
/// SQEs in flight than its ring holds, so the time is the uncontended
/// submit cost, never a wait for SQ space.
pub fn submit(ring: &Ring, op: BatchOp) -> u64 {
    let t0 = layers::on().then(std::time::Instant::now);
    let ticket = ring
        .submit(op)
        .unwrap_or_else(|_| panic!("ring shut down under a live client"));
    if let Some(t0) = t0 {
        layers::add_since(C::RingSubmitNs, t0);
    }
    ticket
}

/// Stops a reactor pool, joining every thread.
pub fn stop_pool(pool: Vec<RingReactor>) {
    for r in pool {
        r.join();
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// `n` sizes evenly spaced over `lo..=hi`, in seeded order: the
    /// seed decides which object gets which size, never the sizes
    /// themselves, so every seed stores the same number of bytes.
    pub fn sizes(&mut self, n: usize, lo: usize, hi: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n)
            .map(|i| lo + (hi - lo) * i / (n - 1).max(1))
            .collect();
        for i in (1..n).rev() {
            v.swap(i, self.range(0, i as u64 + 1) as usize);
        }
        v
    }
}

/// Byte `i` of object `id`'s reference content under `seed`.
fn pattern_byte(seed: u64, id: u64, i: usize) -> u8 {
    let x = (seed ^ id.wrapping_mul(0x9E37_79B9)).wrapping_add(i as u64 / 7);
    (x.wrapping_mul(31) ^ (i as u64).wrapping_mul(131)) as u8
}

/// Object `id`'s reference content, bytes `off..off + len`.
pub fn pattern(seed: u64, id: u64, off: usize, len: usize) -> Vec<u8> {
    (off..off + len)
        .map(|i| pattern_byte(seed, id, i))
        .collect()
}
