//! Live module replacement: quiescence, state transfer, resume.
//!
//! The registry swap ([`sk_core::modularity::Registry::replace`]) makes a
//! new implementation visible to existing handles, but on its own it is
//! not a *live* replacement: operations in flight keep running against
//! the retired generation, the dentry cache and the fd table still hold
//! the old generation's inode numbers, and nothing guarantees the new
//! generation is durable at the instant it becomes authoritative. The
//! [`Migrator`] turns the swap into a protocol:
//!
//! 1. **Quiesce** — close the [`SwapGate`] (new admissions block, ops in
//!    flight drain because each holds the gate shared for its duration),
//!    drain every registered ring's queued SQEs against the old
//!    generation, and drive the old generation's journal through one
//!    final commit + checkpoint ([`FileSystem::quiesce_for_handoff`]);
//!    retiring the checkpointed records drops the `Delay` pins they own
//!    — at the end of this step the old generation's cache holds **no
//!    dirty state**.
//! 2. **Transfer** — walk the tree once ([`copy_tree`]), building the
//!    old→new inode map. Clean blocks are *not* copied at the block
//!    layer: the new generation re-faults them from its own device on
//!    demand; dirty state crossed over in step 1's final commit, so the
//!    tree walk observes only durable content. The new generation is then
//!    itself quiesced, so the fsync watermark established on the old
//!    generation is honored by the new one *before* it can become
//!    authoritative — a crash image sampled mid-handoff judges against
//!    the pre-swap durable prefix on either device.
//! 3. **Resume** — replace the registry slot, remap the warm dcache and
//!    the open-fd table through the inode map (ownership of the cached
//!    entries moves; they are rekeyed, not rebuilt from cold), reopen the
//!    gate. Blocked operations complete against the new generation.
//!
//! Any error before the registry replacement aborts cleanly: the old
//! generation stays mounted and authoritative, caches untouched, the
//! gate reopens, and the caller may retry.
//!
//! The blackout window — the wall time the gate stays closed — is the
//! cost of the protocol and is reported per swap in [`SwapReport`]
//! (measured in `bench_report`'s `hot_swap` section, see DESIGN.md §17).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use sk_core::modularity::Registry;
use sk_ksim::errno::KResult;

use crate::inode::{FileType, InodeNo};
use crate::modular::FileSystem;
use crate::path::{Vfs, FS_INTERFACE};
use crate::ring::Ring;

/// Old-generation inode number → new-generation inode number, built by
/// [`copy_tree`] during state transfer and used to rekey the dcache and
/// the open-fd table. Always contains the root→root mapping.
pub type InoMap = HashMap<InodeNo, InodeNo>;

/// The admission gate every VFS operation passes through.
///
/// Operations hold the gate *shared* for their duration; the
/// [`Migrator`] holds it *exclusive* across quiesce/transfer/switch.
/// `parking_lot`'s fair `RwLock` blocks new readers once a writer
/// waits, so the gate closes promptly: the blackout starts as soon as
/// in-flight operations drain, not when the workload happens to pause.
pub struct SwapGate {
    lock: RwLock<()>,
    /// Operations that found the gate closed (or closing) and had to
    /// block — the denominator of the blackout accounting.
    blocked: AtomicU64,
    /// Completed swaps through this gate.
    swaps: AtomicU64,
}

impl Default for SwapGate {
    fn default() -> Self {
        SwapGate::new()
    }
}

impl SwapGate {
    /// Creates an open gate.
    pub fn new() -> SwapGate {
        SwapGate {
            lock: RwLock::new(()),
            blocked: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// Admits one operation (shared). Blocks while a swap holds the gate
    /// exclusive. The guard must be held for the full operation and
    /// must not be re-entered from the same thread (the fair lock would
    /// deadlock a recursive reader behind a waiting swap — which is why
    /// [`Vfs`] gates only its public entry points).
    pub fn enter(&self) -> RwLockReadGuard<'_, ()> {
        if let Some(g) = self.lock.try_read() {
            return g;
        }
        self.blocked.fetch_add(1, Ordering::Relaxed);
        self.lock.read()
    }

    /// Closes the gate for a swap (exclusive); waits for in-flight
    /// operations to drain.
    fn close(&self) -> RwLockWriteGuard<'_, ()> {
        self.lock.write()
    }

    /// Operations that blocked on a closed gate since creation.
    pub fn blocked_ops(&self) -> u64 {
        self.blocked.load(Ordering::Relaxed)
    }

    /// Completed swaps through this gate.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

/// What one [`Migrator::swap`] did, for benches and assertions.
#[derive(Debug, Clone, Default)]
pub struct SwapReport {
    /// Wall nanoseconds the gate was held exclusive — the blackout
    /// window during which admissions stalled.
    pub blackout_ns: u64,
    /// Ring SQEs the migrator drained against the old generation.
    pub drained_sqes: u64,
    /// Operations that blocked on the gate during this swap.
    pub blocked_ops: u64,
    /// Regular files copied by the tree walk.
    pub copied_files: u64,
    /// Directories created by the tree walk.
    pub copied_dirs: u64,
    /// File content bytes moved by the tree walk.
    pub copied_bytes: u64,
    /// Warm dentries rekeyed into the new generation's inode space.
    pub remapped_dentries: u64,
    /// Open descriptors rekeyed; they keep position and flags.
    pub remapped_fds: u64,
    /// Open descriptors that could not be carried (their inode has no
    /// name in the transferred tree — e.g. unlinked-but-open files) and
    /// were invalidated to return `EBADF` honestly.
    pub dropped_fds: u64,
}

/// Handoff phases surfaced to an observer, in order. Scenario harnesses
/// hook these to fire faults or sample crash images *mid-handoff* at
/// deterministic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigratePhase {
    /// Admissions blocked, rings drained, old generation's journal
    /// committed and checkpointed; its cache holds no dirty state.
    Quiesced,
    /// Tree copied and the new generation made durable; the registry
    /// slot still points at the old generation.
    Transferred,
    /// Registry replaced, caches rekeyed, gate reopened.
    Resumed,
}

type Observer<'a> = Box<dyn FnMut(MigratePhase) + 'a>;

/// Orchestrates one live generation swap over a [`Vfs`].
pub struct Migrator<'a> {
    vfs: &'a Vfs,
    registry: &'a Registry,
    rings: Vec<Arc<Ring>>,
    observer: Option<Observer<'a>>,
}

impl<'a> Migrator<'a> {
    /// A migrator for `vfs`, whose file system slot lives in `registry`.
    pub fn new(vfs: &'a Vfs, registry: &'a Registry) -> Migrator<'a> {
        Migrator {
            vfs,
            registry,
            rings: Vec::new(),
            observer: None,
        }
    }

    /// Registers a ring whose queued SQEs must drain against the old
    /// generation before state transfer (they were admitted before the
    /// swap; their effects must cross with the tree).
    pub fn with_ring(mut self, ring: &Arc<Ring>) -> Self {
        self.rings.push(Arc::clone(ring));
        self
    }

    /// Installs a phase observer (scenario harnesses use this to inject
    /// faults or sample crash images mid-handoff).
    pub fn with_observer(mut self, f: impl FnMut(MigratePhase) + 'a) -> Self {
        self.observer = Some(Box::new(f));
        self
    }

    fn observe(&mut self, phase: MigratePhase) {
        if let Some(f) = &mut self.observer {
            f(phase);
        }
    }

    /// Performs the swap to `next` (registered as `impl_name`),
    /// returning the blackout accounting.
    ///
    /// On error the old generation remains mounted and authoritative:
    /// nothing was replaced, no cache was touched, and the gate is open
    /// again — the caller may retry or keep running.
    pub fn swap(
        mut self,
        impl_name: &'static str,
        next: Arc<dyn FileSystem>,
    ) -> KResult<SwapReport> {
        let mut report = SwapReport::default();
        let gate = self.vfs.gate();
        let old = self.vfs.fs_handle().get();
        let blocked_before = gate.blocked_ops();

        // 1. Quiesce. Closing the gate waits out in-flight operations
        // (each holds it shared); from here until reopen, admission is
        // blocked and the blackout clock runs.
        let guard = gate.close();
        let blackout_start = Instant::now();

        // Queued ring SQEs were admitted before the swap: complete them
        // against the old generation so their effects transfer with the
        // tree. The gated reactor is parked outside its shared hold, so
        // this drain races nothing.
        for ring in &self.rings {
            loop {
                let n = ring.drain_once(&*old);
                if n == 0 {
                    break;
                }
                report.drained_sqes += n as u64;
            }
        }

        // One final commit + checkpoint: every staged op becomes
        // durable, every retired record drops its Delay pins, the cache
        // holds no dirty block. An error here aborts the swap with the old generation
        // untouched and still authoritative.
        old.quiesce_for_handoff()?;
        self.observe(MigratePhase::Quiesced);

        // 2. Transfer. The tree walk sees only durable content now; the
        // ino map is the key for rekeying the warm caches below.
        let mut map = InoMap::new();
        map.insert(old.root_ino(), next.root_ino());
        copy_tree_into(
            &*old,
            &*next,
            old.root_ino(),
            next.root_ino(),
            &mut map,
            &mut report,
        )?;

        // The new generation must honor the fsync watermark carried from
        // the old one *before* it can become authoritative: a crash
        // sampled right after the switch must recover the pre-swap
        // durable prefix from the new device.
        next.quiesce_for_handoff()?;
        self.observe(MigratePhase::Transferred);

        // 3. Switch + resume. From the replace on, errors can no longer
        // abort (the new generation is live), but none of the steps
        // below are fallible.
        self.registry
            .replace::<dyn FileSystem>(FS_INTERFACE, impl_name, next)?;
        report.remapped_dentries = self.vfs.dcache().remap(|ino| map.get(&ino).copied());
        let (kept, dropped) = self.vfs.remap_open_files(|ino| map.get(&ino).copied());
        report.remapped_fds = kept;
        report.dropped_fds = dropped;

        gate.swaps.fetch_add(1, Ordering::Relaxed);
        report.blackout_ns = blackout_start.elapsed().as_nanos() as u64;
        report.blocked_ops = gate.blocked_ops() - blocked_before;
        drop(guard);
        self.observe(MigratePhase::Resumed);
        Ok(report)
    }
}

/// Copies the tree rooted at `sdir` (in `src`) into `ddir` (in `dst`),
/// returning the old→new inode map (root mapping included).
///
/// This is the state-transfer walk the migration tests used to carry as
/// a private helper; promoted here so the [`Migrator`], the soaks, and
/// the benches share one implementation. Errors propagate — a fault
/// mid-copy aborts the caller's swap cleanly.
pub fn copy_tree(
    src: &dyn FileSystem,
    dst: &dyn FileSystem,
    sdir: InodeNo,
    ddir: InodeNo,
) -> KResult<InoMap> {
    let mut map = InoMap::new();
    map.insert(sdir, ddir);
    let mut report = SwapReport::default();
    copy_tree_into(src, dst, sdir, ddir, &mut map, &mut report)?;
    Ok(map)
}

fn copy_tree_into(
    src: &dyn FileSystem,
    dst: &dyn FileSystem,
    sdir: InodeNo,
    ddir: InodeNo,
    map: &mut InoMap,
    report: &mut SwapReport,
) -> KResult<()> {
    for entry in src.readdir(sdir)? {
        let attr = src.getattr(entry.ino)?;
        match attr.ftype {
            FileType::Directory => {
                let nd = dst.mkdir(ddir, &entry.name)?;
                map.insert(entry.ino, nd);
                report.copied_dirs += 1;
                copy_tree_into(src, dst, entry.ino, nd, map, report)?;
            }
            FileType::Regular => {
                let nf = dst.create(ddir, &entry.name)?;
                let mut data = vec![0u8; attr.size as usize];
                let n = src.read(entry.ino, 0, &mut data)?;
                data.truncate(n);
                // An empty write is not a no-op (it stamps mtime), and an
                // empty file has no bytes to copy.
                if n > 0 {
                    dst.write(nf, 0, &data)?;
                }
                map.insert(entry.ino, nf);
                report.copied_files += 1;
                report.copied_bytes += n as u64;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;

    fn seed(fs: &dyn FileSystem) {
        let root = fs.root_ino();
        let d = fs.mkdir(root, "d").unwrap();
        let f = fs.create(root, "f").unwrap();
        fs.write(f, 0, b"top").unwrap();
        let g = fs.create(d, "g").unwrap();
        fs.write(g, 0, b"nested").unwrap();
    }

    #[test]
    fn copy_tree_returns_a_complete_ino_map() {
        let a = MemFs::new();
        let b = MemFs::new();
        seed(&a);
        let map = copy_tree(&a, &b, a.root_ino(), b.root_ino()).unwrap();
        // root + d + f + g
        assert_eq!(map.len(), 4);
        for (old, new) in &map {
            let oa = a.getattr(*old).unwrap();
            let na = b.getattr(*new).unwrap();
            assert_eq!(oa.ftype, na.ftype);
            assert_eq!(oa.size, na.size);
        }
        assert_eq!(
            crate::modular::fs_abstraction(&a),
            crate::modular::fs_abstraction(&b)
        );
    }

    #[test]
    fn copy_tree_propagates_errors() {
        let a = MemFs::new();
        let b = MemFs::new();
        seed(&a);
        // Pre-create a colliding file so the copy fails mid-walk.
        b.create(b.root_ino(), "f").unwrap();
        assert!(copy_tree(&a, &b, a.root_ino(), b.root_ino()).is_err());
    }

    #[test]
    fn gate_counts_blocked_entries() {
        let gate = Arc::new(SwapGate::new());
        {
            let _open = gate.enter();
            assert_eq!(gate.blocked_ops(), 0, "open gate admits without blocking");
        }
        let w = gate.close();
        let g2 = Arc::clone(&gate);
        let t = std::thread::spawn(move || {
            let _g = g2.enter();
        });
        // Wait until the entering thread has registered as blocked.
        while gate.blocked_ops() == 0 {
            std::thread::yield_now();
        }
        drop(w);
        t.join().unwrap();
        assert_eq!(gate.blocked_ops(), 1);
    }
}
