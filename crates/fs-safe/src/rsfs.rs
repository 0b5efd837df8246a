//! The rsfs implementation.
//!
//! Written in the roadmap idiom end to end: no type erasure, `KResult`
//! errors, checked arithmetic ([`sk_core::typesafe::ovf`]), disciplined
//! `i_lock`/`i_size` updates, and — when journaling is on — every mutating
//! operation staged in a transaction overlay and committed atomically via the
//! write-ahead [`Journal`].
//!
//! The type implements [`FileSystem`] (so it drops into the Step-1
//! registry behind the VFS) and [`Refines<FsModel>`] (so the Step-4
//! refinement checker can interpret it as the abstract map-of-paths model
//! after every operation).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sk_core::spec::Refines;
use sk_core::typesafe::ovf;
use sk_ksim::block::BlockDevice;
use sk_ksim::buffer::{BufferCache, DelayPin};
use sk_ksim::errno::{Errno, KResult};
use sk_ksim::lock::{LockRegistry, TrackedMutex, TrackedMutexGuard};
use sk_vfs::inode::{Attr, FileType, Inode, InodeNo};
use sk_vfs::modular::{
    fs_abstraction, validate_name, BatchOp, BatchReply, DirEntry, FileSystem, StatFs, WriteCtx,
};
use sk_vfs::spec::FsModel;

use crate::journal::Journal;
use crate::layout::{
    dirent_encode, dirent_parse, DiskInode, Superblock, BLOCK_BITMAP, BLOCK_SIZE, INODES_PER_BLOCK,
    INODE_BITMAP, INODE_SIZE, INODE_TABLE, MAX_FILE_SIZE, MODE_DIR, MODE_FREE, MODE_REG, NDIRECT,
    NINDIRECT, ROOT_INO, SB_BLOCK,
};

/// Whether rsfs journals its writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// No journal: writes go through the buffer cache, durable at `sync`.
    /// Crash consistency is best-effort (the benchmark baseline).
    None,
    /// Every operation commits one atomic transaction (data journaling
    /// with deferred, flusher-driven checkpoint) — the crash-checked
    /// configuration.
    PerOp,
    /// Operations *stage* into the journal's running transaction and
    /// return without a flush barrier; durability arrives at the
    /// kupdate-style timer commit, under log pressure, or at an explicit
    /// `fsync`/`sync`. Crash contract: recovery lands on a prefix of the
    /// operation history that includes everything fsync'd before the
    /// crash.
    Async,
}

/// The typed write context rsfs threads from `write_begin` to
/// `write_end` — the Step-2 replacement for cext4's `WriteFsdata` void
/// pointer.
#[derive(Debug, PartialEq, Eq)]
struct RsfsWriteCtx {
    ino: InodeNo,
    off: u64,
    len: usize,
}

/// Default op-lock stripe count for [`Rsfs::mount`]. One stripe is the
/// old global-lock build ([`Rsfs::mount_with_stripes`] exposes it for
/// the equivalence suites).
pub const DEFAULT_OP_STRIPES: usize = 16;

/// Inode-cache shard count (same striping idiom as the buffer cache).
const ICACHE_SHARDS: usize = 8;

/// The safe, journaled file system.
pub struct Rsfs {
    cache: Arc<BufferCache>,
    journal: Option<Journal>,
    /// The mount's journal mode. Its only effect on the commit path:
    /// `Txn::commit` calls `OpHandle::commit` under `PerOp` (stage into
    /// the running transaction, then wait for the journal's durability
    /// watermark to pass the op) and `OpHandle::stage` under `Async`
    /// (stage and return).
    mode: JournalMode,
    sb: Superblock,
    /// Per-inode-striped op locks serializing the *staging* phase of
    /// mutating operations: ops on files hashing to different stripes
    /// stage into the journal's running transaction concurrently. The
    /// journal append itself happens outside these locks so concurrent
    /// operations merge into one group commit. Sleepable whole-op
    /// locks: staging reads blocks through the cache, so they
    /// legitimately span device I/O (lockdep class `rsfs.op`, io-ok,
    /// ranked by stripe index — multi-stripe ops acquire in fixed
    /// ascending order and lockdep enforces it).
    op_stripes: Vec<TrackedMutex<()>>,
    /// Serializes allocator state (the block and inode bitmaps) across
    /// stripes: taken lazily at a transaction's first bitmap touch and
    /// held through publish, so concurrent stripes never lose each
    /// other's bitmap bits and journal token order matches publish
    /// order for the bitmap blocks. Class `rsfs.alloc`, io-ok. To keep
    /// `stripe → alloc` the only ordering between the classes, a
    /// transaction already holding this lock only ever *trylocks*
    /// further stripes ([`Txn::try_cover`]).
    alloc_lock: TrackedMutex<()>,
    /// One publish lock per inode-table block (class `rsfs.inopub`,
    /// ranked by table-block index). Inode updates are staged as slot
    /// deltas ([`Txn::inode_updates`]) because the table packs
    /// [`INODES_PER_BLOCK`] inodes per block — whole-block staging
    /// under per-inode stripes would lose concurrent neighbors' slots.
    /// Commit holds the locks for every table block it touches from
    /// `begin_op` through publish, so token order equals publish order
    /// for table blocks and each journaled whole-block image contains
    /// exactly the slot updates of smaller-token transactions.
    inopub_locks: Vec<TrackedMutex<()>>,
    lock_registry: Arc<LockRegistry>,
    icache: Vec<Mutex<HashMap<InodeNo, Arc<Inode>>>>,
    op_counter: AtomicU64,
}

/// A staged transaction: an overlay of pending block images plus
/// slot-level inode updates. Mutating operations build it with
/// [`Txn::begin`], which holds the op-lock stripes of every inode the
/// operation mutates so staging is serializable per stripe; read-only
/// paths use [`Txn::new`].
struct Txn<'a> {
    fs: &'a Rsfs,
    writes: BTreeMap<u64, Vec<u8>>,
    /// Staged on-disk inodes, by number. Kept slot-level (not as block
    /// images in `writes`) because the inode table packs
    /// [`INODES_PER_BLOCK`] inodes per block: whole-block staging under
    /// per-inode stripes would clobber concurrent neighbors' slots.
    /// Merged into the *current* table-block content at commit, under
    /// the per-table-block publish locks.
    inode_updates: BTreeMap<InodeNo, DiskInode>,
    /// `inode_updates` slots per table block: an O(1) chunk cut ([`Txn::staged_blocks`]).
    table_slots: BTreeMap<u64, usize>,
    /// Held op-lock stripes, ascending by stripe index.
    stripes: Vec<(usize, TrackedMutexGuard<'a, ()>)>,
    /// The allocator lock, taken lazily at the first bitmap touch
    /// ([`Txn::ensure_alloc`]) and held through publish.
    alloc_guard: Option<TrackedMutexGuard<'a, ()>>,
    /// Batch staging only ([`Rsfs::submit_batch`]): the prior overlay
    /// state of everything the current op has touched, first touch only
    /// (`None` = not previously in the overlay). [`Txn::op_scope`]
    /// restores these on op failure, so one misbehaving op rolls back
    /// without cloning the whole accumulated overlay.
    undo: Option<TxnUndo>,
}

/// Per-op first-touch undo records for [`Txn::op_scope`].
#[derive(Default)]
struct TxnUndo {
    blocks: Vec<(u64, Option<Vec<u8>>)>,
    inodes: Vec<(InodeNo, Option<DiskInode>)>,
}

impl<'a> Txn<'a> {
    fn new(fs: &'a Rsfs) -> Txn<'a> {
        Txn {
            fs,
            writes: BTreeMap::new(),
            inode_updates: BTreeMap::new(),
            table_slots: BTreeMap::new(),
            stripes: Vec::new(),
            alloc_guard: None,
            undo: None,
        }
    }

    /// Starts a mutating transaction covering `inos`: takes their op-lock
    /// stripes in ascending index order so staging (and the commit-order
    /// token) is serialized against other mutations of the same files.
    fn begin(fs: &'a Rsfs, inos: &[InodeNo]) -> Txn<'a> {
        let mut idx: Vec<usize> = inos.iter().map(|&i| fs.stripe_of(i)).collect();
        idx.sort_unstable();
        idx.dedup();
        let mut txn = Txn::new(fs);
        txn.stripes = idx
            .into_iter()
            .map(|s| (s, fs.op_stripes[s].lock()))
            .collect();
        txn
    }

    /// The deterministic fallback when optimistic stripe extension keeps
    /// losing races: take every stripe, ascending.
    fn begin_all(fs: &'a Rsfs) -> Txn<'a> {
        let mut txn = Txn::new(fs);
        txn.stripes = (0..fs.op_stripes.len())
            .map(|s| (s, fs.op_stripes[s].lock()))
            .collect();
        txn
    }

    fn holds_stripe(&self, s: usize) -> bool {
        self.stripes.iter().any(|(i, _)| *i == s)
    }

    /// Whether every inode in `inos` already has its stripe held.
    fn covers(&self, inos: &[InodeNo]) -> bool {
        inos.iter()
            .all(|&i| self.holds_stripe(self.fs.stripe_of(i)))
    }

    /// Tries to extend the held stripe set to cover `inos` without
    /// breaking the fixed ascending acquisition order. A stripe above
    /// every held index may be taken blocking (that *is* the order) —
    /// unless the allocator lock is already held, in which case blocking
    /// on a stripe could deadlock against that stripe's holder waiting
    /// on the allocator. Everything else is a trylock, which lockdep
    /// exempts from ordering because it cannot block. Returns false if a
    /// needed stripe could not be taken; the caller must drop (or flush)
    /// the transaction and re-begin with the full set.
    fn try_cover(&mut self, inos: &[InodeNo]) -> bool {
        let mut need: Vec<usize> = inos
            .iter()
            .map(|&i| self.fs.stripe_of(i))
            .filter(|&s| !self.holds_stripe(s))
            .collect();
        need.sort_unstable();
        need.dedup();
        for s in need {
            let above_all = self.stripes.last().is_none_or(|(i, _)| s > *i);
            let guard = if above_all && self.alloc_guard.is_none() {
                self.fs.op_stripes[s].lock()
            } else {
                match self.fs.op_stripes[s].try_lock() {
                    Some(g) => g,
                    None => return false,
                }
            };
            let at = self.stripes.partition_point(|(i, _)| *i < s);
            self.stripes.insert(at, (s, guard));
        }
        true
    }

    /// Takes the allocator lock if this transaction does not hold it yet.
    /// Blocking here is safe: `stripe → alloc` is the global order, and
    /// alloc holders never block on a stripe (see [`Txn::try_cover`]).
    fn ensure_alloc(&mut self) {
        if self.alloc_guard.is_none() {
            self.alloc_guard = Some(self.fs.alloc_lock.lock());
        }
    }

    /// Runs `f` as one isolated operation of a batch: every overlay
    /// write it makes is recorded, and rolled back if `f` fails — a
    /// failed op leaves no partial state in the chunk while successful
    /// neighbors keep theirs.
    fn op_scope<R>(&mut self, f: impl FnOnce(&mut Self) -> KResult<R>) -> KResult<R> {
        self.undo = Some(TxnUndo::default());
        let r = f(self);
        let undo = self.undo.take().unwrap_or_default();
        if r.is_err() {
            for (blkno, prior) in undo.blocks.into_iter().rev() {
                match prior {
                    Some(img) => {
                        self.writes.insert(blkno, img);
                    }
                    None => {
                        self.writes.remove(&blkno);
                    }
                }
            }
            for (ino, prior) in undo.inodes.into_iter().rev() {
                self.stage_inode(ino, prior);
            }
        }
        r
    }

    /// Reads a block through the overlay.
    fn read(&self, blkno: u64) -> KResult<Vec<u8>> {
        if let Some(data) = self.writes.get(&blkno) {
            return Ok(data.clone());
        }
        let buf = self.fs.cache.bread(blkno)?;
        Ok(buf.read(|d| d.to_vec()))
    }

    /// Stages a full-block write.
    fn write(&mut self, blkno: u64, data: Vec<u8>) {
        debug_assert_eq!(data.len(), BLOCK_SIZE);
        if let Some(undo) = &mut self.undo {
            if !undo.blocks.iter().any(|(b, _)| *b == blkno) {
                undo.blocks.push((blkno, self.writes.get(&blkno).cloned()));
            }
        }
        self.writes.insert(blkno, data);
    }

    /// Stages (`Some`) or unstages (`None`) the slot of `ino`; keeps `table_slots` in step.
    fn stage_inode(&mut self, ino: InodeNo, di: Option<DiskInode>) {
        let blk = INODE_TABLE + ino / INODES_PER_BLOCK as u64;
        let had = match di {
            Some(di) => self.inode_updates.insert(ino, di),
            None => self.inode_updates.remove(&ino),
        };
        let n = self.table_slots.entry(blk).or_insert(0);
        *n = *n + usize::from(di.is_some()) - usize::from(had.is_some());
        if *n == 0 {
            self.table_slots.remove(&blk);
        }
    }

    /// Blocks this transaction would journal: staged block images plus
    /// one whole-block image per touched inode-table block. The batch
    /// path cuts chunks against this, so a chunk never outgrows one
    /// journal record.
    fn staged_blocks(&self) -> usize {
        debug_assert!(self
            .inode_updates
            .keys()
            .map(|&i| INODE_TABLE + i / INODES_PER_BLOCK as u64)
            .eq(self
                .table_slots
                .iter()
                .flat_map(|(&b, &n)| std::iter::repeat_n(b, n))));
        self.writes.len() + self.table_slots.len()
    }

    /// Commits the staged writes atomically.
    ///
    /// With a journal, this is the jbd2-style group-commit path:
    /// 1. still holding the op lock, join the open transaction (fixing
    ///    this operation's place in the global commit order) and publish
    ///    the new images into the buffer cache, each under a [`DelayPin`]
    ///    — visible to readers, pinned against writeback;
    /// 2. release the op lock and hand the images and their pins to the
    ///    journal, where concurrent committers merge into one batch with
    ///    one barrier.
    ///
    /// The journal holds the pins until the deferred *checkpoint* retires
    /// the transaction: the home locations are written exclusively by the
    /// checkpoint, so cache writeback can never race it into regressing a
    /// home block past a newer committed image.
    ///
    /// Without a journal the images just dirty the cache.
    fn commit(mut self) -> KResult<()> {
        if self.writes.is_empty() && self.inode_updates.is_empty() {
            return Ok(());
        }
        // Merge the slot-level inode updates into whole-block images
        // under the per-table-block publish locks (ascending, so the
        // ranked `rsfs.inopub` class stays ordered). The locks are held
        // from before `begin_op` until after publish: for any two
        // transactions touching the same table block, lock order fixes
        // token order *and* publish order *and* whose slots each merged
        // image contains — a journaled image at token t holds exactly
        // the slot updates of transactions with tokens ≤ t, so recovery
        // to any token prefix is consistent.
        let tblks: Vec<u64> = self.table_slots.keys().copied().collect();
        let mut pub_guards: Vec<TrackedMutexGuard<'_, ()>> = Vec::with_capacity(tblks.len());
        for &blk in &tblks {
            pub_guards.push(self.fs.inopub_locks[(blk - INODE_TABLE) as usize].lock());
        }
        let mut table_imgs: Vec<(u64, Vec<u8>)> = Vec::with_capacity(tblks.len());
        for &blk in &tblks {
            let buf = self.fs.cache.bread(blk)?;
            let mut img = buf.read(|d| d.to_vec());
            let first = (blk - INODE_TABLE) * INODES_PER_BLOCK as u64;
            for (&ino, di) in self
                .inode_updates
                .range(first..first + INODES_PER_BLOCK as u64)
            {
                let slot = (ino - first) as usize * INODE_SIZE;
                di.encode(&mut img[slot..slot + INODE_SIZE]);
            }
            table_imgs.push((blk, img));
        }
        let journal = match &self.fs.journal {
            Some(j) => j,
            None => {
                for (blkno, data) in &self.writes {
                    let buf = self.fs.cache.getblk(*blkno)?;
                    buf.write(|d| d.copy_from_slice(data));
                }
                for (blkno, data) in &table_imgs {
                    let buf = self.fs.cache.getblk(*blkno)?;
                    buf.write(|d| d.copy_from_slice(data));
                }
                return Ok(());
            }
        };
        // The overlay is handed to the journal by move: the cache will
        // hold the published images, so no copy is needed here.
        let mut list: Vec<(u64, Vec<u8>)> = core::mem::take(&mut self.writes).into_iter().collect();
        list.extend(table_imgs);
        let handle = journal.begin_op();
        // Publish to the cache under the stripe/alloc/publish locks,
        // pinned: readers see the new state immediately, writeback cannot
        // leak it to home locations before the journal record is durable.
        let mut pins: Vec<DelayPin> = Vec::with_capacity(list.len());
        let published = list.iter().try_for_each(|(blkno, data)| {
            pins.push(self.fs.cache.getblk(*blkno)?.publish(data));
            Ok(())
        });
        let pinned: Vec<u64> = list[..pins.len()].iter().map(|(b, _)| *b).collect();
        // Staging is published; later operations may now take the
        // locks, observe this state, and race into the same commit
        // batch.
        drop(pub_guards);
        self.stripes.clear();
        self.alloc_guard = None;
        let res = match published {
            Err(e) => {
                drop(handle); // abort the join so the leader can proceed
                drop(pins);
                Err(e)
            }
            // PerOp waits for the batch barrier; Async enters the running
            // transaction and returns — durability comes from the timer
            // commit, log pressure, or an fsync.
            Ok(()) if self.fs.mode == JournalMode::Async => handle.stage(list, pins),
            Ok(()) => handle.commit(list, pins),
        };
        if let Err(e) = res {
            // The transaction is not durable and must neither be observed
            // nor reach its homes. Our pins dropped before the errno
            // returned, and a buffer's last drop leaves it clean, so
            // writeback cannot push our images. Drain what *is* durable,
            // then drop our blocks so reads refetch committed state.
            let _ = journal.checkpoint_all();
            // A block still pinned is shared with an earlier committed,
            // uncheckpointed transaction, so `invalidate_blocks` spares
            // it and our failed image would stay visible: roll it back to
            // the journal's newest committed image.
            for blkno in &pinned {
                if let Some(buf) = self.fs.cache.peek(*blkno) {
                    if buf.is_pinned() {
                        if let Some(img) = journal.committed_image(*blkno) {
                            buf.write(|d| d.copy_from_slice(&img));
                        }
                    }
                }
            }
            self.fs.cache.invalidate_blocks(&pinned);
            return Err(e);
        }
        Ok(())
    }

    // --- transactional metadata helpers -----------------------------------

    fn inode_loc(&self, ino: InodeNo) -> KResult<(u64, usize)> {
        if ino == 0 || ino >= u64::from(self.fs.sb.inode_count) {
            return Err(Errno::EINVAL);
        }
        let blk = INODE_TABLE + ino / INODES_PER_BLOCK as u64;
        let slot = ovf::to_usize(ino % INODES_PER_BLOCK as u64)? * INODE_SIZE;
        Ok((blk, slot))
    }

    fn read_inode(&self, ino: InodeNo) -> KResult<DiskInode> {
        let (blk, slot) = self.inode_loc(ino)?;
        if let Some(di) = self.inode_updates.get(&ino) {
            return Ok(*di);
        }
        // Hot path: decode in place from the cache buffer, no block clone.
        let buf = self.fs.cache.bread(blk)?;
        buf.read(|d| DiskInode::decode(&d[slot..slot + INODE_SIZE]))
    }

    /// Reads `ino`, failing with `ENOENT` if its slot is free.
    fn live_inode(&self, ino: InodeNo) -> KResult<DiskInode> {
        let di = self.read_inode(ino)?;
        if di.mode == MODE_FREE {
            return Err(Errno::ENOENT);
        }
        Ok(di)
    }

    /// The check a file read or write makes first: `ino` is live and
    /// not a directory.
    fn file_inode(&self, ino: InodeNo) -> KResult<()> {
        if self.live_inode(ino)?.mode == MODE_DIR {
            return Err(Errno::EISDIR);
        }
        Ok(())
    }

    fn write_inode(&mut self, ino: InodeNo, di: &DiskInode) -> KResult<()> {
        self.inode_loc(ino)?; // range check only; staged slot-level
        if let Some(undo) = &mut self.undo {
            if !undo.inodes.iter().any(|(i, _)| *i == ino) {
                undo.inodes
                    .push((ino, self.inode_updates.get(&ino).copied()));
            }
        }
        self.stage_inode(ino, Some(*di));
        Ok(())
    }

    fn bitmap_alloc(&mut self, bitmap_blk: u64, limit: u64, first: u64) -> KResult<u64> {
        self.ensure_alloc();
        let mut data = self.read(bitmap_blk)?;
        let i = first_clear_bit(&data, first, limit)?;
        data[(i / 8) as usize] |= 1 << (i % 8);
        self.write(bitmap_blk, data);
        Ok(i)
    }

    fn bitmap_free(&mut self, bitmap_blk: u64, index: u64) -> KResult<()> {
        self.ensure_alloc();
        let mut data = self.read(bitmap_blk)?;
        let (byte, bit) = ((index / 8) as usize, (index % 8) as u8);
        data[byte] &= !(1 << bit);
        self.write(bitmap_blk, data);
        Ok(())
    }

    fn balloc(&mut self) -> KResult<u64> {
        let blk = self.bitmap_alloc(
            BLOCK_BITMAP,
            u64::from(self.fs.sb.journal_start),
            u64::from(self.fs.sb.data_start),
        )?;
        // Fresh blocks start zeroed in the overlay.
        self.write(blk, vec![0u8; BLOCK_SIZE]);
        Ok(blk)
    }

    fn bfree(&mut self, blk: u64) -> KResult<()> {
        self.bitmap_free(BLOCK_BITMAP, blk)
    }

    fn ialloc(&mut self, mode: u16) -> KResult<InodeNo> {
        let ino = self.bitmap_alloc(INODE_BITMAP, u64::from(self.fs.sb.inode_count), 2)?;
        let mut di = DiskInode::empty();
        di.mode = mode;
        di.nlink = 1;
        di.mtime = self.fs.tick();
        self.write_inode(ino, &di)?;
        Ok(ino)
    }

    fn ifree(&mut self, ino: InodeNo) -> KResult<()> {
        self.write_inode(ino, &DiskInode::empty())?;
        self.bitmap_free(INODE_BITMAP, ino)?;
        self.fs.icache_shard(ino).lock().remove(&ino);
        Ok(())
    }

    /// Maps file block `fblk`, allocating when `alloc`.
    fn bmap(&mut self, ino: InodeNo, fblk: u64, alloc: bool) -> KResult<u64> {
        let mut di = self.read_inode(ino)?;
        if (fblk as usize) < NDIRECT {
            let slot = fblk as usize;
            if di.direct[slot] == 0 && alloc {
                di.direct[slot] = ovf::to_u32(self.balloc()?)?;
                self.write_inode(ino, &di)?;
            }
            return Ok(u64::from(di.direct[slot]));
        }
        let idx = ovf::to_usize(ovf::sub(fblk, NDIRECT as u64)?)?;
        if idx >= NINDIRECT {
            return Err(Errno::EFBIG);
        }
        if di.indirect == 0 {
            if !alloc {
                return Ok(0);
            }
            di.indirect = ovf::to_u32(self.balloc()?)?;
            self.write_inode(ino, &di)?;
        }
        let iblk = u64::from(di.indirect);
        let mut idata = self.read(iblk)?;
        let existing = u32::from_le_bytes(idata[idx * 4..idx * 4 + 4].try_into().expect("4"));
        if existing != 0 || !alloc {
            return Ok(u64::from(existing));
        }
        let fresh = ovf::to_u32(self.balloc()?)?;
        idata[idx * 4..idx * 4 + 4].copy_from_slice(&fresh.to_le_bytes());
        self.write(iblk, idata);
        Ok(u64::from(fresh))
    }

    /// Writes `data` at `off` into `ino`, extending its size to at least
    /// `off + data.len()` (so an empty write past the end extends it to
    /// `off`). Callers check the inode first ([`Txn::file_inode`], or a
    /// directory lookup).
    fn write_range(&mut self, ino: InodeNo, off: u64, data: &[u8]) -> KResult<usize> {
        let end = ovf::add(off, data.len() as u64)?;
        if end > MAX_FILE_SIZE {
            return Err(Errno::EFBIG);
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = ovf::add(off, done as u64)?;
            let fblk = pos / BLOCK_SIZE as u64;
            let inblk = ovf::to_usize(pos % BLOCK_SIZE as u64)?;
            let n = (BLOCK_SIZE - inblk).min(data.len() - done);
            let dblk = self.bmap(ino, fblk, true)?;
            let mut block = if inblk == 0 && n == BLOCK_SIZE {
                vec![0u8; BLOCK_SIZE]
            } else {
                self.read(dblk)?
            };
            block[inblk..inblk + n].copy_from_slice(&data[done..done + n]);
            self.write(dblk, block);
            done += n;
        }
        let mut di = self.read_inode(ino)?;
        if end > di.size {
            di.size = end;
        }
        di.mtime = self.fs.tick();
        self.write_inode(ino, &di)?;
        Ok(done)
    }

    /// Reads a file range through the overlay. Blocks outside the overlay
    /// are copied straight out of the cache buffer (no per-block clone —
    /// this is the hot read path). Callers check the inode first, as for
    /// [`Txn::write_range`].
    fn read_range(&mut self, ino: InodeNo, off: u64, buf: &mut [u8]) -> KResult<usize> {
        let di = self.read_inode(ino)?;
        if off >= di.size {
            return Ok(0);
        }
        let want = ovf::to_usize((buf.len() as u64).min(ovf::sub(di.size, off)?))?;
        let mut done = 0usize;
        while done < want {
            let pos = ovf::add(off, done as u64)?;
            let fblk = pos / BLOCK_SIZE as u64;
            let inblk = ovf::to_usize(pos % BLOCK_SIZE as u64)?;
            let n = (BLOCK_SIZE - inblk).min(want - done);
            let dblk = self.bmap(ino, fblk, false)?;
            if dblk == 0 {
                buf[done..done + n].fill(0);
            } else if let Some(data) = self.writes.get(&dblk) {
                buf[done..done + n].copy_from_slice(&data[inblk..inblk + n]);
            } else {
                let cached = self.fs.cache.bread(dblk)?;
                cached.read(|d| buf[done..done + n].copy_from_slice(&d[inblk..inblk + n]));
            }
            done += n;
        }
        Ok(done)
    }

    fn dir_content(&mut self, dir: InodeNo) -> KResult<Vec<u8>> {
        let di = self.read_inode(dir)?;
        if di.mode != MODE_DIR {
            return Err(Errno::ENOTDIR);
        }
        // The size comes off the disk: bound it by the format before it
        // sizes an allocation.
        if di.size > MAX_FILE_SIZE {
            return Err(Errno::EUCLEAN);
        }
        let mut content = vec![0u8; ovf::to_usize(di.size)?];
        self.read_range(dir, 0, &mut content)?;
        Ok(content)
    }

    /// Frees blocks beyond `new_size` and zeroes the dropped tail of the
    /// last kept block.
    fn shrink_blocks(&mut self, ino: InodeNo, new_size: u64) -> KResult<()> {
        let keep_blocks = new_size.div_ceil(BLOCK_SIZE as u64);
        if !new_size.is_multiple_of(BLOCK_SIZE as u64) {
            let last_fblk = new_size / BLOCK_SIZE as u64;
            let dblk = self.bmap(ino, last_fblk, false)?;
            if dblk != 0 {
                let cut = ovf::to_usize(new_size % BLOCK_SIZE as u64)?;
                let mut data = self.read(dblk)?;
                data[cut..].fill(0);
                self.write(dblk, data);
            }
        }
        let mut di = self.read_inode(ino)?;
        for slot in 0..NDIRECT {
            if (slot as u64) >= keep_blocks && di.direct[slot] != 0 {
                self.bfree(u64::from(di.direct[slot]))?;
                di.direct[slot] = 0;
            }
        }
        if di.indirect != 0 {
            let iblk = u64::from(di.indirect);
            let mut idata = self.read(iblk)?;
            let mut any_left = false;
            for i in 0..NINDIRECT {
                let e = u32::from_le_bytes(idata[i * 4..i * 4 + 4].try_into().expect("4"));
                if e == 0 {
                    continue;
                }
                let fblk = (NDIRECT + i) as u64;
                if fblk >= keep_blocks {
                    self.bfree(u64::from(e))?;
                    idata[i * 4..i * 4 + 4].fill(0);
                } else {
                    any_left = true;
                }
            }
            self.write(iblk, idata);
            if !any_left {
                self.bfree(iblk)?;
                di.indirect = 0;
            }
        }
        di.size = new_size;
        di.mtime = self.fs.tick();
        self.write_inode(ino, &di)
    }

    fn dir_set_content(&mut self, dir: InodeNo, content: &[u8]) -> KResult<()> {
        let di = self.read_inode(dir)?;
        let old_size = di.size;
        let mut zeroed = di;
        zeroed.size = 0;
        self.write_inode(dir, &zeroed)?;
        if !content.is_empty() {
            self.write_range(dir, 0, content)?;
        }
        if old_size as usize > content.len() {
            self.shrink_blocks(dir, content.len() as u64)?;
        }
        Ok(())
    }

    fn dir_lookup(&mut self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        let content = self.dir_content(dir)?;
        dirent_parse(&content)?
            .into_iter()
            .find(|(_, n)| n == name)
            .map(|(ino, _)| ino)
            .ok_or(Errno::ENOENT)
    }

    fn dir_add(&mut self, dir: InodeNo, name: &str, ino: InodeNo) -> KResult<()> {
        let di = self.read_inode(dir)?;
        let mut entry = Vec::with_capacity(5 + name.len());
        dirent_encode(&mut entry, ino, name);
        self.write_range(dir, di.size, &entry).map(|_| ())
    }

    fn dir_remove(&mut self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        let content = self.dir_content(dir)?;
        let entries = dirent_parse(&content)?;
        let mut found = None;
        let mut rebuilt = Vec::new();
        for (ino, n) in entries {
            if n == name && found.is_none() {
                found = Some(ino);
            } else {
                dirent_encode(&mut rebuilt, ino, &n);
            }
        }
        let victim = found.ok_or(Errno::ENOENT)?;
        self.dir_set_content(dir, &rebuilt)?;
        Ok(victim)
    }

    /// Creates `name` in `dir` as a fresh inode of `mode`: the body of
    /// create, mkdir and the batch create.
    fn create_entry(&mut self, dir: InodeNo, name: &str, mode: u16) -> KResult<InodeNo> {
        validate_name(name)?;
        match self.dir_lookup(dir, name) {
            Ok(_) => return Err(Errno::EEXIST),
            Err(Errno::ENOENT) => {}
            Err(e) => return Err(e),
        }
        let ino = self.ialloc(mode)?;
        self.dir_add(dir, name, ino)?;
        Ok(ino)
    }

    /// Removes `name`, which resolves to `victim`, from `dir` and frees
    /// the victim: a file, or an empty directory if `is_dir`. The body of
    /// unlink, rmdir, rename's replaced target and the batch unlink.
    fn remove_entry(
        &mut self,
        dir: InodeNo,
        name: &str,
        victim: InodeNo,
        is_dir: bool,
    ) -> KResult<()> {
        let di = self.read_inode(victim)?;
        if !is_dir && di.mode == MODE_DIR {
            return Err(Errno::EISDIR);
        }
        if is_dir {
            if di.mode != MODE_DIR {
                return Err(Errno::ENOTDIR);
            }
            if !dirent_parse(&self.dir_content(victim)?)?.is_empty() {
                return Err(Errno::ENOTEMPTY);
            }
        }
        self.dir_remove(dir, name)?;
        self.shrink_blocks(victim, 0)?;
        self.ifree(victim)
    }
}

/// The first clear bit of `bits` in `first..limit` (bit `i` is bit
/// `i % 8` of byte `i / 8`), or `ENOSPC`. Scans a little-endian 64-bit
/// word at a time; bits below `first` in its word count as taken.
fn first_clear_bit(bits: &[u8], first: u64, limit: u64) -> KResult<u64> {
    let mut w = first / 64;
    let mut free = !0u64 << (first % 64);
    while w * 64 < limit {
        let at = w as usize * 8;
        free &= !u64::from_le_bytes(bits[at..at + 8].try_into().expect("8 bytes"));
        if free != 0 {
            let i = w * 64 + u64::from(free.trailing_zeros());
            return if i < limit { Ok(i) } else { Err(Errno::ENOSPC) };
        }
        w += 1;
        free = !0;
    }
    Err(Errno::ENOSPC)
}

impl Rsfs {
    /// Formats `dev`: superblock, bitmaps, inode table, root directory,
    /// and journal region.
    pub fn mkfs(dev: &Arc<dyn BlockDevice>, inode_count: u32, journal_blocks: u32) -> KResult<()> {
        let sb = Superblock::design(dev.num_blocks(), inode_count, journal_blocks)?;
        let bs = dev.block_size();
        let mut blk = vec![0u8; bs];
        sb.encode(&mut blk);
        dev.write_block(SB_BLOCK, &blk)?;

        let mut bitmap = vec![0u8; bs];
        for b in 0..sb.data_start as usize {
            bitmap[b / 8] |= 1 << (b % 8);
        }
        // The journal region is outside the allocatable range by
        // construction (balloc stops at journal_start), but mark it used
        // anyway so statfs counts it out.
        for b in sb.journal_start..sb.total_blocks {
            let b = b as usize;
            bitmap[b / 8] |= 1 << (b % 8);
        }
        dev.write_block(BLOCK_BITMAP, &bitmap)?;

        let mut ibitmap = vec![0u8; bs];
        ibitmap[0] |= 0b11;
        dev.write_block(INODE_BITMAP, &ibitmap)?;

        // One vectored extent zeroes the whole inode table (single seek).
        let table_blocks = (inode_count as usize).div_ceil(INODES_PER_BLOCK) as u64;
        let zeros = vec![0u8; bs * table_blocks as usize];
        dev.write_blocks(INODE_TABLE, table_blocks as usize, &zeros)?;
        let mut root = DiskInode::empty();
        root.mode = MODE_DIR;
        root.nlink = 1;
        let mut tblk = vec![0u8; bs];
        let slot = (ROOT_INO as usize % INODES_PER_BLOCK) * INODE_SIZE;
        root.encode(&mut tblk[slot..slot + INODE_SIZE]);
        dev.write_block(INODE_TABLE, &tblk)?;

        Journal::format(dev, u64::from(sb.journal_start), u64::from(journal_blocks))?;
        dev.flush()
    }

    /// Recovers (replaying any committed transaction) and mounts, with
    /// lockdep enabled.
    pub fn mount(dev: Arc<dyn BlockDevice>, mode: JournalMode) -> KResult<Rsfs> {
        // One registry for the whole mounted system: the journal's
        // commit/space locks, the buffer cache's shards and head
        // mutexes, the op lock, and the generic inode locks all report
        // into a single acquires-after graph.
        Self::mount_with_registry(dev, mode, LockRegistry::new())
    }

    /// [`Rsfs::mount`] with a caller-supplied lock registry. Benchmarks
    /// pass [`LockRegistry::new_disabled`] to measure the uninstrumented
    /// hot path: the acquires-after graph is a debugging facility, and an
    /// enabled registry serializes every tracked acquisition on one
    /// registry mutex — instrumentation cost, not op-path cost.
    pub fn mount_with_registry(
        dev: Arc<dyn BlockDevice>,
        mode: JournalMode,
        lock_registry: Arc<LockRegistry>,
    ) -> KResult<Rsfs> {
        Self::mount_with_stripes(dev, mode, lock_registry, DEFAULT_OP_STRIPES)
    }

    /// [`Rsfs::mount_with_registry`] with an explicit op-lock stripe
    /// count. `1` is the old global-lock build — the equivalence suites
    /// run the same seeded workload against 1 and N stripes and assert
    /// equal post-recovery state.
    pub fn mount_with_stripes(
        dev: Arc<dyn BlockDevice>,
        mode: JournalMode,
        lock_registry: Arc<LockRegistry>,
        op_stripes: usize,
    ) -> KResult<Rsfs> {
        let mut blk = vec![0u8; dev.block_size()];
        dev.read_block(SB_BLOCK, &mut blk)?;
        let sb = Superblock::decode(&blk)?;
        let jstart = u64::from(sb.journal_start);
        let jblocks = u64::from(sb.journal_blocks);
        // Always run recovery at mount, as ext4 does.
        Journal::recover(&dev, jstart, jblocks)?;
        let journal = match mode {
            JournalMode::PerOp | JournalMode::Async => Some(Journal::open_with_registry(
                Arc::clone(&dev),
                jstart,
                jblocks,
                Arc::clone(&lock_registry),
            )?),
            JournalMode::None => None,
        };
        let cache = Arc::new(BufferCache::with_registry(
            dev,
            256,
            8,
            Arc::clone(&lock_registry),
        ));
        let table_blocks = (sb.inode_count as usize).div_ceil(INODES_PER_BLOCK);
        Ok(Rsfs {
            cache,
            journal,
            mode,
            sb,
            op_stripes: (0..op_stripes.max(1))
                .map(|i| TrackedMutex::new_ranked_io_ok(&lock_registry, "rsfs.op", i as u64, ()))
                .collect(),
            alloc_lock: TrackedMutex::new_io_ok(&lock_registry, "rsfs.alloc", ()),
            inopub_locks: (0..table_blocks)
                .map(|i| {
                    TrackedMutex::new_ranked_io_ok(&lock_registry, "rsfs.inopub", i as u64, ())
                })
                .collect(),
            lock_registry,
            icache: (0..ICACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            op_counter: AtomicU64::new(1),
        })
    }

    fn tick(&self) -> u64 {
        self.op_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Op-lock stripe for an inode — the buffer cache's multiplicative
    /// hash, so adjacent inode numbers spread across stripes.
    fn stripe_of(&self, ino: InodeNo) -> usize {
        (ino.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.op_stripes.len()
    }

    /// Inode-cache shard for an inode (same hash, independent count).
    fn icache_shard(&self, ino: InodeNo) -> &Mutex<HashMap<InodeNo, Arc<Inode>>> {
        &self.icache[(ino.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.icache.len()]
    }

    /// The journal (when mounted with [`JournalMode::PerOp`] or
    /// [`JournalMode::Async`]).
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Commits the journal's running transaction and waits for its
    /// barrier — the durability point for [`JournalMode::Async`] staged
    /// operations. This is the kupdate-style timer target: hang it off a
    /// [`sk_ksim::workqueue::WorkQueue::queue_periodic`] tick (or a
    /// `Flusher` hook) so staged operations become durable within one
    /// commit interval even without fsync. A no-op when nothing is
    /// staged, and under [`JournalMode::PerOp`]/[`JournalMode::None`].
    pub fn commit_running(&self) -> KResult<()> {
        match &self.journal {
            Some(j) => j.commit_running(),
            None => Ok(()),
        }
    }

    /// The buffer cache (stats; shareable with a `Flusher`).
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// Checkpoints up to `max_txns` committed transactions to their home
    /// locations. The deferred-checkpoint drain: hang this off a
    /// [`sk_ksim::workqueue::Flusher`] hook (with an `Arc<Rsfs>`) so the
    /// writeback daemon retires journal space in the background.
    pub fn checkpoint(&self, max_txns: usize) -> KResult<usize> {
        match &self.journal {
            Some(j) => j.checkpoint(max_txns),
            None => Ok(0),
        }
    }

    /// The lock registry backing the generic inodes — test suites assert it
    /// stays violation-free (rsfs is disciplined).
    pub fn lock_registry(&self) -> &Arc<LockRegistry> {
        &self.lock_registry
    }

    /// The generic in-memory inode shared with VFS.
    pub fn vfs_inode(&self, ino: InodeNo) -> KResult<Arc<Inode>> {
        if let Some(i) = self.icache_shard(ino).lock().get(&ino) {
            return Ok(Arc::clone(i));
        }
        let di = Txn::new(self).live_inode(ino)?;
        let ftype = if di.mode == MODE_DIR {
            FileType::Directory
        } else {
            FileType::Regular
        };
        let inode = Inode::new(Arc::clone(&self.lock_registry), ino, ftype);
        inode.set_size(di.size);
        let mut shard = self.icache_shard(ino).lock();
        Ok(Arc::clone(shard.entry(ino).or_insert(inode)))
    }

    /// Blocks one transaction may stage: the journal record's capacity
    /// less slack for metadata blocks. Batch chunks are cut against it.
    fn txn_blocks(&self) -> usize {
        self.journal
            .as_ref()
            .map_or(usize::MAX, |j| j.capacity().saturating_sub(8).max(1))
    }

    /// Largest write (bytes) that fits one transaction.
    fn max_txn_data(&self) -> usize {
        self.txn_blocks().saturating_mul(BLOCK_SIZE)
    }

    /// Publishes one batch chunk ([`Rsfs::submit_batch`]): commits the
    /// staging transaction (one journal member — the chunk's atomicity
    /// grain), then propagates `i_size` for every file it wrote. On
    /// commit failure, every reply in the chunk that would have claimed
    /// success is rewritten to the commit error — an op is only
    /// acknowledged once its chunk is in the running transaction.
    fn flush_chunk(
        &self,
        txn: Option<Txn<'_>>,
        chunk: &mut Vec<usize>,
        replies: &mut [BatchReply],
        sized: &mut Vec<InodeNo>,
    ) {
        let res = match txn {
            Some(t) => t.commit(),
            None => Ok(()),
        };
        match res {
            Ok(()) => {
                sized.sort_unstable();
                sized.dedup();
                for ino in sized.drain(..) {
                    if let Ok(vi) = self.vfs_inode(ino) {
                        let t = Txn::new(self);
                        if let Ok(di) = t.read_inode(ino) {
                            vi.set_size(di.size);
                        }
                    }
                }
            }
            Err(e) => {
                for &i in chunk.iter() {
                    if replies[i].result().is_ok() {
                        fail_reply(&mut replies[i], e);
                    }
                }
                sized.clear();
            }
        }
        chunk.clear();
    }

    /// Begins a transaction covering the stripes of `base` *and* of the
    /// inode `name` currently resolves to in `dir`, and returns it with
    /// that lookup. Removing an entry needs both: the dentry lives under
    /// the directory's stripe, the victim's blocks and slot under its
    /// own. The victim is found by an optimistic probe, locked, and
    /// re-verified: each retry re-resolves under the freshly held
    /// locks, and a bounded number of lost races falls back to locking
    /// every stripe. A failed lookup needs no victim stripe.
    fn txn_for_victim(
        &self,
        base: &[InodeNo],
        dir: InodeNo,
        name: &str,
    ) -> (Txn<'_>, KResult<InodeNo>) {
        let mut want = base.to_vec();
        for _ in 0..8 {
            let mut txn = Txn::begin(self, &want);
            match txn.dir_lookup(dir, name) {
                Ok(v) if !(txn.covers(&[v]) || txn.try_cover(&[v])) => {
                    want = base.iter().copied().chain([v]).collect();
                }
                victim => return (txn, victim),
            }
        }
        let mut txn = Txn::begin_all(self);
        let victim = txn.dir_lookup(dir, name);
        (txn, victim)
    }

    /// The durability point an fsync waits for (see `fsync` below).
    fn fsync_commit(&self) -> KResult<()> {
        match &self.journal {
            Some(j) => j.commit_running(),
            None => self.cache.sync_all(),
        }
    }

    /// Create or mkdir.
    fn create_in(&self, dir: InodeNo, name: &str, mode: u16) -> KResult<InodeNo> {
        let mut txn = Txn::begin(self, &[dir]);
        let ino = txn.create_entry(dir, name, mode)?;
        txn.commit()?;
        Ok(ino)
    }

    /// Unlink (`is_dir` false) or rmdir.
    fn remove_in(&self, dir: InodeNo, name: &str, is_dir: bool) -> KResult<()> {
        validate_name(name)?;
        let (mut txn, victim) = self.txn_for_victim(&[dir], dir, name);
        txn.remove_entry(dir, name, victim?, is_dir)?;
        txn.commit()
    }

    /// Batch staging: makes the open chunk's transaction cover `need`,
    /// preferring optimistic extension ([`Txn::try_cover`]); when a
    /// contended out-of-order stripe blocks extension, the open chunk is
    /// flushed (dropping its stripes) and a fresh transaction begins
    /// with the full set.
    fn cover_for_batch<'a>(
        &'a self,
        txn: &mut Option<Txn<'a>>,
        need: &[InodeNo],
        chunk: &mut Vec<usize>,
        replies: &mut [BatchReply],
        sized: &mut Vec<InodeNo>,
    ) {
        if let Some(t) = txn.as_mut() {
            if t.covers(need) || t.try_cover(need) {
                return;
            }
            self.flush_chunk(txn.take(), chunk, replies, sized);
        }
        *txn = Some(Txn::begin(self, need));
    }
}

/// Rewrites a reply's result to `e`, keeping any returned buffer — used
/// when a chunk commit retroactively fails its staged ops.
fn fail_reply(r: &mut BatchReply, e: Errno) {
    match r {
        BatchReply::Create(res) => *res = Err(e),
        BatchReply::Write { result, .. } | BatchReply::Read { result, .. } => *result = Err(e),
        BatchReply::Fsync(res) | BatchReply::Unlink(res) => *res = Err(e),
    }
}

impl FileSystem for Rsfs {
    fn fs_name(&self) -> &'static str {
        "rsfs"
    }

    fn root_ino(&self) -> InodeNo {
        ROOT_INO
    }

    fn lookup(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        validate_name(name)?;
        let mut txn = Txn::new(self);
        txn.dir_lookup(dir, name)
    }

    fn getattr(&self, ino: InodeNo) -> KResult<Attr> {
        let di = Txn::new(self).live_inode(ino)?;
        Ok(Attr {
            ino,
            ftype: if di.mode == MODE_DIR {
                FileType::Directory
            } else {
                FileType::Regular
            },
            size: di.size,
            nlink: u32::from(di.nlink),
            mtime_ns: di.mtime,
        })
    }

    fn create(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        self.create_in(dir, name, MODE_REG)
    }

    fn mkdir(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        self.create_in(dir, name, MODE_DIR)
    }

    fn unlink(&self, dir: InodeNo, name: &str) -> KResult<()> {
        self.remove_in(dir, name, false)
    }

    fn rmdir(&self, dir: InodeNo, name: &str) -> KResult<()> {
        self.remove_in(dir, name, true)
    }

    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> KResult<usize> {
        let mut txn = Txn::new(self);
        txn.file_inode(ino)?;
        txn.read_range(ino, off, buf)
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> KResult<usize> {
        // Chunk oversized writes into successive atomic transactions.
        // Each chunk takes the op lock itself (Txn::begin) and releases
        // it once staged, so concurrent writers interleave per chunk and
        // group-commit can batch them. An empty write still runs one
        // chunk: it is checked, and extends the size to `off`.
        let chunk = self.max_txn_data();
        let mut done = 0usize;
        loop {
            let n = chunk.min(data.len() - done);
            let mut txn = Txn::begin(self, &[ino]);
            txn.file_inode(ino)?;
            txn.write_range(ino, ovf::add(off, done as u64)?, &data[done..done + n])?;
            txn.commit()?;
            done += n;
            if done == data.len() {
                break;
            }
        }
        // Disciplined i_size propagation to the shared generic inode.
        if let Ok(vi) = self.vfs_inode(ino) {
            vi.set_size(Txn::new(self).read_inode(ino)?.size);
        }
        Ok(done)
    }

    fn write_begin(&self, ino: InodeNo, off: u64, len: usize) -> KResult<WriteCtx> {
        // The typed replacement for cext4's `void *` fsdata: the context
        // is validated up front and travels in a move-only token. A
        // mismatched consumer gets a *checked* failure (EINVAL), never a
        // reinterpretation.
        let txn = Txn::new(self);
        let di = txn.read_inode(ino)?;
        if di.mode != MODE_REG {
            return Err(Errno::EISDIR);
        }
        if ovf::add(off, len as u64)? > MAX_FILE_SIZE {
            return Err(Errno::EFBIG);
        }
        Ok(sk_core::typesafe::Token::new(Box::new(RsfsWriteCtx {
            ino,
            off,
            len,
        })))
    }

    fn write_end(&self, ino: InodeNo, off: u64, data: &[u8], ctx: WriteCtx) -> KResult<usize> {
        let boxed = ctx.consume();
        let wc = boxed
            .downcast::<RsfsWriteCtx>()
            .map_err(|_| Errno::EINVAL)?;
        if wc.ino != ino || wc.off != off || wc.len != data.len() {
            return Err(Errno::EINVAL);
        }
        self.write(ino, off, data)
    }

    fn readdir(&self, dir: InodeNo) -> KResult<Vec<DirEntry>> {
        let mut txn = Txn::new(self);
        let content = txn.dir_content(dir)?;
        Ok(dirent_parse(&content)?
            .into_iter()
            .map(|(ino, name)| DirEntry { name, ino })
            .collect())
    }

    fn rename(
        &self,
        olddir: InodeNo,
        oldname: &str,
        newdir: InodeNo,
        newname: &str,
    ) -> KResult<()> {
        validate_name(oldname)?;
        validate_name(newname)?;
        // Stripe set: both directories, plus the existing target inode
        // if the destination name is taken (its blocks and slot are
        // freed below). The source inode needs no stripe — its slot is
        // not written, and its dentry is covered by the directories'
        // stripes.
        let (mut txn, target) = self.txn_for_victim(&[olddir, newdir], newdir, newname);
        let src = txn.dir_lookup(olddir, oldname)?;
        if olddir == newdir && oldname == newname {
            return Ok(());
        }
        let src_di = txn.read_inode(src)?;
        match target {
            Ok(existing) => txn.remove_entry(newdir, newname, existing, src_di.mode != MODE_REG)?,
            Err(Errno::ENOENT) => {}
            Err(e) => return Err(e),
        }
        txn.dir_remove(olddir, oldname)?;
        txn.dir_add(newdir, newname, src)?;
        txn.commit()
    }

    fn truncate(&self, ino: InodeNo, size: u64) -> KResult<()> {
        if size > MAX_FILE_SIZE {
            return Err(Errno::EFBIG);
        }
        let mut txn = Txn::begin(self, &[ino]);
        let di = txn.read_inode(ino)?;
        if di.mode != MODE_REG {
            return Err(Errno::EISDIR);
        }
        if size < di.size {
            txn.shrink_blocks(ino, size)?;
        } else {
            let mut di = di;
            di.size = size;
            di.mtime = self.tick();
            txn.write_inode(ino, &di)?;
        }
        txn.commit()?;
        if let Ok(vi) = self.vfs_inode(ino) {
            vi.set_size(size);
        }
        Ok(())
    }

    fn fsync(&self, ino: InodeNo) -> KResult<()> {
        // Validate the inode, then commit the running transaction and
        // wait for its barrier. Like ext4, fsync is a *global* durability
        // point: the journal's token order means this file's staged
        // writes cannot become durable without every operation staged
        // before them, so committing the whole running transaction is
        // both correct and the cheapest sound choice. Under PerOp every
        // acknowledged op is already durable and this is a no-op; without
        // a journal, fall back to writing the whole cache back.
        Txn::new(self).live_inode(ino)?;
        self.fsync_commit()
    }

    fn sync(&self) -> KResult<()> {
        // With a journal: commit the running transaction (Async staged
        // ops become durable), drain deferred checkpoints so home
        // locations catch up with every committed transaction, then
        // write back whatever the cache still holds dirty. Without one,
        // the cache is the only copy — push it all out.
        if let Some(j) = &self.journal {
            j.commit_running()?;
            j.checkpoint_all()?;
        }
        self.cache.sync_all()
    }

    fn quiesce_for_handoff(&self) -> KResult<()> {
        // `sync` commits the running transaction and drains every
        // deferred checkpoint; retiring a record drops its pins as its
        // images reach home locations. A pin still held afterwards means
        // some dirty state is pinned in the cache with this generation
        // as its only writer — handing off now would strand it, so
        // refuse and let the migrator abort with the workload intact.
        self.sync()?;
        if self.cache.pinned() > 0 {
            return Err(Errno::EBUSY);
        }
        Ok(())
    }

    fn statfs(&self) -> KResult<StatFs> {
        let txn = Txn::new(self);
        let bitmap = txn.read(BLOCK_BITMAP)?;
        let blocks_free = (u64::from(self.sb.data_start)..u64::from(self.sb.journal_start))
            .filter(|i| bitmap[(i / 8) as usize] & (1 << (i % 8)) == 0)
            .count() as u64;
        let ibitmap = txn.read(INODE_BITMAP)?;
        let inodes_free = (0..u64::from(self.sb.inode_count))
            .filter(|i| ibitmap[(i / 8) as usize] & (1 << (i % 8)) == 0)
            .count() as u64;
        Ok(StatFs {
            blocks_total: u64::from(self.sb.journal_start) - u64::from(self.sb.data_start),
            blocks_free,
            inodes_total: u64::from(self.sb.inode_count) - 2,
            inodes_free,
        })
    }

    /// Batch staging — the ring's fast path.
    ///
    /// The per-call interface pays one op-lock acquisition, one journal
    /// join, and one overlay per operation. Here the batch is cut into
    /// *chunks*: each chunk holds the op lock once, stages every op into
    /// a single shared overlay (metadata blocks touched by several ops —
    /// directory, inode table, bitmaps — are staged once, not once per
    /// op), and enters the journal as **one** member, so recovery sees
    /// each chunk atomically and every recovered state is a
    /// chunk-boundary prefix of the submission order — a valid op-order
    /// prefix.
    ///
    /// Contract details:
    ///
    /// - Each arm runs the per-call op's own `Txn` body, so the two paths
    ///   agree reply for reply; the batch adds only the shared overlay.
    /// - A failed op rolls back its own overlay writes (`Txn::op_scope`)
    ///   and fails alone; its neighbors stay staged.
    /// - If the *chunk commit* fails (journal abort, `EROFS`), every op
    ///   staged in that chunk is retroactively failed in its reply —
    ///   acknowledgment is only truthful once the chunk has entered the
    ///   running transaction.
    /// - [`BatchOp::Fsync`] is a durability point for everything earlier
    ///   in the batch (and, by token order, everything staged before it).
    ///   All fsyncs in a batch *coalesce*: the covering commit runs once,
    ///   after the last chunk is staged and before any CQE is posted, so
    ///   N fsync SQEs cost one barrier instead of N — legal because a
    ///   CQE's durability promise is a floor, and every fsync's covered
    ///   prefix is a subset of what the batch-end commit makes durable.
    /// - Chunks are cut before the overlay could outgrow one journal
    ///   record, so a batch never trips the `ENOSPC` oversize check.
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<BatchReply> {
        // Cut the chunk while every op's worst-case block touch still
        // fits the record.
        let chunk_blocks = self.txn_blocks();
        let mut replies: Vec<BatchReply> = Vec::with_capacity(ops.len());
        // Indices (into `replies`) of ops staged in — or reading through —
        // the open chunk; rewritten to the commit error if it fails.
        let mut chunk: Vec<usize> = Vec::new();
        // Files written in the open chunk, for i_size propagation.
        let mut sized: Vec<InodeNo> = Vec::new();
        // Reply indices of validated fsyncs awaiting the batch-end
        // covering commit.
        let mut fsyncs: Vec<usize> = Vec::new();
        let mut txn: Option<Txn<'_>> = None;

        for op in ops {
            let idx = replies.len();
            match op {
                BatchOp::Fsync { ino } => {
                    // Validate now (through the open chunk, so a
                    // same-batch create is visible); the covering commit
                    // is deferred to batch end, where all the batch's
                    // fsyncs share one barrier.
                    let r = match &txn {
                        Some(t) => t.live_inode(ino),
                        None => Txn::new(self).live_inode(ino),
                    }
                    .map(|_| ());
                    if r.is_ok() {
                        if txn.is_some() {
                            // Chunk-tainted: the inode it validated is
                            // only real if the chunk commits.
                            chunk.push(idx);
                        }
                        fsyncs.push(idx);
                    }
                    replies.push(BatchReply::Fsync(r));
                }
                BatchOp::Create { dir, name } => {
                    self.cover_for_batch(&mut txn, &[dir], &mut chunk, &mut replies, &mut sized);
                    let t = txn.as_mut().expect("cover_for_batch leaves a txn");
                    let r = t.op_scope(|t| t.create_entry(dir, &name, MODE_REG));
                    if r.is_ok() {
                        chunk.push(idx);
                    }
                    replies.push(BatchReply::Create(r));
                }
                BatchOp::Unlink { dir, name } => {
                    // Probe the victim through the open chunk and extend
                    // it to the victim's stripe; if that loses a race,
                    // flush the chunk and take the per-call path's
                    // probe–lock–retry.
                    self.cover_for_batch(&mut txn, &[dir], &mut chunk, &mut replies, &mut sized);
                    let t = txn.as_mut().expect("cover_for_batch leaves a txn");
                    let mut victim = t.dir_lookup(dir, &name);
                    if let Ok(v) = victim {
                        if !(t.covers(&[v]) || t.try_cover(&[v])) {
                            self.flush_chunk(txn.take(), &mut chunk, &mut replies, &mut sized);
                            let (t, v) = self.txn_for_victim(&[dir], dir, &name);
                            txn = Some(t);
                            victim = v;
                        }
                    }
                    let t = txn.as_mut().expect("unlink leaves a txn");
                    let r = t.op_scope(|t| {
                        validate_name(&name)?;
                        t.remove_entry(dir, &name, victim?, false)
                    });
                    if r.is_ok() {
                        chunk.push(idx);
                    }
                    replies.push(BatchReply::Unlink(r));
                }
                BatchOp::Write { ino, off, data } => {
                    if data.len() > self.max_txn_data() {
                        // Oversized write: flush the chunk (releasing the
                        // op lock), then take the per-call path, which
                        // chunks the data itself.
                        self.flush_chunk(txn.take(), &mut chunk, &mut replies, &mut sized);
                        let result = self.write(ino, off, &data);
                        replies.push(BatchReply::Write { result, buf: data });
                    } else {
                        self.cover_for_batch(
                            &mut txn,
                            &[ino],
                            &mut chunk,
                            &mut replies,
                            &mut sized,
                        );
                        let t = txn.as_mut().expect("cover_for_batch leaves a txn");
                        let r = t.op_scope(|t| {
                            t.file_inode(ino)?;
                            t.write_range(ino, off, &data)
                        });
                        if r.is_ok() {
                            chunk.push(idx);
                            sized.push(ino);
                        }
                        replies.push(BatchReply::Write {
                            result: r,
                            buf: data,
                        });
                    }
                }
                BatchOp::Read { ino, off, mut buf } => {
                    let result = match &mut txn {
                        // A chunk is open: read through its overlay so the
                        // batch observes its own earlier writes. The read
                        // is chunk-tainted — if the chunk's commit fails,
                        // what it saw never existed.
                        Some(t) => {
                            let r = t
                                .file_inode(ino)
                                .and_then(|()| t.read_range(ino, off, &mut buf));
                            if r.is_ok() {
                                chunk.push(idx);
                            }
                            r
                        }
                        // No open chunk: committed state only, no taint.
                        None => self.read(ino, off, &mut buf),
                    };
                    replies.push(BatchReply::Read { result, buf });
                }
            }
            if txn
                .as_ref()
                .is_some_and(|t| t.staged_blocks() >= chunk_blocks)
            {
                self.flush_chunk(txn.take(), &mut chunk, &mut replies, &mut sized);
            }
        }
        self.flush_chunk(txn.take(), &mut chunk, &mut replies, &mut sized);
        if !fsyncs.is_empty() {
            // The coalesced durability point: one commit covers every
            // fsync in the batch, and it runs before any CQE is posted.
            if let Err(e) = self.fsync_commit() {
                for &i in &fsyncs {
                    if replies[i].result().is_ok() {
                        fail_reply(&mut replies[i], e);
                    }
                }
            }
        }
        replies
    }
}

impl Refines<FsModel> for Rsfs {
    fn abstraction(&self) -> FsModel {
        fs_abstraction(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sk_ksim::block::RamDisk;

    /// The bit-at-a-time scan `first_clear_bit` replaces.
    fn first_clear_bit_by_bits(bits: &[u8], first: u64, limit: u64) -> KResult<u64> {
        (first..limit)
            .find(|&i| bits[(i / 8) as usize] & (1 << (i % 8)) == 0)
            .ok_or(Errno::ENOSPC)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The word scan picks the same first-fit index as the bit loop:
        /// random or nearly full 512-bit maps (0..3 holes), unaligned
        /// bounds, `first` at or past `limit`; a full map is `ENOSPC`.
        #[test]
        fn first_clear_bit_matches_the_bit_loop(
            noise in prop::collection::vec(any::<u8>(), 64),
            holes in prop::collection::vec(0u64..512, 0..4),
            random in 0u8..4,
            first in 0u64..530,
            limit in 0u64..=512,
        ) {
            let full = random != 0 && holes.is_empty();
            let mut bits = if random == 0 { noise } else { vec![0xFF; 64] };
            for h in holes {
                bits[(h / 8) as usize] &= !(1 << (h % 8));
            }
            let got = first_clear_bit(&bits, first, limit);
            prop_assert_eq!(got, first_clear_bit_by_bits(&bits, first, limit));
            if full {
                prop_assert_eq!(got, Err(Errno::ENOSPC));
            }
        }
    }

    fn mount(mode: JournalMode) -> Rsfs {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(1024));
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        Rsfs::mount(dev, mode).unwrap()
    }

    #[test]
    fn flusher_hook_drains_deferred_checkpoints() {
        use sk_ksim::time::SimClock;
        use sk_ksim::workqueue::{Flusher, WorkQueue};

        let clock = Arc::new(SimClock::new());
        let ram = Arc::new(sk_ksim::block::RamDisk::with_geometry(
            1024,
            BLOCK_SIZE,
            Arc::clone(&clock),
        ));
        let dev: Arc<dyn BlockDevice> = ram;
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        let fs = Arc::new(Rsfs::mount(dev, JournalMode::PerOp).unwrap());

        let wq = WorkQueue::new(Arc::clone(&clock));
        let flusher = Flusher::new(Arc::clone(fs.cache()), Arc::clone(&wq), 1_000);
        let hooked = Arc::clone(&fs);
        flusher.add_hook(move || hooked.checkpoint(usize::MAX).map(|_| ()));
        flusher.start();

        let ino = fs.create(ROOT_INO, "bg").unwrap();
        fs.write(ino, 0, b"background-drain").unwrap();
        let j = fs.journal().unwrap();
        assert!(
            j.pending_checkpoints() > 0,
            "commits deferred, not checkpointed"
        );

        clock.advance(1_000);
        assert!(wq.pump() >= 1);
        assert_eq!(
            j.pending_checkpoints(),
            0,
            "the writeback daemon drained them"
        );
        assert!(j.stats().checkpoints >= 1);
    }

    /// Journaled blocks belong to the checkpoint until it retires them:
    /// cache writeback must never write their homes (pins hold from
    /// publish to retire), and after the checkpoint has written the
    /// homes itself the buffers are clean, so writeback still has
    /// nothing to do. This single-writer discipline is what makes the
    /// checkpoint's newer-image skip race-free.
    #[test]
    fn writeback_never_touches_journaled_homes() {
        let fs = mount(JournalMode::PerOp);
        let ino = fs.create(ROOT_INO, "pinned").unwrap();
        fs.write(ino, 0, b"not yet home").unwrap();
        fs.cache().sync_all().unwrap();
        assert_eq!(
            fs.cache().stats().writebacks,
            0,
            "every journaled block stays pinned until checkpoint"
        );
        assert!(fs.journal().unwrap().pending_checkpoints() > 0);
        fs.checkpoint(usize::MAX).unwrap();
        fs.cache().sync_all().unwrap();
        assert_eq!(
            fs.cache().stats().writebacks,
            0,
            "checkpoint wrote the homes and retired the pins; nothing left dirty"
        );
        // Reads still see the data, and the checkpointed image is sound.
        let mut buf = vec![0u8; 16];
        let n = fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"not yet home");
    }

    /// Group commit merges two operations' images of one block into one
    /// record entry; each operation's pin still rides in its own member
    /// into the record, so the merge neither drops the block's pinning
    /// early nor leaks a pin once the record retires (the old per-block
    /// pin map leaked here).
    #[test]
    fn merged_async_ops_on_one_block_leave_no_pin_after_sync() {
        let fs = mount(JournalMode::Async);
        let ino = fs.create(ROOT_INO, "merged").unwrap();
        fs.write(ino, 0, b"first").unwrap();
        fs.write(ino, 0, b"second").unwrap();
        let j = fs.journal().unwrap();
        assert_eq!(j.staged_ops(), 3, "all three ops in the running txn");
        fs.sync().unwrap();
        assert_eq!(j.stats().batches, 1, "one merged record");
        assert_eq!(fs.cache().pinned(), 0);
        fs.quiesce_for_handoff().unwrap();
        let mut buf = [0u8; 8];
        let n = fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"second");
    }

    #[test]
    fn create_write_read_roundtrip() {
        for mode in [JournalMode::PerOp, JournalMode::None] {
            let fs = mount(mode);
            let ino = fs.create(ROOT_INO, "f.txt").unwrap();
            assert_eq!(fs.write(ino, 0, b"hello rsfs").unwrap(), 10);
            let mut buf = vec![0u8; 32];
            let n = fs.read(ino, 0, &mut buf).unwrap();
            assert_eq!(&buf[..n], b"hello rsfs");
            let attr = fs.getattr(ino).unwrap();
            assert_eq!(attr.size, 10);
            assert_eq!(attr.ftype, FileType::Regular);
        }
    }

    #[test]
    fn lookup_and_readdir() {
        let fs = mount(JournalMode::PerOp);
        let a = fs.create(ROOT_INO, "a").unwrap();
        let d = fs.mkdir(ROOT_INO, "d").unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "a").unwrap(), a);
        assert_eq!(fs.lookup(ROOT_INO, "d").unwrap(), d);
        assert_eq!(fs.lookup(ROOT_INO, "x"), Err(Errno::ENOENT));
        let mut names: Vec<String> = fs
            .readdir(ROOT_INO)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        assert_eq!(names, vec!["a", "d"]);
    }

    #[test]
    fn large_file_spans_indirect() {
        let fs = mount(JournalMode::PerOp);
        let ino = fs.create(ROOT_INO, "big").unwrap();
        let data: Vec<u8> = (0..(12 * BLOCK_SIZE)).map(|i| (i % 251) as u8).collect();
        assert_eq!(fs.write(ino, 0, &data).unwrap(), data.len());
        let mut out = vec![0u8; data.len()];
        assert_eq!(fs.read(ino, 0, &mut out).unwrap(), data.len());
        assert_eq!(out, data);
    }

    #[test]
    fn oversized_write_is_chunked_into_transactions() {
        let fs = mount(JournalMode::PerOp);
        let ino = fs.create(ROOT_INO, "huge").unwrap();
        let commits_before = fs.journal().unwrap().stats().commits;
        // Larger than one transaction's data budget.
        let data = vec![7u8; fs.max_txn_data() + BLOCK_SIZE];
        fs.write(ino, 0, &data).unwrap();
        let commits_after = fs.journal().unwrap().stats().commits;
        assert!(commits_after - commits_before >= 2, "chunked into >=2 txns");
        let mut out = vec![0u8; data.len()];
        fs.read(ino, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unlink_reclaims_space() {
        let fs = mount(JournalMode::PerOp);
        let before = fs.statfs().unwrap();
        let ino = fs.create(ROOT_INO, "f").unwrap();
        fs.write(ino, 0, &vec![1u8; 3 * BLOCK_SIZE]).unwrap();
        fs.unlink(ROOT_INO, "f").unwrap();
        let after = fs.statfs().unwrap();
        assert_eq!(before.blocks_free, after.blocks_free);
        assert_eq!(before.inodes_free, after.inodes_free);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let fs = mount(JournalMode::PerOp);
        let a = fs.create(ROOT_INO, "a").unwrap();
        fs.write(a, 0, b"content-a").unwrap();
        let b = fs.create(ROOT_INO, "b").unwrap();
        fs.write(b, 0, b"content-b").unwrap();
        fs.rename(ROOT_INO, "a", ROOT_INO, "b").unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "a"), Err(Errno::ENOENT));
        let ino = fs.lookup(ROOT_INO, "b").unwrap();
        let mut buf = vec![0u8; 16];
        let n = fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"content-a");
    }

    #[test]
    fn directory_tree_operations() {
        let fs = mount(JournalMode::PerOp);
        let d1 = fs.mkdir(ROOT_INO, "d1").unwrap();
        let d2 = fs.mkdir(d1, "d2").unwrap();
        let f = fs.create(d2, "leaf").unwrap();
        fs.write(f, 0, b"deep").unwrap();
        assert_eq!(fs.rmdir(ROOT_INO, "d1"), Err(Errno::ENOTEMPTY));
        assert_eq!(fs.rmdir(d1, "d2"), Err(Errno::ENOTEMPTY));
        fs.unlink(d2, "leaf").unwrap();
        fs.rmdir(d1, "d2").unwrap();
        fs.rmdir(ROOT_INO, "d1").unwrap();
        assert!(fs.readdir(ROOT_INO).unwrap().is_empty());
    }

    #[test]
    fn truncate_semantics_match_model() {
        let fs = mount(JournalMode::PerOp);
        let ino = fs.create(ROOT_INO, "t").unwrap();
        fs.write(ino, 0, b"abcdef").unwrap();
        fs.truncate(ino, 3).unwrap();
        fs.truncate(ino, 6).unwrap();
        let mut buf = vec![0u8; 6];
        fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc\0\0\0");
    }

    #[test]
    fn refinement_abstraction_matches_model_ops() {
        let fs = mount(JournalMode::PerOp);
        let mut model = FsModel::new();
        let d = fs.mkdir(ROOT_INO, "dir").unwrap();
        model = model.mkdir("/dir").unwrap();
        let f = fs.create(d, "file").unwrap();
        model = model.create("/dir/file").unwrap();
        fs.write(f, 2, b"xyz").unwrap();
        model = model.write("/dir/file", 2, b"xyz").unwrap();
        assert_eq!(fs.abstraction(), model);
        fs.rename(ROOT_INO, "dir", ROOT_INO, "moved").unwrap();
        model = model.rename("/dir", "/moved").unwrap();
        assert_eq!(fs.abstraction(), model);
    }

    #[test]
    fn rsfs_is_lock_disciplined() {
        let fs = mount(JournalMode::PerOp);
        let ino = fs.create(ROOT_INO, "f").unwrap();
        fs.write(ino, 0, b"data").unwrap();
        fs.truncate(ino, 2).unwrap();
        assert!(
            fs.lock_registry().violations().is_empty(),
            "the safe file system never touches i_size without i_lock"
        );
    }

    #[test]
    fn durability_across_remount() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(1024));
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        {
            let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();
            let ino = fs.create(ROOT_INO, "persist").unwrap();
            fs.write(ino, 0, b"durable").unwrap();
            // No explicit sync: PerOp journaling is durable per operation.
        }
        let fs2 = Rsfs::mount(dev, JournalMode::PerOp).unwrap();
        let ino = fs2.lookup(ROOT_INO, "persist").unwrap();
        let mut buf = vec![0u8; 16];
        let n = fs2.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"durable");
    }

    #[test]
    fn unjournaled_mode_requires_sync_for_durability() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(1024));
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        {
            let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::None).unwrap();
            let ino = fs.create(ROOT_INO, "v").unwrap();
            fs.write(ino, 0, b"volatile").unwrap();
            fs.sync().unwrap();
        }
        let fs2 = Rsfs::mount(dev, JournalMode::None).unwrap();
        assert!(fs2.lookup(ROOT_INO, "v").is_ok());
    }

    #[test]
    fn name_validation_enforced() {
        let fs = mount(JournalMode::PerOp);
        assert_eq!(fs.create(ROOT_INO, ""), Err(Errno::EINVAL));
        assert_eq!(fs.create(ROOT_INO, "a/b"), Err(Errno::EINVAL));
        assert_eq!(fs.create(ROOT_INO, ".."), Err(Errno::EINVAL));
    }

    #[test]
    fn model1_write_owned_consumes_the_buffer() {
        use sk_core::ownership::Owned;
        let fs = mount(JournalMode::PerOp);
        let ino = fs.create(ROOT_INO, "f").unwrap();
        let payload = Owned::new(vec![5u8; 1000]);
        // Ownership passes into the file system; the callee frees.
        assert_eq!(fs.write_owned(ino, 0, payload).unwrap(), 1000);
        // (Using `payload` here would not compile: the caller gave it up.)
        let mut buf = vec![0u8; 1000];
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 1000);
        assert!(buf.iter().all(|&b| b == 5));
    }

    #[test]
    fn typed_write_begin_end_pairing() {
        let fs = mount(JournalMode::PerOp);
        let ino = fs.create(ROOT_INO, "f").unwrap();
        let ctx = fs.write_begin(ino, 2, 3).unwrap();
        assert_eq!(fs.write_end(ino, 2, b"abc", ctx).unwrap(), 3);
        let mut buf = vec![0u8; 5];
        fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"\0\0abc");
    }

    #[test]
    fn typed_write_end_rejects_mismatched_context() {
        let fs = mount(JournalMode::PerOp);
        let a = fs.create(ROOT_INO, "a").unwrap();
        let b = fs.create(ROOT_INO, "b").unwrap();
        // Context minted for `a`, presented for `b`: a *checked* EINVAL,
        // never a reinterpretation (contrast cext4's wrong-cast knob).
        let ctx = fs.write_begin(a, 0, 3).unwrap();
        assert_eq!(fs.write_end(b, 0, b"abc", ctx), Err(Errno::EINVAL));
        // Wrong payload type inside the token: also checked.
        let alien: WriteCtx =
            sk_core::typesafe::Token::new(Box::new(42u32) as Box<dyn std::any::Any + Send>);
        assert_eq!(fs.write_end(a, 0, b"abc", alien), Err(Errno::EINVAL));
        // The file was never touched by the refused attempts.
        assert_eq!(fs.getattr(a).unwrap().size, 0);
        assert_eq!(fs.getattr(b).unwrap().size, 0);
    }

    #[test]
    fn typed_write_begin_validates_bounds_eagerly() {
        let fs = mount(JournalMode::PerOp);
        let ino = fs.create(ROOT_INO, "f").unwrap();
        assert_eq!(
            fs.write_begin(ino, MAX_FILE_SIZE, 1).unwrap_err(),
            Errno::EFBIG
        );
        let d = fs.mkdir(ROOT_INO, "d").unwrap();
        assert_eq!(fs.write_begin(d, 0, 1).unwrap_err(), Errno::EISDIR);
    }

    /// An empty write is checked and sized like any other, per call and
    /// in a batch alike: it extends the size to `off`, fails with `EFBIG`
    /// past the maximum file size, and with `ENOENT` on a freed inode.
    #[test]
    fn zero_length_write_is_checked_and_sized() {
        for batched in [false, true] {
            let fs = mount(JournalMode::PerOp);
            let f = fs.create(ROOT_INO, "f").unwrap();
            let gone = fs.create(ROOT_INO, "gone").unwrap();
            fs.unlink(ROOT_INO, "gone").unwrap();
            let write = |ino, off| {
                if !batched {
                    return fs.write(ino, off, &[]);
                }
                let data = Vec::new();
                match fs
                    .submit_batch(vec![BatchOp::Write { ino, off, data }])
                    .pop()
                {
                    Some(BatchReply::Write { result, .. }) => result,
                    other => panic!("write reply: {other:?}"),
                }
            };
            assert_eq!(write(f, 100), Ok(0), "batched={batched}");
            assert_eq!(fs.getattr(f).unwrap().size, 100, "batched={batched}");
            assert_eq!(fs.vfs_inode(f).unwrap().size(), 100, "batched={batched}");
            assert_eq!(write(f, MAX_FILE_SIZE + 1), Err(Errno::EFBIG));
            assert_eq!(write(gone, 0), Err(Errno::ENOENT));
        }
    }

    /// The per-table-block slot counts behind the chunk cut follow
    /// staging and an op's rollback (`staged_blocks` also checks them
    /// against a recount in debug builds).
    #[test]
    fn staged_table_blocks_follow_staging_and_rollback() {
        let fs = mount(JournalMode::PerOp);
        let mut txn = Txn::new(&fs);
        let di = txn.read_inode(ROOT_INO).unwrap();
        let next_block = INODES_PER_BLOCK as u64 + 1;
        txn.op_scope(|t| t.write_inode(2, &di)).unwrap();
        assert_eq!(txn.staged_blocks(), 1);
        let failed: KResult<()> = txn.op_scope(|t| {
            t.write_inode(3, &di)?;
            t.write_inode(next_block, &di)?;
            t.write_inode(2, &di)?;
            assert_eq!(t.staged_blocks(), 2);
            Err(Errno::EIO)
        });
        assert_eq!(failed, Err(Errno::EIO));
        assert_eq!(txn.staged_blocks(), 1);
        assert_eq!(txn.table_slots, BTreeMap::from([(INODE_TABLE, 1)]));
    }

    #[test]
    fn enospc_when_inodes_exhausted() {
        let fs = mount(JournalMode::PerOp);
        let mut made = 0;
        loop {
            match fs.create(ROOT_INO, &format!("f{made}")) {
                Ok(_) => made += 1,
                Err(Errno::ENOSPC) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(made < 1000, "should run out of inodes");
        }
        assert_eq!(made, 126, "128 inodes minus reserved and root");
        // Freeing one makes room again.
        fs.unlink(ROOT_INO, "f0").unwrap();
        assert!(fs.create(ROOT_INO, "again").is_ok());
    }

    /// End-to-end journal abort: a disk error during a commit's record
    /// write must fail that operation, wedge the journal read-only
    /// (ext4-style abort), and leave the durable prefix fully
    /// recoverable at remount — never silently lose acknowledged ops.
    #[test]
    fn write_error_mid_commit_aborts_and_remount_recovers_prefix() {
        use sk_ksim::block::{DiskFaultConfig, FaultyDisk};

        let faulty = Arc::new(FaultyDisk::new(
            RamDisk::new(1024),
            DiskFaultConfig::default(),
            7,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();

        // Op 1 commits cleanly: acknowledged, durable in the log.
        fs.create(ROOT_INO, "a").unwrap();

        // The next device write is op 2's journal record: fail it.
        faulty.fail_nth_write(0);
        assert_eq!(fs.create(ROOT_INO, "b"), Err(Errno::EIO));

        // The journal is wedged: further mutations and checkpoints are
        // refused rather than risk replaying past the log gap.
        let j = fs.journal().unwrap();
        assert!(j.is_aborted());
        assert_eq!(fs.create(ROOT_INO, "c"), Err(Errno::EROFS));
        assert_eq!(fs.checkpoint(usize::MAX), Err(Errno::EROFS));

        // Reads of acknowledged state still work on the wedged mount.
        assert!(fs.lookup(ROOT_INO, "a").is_ok());

        // "Reboot": remount the surviving media. Recovery replays the
        // durable prefix — the acknowledged op is there, the failed and
        // refused ones are not, and fsck finds nothing stranded.
        drop(fs);
        let fs2 = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();
        assert!(fs2.lookup(ROOT_INO, "a").is_ok());
        assert_eq!(fs2.lookup(ROOT_INO, "b"), Err(Errno::ENOENT));
        assert_eq!(fs2.lookup(ROOT_INO, "c"), Err(Errno::ENOENT));
        assert!(!fs2.journal().unwrap().is_aborted());
        drop(fs2);
        let report = crate::fsck::fsck(dev.as_ref()).unwrap();
        assert!(report.is_clean(), "findings: {:?}", report.findings);
    }

    /// Async mode decouples acknowledgment from durability: staged ops
    /// cost no barrier, vanish if never committed, and become durable at
    /// the fsync durability point.
    #[test]
    fn async_ops_are_durable_only_after_fsync() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(1024));
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        {
            let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::Async).unwrap();
            let ino = fs.create(ROOT_INO, "lost").unwrap();
            fs.write(ino, 0, b"never synced").unwrap();
            let j = fs.journal().unwrap();
            assert!(j.stats().stages >= 2, "ops staged, not committed");
            assert_eq!(j.stats().batches, 0);
            assert_eq!(j.stats().barriers, 0, "op path is barrier-free");
            // Readers see the staged state immediately.
            assert!(fs.lookup(ROOT_INO, "lost").is_ok());
            // Dropped without fsync: the staged ops were never durable.
        }
        {
            let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::Async).unwrap();
            assert_eq!(fs.lookup(ROOT_INO, "lost"), Err(Errno::ENOENT));
            let ino = fs.create(ROOT_INO, "kept").unwrap();
            fs.write(ino, 0, b"synced").unwrap();
            fs.fsync(ino).unwrap();
            let j = fs.journal().unwrap();
            assert_eq!(j.staged_ops(), 0);
            assert!(j.stats().batches >= 1, "fsync committed the running txn");
            // fsync of a never-allocated inode is checked.
            assert_eq!(fs.fsync(77), Err(Errno::ENOENT));
        }
        let fs = Rsfs::mount(dev, JournalMode::Async).unwrap();
        let ino = fs.lookup(ROOT_INO, "kept").unwrap();
        let mut buf = vec![0u8; 16];
        let n = fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"synced");
    }

    /// The kupdate-style timer: a periodic workqueue tick commits the
    /// running transaction and drains checkpoints, so staged ops become
    /// durable within one interval even without any fsync.
    #[test]
    fn kupdate_timer_commit_makes_staged_ops_durable() {
        use sk_ksim::time::SimClock;
        use sk_ksim::workqueue::WorkQueue;

        let clock = Arc::new(SimClock::new());
        let ram = Arc::new(sk_ksim::block::RamDisk::with_geometry(
            1024,
            BLOCK_SIZE,
            Arc::clone(&clock),
        ));
        let dev: Arc<dyn BlockDevice> = ram;
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        let fs = Arc::new(Rsfs::mount(Arc::clone(&dev), JournalMode::Async).unwrap());

        let wq = WorkQueue::new(Arc::clone(&clock));
        let timer_fs = Arc::clone(&fs);
        wq.queue_periodic("journal.kupdate", 5_000, move || {
            let _ = timer_fs.commit_running();
            let _ = timer_fs.checkpoint(usize::MAX);
        });

        let ino = fs.create(ROOT_INO, "timed").unwrap();
        fs.write(ino, 0, b"interval").unwrap();
        let j = fs.journal().unwrap();
        assert_eq!(j.stats().batches, 0, "nothing committed before the tick");

        clock.advance(5_000);
        assert!(wq.pump() >= 1);
        assert!(j.stats().batches >= 1, "timer committed the running txn");
        assert_eq!(j.staged_ops(), 0);
        assert_eq!(j.pending_checkpoints(), 0, "tick also drained checkpoints");

        // The data is now durable without any explicit sync in the op path.
        drop(fs);
        let fs2 = Rsfs::mount(dev, JournalMode::Async).unwrap();
        let ino = fs2.lookup(ROOT_INO, "timed").unwrap();
        let mut buf = vec![0u8; 16];
        let n = fs2.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"interval");
    }

    /// Log pressure commits the running transaction from the op path
    /// itself: staging never grows the running txn past one record.
    #[test]
    fn log_pressure_bounds_the_running_transaction() {
        let fs = mount(JournalMode::Async);
        // Each create/write stages a handful of blocks; capacity is 61
        // (64 journal blocks), so a few dozen ops must trip at least one
        // pressure commit without any fsync or timer.
        for i in 0..40 {
            let ino = fs.create(ROOT_INO, &format!("p{i}")).unwrap();
            fs.write(ino, 0, b"fill").unwrap();
        }
        let j = fs.journal().unwrap();
        assert!(j.stats().pressure_commits >= 1, "stats: {:?}", j.stats());
        // And the running txn never exceeds record capacity.
        assert!(j.staged_ops() <= j.capacity());
    }

    /// The revert-fails test for async staging: when the journal aborts,
    /// a failed stage un-publishes cleanly — no partial writes leak into
    /// the next mount's commits (satellite of the async-commit issue).
    #[test]
    fn failed_async_stage_leaves_no_partial_writes_for_later_commits() {
        use sk_ksim::block::{DiskFaultConfig, FaultyDisk};

        let faulty = Arc::new(FaultyDisk::new(
            RamDisk::new(1024),
            DiskFaultConfig::default(),
            11,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::Async).unwrap();

        // Op "a" staged and made durable at an fsync barrier.
        let a = fs.create(ROOT_INO, "a").unwrap();
        fs.fsync(a).unwrap();

        // Op "b" staged; its commit (the next fsync's record write) fails,
        // aborting the journal — "b" was acknowledged as staged only, and
        // its durability point reports the loss.
        fs.create(ROOT_INO, "b").unwrap();
        faulty.fail_nth_write(0);
        assert_eq!(fs.fsync(a), Err(Errno::EROFS));
        assert!(fs.journal().unwrap().is_aborted());

        // Op "c" now fails at stage time (EROFS) *after* having published
        // its images — the revert path must un-publish them.
        assert_eq!(fs.create(ROOT_INO, "c"), Err(Errno::EROFS));

        // Remount: only the fsync'd prefix survived; the failed and
        // refused ops left nothing behind.
        drop(fs);
        let fs2 = Rsfs::mount(Arc::clone(&dev), JournalMode::Async).unwrap();
        assert!(fs2.lookup(ROOT_INO, "a").is_ok());
        assert_eq!(fs2.lookup(ROOT_INO, "b"), Err(Errno::ENOENT));
        assert_eq!(fs2.lookup(ROOT_INO, "c"), Err(Errno::ENOENT));

        // The next mount's commits are unaffected: no partial writes from
        // the reverted ops ride along with "d".
        let d = fs2.create(ROOT_INO, "d").unwrap();
        fs2.fsync(d).unwrap();
        drop(fs2);
        let fs3 = Rsfs::mount(Arc::clone(&dev), JournalMode::Async).unwrap();
        assert!(fs3.lookup(ROOT_INO, "d").is_ok());
        assert_eq!(fs3.lookup(ROOT_INO, "b"), Err(Errno::ENOENT));
        assert_eq!(fs3.lookup(ROOT_INO, "c"), Err(Errno::ENOENT));
        drop(fs3);
        let report = crate::fsck::fsck(dev.as_ref()).unwrap();
        assert!(report.is_clean(), "findings: {:?}", report.findings);
    }
}
