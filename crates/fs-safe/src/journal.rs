//! jbd2-style write-ahead journal with **group commit** and **deferred
//! checkpointing**.
//!
//! The journal occupies the tail of the device:
//!
//! ```text
//! jsb                 journal superblock: magic, tail_seq, tail_off
//! jsb+1 .. jsb+blocks log area: committed transactions back to back,
//!                     each   descriptor | payload .. | commit record
//! ```
//!
//! Unlike the seed's one-transaction-at-a-time design, the log area holds
//! **multiple committed, un-checkpointed transactions**. `tail_seq` /
//! `tail_off` in the superblock name the oldest transaction whose home
//! blocks may not be durable yet; everything from there to the in-memory
//! head is replayed, in sequence order, by [`Journal::recover`].
//!
//! **Group commit.** Concurrent committers merge into one open
//! transaction, exactly as jbd2 batches handles into its running
//! transaction: each operation *joins* the open transaction (taking a
//! monotonic order token) before it publishes its block images. Every
//! operation then *stages* its images into the running transaction;
//! [`OpHandle::commit`] is stage, then wait on the `flushed_upto`
//! watermark until it passes the operation's token. A waiter that finds
//! no leader becomes the leader, writing a single descriptor/payload/commit
//! record — one flush barrier — for every staged member of the batch;
//! the others block on a condvar until the watermark advances. Batches
//! always cover a token-contiguous prefix of operations, so a crash
//! leaves a prefix of the operation history — never a later operation
//! without an earlier one it may depend on.
//!
//! **Record format.** One record is a descriptor block (magic, seq,
//! count, home block numbers, checksum in the last eight bytes), the
//! payload blocks, and a commit block (magic, seq, checksum). Exactly one
//! encode/parse pair (`encode_record`, `read_record`) knows the
//! layout; the writer, recovery, and fsck all go through it. The checksum
//! (seq, home blknos, payloads) is the 64-bit [`sk_ksim::lanehash`]: word
//! speed over eight independent lanes, and still sure to catch every
//! single flipped bit.
//!
//! **Deferred checkpoint.** `commit` returns once the journal record is
//! durable; home-location writes are deferred. [`Journal::checkpoint`]
//! (driven by the `Flusher` workqueue, or forced when the log area fills)
//! drains transactions oldest-first: homes are written and flushed, then
//! the superblock tail advances. Until then the journal is the only
//! durable copy, so the log area is bounded and append forces a full
//! drain when a record does not fit. Checkpoint is the **only** writer
//! of journaled blocks' home locations: an operation hands in, with its
//! images, the [`DelayPin`]s it took by publishing them into the buffer
//! cache (writeback and eviction skip pinned buffers), its member and
//! then its record own them, and retiring the record drops them; a
//! partial drain never writes an image home when a later pending
//! transaction holds a newer one — the pair rules out home-write
//! reordering between checkpoint and cache writeback entirely. Committed
//! records are immutable and shared (`Arc`): a checkpoint snapshots them
//! by reference, so it holds `journal.space` for one refcount bump per
//! record, never for a copy of their images.
//!
//! **Recovery**: read the superblock; starting at `(tail_seq, tail_off)`,
//! walk forward parsing descriptor/commit pairs with strictly increasing
//! sequence numbers and matching payload checksums. Replay every valid
//! transaction's payload to its home locations *in sequence order*, then
//! retire them by advancing the tail. The walk stops at the first invalid
//! or stale record: a torn transaction never committed and is discarded.
//! Replay is idempotent, so crashing *during recovery* is also covered,
//! and an `EIO` mid-replay propagates as a reportable error — the retry
//! replays from the unchanged tail.
//!
//! **Journal abort.** A failed record write leaves a gap in the log at a
//! consumed sequence number; recovery's forward walk would stop there, so
//! any record appended afterwards could be acknowledged and then lost.
//! Like ext4, the journal therefore goes *sticky read-only*
//! ([`Journal::is_aborted`]): an operation committed in the failed batch
//! reports the batch's errno (`EIO`), and every later commit,
//! `commit_running`, and checkpoint fails with `EROFS` until the file
//! system is remounted, at which point recovery replays exactly the
//! durable prefix. An `EIO` during *checkpoint* is the benign
//! counterpart: the drained transactions stay registered, the on-disk
//! tail stays put, and their records keep their pins, so the checkpoint
//! simply retries.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use sk_ksim::block::BlockDevice;
use sk_ksim::buffer::DelayPin;
use sk_ksim::errno::{Errno, KResult};
use sk_ksim::lanehash::LaneHash;
use sk_ksim::lock::{LockRegistry, TrackedMutex, TrackedMutexGuard};

/// Journal-superblock magic.
pub const JSB_MAGIC: u32 = 0x4A_5342; // "JSB"
/// Descriptor magic.
pub const DESC_MAGIC: u32 = 0x4A_4453; // "JDS"
/// Commit-record magic.
pub const COMMIT_MAGIC: u32 = 0x4A_434D; // "JCM"

/// Home block numbers one descriptor block can name: the block less its
/// 16-byte header (magic, seq, count) and 8-byte trailing checksum.
pub(crate) fn desc_slots(bs: usize) -> usize {
    (bs - 24) / 8
}

/// The record checksum: a 64-bit [`LaneHash`] over the header words (seq,
/// home blknos), then over each payload, every segment padded to a round
/// on its own (the count and block size fix where each ends). It catches
/// every single flipped bit; the argument is in [`sk_ksim::lanehash`].
fn record_checksum(seq: u64, writes: &[(u64, Vec<u8>)]) -> u64 {
    let head: Vec<u8> = std::iter::once(seq)
        .chain(writes.iter().map(|(b, _)| *b))
        .flat_map(u64::to_le_bytes)
        .collect();
    let mut h = LaneHash::<u64>::default();
    h.absorb(&head);
    writes.iter().for_each(|(_, data)| h.absorb(data));
    h.finish()
}

/// Encodes one journal record — descriptor, payload, commit block — as
/// `writes.len() + 2` contiguous blocks. The caller keeps `writes` within
/// `desc_slots(bs)` and every image exactly `bs` bytes.
pub(crate) fn encode_record(seq: u64, writes: &[(u64, Vec<u8>)], bs: usize) -> Vec<u8> {
    let count = writes.len();
    assert!(count <= desc_slots(bs), "record overflows its descriptor");
    let checksum = record_checksum(seq, writes);
    let mut record = vec![0u8; (count + 2) * bs];
    let (desc, rest) = record.split_at_mut(bs);
    desc[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
    desc[4..12].copy_from_slice(&seq.to_le_bytes());
    desc[12..16].copy_from_slice(&(count as u32).to_le_bytes());
    for (i, (blkno, _)) in writes.iter().enumerate() {
        let o = 16 + i * 8;
        desc[o..o + 8].copy_from_slice(&blkno.to_le_bytes());
    }
    desc[bs - 8..].copy_from_slice(&checksum.to_le_bytes());
    let (payload, commit) = rest.split_at_mut(count * bs);
    for (block, (_, data)) in payload.chunks_exact_mut(bs).zip(writes) {
        block.copy_from_slice(data);
    }
    commit[0..4].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
    commit[4..12].copy_from_slice(&seq.to_le_bytes());
    commit[12..20].copy_from_slice(&checksum.to_le_bytes());
    record
}

/// What `read_record` found at a log offset.
pub(crate) enum LogRecord {
    /// No descriptor, or one whose sequence the caller does not want:
    /// the end of the log, or residue of an already-retired record.
    End,
    /// A wanted descriptor whose record does not validate (count out of
    /// range, a home block inside the journal, a missing or mismatched
    /// commit block, or a bad checksum): a torn write.
    Torn,
    /// A fully committed record.
    Committed {
        /// Its sequence number.
        seq: u64,
        /// Home blkno → image, in record order.
        writes: Vec<(u64, Vec<u8>)>,
    },
}

/// Parses the record at offset `off` of the log area of the journal
/// region `[start, start + blocks)`. `want_seq` filters descriptors
/// before anything past the descriptor block is read. Never reads outside
/// the log area, whatever the descriptor claims.
pub(crate) fn read_record(
    dev: &dyn BlockDevice,
    start: u64,
    blocks: u64,
    off: u64,
    want_seq: impl Fn(u64) -> bool,
) -> KResult<LogRecord> {
    let bs = dev.block_size();
    let area = blocks - 1;
    let mut desc = vec![0u8; bs];
    dev.read_block(start + 1 + off, &mut desc)?;
    if u32::from_le_bytes(desc[0..4].try_into().expect("4 bytes")) != DESC_MAGIC {
        return Ok(LogRecord::End);
    }
    let seq = u64::from_le_bytes(desc[4..12].try_into().expect("8 bytes"));
    if !want_seq(seq) {
        return Ok(LogRecord::End);
    }
    let count = u32::from_le_bytes(desc[12..16].try_into().expect("4 bytes")) as usize;
    if count == 0 || count > desc_slots(bs) || off + 2 + count as u64 > area {
        return Ok(LogRecord::Torn);
    }
    let claimed = u64::from_le_bytes(desc[bs - 8..].try_into().expect("8 bytes"));
    let mut writes = Vec::with_capacity(count);
    for i in 0..count {
        let o = 16 + i * 8;
        let blkno = u64::from_le_bytes(desc[o..o + 8].try_into().expect("8 bytes"));
        if blkno >= start {
            return Ok(LogRecord::Torn);
        }
        writes.push((blkno, Vec::new()));
    }
    let mut commit = vec![0u8; bs];
    dev.read_block(start + 1 + off + 1 + count as u64, &mut commit)?;
    if u32::from_le_bytes(commit[0..4].try_into().expect("4 bytes")) != COMMIT_MAGIC
        || u64::from_le_bytes(commit[4..12].try_into().expect("8 bytes")) != seq
        || u64::from_le_bytes(commit[12..20].try_into().expect("8 bytes")) != claimed
    {
        return Ok(LogRecord::Torn);
    }
    for (i, (_, data)) in writes.iter_mut().enumerate() {
        *data = vec![0u8; bs];
        dev.read_block(start + 1 + off + 1 + i as u64, data)?;
    }
    if record_checksum(seq, &writes) != claimed {
        return Ok(LogRecord::Torn);
    }
    Ok(LogRecord::Committed { seq, writes })
}

/// Journal usage counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Operations committed: one per [`OpHandle::commit`] caller that
    /// handed in writes (the per-op path, which stages and then waits).
    pub commits: u64,
    /// Operations staged into the running transaction without waiting
    /// for durability: one per [`OpHandle::stage`] caller that handed in
    /// writes (the async-commit path).
    pub stages: u64,
    /// Running-transaction commits forced by log pressure: the staged
    /// payload reached record capacity, so the staging operation ran
    /// leader duty itself instead of waiting for the timer or an fsync.
    pub pressure_commits: u64,
    /// Journal records written — group commit merges many commits into
    /// one batch, so `batches <= commits`.
    pub batches: u64,
    /// Blocks journaled (payload only).
    pub blocks_journaled: u64,
    /// Transactions replayed by recovery.
    pub replays: u64,
    /// Flush barriers issued.
    pub barriers: u64,
    /// Transactions checkpointed (homes written, tail advanced).
    pub checkpoints: u64,
    /// Checkpoints forced by log-area pressure rather than the flusher.
    pub forced_checkpoints: u64,
    /// Ascending contiguous home-block runs checkpoint coalesced into a
    /// single vectored `write_blocks` call (runs of length ≥ 2 only).
    pub coalesced_runs: u64,
}

/// What recovery found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Journal was empty/retired; nothing to do.
    Clean,
    /// One or more committed transactions were replayed.
    Replayed {
        /// Number of payload blocks written home.
        blocks: usize,
    },
    /// An uncommitted (torn) transaction was discarded.
    DiscardedTorn,
}

/// One committed, un-checkpointed transaction (a journal record).
/// Immutable once registered and shared rather than copied: a checkpoint
/// takes references under `journal.space` and reads the images after the
/// lock drops. No one else takes a reference out of that lock, so the
/// checkpoint that retires a record drops it, pins and all.
struct TxnRecord {
    seq: u64,
    /// Offset of the descriptor in the log area.
    off: u64,
    /// Record size in blocks (descriptor + payload + commit).
    len: u64,
    /// Home images, kept in memory so checkpoint never re-reads the log.
    writes: Vec<(u64, Vec<u8>)>,
    /// Every merged operation's pins, held until this record retires.
    _pins: Vec<DelayPin>,
}

/// Log-area bookkeeping: where the next record goes and which records
/// still await checkpoint.
struct Space {
    head_off: u64,
    tail_seq: u64,
    tail_off: u64,
    /// Committed transactions awaiting checkpoint, oldest first.
    txns: VecDeque<Arc<TxnRecord>>,
    /// Log blocks `txns` occupy (the sum of their `len`), kept running so
    /// [`Journal::log_pressure`] reads it in O(1).
    used: u64,
}

/// One member of the open transaction: an operation's block images,
/// tagged with its join-order token, and the pins it published them
/// under.
struct Member {
    token: u64,
    writes: Vec<(u64, Vec<u8>)>,
    pins: Vec<DelayPin>,
}

/// The open (merging) transaction plus the leader/follower machinery.
struct GroupState {
    /// Next join token; tokens order operations exactly as the file
    /// system staged them.
    next_token: u64,
    /// Tokens of joined operations that have not yet handed in their
    /// writes. The leader flushes the member prefix *below the oldest
    /// open token* — so a commit waits only for operations that joined
    /// before it, never for the stream of operations that keep joining
    /// behind it (which is what a global "outstanding == 0" barrier
    /// degenerates into once N reactors stage concurrently).
    open: BTreeSet<u64>,
    /// Every token below this bound has its writes durable in the log
    /// (or contributed none). Advanced by the leader after each record
    /// and frozen once the journal aborts. Both durability waits watch
    /// it: [`OpHandle::commit`] for its own token, `commit_running` for
    /// the tokens issued before the call — never for the whole group to
    /// drain.
    flushed_upto: u64,
    /// Contributed members of the open transaction, in token order.
    members: Vec<Member>,
    /// Payload blocks staged: the sum of `members`' write counts, kept
    /// running so the pressure reads are O(1).
    staged: usize,
    /// Whether a leader is currently flushing a batch.
    leader_running: bool,
    /// Next on-disk sequence number.
    next_seq: u64,
    /// ext4-style journal abort: `(bound, errno)` of the batch whose
    /// record write failed. Set once, never cleared.
    ///
    /// The leader consumes a sequence number and reserves log space
    /// *before* the record IO, so a failed [`Journal::write_batch`] leaves
    /// a gap (garbage or a partial record) in the log at the sequence
    /// recovery will expect next. Any record appended after that gap is
    /// unreachable: recovery's forward walk stops at the gap, so a later
    /// commit could be acknowledged and then silently lost after a crash.
    /// The only safe continuation is none. Operations in the failed batch
    /// (tokens below `bound`) report `errno`; every later commit and
    /// checkpoint fails with `EROFS` and the caller must remount, which
    /// replays exactly the durable prefix.
    failed: Option<(u64, Errno)>,
}

/// RAII handle for an operation that has joined the open transaction via
/// [`Journal::begin_op`]. Dropping it without committing aborts the join
/// so the group leader never waits for a dead operation.
pub struct OpHandle<'a> {
    journal: &'a Journal,
    token: u64,
    done: bool,
}

impl OpHandle<'_> {
    /// This operation's position in the global commit order.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Publishes `writes` (home blkno → full block image) as one atomic
    /// transaction and blocks until the batch containing it is durable in
    /// the journal: [`OpHandle::stage`], then a wait for the
    /// `flushed_upto` watermark to pass this token. Home writes are
    /// deferred to checkpoint. If the batch's record write fails, this
    /// returns that write's errno (`EIO`); a commit refused by an earlier
    /// abort returns `EROFS`. Either way `pins` are released before the
    /// error returns.
    pub fn commit(mut self, writes: Vec<(u64, Vec<u8>)>, pins: Vec<DelayPin>) -> KResult<()> {
        self.done = true;
        let journal = self.journal;
        let mut g = journal.group.lock();
        if journal.stage_op(&mut g, self.token, writes, pins)? {
            journal.stats.lock().commits += 1;
            journal.wait_flushed(&mut g, self.token + 1)?;
        }
        Ok(())
    }

    /// Publishes `writes` into the **running transaction** and returns as
    /// soon as staging is published — without waiting for a journal
    /// record or flush barrier. Durability arrives later, when the
    /// running transaction commits: on the kupdate-style timer, under
    /// log pressure (in which case this very call runs leader duty), or
    /// at an explicit [`Journal::commit_running`] (fsync/sync).
    ///
    /// Validation errors (`EINVAL`/`ENOSPC`) and a pre-existing abort
    /// (`EROFS`) still surface synchronously, so a failed stage leaves
    /// nothing in the running transaction.
    ///
    /// `pins` are the [`DelayPin`]s the caller took publishing `writes`:
    /// the journal holds them until the checkpoint retires the record,
    /// and releases them before any error reaches the caller.
    pub fn stage(mut self, writes: Vec<(u64, Vec<u8>)>, pins: Vec<DelayPin>) -> KResult<()> {
        self.done = true;
        let journal = self.journal;
        let mut g = journal.group.lock();
        if journal.stage_op(&mut g, self.token, writes, pins)? {
            journal.stats.lock().stages += 1;
        }
        if g.failed.is_some() {
            // The log-pressure commit this call ran failed, possibly
            // with our member in it: the operation is not acknowledged.
            return Err(Errno::EROFS);
        }
        Ok(())
    }
}

impl Drop for OpHandle<'_> {
    fn drop(&mut self) {
        if !self.done {
            let mut g = self.journal.group.lock();
            g.open.remove(&self.token);
            self.journal.group_cv.notify_all();
        }
    }
}

/// The write-ahead journal over a device region `[start, start+blocks)`.
pub struct Journal {
    dev: Arc<dyn BlockDevice>,
    start: u64,
    blocks: u64,
    group: TrackedMutex<GroupState>,
    group_cv: Condvar,
    space: TrackedMutex<Space>,
    /// Serializes checkpointers (the flusher and forced drains). The
    /// one journal class allowed to be held across blocking device I/O:
    /// its whole purpose is to serialize the home-write drain.
    ckpt_lock: TrackedMutex<()>,
    /// Leaf counters; never held across another acquisition, left raw.
    stats: Mutex<JournalStats>,
    registry: Arc<LockRegistry>,
}

impl Journal {
    /// Log-area size in blocks (everything after the superblock).
    fn area(&self) -> u64 {
        self.blocks - 1
    }

    /// Maximum payload blocks per journal record for this geometry: the
    /// log area less descriptor and commit blocks, and no more than one
    /// descriptor block can name.
    pub fn capacity(&self) -> usize {
        // jsb + descriptor + commit leave blocks-3 payload slots.
        (self.blocks as usize)
            .saturating_sub(3)
            .min(desc_slots(self.dev.block_size()))
    }

    /// Formats the journal region (sequence starts at 1, tail at offset 0).
    pub fn format(dev: &Arc<dyn BlockDevice>, start: u64, blocks: u64) -> KResult<()> {
        if blocks < 4 {
            return Err(Errno::EINVAL);
        }
        Self::write_jsb(dev, start, 1, 0)?;
        dev.flush()
    }

    /// Opens a formatted journal. **Run [`Journal::recover`] first** after
    /// an unclean shutdown — open assumes a recovered (or clean) log.
    pub fn open(dev: Arc<dyn BlockDevice>, start: u64, blocks: u64) -> KResult<Journal> {
        Self::open_with_registry(dev, start, blocks, LockRegistry::new_disabled())
    }

    /// Opens a formatted journal with its locks reporting to `registry`,
    /// so the mounted system's lockdep graph covers the commit path.
    pub fn open_with_registry(
        dev: Arc<dyn BlockDevice>,
        start: u64,
        blocks: u64,
        registry: Arc<LockRegistry>,
    ) -> KResult<Journal> {
        let bs = dev.block_size();
        let mut jsb = vec![0u8; bs];
        dev.read_block(start, &mut jsb)?;
        if u32::from_le_bytes(jsb[0..4].try_into().expect("4 bytes")) != JSB_MAGIC {
            return Err(Errno::EUCLEAN);
        }
        let tail_seq = u64::from_le_bytes(jsb[4..12].try_into().expect("8 bytes"));
        let tail_off = u64::from_le_bytes(jsb[12..20].try_into().expect("8 bytes"));
        // A fully-drained tail may sit exactly at the end of the area.
        if tail_off > blocks - 1 {
            return Err(Errno::EUCLEAN);
        }
        Ok(Journal {
            dev,
            start,
            blocks,
            group: TrackedMutex::new(
                &registry,
                "journal.group",
                GroupState {
                    next_token: 1,
                    open: BTreeSet::new(),
                    flushed_upto: 1,
                    members: Vec::new(),
                    staged: 0,
                    leader_running: false,
                    next_seq: tail_seq,
                    failed: None,
                },
            ),
            group_cv: Condvar::new(),
            space: TrackedMutex::new(
                &registry,
                "journal.space",
                Space {
                    head_off: tail_off,
                    tail_seq,
                    tail_off,
                    txns: VecDeque::new(),
                    used: 0,
                },
            ),
            ckpt_lock: TrackedMutex::new_io_ok(&registry, "journal.ckpt", ()),
            stats: Mutex::new(JournalStats::default()),
            registry,
        })
    }

    /// The lock registry the journal's locks report to.
    pub fn lock_registry(&self) -> &Arc<LockRegistry> {
        &self.registry
    }

    /// True once the journal has aborted after a failed record write.
    /// An aborted journal refuses all further commits and checkpoints
    /// with `EROFS`; recovery at the next mount replays the durable
    /// prefix of the log.
    pub fn is_aborted(&self) -> bool {
        self.group.lock().failed.is_some()
    }

    /// Next on-disk sequence number (the open transaction's).
    pub fn seq(&self) -> u64 {
        self.group.lock().next_seq
    }

    /// Committed transactions awaiting checkpoint.
    pub fn pending_checkpoints(&self) -> usize {
        self.space.lock().txns.len()
    }

    /// Newest *committed* image of `blkno` still owned by the journal
    /// (committed but not yet checkpointed), if any. A failed commit
    /// that already published its images into shared cache buffers uses
    /// this to roll those buffers back to the last durable content when
    /// the buffer is also pinned by an earlier transaction and so
    /// cannot simply be invalidated. The one image is copied under
    /// `journal.space`, so no record reference escapes the lock (see
    /// `TxnRecord`); only failed commits call this.
    pub fn committed_image(&self, blkno: u64) -> Option<Vec<u8>> {
        self.space.lock().txns.iter().rev().find_map(|t| {
            let (_, data) = t.writes.iter().rev().find(|(b, _)| *b == blkno)?;
            Some(data.clone())
        })
    }

    /// Every committed record awaiting checkpoint, oldest first, by
    /// reference: the `journal.space` hold is one refcount bump per
    /// record, whatever the size of their images.
    fn pending_records(&self) -> Vec<Arc<TxnRecord>> {
        self.space.lock().txns.iter().cloned().collect()
    }

    /// Usage counters.
    pub fn stats(&self) -> JournalStats {
        *self.stats.lock()
    }

    fn write_jsb(dev: &Arc<dyn BlockDevice>, start: u64, seq: u64, tail_off: u64) -> KResult<()> {
        let mut jsb = vec![0u8; dev.block_size()];
        jsb[0..4].copy_from_slice(&JSB_MAGIC.to_le_bytes());
        jsb[4..12].copy_from_slice(&seq.to_le_bytes());
        jsb[12..20].copy_from_slice(&tail_off.to_le_bytes());
        dev.write_block(start, &jsb)
    }

    /// Joins the open transaction, fixing this operation's place in the
    /// global commit order. Call while holding whatever lock orders the
    /// caller's state updates, so token order matches state order; then
    /// release that lock before [`OpHandle::commit`] so commits can merge.
    pub fn begin_op(&self) -> OpHandle<'_> {
        let mut g = self.group.lock();
        let token = g.next_token;
        g.next_token += 1;
        g.open.insert(token);
        OpHandle {
            journal: self,
            token,
            done: false,
        }
    }

    /// Commits `writes` (home blkno → full block image) atomically.
    ///
    /// Duplicate block numbers are allowed; the last image wins. Empty
    /// transactions are a no-op. Oversize transactions return `ENOSPC` —
    /// the caller must keep operations within journal capacity.
    pub fn commit(&self, writes: &[(u64, Vec<u8>)]) -> KResult<()> {
        self.begin_op().commit(writes.to_vec(), Vec::new())
    }

    /// Validates one operation's writes, returning them deduplicated
    /// (last image wins, stable home order).
    fn validate(&self, writes: Vec<(u64, Vec<u8>)>) -> KResult<Vec<(u64, Vec<u8>)>> {
        let bs = self.dev.block_size();
        let mut dedup: Vec<(u64, Vec<u8>)> = Vec::with_capacity(writes.len());
        let mut index: HashMap<u64, usize> = HashMap::with_capacity(writes.len());
        for (blkno, data) in writes {
            if data.len() != bs {
                return Err(Errno::EINVAL);
            }
            if blkno >= self.start {
                // Nothing may journal a write into the journal itself.
                return Err(Errno::EINVAL);
            }
            match index.get(&blkno) {
                Some(&at) => dedup[at].1 = data,
                None => {
                    index.insert(blkno, dedup.len());
                    dedup.push((blkno, data));
                }
            }
        }
        if dedup.len() > self.capacity() {
            return Err(Errno::ENOSPC);
        }
        Ok(dedup)
    }

    /// Stages one operation's writes into the running transaction and
    /// releases its token. Returns `false` when there was nothing to
    /// stage. Validation errors (`EINVAL`/`ENOSPC`) and a pre-existing
    /// abort (`EROFS`) surface before publication, so a failed stage
    /// leaves nothing in the running transaction; its pins are dropped
    /// with the group lock released, so lockdep sees no `journal.group`
    /// → `buffer.head` edge. The only device IO on
    /// this path is a log-pressure commit: once the staged payload could
    /// fill a whole record, the staging operation runs leader duty itself
    /// rather than letting the running transaction grow without bound
    /// between timer ticks (jbd2 ditto: the handle that fills the
    /// transaction kicks the commit).
    fn stage_op(
        &self,
        g: &mut TrackedMutexGuard<'_, GroupState>,
        token: u64,
        writes: Vec<(u64, Vec<u8>)>,
        pins: Vec<DelayPin>,
    ) -> KResult<bool> {
        let staged = if g.failed.is_some() {
            Err(Errno::EROFS)
        } else if writes.is_empty() {
            Ok(None)
        } else {
            self.validate(writes).map(Some)
        };
        g.open.remove(&token);
        self.group_cv.notify_all();
        let Ok(Some(writes)) = staged else {
            g.unlocked(|| drop(pins));
            return staged.map(|_| false);
        };
        g.staged += writes.len();
        g.members.push(Member {
            token,
            writes,
            pins,
        });
        if self.staged_fraction(g) >= 1.0 && !g.leader_running {
            self.stats.lock().pressure_commits += 1;
            self.lead_or_wait(g);
        }
        Ok(true)
    }

    /// Waits until every token below `upto` is durable in the log,
    /// running leader duty whenever no leader is. After an abort, a wait
    /// covered by the failed batch (`upto <= bound`) reports that batch's
    /// errno; any other wait reports `EROFS`.
    fn wait_flushed(&self, g: &mut TrackedMutexGuard<'_, GroupState>, upto: u64) -> KResult<()> {
        loop {
            if g.flushed_upto >= upto {
                return Ok(());
            }
            if let Some((bound, errno)) = g.failed {
                return Err(if upto <= bound { errno } else { Errno::EROFS });
            }
            // With nothing staged, leading again is futile while an
            // older operation still holds its handle open: lead() would
            // return immediately and this loop would spin with the group
            // lock held, blocking the very hand-in it needs. Wait for
            // the hand-in notification instead.
            if g.members.is_empty() && g.open.first().is_some_and(|&t| t < upto) {
                g.wait(&self.group_cv);
                continue;
            }
            self.lead_or_wait(g);
        }
    }

    /// The leader handoff: runs leader duty if no leader is running,
    /// otherwise waits for the next group notification.
    fn lead_or_wait(&self, g: &mut TrackedMutexGuard<'_, GroupState>) {
        if g.leader_running {
            g.wait(&self.group_cv);
            return;
        }
        g.leader_running = true;
        self.lead(g);
        g.leader_running = false;
        self.group_cv.notify_all();
    }

    /// Commits the running transaction and waits for its flush barrier —
    /// the fsync/sync durability point. On return every operation staged
    /// before this call is durable in the journal (or `EROFS` if the
    /// journal aborted, in which case some staged operations were lost
    /// and only a remount recovers the durable prefix).
    ///
    /// Also the kupdate-style timer commit entry point: with nothing
    /// staged it is a no-op (no barrier).
    pub fn commit_running(&self) -> KResult<()> {
        let mut g = self.group.lock();
        // Durability bound: everything staged before this call has a
        // token below `upto`. Waiting for `flushed_upto` to pass it —
        // rather than for the whole group to drain — means this barrier
        // never waits on operations that join *after* it, so concurrent
        // reactors can keep staging without starving the fsync path.
        let upto = g.next_token;
        // Any failure means staged operations were lost: report the
        // sticky abort, not the errno of whichever batch failed.
        self.wait_flushed(&mut g, upto).map_err(|_| Errno::EROFS)
    }

    /// Number of operations currently staged in the running transaction.
    pub fn staged_ops(&self) -> usize {
        self.group.lock().members.len()
    }

    /// Payload blocks staged in the open transaction, as a fraction of
    /// record capacity. This is the *exact* expression the stage path
    /// tests against `1.0` for its pressure commit (`stage_op` runs
    /// leader duty once the fraction reaches one), so external
    /// throttles reading [`Journal::log_pressure`] see the same value the
    /// leader-duty path acts on.
    fn staged_fraction(&self, g: &GroupState) -> f32 {
        debug_assert_eq!(g.staged, g.members.iter().map(|m| m.writes.len()).sum());
        g.staged as f32 / self.capacity().max(1) as f32
    }

    /// Log pressure in `[0, 1]`-ish: how close the journal is to being
    /// forced into synchronous work.
    ///
    /// The max of two fractions:
    ///
    /// - **staged fraction** — open-transaction payload vs. record
    ///   capacity. At `1.0` the next stage runs a pressure commit
    ///   (leader duty on the staging thread), turning the async op path
    ///   synchronous.
    /// - **area fraction** — committed-but-unretired record blocks vs.
    ///   the log area. At `1.0` the next record write must force
    ///   checkpoints to reclaim space.
    ///
    /// Both locks are taken *sequentially* (group, then space, neither
    /// nested in the other), so this is safe to poll from any context
    /// that may already order against either class — e.g. the ring
    /// reactor between batches.
    pub fn log_pressure(&self) -> f32 {
        let staged = {
            let g = self.group.lock();
            self.staged_fraction(&g)
        };
        let area = {
            let sp = self.space.lock();
            debug_assert_eq!(sp.used, sp.txns.iter().map(|t| t.len).sum());
            sp.used as f32 / self.area().max(1) as f32
        };
        staged.max(area)
    }

    /// Leader duty: flush token-prefix batches until no members remain.
    /// Called (and returns) with the group lock held; drops it around
    /// device IO.
    fn lead(&self, g: &mut TrackedMutexGuard<'_, GroupState>) {
        loop {
            if g.failed.is_some() {
                // The failing leader emptied `members` before setting
                // the abort, and `stage_op` refuses after it. The
                // watermark stays frozen at the failed batch.
                debug_assert!(g.members.is_empty());
                return;
            }
            if g.members.is_empty() {
                // Nothing staged: every token below the oldest still-open
                // handle (or below next_token if none) is durable or
                // contributed nothing.
                let upto = g.open.first().copied().unwrap_or(g.next_token);
                g.flushed_upto = g.flushed_upto.max(upto);
                return;
            }
            g.members.sort_by_key(|m| m.token);
            // A batch must be a token-contiguous prefix of operations,
            // so only members *below the oldest open token* may flush.
            // If the oldest staged member is still behind an open
            // handle, wait for that hand-in — a strictly older
            // operation, so the bound only ever advances and this wait
            // never blocks on work that joined after the leader.
            let bound = g.open.first().copied().unwrap_or(u64::MAX);
            if g.members[0].token >= bound {
                g.wait(&self.group_cv);
                continue;
            }
            // Take the longest prefix of members (below `bound`) whose
            // merged image set fits one journal record. Only block
            // *numbers* are counted here — building the merged images
            // clones whole block payloads, so that work happens outside
            // the group lock, where it cannot stall committers joining
            // the next transaction.
            let mut seen: HashSet<u64> = HashSet::new();
            let mut taken = 0;
            for m in g.members.iter() {
                if m.token >= bound {
                    break;
                }
                let fresh = m.writes.iter().filter(|(b, _)| !seen.contains(b)).count();
                if taken > 0 && seen.len() + fresh > self.capacity() {
                    break;
                }
                for (b, _) in &m.writes {
                    seen.insert(*b);
                }
                taken += 1;
            }
            let batch: Vec<Member> = g.members.drain(..taken).collect();
            // After this batch lands, every token below all three of
            // these is durable or contributed nothing: `bound` (older
            // opens would violate it), the next remaining member, and
            // the tokens issued so far (later joins get larger ones).
            // Every member of the batch is below `upto`, every member
            // left behind is at or above it.
            let next_remaining = g.members.first().map(|m| m.token).unwrap_or(u64::MAX);
            let upto = bound.min(next_remaining).min(g.next_token);
            g.staged -= batch.iter().map(|m| m.writes.len()).sum::<usize>();
            let seq = g.next_seq;
            g.next_seq += 1;

            // Image merge + device IO without the group lock: later
            // committers can keep joining the (new) open transaction
            // meanwhile. The members move, so merging moves payloads
            // instead of cloning them, and a failed write drops the
            // batch's pins before any waiter can see the abort.
            let res = g.unlocked(|| self.write_batch(seq, batch, seen.len()));
            match res {
                Ok(()) => {
                    self.stats.lock().batches += 1;
                    g.flushed_upto = g.flushed_upto.max(upto);
                }
                // The sequence number is consumed and the log may hold a
                // partial record at it; nothing appended after that gap
                // would ever be replayed. Abort rather than lose an
                // acknowledged later commit. Members staged behind the
                // batch are lost too: drop them (pins and all) unlocked,
                // and abort once none is left, so no waiter sees the
                // abort while still pinned.
                Err(errno) => {
                    while !g.members.is_empty() {
                        let lost = std::mem::take(&mut g.members);
                        g.staged = 0;
                        g.unlocked(|| drop(lost));
                    }
                    g.failed = Some((upto, errno));
                }
            }
            self.group_cv.notify_all();
        }
    }

    /// Merges `batch` into one record (last image wins per block, stable
    /// home order), appends it (descriptor + payload + commit) to the log
    /// and flushes. On success the transaction is registered for
    /// checkpoint and takes the members' pins with it; on failure they
    /// drop on return.
    fn write_batch(&self, seq: u64, batch: Vec<Member>, merged_len: usize) -> KResult<()> {
        let mut writes: Vec<(u64, Vec<u8>)> = Vec::with_capacity(merged_len);
        let mut index: HashMap<u64, usize> = HashMap::with_capacity(merged_len);
        let mut pins: Vec<DelayPin> = Vec::new();
        for m in batch {
            pins.extend(m.pins);
            for (blkno, data) in m.writes {
                match index.get(&blkno) {
                    Some(&at) => writes[at].1 = data,
                    None => {
                        index.insert(blkno, writes.len());
                        writes.push((blkno, data));
                    }
                }
            }
        }
        let count = writes.len();
        let need = count as u64 + 2;

        // Reserve log space, forcing a drain when the record won't fit.
        let off = loop {
            let mut sp = self.space.lock();
            if sp.head_off + need <= self.area() {
                let off = sp.head_off;
                sp.head_off += need;
                break off;
            }
            if sp.txns.is_empty() {
                // Fully drained: rewind the log to offset 0. The on-disk
                // tail must move first, or a crash would recover from a
                // stale offset and miss the record we are about to write.
                if need > self.area() {
                    return Err(Errno::ENOSPC);
                }
                // The superblock write is blocking device I/O, so the
                // space lock is dropped around it (lockdep finding:
                // `journal.space` held across `write_block`). Safe:
                // write_batch runs under a single leader at a time, and
                // a concurrent checkpoint of an empty txn queue is a
                // no-op, so nothing can move the offsets while unlocked.
                let tail_seq = sp.tail_seq;
                sp.unlocked(|| {
                    self.registry.note_blocking_io("write_block");
                    Self::write_jsb(&self.dev, self.start, tail_seq, 0)?;
                    self.registry.note_blocking_io("flush");
                    self.dev.flush()
                })?;
                self.stats.lock().barriers += 1;
                sp.head_off = 0;
                sp.tail_off = 0;
                continue;
            }
            drop(sp);
            self.checkpoint_inner(usize::MAX, true)?;
        };

        // Assemble the whole record and write it as one vectored extent.
        let record = encode_record(seq, &writes, self.dev.block_size());
        self.registry.note_blocking_io("write_blocks");
        self.dev
            .write_blocks(self.start + 1 + off, need as usize, &record)?;
        self.registry.note_blocking_io("flush");
        self.dev.flush()?;

        let mut stats = self.stats.lock();
        stats.blocks_journaled += count as u64;
        stats.barriers += 1;
        drop(stats);

        // Batches register in ascending seq order (one leader at a time).
        let record = Arc::new(TxnRecord {
            seq,
            off,
            len: need,
            writes,
            _pins: pins,
        });
        let mut sp = self.space.lock();
        sp.used += need;
        sp.txns.push_back(record);
        Ok(())
    }

    /// Checkpoints up to `max_txns` transactions oldest-first: writes
    /// their home blocks, flushes, then advances the on-disk tail.
    /// Returns the number of transactions drained.
    pub fn checkpoint(&self, max_txns: usize) -> KResult<usize> {
        self.checkpoint_inner(max_txns, false)
    }

    /// Drains every pending checkpoint.
    pub fn checkpoint_all(&self) -> KResult<usize> {
        self.checkpoint_inner(usize::MAX, false)
    }

    fn checkpoint_inner(&self, max_txns: usize, forced: bool) -> KResult<usize> {
        if self.is_aborted() {
            return Err(Errno::EROFS);
        }
        let _serialize = self.ckpt_lock.lock();
        // Snapshot the pending records by reference and split off the
        // drain set; records stay registered (and the tail on disk)
        // until their homes are durable, so a crash mid-drain still
        // replays them.
        let mut drain = self.pending_records();
        let later = drain.split_off(max_txns.min(drain.len()));
        let Some(last) = drain.last() else {
            return Ok(0);
        };
        let (last_seq, last_off, last_len) = (last.seq, last.off, last.len);
        // One home write per block, newest drained image wins — and none
        // at all for a block that a later, still-pending transaction
        // also journaled (its image is newer): writing our older image
        // could regress the home past what that transaction (or a
        // recovery replaying it) has already put there. The skip is
        // race-free, not merely narrow: records' pins keep journaled
        // blocks out of cache writeback until retire, so home writes
        // happen only on this `ckpt_lock`-serialized path, and a
        // transaction committing after our snapshot cannot reach its
        // home before its own (later) checkpoint.
        let newer: HashSet<u64> = later
            .iter()
            .flat_map(|t| t.writes.iter().map(|(b, _)| *b))
            .collect();
        let mut homes: BTreeMap<u64, &Vec<u8>> = BTreeMap::new();
        for (blkno, data) in drain.iter().flat_map(|t| t.writes.iter()) {
            if !newer.contains(blkno) {
                homes.insert(*blkno, data);
            }
        }
        // `homes` is a BTreeMap, so targets come out ascending: coalesce
        // contiguous runs into one vectored `write_blocks` each (the
        // common case — a file's data blocks plus its metadata cluster —
        // collapses from N device round trips to a handful).
        let bs = self.dev.block_size();
        let targets: Vec<(u64, &Vec<u8>)> = homes.into_iter().collect();
        let mut coalesced_runs = 0u64;
        self.registry.note_blocking_io("write_block");
        let mut i = 0;
        while i < targets.len() {
            let mut j = i + 1;
            while j < targets.len() && targets[j].0 == targets[j - 1].0 + 1 {
                j += 1;
            }
            if j - i == 1 {
                self.dev.write_block(targets[i].0, targets[i].1)?;
            } else {
                let mut run = Vec::with_capacity((j - i) * bs);
                for (_, data) in &targets[i..j] {
                    run.extend_from_slice(data);
                }
                self.dev.write_blocks(targets[i].0, j - i, &run)?;
                coalesced_runs += 1;
            }
            i = j;
        }
        self.registry.note_blocking_io("flush");
        self.dev.flush()?;
        Self::write_jsb(&self.dev, self.start, last_seq + 1, last_off + last_len)?;
        self.dev.flush()?;

        // Checkpointers are serialized, so the drained records are still
        // the queue's front; `drain` keeps them alive, so none is freed
        // (and no pin released) under the lock.
        let mut sp = self.space.lock();
        for t in &drain {
            let popped = sp.txns.pop_front();
            debug_assert!(popped.is_some_and(|p| Arc::ptr_eq(&p, t)));
            sp.used -= t.len;
        }
        sp.tail_seq = last_seq + 1;
        sp.tail_off = last_off + last_len;
        drop(sp);

        let mut stats = self.stats.lock();
        stats.checkpoints += drain.len() as u64;
        stats.barriers += 2;
        stats.coalesced_runs += coalesced_runs;
        if forced {
            stats.forced_checkpoints += 1;
        }
        drop(stats);

        // Retiring is dropping: `drain` holds the last references to the
        // retired records, so their pins release here, still under
        // `ckpt_lock`. A failed commit's rollback relies on that: once
        // its own `checkpoint_all` returns, every pin left on a buffer
        // belongs to a record still pending.
        let retired = drain.len();
        drop(drain);
        Ok(retired)
    }

    /// Scans the journal after an unclean shutdown and replays every
    /// committed-but-unretired transaction in sequence order.
    pub fn recover(
        dev: &Arc<dyn BlockDevice>,
        start: u64,
        blocks: u64,
    ) -> KResult<RecoveryOutcome> {
        let bs = dev.block_size();
        let area = blocks - 1;
        let mut jsb = vec![0u8; bs];
        dev.read_block(start, &mut jsb)?;
        if u32::from_le_bytes(jsb[0..4].try_into().expect("4 bytes")) != JSB_MAGIC {
            return Err(Errno::EUCLEAN);
        }
        let tail_seq = u64::from_le_bytes(jsb[4..12].try_into().expect("8 bytes"));
        let tail_off = u64::from_le_bytes(jsb[12..20].try_into().expect("8 bytes"));
        if tail_off > area {
            return Err(Errno::EUCLEAN);
        }

        // Walk committed records forward from the tail.
        let mut expected = tail_seq;
        let mut off = tail_off;
        let mut torn = false;
        let mut replay: Vec<Vec<(u64, Vec<u8>)>> = Vec::new();
        while off + 3 <= area {
            match read_record(&**dev, start, blocks, off, |seq| seq == expected)? {
                LogRecord::End => break,
                LogRecord::Torn => {
                    torn = true;
                    break;
                }
                LogRecord::Committed { writes, .. } => {
                    off += 2 + writes.len() as u64;
                    expected += 1;
                    replay.push(writes);
                }
            }
        }

        if replay.is_empty() {
            return Ok(if torn {
                RecoveryOutcome::DiscardedTorn
            } else {
                RecoveryOutcome::Clean
            });
        }

        // Replay in sequence order, then retire the whole run.
        let mut blocks_replayed = 0;
        for (blkno, data) in replay.iter().flatten() {
            dev.write_block(*blkno, data)?;
            blocks_replayed += 1;
        }
        dev.flush()?;
        Self::write_jsb(dev, start, expected, off)?;
        dev.flush()?;
        Ok(RecoveryOutcome::Replayed {
            blocks: blocks_replayed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_ksim::block::{CrashDevice, RamDisk, BLOCK_SIZE};
    use sk_ksim::buffer::{BhFlag, BufferCache};

    const JSTART: u64 = 56;
    const JBLOCKS: u64 = 8;

    fn fresh() -> (Arc<dyn BlockDevice>, Journal) {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(64));
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();
        (dev, j)
    }

    fn img(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    /// A cache to publish into: journal tests only need its pins.
    fn pin_cache() -> BufferCache {
        BufferCache::new(Arc::new(RamDisk::new(64)), 16)
    }

    /// Publishes `img(fill)` into `cache`'s buffer for `blkno`.
    fn pin(cache: &BufferCache, blkno: u64, fill: u8) -> DelayPin {
        cache.getblk(blkno).unwrap().publish(&img(fill))
    }

    #[test]
    fn commit_then_checkpoint_writes_home_blocks() {
        let (dev, j) = fresh();
        j.commit(&[(3, img(7)), (5, img(9))]).unwrap();
        // Checkpoint is deferred: commit only made the journal durable.
        assert_eq!(j.pending_checkpoints(), 1);
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 0, "home write deferred until checkpoint");
        assert_eq!(j.checkpoint_all().unwrap(), 1);
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 7);
        dev.read_block(5, &mut out).unwrap();
        assert_eq!(out[0], 9);
        assert_eq!(j.seq(), 2);
        assert_eq!(j.stats().commits, 1);
        assert_eq!(j.stats().batches, 1);
        assert_eq!(j.pending_checkpoints(), 0);
    }

    #[test]
    fn log_rewind_never_holds_space_lock_across_device_io() {
        // Regression for a real lockdep finding: the fully-drained rewind
        // in write_batch used to write the journal superblock (and flush)
        // while still holding `journal.space`. Reverting the unlocked()
        // window re-flags HeldAcrossIo here.
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(64));
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open_with_registry(Arc::clone(&dev), JSTART, JBLOCKS, LockRegistry::new())
            .unwrap();
        // Area is 7; a 1-payload record takes 3. Two records leave
        // head_off = 6; after a full drain the third must rewind.
        j.commit(&[(3, img(1))]).unwrap();
        j.commit(&[(4, img(2))]).unwrap();
        j.checkpoint_all().unwrap();
        j.commit(&[(5, img(3))]).unwrap();
        // 3 record barriers + 2 checkpoint barriers + 1 rewind barrier:
        // proves the rewind branch actually executed.
        assert_eq!(j.stats().barriers, 6);
        assert!(
            j.lock_registry().violations().is_empty(),
            "journal hot path must be lockdep-clean: {:?}",
            j.lock_registry().violations()
        );
    }

    #[test]
    fn duplicate_blocks_last_wins() {
        let (dev, j) = fresh();
        j.commit(&[(3, img(1)), (3, img(2))]).unwrap();
        j.checkpoint_all().unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 2);
        assert_eq!(j.stats().blocks_journaled, 1);
    }

    #[test]
    fn oversize_and_misdirected_transactions_rejected() {
        let (_, j) = fresh();
        let too_many: Vec<(u64, Vec<u8>)> = (0..6).map(|i| (i, img(1))).collect();
        assert_eq!(j.commit(&too_many), Err(Errno::ENOSPC));
        assert_eq!(j.commit(&[(JSTART + 1, img(1))]), Err(Errno::EINVAL));
        assert_eq!(j.commit(&[(1, vec![0u8; 10])]), Err(Errno::EINVAL));
        assert!(j.commit(&[]).is_ok(), "empty commit is a no-op");
    }

    #[test]
    fn log_fills_then_forces_checkpoint_and_wraps() {
        // Area is 7 blocks; each 1-payload record takes 3. Two fit; the
        // third forces a drain and rewinds to offset 0.
        let (dev, j) = fresh();
        for i in 0..5u64 {
            j.commit(&[(3 + i, img(10 + i as u8))]).unwrap();
        }
        assert!(j.stats().forced_checkpoints >= 1, "log pressure drained");
        j.checkpoint_all().unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        for i in 0..5u64 {
            dev.read_block(3 + i, &mut out).unwrap();
            assert_eq!(out[0], 10 + i as u8, "commit {i} reached home");
        }
        // After a full drain the journal is clean.
        assert_eq!(
            Journal::recover(&dev, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Clean
        );
    }

    #[test]
    fn recovery_replays_multiple_txns_in_sequence_order() {
        let (dev, j) = fresh();
        // Two committed, un-checkpointed txns touching the same block:
        // replay must apply seq 1 then seq 2, ending on the newer image.
        j.commit(&[(3, img(1)), (4, img(7))]).unwrap();
        j.commit(&[(3, img(2))]).unwrap();
        assert_eq!(j.pending_checkpoints(), 2);
        drop(j);
        let outcome = Journal::recover(&dev, JSTART, JBLOCKS).unwrap();
        assert_eq!(outcome, RecoveryOutcome::Replayed { blocks: 3 });
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 2, "later txn wins after ordered replay");
        dev.read_block(4, &mut out).unwrap();
        assert_eq!(out[0], 7);
        // Idempotent.
        assert_eq!(
            Journal::recover(&dev, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Clean
        );
    }

    /// Regression for the checkpoint TOCTOU: a partial drain must never
    /// write an image home when a newer committed image for the same
    /// block sits in a later, still-pending transaction — neither the
    /// running system nor a crash right after the partial drain may
    /// observe the older image winning.
    #[test]
    fn partial_checkpoint_skips_blocks_with_newer_committed_images() {
        let (dev, j) = fresh();
        j.commit(&[(3, img(1))]).unwrap(); // seq 1
        j.commit(&[(3, img(2)), (4, img(9))]).unwrap(); // seq 2: newer image of 3
        assert_eq!(j.checkpoint(1).unwrap(), 1);
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(
            out[0], 0,
            "home write skipped: seq 2 holds the newer committed image"
        );
        // A crash here recovers from the advanced tail and replays seq 2.
        let outcome = Journal::recover(&dev, JSTART, JBLOCKS).unwrap();
        assert_eq!(outcome, RecoveryOutcome::Replayed { blocks: 2 });
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 2, "recovery lands on the newest committed image");
        dev.read_block(4, &mut out).unwrap();
        assert_eq!(out[0], 9);
    }

    /// Without a crash, the rest of the drain delivers the newer image.
    #[test]
    fn full_drain_after_partial_checkpoint_writes_newest_image() {
        let (dev, j) = fresh();
        j.commit(&[(3, img(1))]).unwrap();
        j.commit(&[(3, img(2)), (4, img(9))]).unwrap();
        assert_eq!(j.checkpoint(1).unwrap(), 1);
        assert_eq!(j.checkpoint_all().unwrap(), 1);
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 2);
        assert_eq!(j.pending_checkpoints(), 0);
        assert_eq!(
            Journal::recover(&dev, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Clean
        );
    }

    /// The checkpoint's snapshot shares the registered records instead of
    /// copying them: every entry is the very allocation `Space.txns`
    /// still holds, overlapping blocks and all.
    #[test]
    fn checkpoint_snapshot_shares_records_by_reference() {
        let (_, j) = fresh();
        j.commit(&[(3, img(1))]).unwrap();
        j.commit(&[(3, img(2)), (4, img(9))]).unwrap();
        let snap = j.pending_records();
        let sp = j.space.lock();
        assert_eq!(snap.len(), 2);
        assert_eq!(sp.txns.len(), 2);
        for (shared, registered) in snap.iter().zip(sp.txns.iter()) {
            assert!(Arc::ptr_eq(shared, registered), "seq {}", shared.seq);
        }
        assert_eq!(snap[1].writes[0].1[0], 2, "the newer image of block 3");
    }

    /// The staged-block and log-usage counters, each against a recount.
    fn pressure_counters(j: &Journal) -> (usize, u64) {
        let g = j.group.lock();
        let staged = g.members.iter().map(|m| m.writes.len()).sum();
        assert_eq!(g.staged, staged, "staged counter drifted");
        drop(g);
        let sp = j.space.lock();
        let used = sp.txns.iter().map(|t| t.len).sum();
        assert_eq!(sp.used, used, "log-usage counter drifted");
        (staged, used)
    }

    /// The running pressure counters follow every path that changes what
    /// they count: stage, lead, partial and forced checkpoint, the log
    /// rewind, and the abort that discards the members left staged.
    #[test]
    fn pressure_counters_follow_stage_lead_checkpoint_rewind_and_abort() {
        use sk_ksim::block::{DiskFaultConfig, FaultyDisk};
        let faulty = Arc::new(FaultyDisk::new(
            RamDisk::new(64),
            DiskFaultConfig::default(),
            0,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();
        // Stage: two members, three writes (block 3 twice).
        j.begin_op().stage(vec![(3, img(1))], Vec::new()).unwrap();
        j.begin_op()
            .stage(vec![(3, img(2)), (4, img(2))], Vec::new())
            .unwrap();
        assert_eq!(pressure_counters(&j), (3, 0));
        // Lead: one merged 2-block record of 4 log blocks.
        j.commit_running().unwrap();
        assert_eq!(pressure_counters(&j), (0, 4));
        j.commit(&[(5, img(3))]).unwrap();
        assert_eq!(pressure_counters(&j), (0, 7));
        // Partial checkpoint retires the first record only.
        assert_eq!(j.checkpoint(1).unwrap(), 1);
        assert_eq!(pressure_counters(&j), (0, 3));
        // The log is full to its end: the next record forces a drain and
        // rewinds to offset 0.
        j.commit(&[(6, img(4))]).unwrap();
        assert_eq!(j.stats().forced_checkpoints, 1);
        assert_eq!(j.space.lock().head_off, 3, "rewound");
        assert_eq!(pressure_counters(&j), (0, 3));
        // Abort: the second stage's pressure commit leads a batch of the
        // first member only (both exceed capacity 5); its record write
        // fails and the member left behind is discarded. Both members'
        // pins are gone by the time the abort is visible.
        let cache = pin_cache();
        let pins = vec![pin(&cache, 7, 5), pin(&cache, 8, 5)];
        j.begin_op()
            .stage(vec![(7, img(5)), (8, img(5))], pins)
            .unwrap();
        faulty.fail_nth_write(1);
        let four: Vec<(u64, Vec<u8>)> = (9..13).map(|b| (b, img(6))).collect();
        let pins = (9..13).map(|b| pin(&cache, b, 6)).collect();
        assert_eq!(j.begin_op().stage(four, pins), Err(Errno::EROFS));
        assert!(j.is_aborted());
        assert_eq!(cache.pinned(), 0, "the abort dropped every member's pins");
        // A stage the abort refuses drops its pins before returning.
        let refused = vec![pin(&cache, 13, 7)];
        assert_eq!(
            j.begin_op().stage(vec![(13, img(7))], refused),
            Err(Errno::EROFS)
        );
        assert_eq!(cache.pinned(), 0);
        assert_eq!(pressure_counters(&j), (0, 3));
    }

    /// A record owns its operations' pins until the checkpoint retires
    /// it: a partial drain releases only the drained record's, and a
    /// buffer whose last pin drops is clean (its image is home).
    #[test]
    fn checkpoint_retirement_releases_the_records_pins() {
        let (dev, j) = fresh();
        let cache = pin_cache();
        j.begin_op()
            .commit(vec![(3, img(1))], vec![pin(&cache, 3, 1)])
            .unwrap();
        j.begin_op()
            .commit(vec![(4, img(9))], vec![pin(&cache, 4, 9)])
            .unwrap();
        assert_eq!(cache.pinned(), 2);
        assert_eq!(j.checkpoint(1).unwrap(), 1);
        let (three, four) = (cache.peek(3).unwrap(), cache.peek(4).unwrap());
        assert!(!three.is_pinned() && !three.test_flag(BhFlag::Dirty));
        assert!(four.is_pinned() && four.test_flag(BhFlag::Dirty));
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 1, "retired only after its image reached home");
        j.checkpoint_all().unwrap();
        assert_eq!(cache.pinned(), 0);
        assert!(!four.test_flag(BhFlag::Dirty));
    }

    /// Group commit merges two operations' images of one block into one
    /// record entry, but each operation's pin rides along: the buffer
    /// stays pinned while the record is pending and is released, not
    /// leaked, when it retires.
    #[test]
    fn merged_record_keeps_and_releases_every_members_pin() {
        let (_, j) = fresh();
        let cache = pin_cache();
        j.begin_op()
            .stage(vec![(3, img(1))], vec![pin(&cache, 3, 1)])
            .unwrap();
        j.begin_op()
            .stage(vec![(3, img(2))], vec![pin(&cache, 3, 2)])
            .unwrap();
        j.commit_running().unwrap();
        assert_eq!(j.stats().batches, 1, "one merged record");
        assert!(cache.peek(3).unwrap().is_pinned());
        j.checkpoint_all().unwrap();
        assert_eq!(cache.pinned(), 0);
    }

    #[test]
    fn group_commit_merges_concurrent_committers() {
        use std::sync::Barrier;
        use std::thread;

        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(128));
        Journal::format(&dev, 64, 32).unwrap();
        let j = Arc::new(Journal::open(Arc::clone(&dev), 64, 32).unwrap());
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let mut handles = Vec::new();
        for t in 0..threads as u64 {
            let j = Arc::clone(&j);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                barrier.wait();
                j.commit(&[(t, img(100 + t as u8))]).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = j.stats();
        assert_eq!(s.commits, 8);
        assert!(
            s.batches <= s.commits,
            "batches {} > commits {}",
            s.batches,
            s.commits
        );
        assert_eq!(s.blocks_journaled, 8, "every image journaled once");
        j.checkpoint_all().unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        for t in 0..threads as u64 {
            dev.read_block(t, &mut out).unwrap();
            assert_eq!(out[0], 100 + t as u8, "thread {t}'s commit reached home");
        }
        assert_eq!(
            Journal::recover(&dev, 64, 32).unwrap(),
            RecoveryOutcome::Clean
        );
    }

    #[test]
    fn abandoned_join_does_not_wedge_the_group() {
        let (_, j) = fresh();
        {
            let _handle = j.begin_op(); // dropped without committing
        }
        j.commit(&[(3, img(5))]).unwrap();
        assert_eq!(j.stats().commits, 1);
    }

    #[test]
    fn recovery_clean_on_fresh_journal() {
        let (dev, _) = fresh();
        assert_eq!(
            Journal::recover(&dev, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Clean
        );
    }

    #[test]
    fn crash_before_commit_record_discards() {
        let ram = Arc::new(RamDisk::new(64));
        let crash: Arc<dyn BlockDevice> = Arc::new(CrashDevice::new(Arc::clone(&ram)));
        Journal::format(&crash, JSTART, JBLOCKS).unwrap();
        // A descriptor with the expected sequence but no commit record is
        // a torn transaction and must be discarded.
        let bs = BLOCK_SIZE;
        let record = encode_record(1, &[(3, img(9))], bs);
        crash.write_block(JSTART + 1, &record[..bs]).unwrap();
        crash.flush().unwrap();
        // Home block untouched; recovery must discard the torn txn.
        let ram_dyn: Arc<dyn BlockDevice> = ram;
        let outcome = Journal::recover(&ram_dyn, JSTART, JBLOCKS).unwrap();
        assert_eq!(outcome, RecoveryOutcome::DiscardedTorn);
        let mut out = vec![0u8; bs];
        ram_dyn.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 0, "home never written");
    }

    #[test]
    fn crash_after_commit_before_checkpoint_replays() {
        // Commit leaves the txn in the journal with the checkpoint
        // deferred; crashing now models the pre-checkpoint window.
        let ram = Arc::new(RamDisk::new(64));
        let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
        let crash_dyn: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
        Journal::format(&crash_dyn, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&crash_dyn), JSTART, JBLOCKS).unwrap();
        j.commit(&[(3, img(42))]).unwrap();
        crash.crash();
        crash.recover();
        let ram_dyn: Arc<dyn BlockDevice> = ram;
        let outcome = Journal::recover(&ram_dyn, JSTART, JBLOCKS).unwrap();
        assert_eq!(outcome, RecoveryOutcome::Replayed { blocks: 1 });
        let mut out = vec![0u8; BLOCK_SIZE];
        ram_dyn.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 42, "journal replayed the deferred home write");
        // And recovery is idempotent.
        let outcome2 = Journal::recover(&ram_dyn, JSTART, JBLOCKS).unwrap();
        assert_eq!(outcome2, RecoveryOutcome::Clean);
    }

    /// Regression for the log-gap bug: a failed record write consumes a
    /// sequence number and leaves garbage in the reserved log space, so a
    /// *later* successful commit would sit beyond a gap recovery never
    /// crosses — acknowledged, then lost. The fix is the ext4-style
    /// abort: after a failed record write the journal refuses everything
    /// with `EROFS`. Reverting the abort makes the second commit below
    /// succeed, and the final assertions (commit 20 acknowledged ⇒
    /// commit 20 recovered) fail.
    #[test]
    fn failed_record_write_aborts_the_journal() {
        use sk_ksim::block::{DiskFaultConfig, FaultyDisk};
        let ram = Arc::new(RamDisk::new(64));
        let faulty = Arc::new(FaultyDisk::new(
            Arc::clone(&ram),
            DiskFaultConfig::default(),
            0,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();
        j.commit(&[(3, img(10))]).unwrap();
        // Tear into commit 2's record IO (desc, payload, commit = writes
        // 0..3 from here): the payload write fails.
        faulty.fail_nth_write(1);
        assert_eq!(j.commit(&[(4, img(20))]), Err(Errno::EIO));
        assert!(j.is_aborted());
        // Everything after the gap is refused, not silently lost.
        assert_eq!(j.commit(&[(5, img(30))]), Err(Errno::EROFS));
        assert_eq!(j.checkpoint_all(), Err(Errno::EROFS));
        // Remount-time recovery replays exactly the durable prefix.
        let ram_dyn: Arc<dyn BlockDevice> = ram;
        let outcome = Journal::recover(&ram_dyn, JSTART, JBLOCKS).unwrap();
        assert_eq!(outcome, RecoveryOutcome::Replayed { blocks: 1 });
        let mut out = vec![0u8; BLOCK_SIZE];
        ram_dyn.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 10, "acknowledged commit survived");
        ram_dyn.read_block(4, &mut out).unwrap();
        assert_eq!(out[0], 0, "failed commit never half-applied");
        ram_dyn.read_block(5, &mut out).unwrap();
        assert_eq!(out[0], 0, "refused commit never applied");
    }

    /// The errno contract at the stage/wait seam: every committer whose
    /// batch failed reports the batch's `EIO`, with its pins already
    /// released; a committer joining after the abort, and
    /// `commit_running`, report `EROFS`.
    #[test]
    fn committers_sharing_a_failed_batch_all_get_eio() {
        use sk_ksim::block::{DiskFaultConfig, FaultyDisk};
        let faulty = Arc::new(FaultyDisk::new(
            RamDisk::new(64),
            DiskFaultConfig::default(),
            0,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();
        let cache = pin_cache();
        let older = j.begin_op();
        let younger = j.begin_op();
        faulty.fail_nth_write(1);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                let res = younger.commit(vec![(4, img(2))], vec![pin(&cache, 4, 2)]);
                (res, cache.peek(4).unwrap().is_pinned())
            });
            // The younger committer stages and leads in one hold of the
            // group lock, then waits inside lead() for the older hand-in:
            // once its member is visible, the batch will hold both.
            while j.staged_ops() == 0 {
                std::thread::yield_now();
            }
            let res = older.commit(vec![(3, img(1))], vec![pin(&cache, 3, 1)]);
            assert_eq!(res, Err(Errno::EIO));
            assert!(!cache.peek(3).unwrap().is_pinned(), "released before EIO");
            assert_eq!(leader.join().unwrap(), (Err(Errno::EIO), false));
        });
        assert!(j.is_aborted());
        assert_eq!(j.stats().batches, 0);
        assert_eq!(j.commit(&[(5, img(3))]), Err(Errno::EROFS));
        assert_eq!(j.commit_running(), Err(Errno::EROFS));
    }

    /// A commit whose own staging trips the log-pressure commit is in the
    /// batch that commit writes: a failed record write reports `EIO`.
    #[test]
    fn commit_in_its_own_failed_pressure_batch_gets_eio() {
        use sk_ksim::block::{DiskFaultConfig, FaultyDisk};
        let faulty = Arc::new(FaultyDisk::new(
            RamDisk::new(64),
            DiskFaultConfig::default(),
            0,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();
        // Capacity is 5 (JBLOCKS = 8): four staged blocks plus the
        // commit's fifth fill the record.
        for i in 0..4u64 {
            j.begin_op()
                .stage(vec![(3 + i, img(1))], Vec::new())
                .unwrap();
        }
        faulty.fail_nth_write(1);
        assert_eq!(j.commit(&[(7, img(2))]), Err(Errno::EIO));
        assert_eq!(j.stats().pressure_commits, 1);
        assert!(j.is_aborted());
        assert_eq!(j.commit_running(), Err(Errno::EROFS));
    }

    /// Regression: one descriptor names at most `desc_slots` blocks, so
    /// record capacity must not exceed it even when the log area could
    /// hold more. Uncapped, a 1024-block journal merged 600 staged
    /// blocks into one record and indexed past the descriptor block.
    #[test]
    fn record_capacity_is_capped_by_the_descriptor() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(2048));
        Journal::format(&dev, 1024, 1024).unwrap();
        let j = Journal::open(Arc::clone(&dev), 1024, 1024).unwrap();
        assert_eq!(j.capacity(), desc_slots(BLOCK_SIZE));
        for b in 0..600u64 {
            j.begin_op()
                .stage(vec![(b, img(b as u8))], Vec::new())
                .unwrap();
        }
        j.commit_running().unwrap();
        drop(j);
        assert_eq!(
            Journal::recover(&dev, 1024, 1024).unwrap(),
            RecoveryOutcome::Replayed { blocks: 600 }
        );
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(599, &mut out).unwrap();
        assert_eq!(out[0], 599u64 as u8);
    }

    /// Regression: a descriptor whose count exceeds the descriptor's slots
    /// but still fits the log area is torn, not an index past the block.
    #[test]
    fn overfull_descriptor_count_is_torn() {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(2048));
        Journal::format(&dev, 1024, 1024).unwrap();
        let mut desc = vec![0u8; BLOCK_SIZE];
        desc[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        desc[4..12].copy_from_slice(&1u64.to_le_bytes());
        desc[12..16].copy_from_slice(&600u32.to_le_bytes());
        dev.write_block(1024 + 1, &desc).unwrap();
        assert_eq!(
            Journal::recover(&dev, 1024, 1024).unwrap(),
            RecoveryOutcome::DiscardedTorn
        );
    }

    /// An `EIO` during checkpoint's home writes must not retire the
    /// transaction, advance the tail, or release its pins — the
    /// checkpoint is simply retryable, and a crash in between still
    /// replays from the unchanged tail.
    #[test]
    fn eio_during_checkpoint_retires_nothing_and_retries() {
        use sk_ksim::block::{DiskFaultConfig, FaultyDisk};
        let ram = Arc::new(RamDisk::new(64));
        let faulty = Arc::new(FaultyDisk::new(
            Arc::clone(&ram),
            DiskFaultConfig::default(),
            0,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();
        let cache = pin_cache();
        j.begin_op()
            .commit(vec![(3, img(7))], vec![pin(&cache, 3, 7)])
            .unwrap();
        faulty.fail_nth_write(0); // the home write of block 3
        assert_eq!(j.checkpoint_all(), Err(Errno::EIO));
        assert_eq!(j.pending_checkpoints(), 1, "txn not retired");
        assert_eq!(cache.pinned(), 1, "an EIO checkpoint releases no pin");
        assert!(!j.is_aborted(), "checkpoint EIO is retryable, not fatal");
        // A crash now still replays from the unchanged on-disk tail.
        let check = Arc::new(RamDisk::new(64));
        check.restore(&ram.snapshot()).unwrap();
        let check_dyn: Arc<dyn BlockDevice> = check;
        assert_eq!(
            Journal::recover(&check_dyn, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Replayed { blocks: 1 }
        );
        // And the live journal's retry completes the drain.
        assert_eq!(j.checkpoint_all().unwrap(), 1);
        assert_eq!(cache.pinned(), 0, "the retry releases them all");
        let mut out = vec![0u8; BLOCK_SIZE];
        ram.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 7);
    }

    /// An `EIO` mid-replay surfaces as a reportable error and leaves the
    /// tail untouched, so a retried recovery replays the same run.
    #[test]
    fn eio_during_recovery_is_reportable_and_retryable() {
        use sk_ksim::block::{DiskFaultConfig, FaultyDisk};
        let ram = Arc::new(RamDisk::new(64));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();
        j.commit(&[(3, img(42)), (5, img(43))]).unwrap();
        drop(j);
        let faulty = Arc::new(FaultyDisk::new(
            Arc::clone(&ram),
            DiskFaultConfig::default(),
            0,
        ));
        let fdyn: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        // Fail the second home write of the replay.
        faulty.fail_nth_write(1);
        assert_eq!(Journal::recover(&fdyn, JSTART, JBLOCKS), Err(Errno::EIO));
        // Retry heals: the tail never advanced past the failed replay.
        assert_eq!(
            Journal::recover(&fdyn, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Replayed { blocks: 2 }
        );
        let mut out = vec![0u8; BLOCK_SIZE];
        ram.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 42);
        ram.read_block(5, &mut out).unwrap();
        assert_eq!(out[0], 43);
        assert_eq!(
            Journal::recover(&fdyn, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Clean
        );
    }

    /// The commit record's meaningful bytes (magic, seq, checksum) all sit
    /// in sector 0 and the descriptor's claimed checksum sits in the LAST
    /// sector, so a sector-torn record write can never produce a
    /// descriptor/commit pair that validates: torn-write enumeration over
    /// a whole commit must always recover old-or-new, never a mix.
    #[test]
    fn torn_record_writes_never_replay_partially() {
        use sk_core::spec::crash::{barrier_images, CrashPolicy};

        let ram = Arc::new(RamDisk::new(64));
        let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
        let crash_dyn: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
        Journal::format(&crash_dyn, JSTART, JBLOCKS).unwrap();
        crash_dyn.write_block(3, &img(1)).unwrap();
        crash_dyn.write_block(5, &img(2)).unwrap();
        crash_dyn.flush().unwrap();
        let base = ram.snapshot();
        crash.take_barriers();

        let j = Journal::open(Arc::clone(&crash_dyn), JSTART, JBLOCKS).unwrap();
        j.commit(&[(3, img(11)), (5, img(12))]).unwrap();
        j.checkpoint_all().unwrap();

        let barriers = crash.take_barriers();
        let mut checked = 0;
        for (_, _, image) in barrier_images(&base, &barriers, BLOCK_SIZE, CrashPolicy::Torn) {
            let scratch = Arc::new(RamDisk::new(64));
            scratch.restore(&image).unwrap();
            let scratch_dyn: Arc<dyn BlockDevice> = scratch;
            Journal::recover(&scratch_dyn, JSTART, JBLOCKS).unwrap();
            let mut b3 = vec![0u8; BLOCK_SIZE];
            let mut b5 = vec![0u8; BLOCK_SIZE];
            scratch_dyn.read_block(3, &mut b3).unwrap();
            scratch_dyn.read_block(5, &mut b5).unwrap();
            let old = b3[0] == 1 && b5[0] == 2;
            let new = b3[0] == 11 && b5[0] == 12;
            assert!(
                old || new,
                "torn image {checked}: b3={} b5={}",
                b3[0],
                b5[0]
            );
            checked += 1;
        }
        assert!(checked > 30, "checked {checked} torn images");
    }

    #[test]
    fn corrupted_payload_checksum_discards() {
        let ram = Arc::new(RamDisk::new(64));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
        Journal::format(&dev, JSTART, JBLOCKS).unwrap();
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();
        j.commit(&[(3, img(42))]).unwrap();
        // The txn awaits checkpoint; corrupt its journaled payload.
        let mut payload = vec![0u8; BLOCK_SIZE];
        ram.read_block(JSTART + 2, &mut payload).unwrap();
        payload[100] ^= 0xFF;
        ram.write_block(JSTART + 2, &payload).unwrap();
        let outcome = Journal::recover(&dev, JSTART, JBLOCKS).unwrap();
        assert_eq!(outcome, RecoveryOutcome::DiscardedTorn);
    }

    /// Pins the record checksum: lane construction, header padding,
    /// and the fold. The values come from an independent Python model of
    /// the construction, not from this code.
    #[test]
    fn record_checksum_known_answer() {
        let pattern = |mul: usize, add: usize| -> Vec<u8> {
            (0..BLOCK_SIZE)
                .map(|i| ((i * mul + add) & 0xff) as u8)
                .collect()
        };
        assert_eq!(
            record_checksum(
                0x0123_4567_89ab_cdef,
                &[(3, pattern(7, 1)), (1000, pattern(13, 5))]
            ),
            0x9542_8e6d_a3d0_3d1d
        );
        assert_eq!(record_checksum(1, &[(7, img(0))]), 0xcf56_31e6_4bde_77ee);
        assert_eq!(
            record_checksum(42, &[(5, b"abcde".to_vec())]),
            0xf054_f252_eb72_20b6
        );
    }

    /// The two 512-byte home-block images of [`two_block_record`].
    fn two_block_writes() -> Vec<(u64, Vec<u8>)> {
        (0..2u64)
            .map(|b| (3 + b, (0..512).map(|i| (i as u64 * 31 + b) as u8).collect()))
            .collect()
    }

    /// Writes a 2-block record (seq 9) at log offset 0 of a
    /// 512-byte-block journal and returns the device and the record's
    /// first block.
    fn two_block_record() -> (Arc<RamDisk>, u64) {
        use sk_ksim::time::SimClock;
        let bs = 512;
        let ram = Arc::new(RamDisk::with_geometry(64, bs, Arc::new(SimClock::new())));
        let record = encode_record(9, &two_block_writes(), bs);
        for (i, block) in record.chunks_exact(bs).enumerate() {
            ram.write_block(JSTART + 1 + i as u64, block).unwrap();
        }
        (ram, JSTART + 1)
    }

    /// Flips each `(block, bit)`, reads the record back, and restores the
    /// blocks; true if the record read back torn.
    fn flips_read_torn(ram: &RamDisk, flips: &[(u64, usize)]) -> bool {
        let toggle = || {
            for &(blk, bit) in flips {
                let mut buf = vec![0u8; ram.block_size()];
                ram.read_block(blk, &mut buf).unwrap();
                buf[bit / 8] ^= 1 << (bit % 8);
                ram.write_block(blk, &buf).unwrap();
            }
        };
        toggle();
        let torn = matches!(
            read_record(ram, JSTART, JBLOCKS, 0, |_| true),
            Ok(LogRecord::Torn)
        );
        toggle();
        torn
    }

    #[test]
    fn every_single_bit_flip_in_a_record_reads_torn() {
        let (ram, desc) = two_block_record();
        let commit = desc + 3;
        assert!(matches!(
            read_record(ram.as_ref(), JSTART, JBLOCKS, 0, |_| true),
            Ok(LogRecord::Committed { seq: 9, .. })
        ));
        // A seq flip in the descriptor alone fails the commit block's seq
        // compare; flipped in both, only the checksum can catch it.
        for bit in 4 * 8..12 * 8 {
            assert!(flips_read_torn(&ram, &[(desc, bit)]), "seq bit {bit}");
            assert!(
                flips_read_torn(&ram, &[(desc, bit), (commit, bit)]),
                "seq bit {bit} in both blocks"
            );
        }
        for bit in 16 * 8..32 * 8 {
            assert!(flips_read_torn(&ram, &[(desc, bit)]), "blkno bit {bit}");
        }
        for blk in [desc + 1, desc + 2] {
            for bit in 0..ram.block_size() * 8 {
                assert!(
                    flips_read_torn(&ram, &[(blk, bit)]),
                    "block {blk} bit {bit}"
                );
            }
        }
    }

    /// A high blkno bit flipped on the device already fails the
    /// inside-the-journal check, so the checksum's own cover of every
    /// seq and blkno bit is checked on the function.
    #[test]
    fn record_checksum_covers_every_seq_and_blkno_bit() {
        let writes = two_block_writes();
        let want = record_checksum(9, &writes);
        for bit in 0..64 {
            assert_ne!(
                record_checksum(9 ^ (1 << bit), &writes),
                want,
                "seq bit {bit}"
            );
            for i in 0..writes.len() {
                let mut w = writes.clone();
                w[i].0 ^= 1 << bit;
                assert_ne!(record_checksum(9, &w), want, "blkno {i} bit {bit}");
            }
        }
    }

    /// Bit 63 of payload words 0 and 8 both feed lane 0; a bare
    /// xor-then-multiply lane step would let the second flip cancel the
    /// first (see `sk_ksim::lanehash`).
    #[test]
    fn top_bit_flips_one_lane_round_apart_read_torn() {
        let (ram, desc) = two_block_record();
        for (first, second) in [(0, 8), (5, 13), (55, 63)] {
            assert!(
                flips_read_torn(
                    &ram,
                    &[(desc + 1, first * 64 + 63), (desc + 1, second * 64 + 63)]
                ),
                "words {first} and {second}"
            );
        }
    }

    #[test]
    fn exhaustive_prefix_crash_check() {
        // The flagship property: for EVERY prefix of the device-write
        // sequence of a commit + checkpoint, recovery yields either the
        // old or the new contents of the home blocks — never a mix.
        use sk_core::spec::crash::{barrier_images, CrashPolicy};

        let ram = Arc::new(RamDisk::new(64));
        let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
        let crash_dyn: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
        Journal::format(&crash_dyn, JSTART, JBLOCKS).unwrap();
        // Old contents: block 3 = 1, block 5 = 2 (flushed).
        crash_dyn.write_block(3, &img(1)).unwrap();
        crash_dyn.write_block(5, &img(2)).unwrap();
        crash_dyn.flush().unwrap();
        let base = ram.snapshot();
        crash.take_barriers();

        let j = Journal::open(Arc::clone(&crash_dyn), JSTART, JBLOCKS).unwrap();
        j.commit(&[(3, img(11)), (5, img(12))]).unwrap();
        j.checkpoint_all().unwrap();

        // Crash points between barriers are prefixes of each interval
        // over all fully-applied earlier intervals.
        let barriers = crash.take_barriers();
        let mut checked = 0;
        for (_, _, image) in barrier_images(&base, &barriers, BLOCK_SIZE, CrashPolicy::Prefixes) {
            // Recover this crash image on a scratch device.
            let scratch = Arc::new(RamDisk::new(64));
            scratch.restore(&image).unwrap();
            let scratch_dyn: Arc<dyn BlockDevice> = scratch;
            Journal::recover(&scratch_dyn, JSTART, JBLOCKS).unwrap();
            let mut b3 = vec![0u8; BLOCK_SIZE];
            let mut b5 = vec![0u8; BLOCK_SIZE];
            scratch_dyn.read_block(3, &mut b3).unwrap();
            scratch_dyn.read_block(5, &mut b5).unwrap();
            let old = b3[0] == 1 && b5[0] == 2;
            let new = b3[0] == 11 && b5[0] == 12;
            assert!(
                old || new,
                "crash image {checked}: torn state b3={} b5={}",
                b3[0],
                b5[0]
            );
            checked += 1;
        }
        assert!(checked >= 8, "checked {checked} crash points");
    }

    #[test]
    fn staged_ops_are_not_durable_until_commit_running() {
        let (dev, j) = fresh();
        j.begin_op().stage(vec![(3, img(7))], Vec::new()).unwrap();
        j.begin_op().stage(vec![(4, img(8))], Vec::new()).unwrap();
        assert_eq!(j.staged_ops(), 2);
        assert_eq!(j.stats().stages, 2);
        assert_eq!(j.stats().batches, 0, "no record written while staged");
        assert_eq!(j.stats().barriers, 0, "no flush barrier on the op path");

        // The fsync/sync durability point: one record, one barrier, for
        // both staged operations.
        j.commit_running().unwrap();
        assert_eq!(j.staged_ops(), 0);
        assert_eq!(j.stats().batches, 1);
        assert_eq!(j.stats().blocks_journaled, 2);
        assert_eq!(j.pending_checkpoints(), 1);
        j.checkpoint_all().unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 7);
        dev.read_block(4, &mut out).unwrap();
        assert_eq!(out[0], 8);
        // Nothing staged: the timer tick is a free no-op.
        let barriers = j.stats().barriers;
        j.commit_running().unwrap();
        assert_eq!(j.stats().barriers, barriers);
    }

    #[test]
    fn staged_and_sync_members_merge_into_one_batch() {
        let (_, j) = fresh();
        j.begin_op().stage(vec![(3, img(1))], Vec::new()).unwrap();
        // A sync commit arriving while ops are staged leads the batch and
        // carries the staged members with it — exactly the fsync path.
        j.commit(&[(4, img(2))]).unwrap();
        assert_eq!(j.staged_ops(), 0, "stage rode the sync commit's batch");
        assert_eq!(j.stats().batches, 1);
        assert_eq!(j.stats().blocks_journaled, 2);
    }

    #[test]
    fn log_pressure_commits_the_running_transaction() {
        // Capacity is 5 payload blocks (JBLOCKS=8): staging 5 distinct
        // blocks must trip the pressure commit without any explicit
        // commit_running call.
        let (_, j) = fresh();
        for i in 0..5u64 {
            j.begin_op()
                .stage(vec![(3 + i, img(i as u8))], Vec::new())
                .unwrap();
        }
        assert_eq!(j.staged_ops(), 0, "pressure drained the running txn");
        assert_eq!(j.stats().pressure_commits, 1);
        assert!(j.stats().batches >= 1);
        // Validation failures surface at stage time, before publication.
        assert_eq!(
            j.begin_op().stage(vec![(1, vec![0u8; 10])], Vec::new()),
            Err(Errno::EINVAL)
        );
        assert_eq!(j.staged_ops(), 0);
    }

    #[test]
    fn log_pressure_threshold_math() {
        // JBLOCKS = 8: record capacity 5 payload blocks, log area 7.
        let (_, j) = fresh();
        assert_eq!(j.log_pressure(), 0.0);
        // Each staged block adds exactly 1/capacity to the reading.
        for i in 0..4u64 {
            j.begin_op()
                .stage(vec![(3 + i, img(i as u8))], Vec::new())
                .unwrap();
            let want = (i + 1) as f32 / 5.0;
            assert!(
                (j.log_pressure() - want).abs() < 1e-6,
                "after {} stages: {} != {}",
                i + 1,
                j.log_pressure(),
                want
            );
        }
        assert_eq!(j.stats().pressure_commits, 0, "below 1.0 nothing commits");
        // The fifth distinct block takes the staged fraction to 1.0 —
        // the same expression the stage path checks, so the pressure
        // commit fires on exactly the stage that would have pushed the
        // reading to its ceiling.
        j.begin_op().stage(vec![(7, img(9))], Vec::new()).unwrap();
        assert_eq!(j.stats().pressure_commits, 1);
        assert_eq!(j.staged_ops(), 0);
        // Post-commit the reading is the area term: one record of
        // descriptor + 5 payload + commit = 7 blocks over the 7-block
        // area, i.e. 1.0 until the checkpoint retires it.
        assert!((j.log_pressure() - 1.0).abs() < 1e-6);
        j.checkpoint_all().unwrap();
        assert_eq!(j.log_pressure(), 0.0);
    }

    #[test]
    fn staged_ops_survive_a_crash_only_after_commit_running() {
        let base = {
            let ram = Arc::new(RamDisk::new(64));
            let dyn_dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as _;
            Journal::format(&dyn_dev, JSTART, JBLOCKS).unwrap();
            ram.snapshot()
        };
        let ram = Arc::new(RamDisk::new(64));
        ram.restore(&base).unwrap();
        let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as _;
        let j = Journal::open(Arc::clone(&dev), JSTART, JBLOCKS).unwrap();

        j.begin_op().stage(vec![(3, img(7))], Vec::new()).unwrap();
        // Crash before the durability point: the staged op vanishes.
        let img_lost =
            sk_core::spec::crash::apply_barriers(&base, &[crash.pending_writes()], BLOCK_SIZE);
        let scratch = Arc::new(RamDisk::new(64));
        scratch.restore(&img_lost).unwrap();
        let scratch_dyn: Arc<dyn BlockDevice> = scratch;
        assert_eq!(
            Journal::recover(&scratch_dyn, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Clean,
            "un-committed staging must leave no replayable record"
        );

        // After commit_running the same crash replays the op: the flush
        // barrier drained the volatile cache into the backing RamDisk.
        j.commit_running().unwrap();
        let durable = ram.snapshot();
        let scratch = Arc::new(RamDisk::new(64));
        scratch.restore(&durable).unwrap();
        let scratch_dyn: Arc<dyn BlockDevice> = scratch;
        assert_eq!(
            Journal::recover(&scratch_dyn, JSTART, JBLOCKS).unwrap(),
            RecoveryOutcome::Replayed { blocks: 1 }
        );
        let mut out = vec![0u8; BLOCK_SIZE];
        scratch_dyn.read_block(3, &mut out).unwrap();
        assert_eq!(out[0], 7);
    }

    #[test]
    fn checkpoint_coalesces_ascending_contiguous_home_runs() {
        let (dev, j) = fresh();
        // Blocks 3,4,5 are one ascending run; block 9 stands alone.
        j.commit(&[(3, img(1)), (4, img(2)), (5, img(3)), (9, img(4))])
            .unwrap();
        let vec_before = dev.stats().vec_ios;
        j.checkpoint_all().unwrap();
        assert_eq!(j.stats().coalesced_runs, 1, "3..=5 coalesced, 9 alone");
        // Exactly one vectored extent for the 3..=5 run; 9 and the
        // superblock tail stay plain single-block writes.
        assert_eq!(dev.stats().vec_ios - vec_before, 1);
        let mut out = vec![0u8; BLOCK_SIZE];
        for (blkno, fill) in [(3u64, 1u8), (4, 2), (5, 3), (9, 4)] {
            dev.read_block(blkno, &mut out).unwrap();
            assert_eq!(out[0], fill, "home block {blkno}");
        }
    }
}
