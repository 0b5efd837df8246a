//! Offline consistency checking (fsck) for the rsfs on-disk format.
//!
//! The paper's Step 4 argues that a specification is the prerequisite for
//! trusting an implementation. The journal's crash spec covers *dynamic*
//! behaviour; this module is the *static* half: the well-formedness
//! invariant of an rsfs disk image, written as a total checker:
//!
//! - **I1** superblock is parseable and internally consistent;
//! - **I2** every block referenced by a live inode (direct, indirect, and
//!   indirect-pointed) is marked allocated in the block bitmap;
//! - **I3** no data block is referenced by two different owners;
//! - **I4** every inode marked live in the inode bitmap has a live mode in
//!   the table, and vice versa;
//! - **I5** every directory entry points to a live inode;
//! - **I6** every file's size fits within its allocated blocks;
//! - **I7** every live non-root inode is reachable from the root;
//! - **I8** the journal superblock parses, and no fully committed journal
//!   record is stranded beyond a tear in the descriptor chain (the walk is
//!   strictly bounded — a corrupt record's count can never make it loop).
//!
//! The crash-recovery test suite runs fsck over every recovered image, so
//! "recovers to an allowed model" is complemented by "recovers to a
//! well-formed tree".

use std::collections::{HashMap, HashSet, VecDeque};

use sk_ksim::block::BlockDevice;
use sk_ksim::errno::KResult;

use crate::journal::{read_record, LogRecord, JSB_MAGIC};
use crate::layout::{
    dirent_parse, DiskInode, Superblock, BLOCK_BITMAP, INODES_PER_BLOCK, INODE_BITMAP, INODE_SIZE,
    INODE_TABLE, MAX_FILE_SIZE, MODE_DIR, MODE_FREE, NDIRECT, NINDIRECT, ROOT_INO, SB_BLOCK,
};

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// I1: the superblock failed to parse or is inconsistent.
    BadSuperblock(String),
    /// I2: a referenced block is not marked allocated.
    UnallocatedBlockReferenced {
        /// Owning inode.
        ino: u64,
        /// The referenced block.
        blkno: u64,
    },
    /// I3: two owners reference the same block.
    DoublyReferencedBlock {
        /// The block in question.
        blkno: u64,
        /// First owner.
        first: u64,
        /// Second owner.
        second: u64,
    },
    /// I4: inode bitmap and table disagree.
    BitmapTableMismatch {
        /// The inode number.
        ino: u64,
        /// True if the bitmap says live but the table says free.
        bitmap_live: bool,
    },
    /// I5: a directory entry names a dead inode.
    DanglingDirent {
        /// The directory inode.
        dir: u64,
        /// The entry's name.
        name: String,
        /// The dead target.
        target: u64,
    },
    /// I5 (form): a directory's content failed to parse.
    CorruptDirectory {
        /// The directory inode.
        dir: u64,
    },
    /// I6: a file's size exceeds its allocation.
    SizeBeyondAllocation {
        /// The inode.
        ino: u64,
        /// Recorded size.
        size: u64,
    },
    /// I7: a live inode is unreachable from the root.
    Orphan {
        /// The unreachable inode.
        ino: u64,
    },
    /// I8: the journal superblock failed to parse or points outside the
    /// log area.
    BadJournalSuperblock(String),
    /// I8: the journal's descriptor chain is torn *with committed data
    /// beyond the tear* — a fully committed record sits past a gap the
    /// recovery walk can never cross, so it would be silently dropped.
    /// (A torn record with nothing valid beyond it is normal crash
    /// residue, not a finding: recovery discards it by design.)
    TornJournal {
        /// The sequence number recovery would expect at the tear.
        expected_seq: u64,
        /// Offset of the tear in the log area.
        off: u64,
    },
}

/// fsck result.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Everything found, in scan order.
    pub findings: Vec<Finding>,
    /// Live inodes scanned.
    pub inodes_checked: u64,
    /// Blocks accounted to owners.
    pub blocks_checked: u64,
}

impl FsckReport {
    /// True if the image satisfies the invariant.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn bit(bitmap: &[u8], i: u64) -> bool {
    bitmap[(i / 8) as usize] & (1 << (i % 8)) != 0
}

/// Runs the checker over a device holding an rsfs image.
pub fn fsck(dev: &dyn BlockDevice) -> KResult<FsckReport> {
    let mut report = FsckReport::default();
    let bs = dev.block_size();
    let mut blk = vec![0u8; bs];

    // I1: superblock.
    dev.read_block(SB_BLOCK, &mut blk)?;
    let sb = match Superblock::decode(&blk) {
        Ok(sb) => sb,
        Err(e) => {
            report.findings.push(Finding::BadSuperblock(format!("{e}")));
            return Ok(report);
        }
    };

    let mut block_bitmap = vec![0u8; bs];
    dev.read_block(BLOCK_BITMAP, &mut block_bitmap)?;
    let mut inode_bitmap = vec![0u8; bs];
    dev.read_block(INODE_BITMAP, &mut inode_bitmap)?;

    // Load the inode table.
    let mut inodes: HashMap<u64, DiskInode> = HashMap::new();
    let table_blocks = (sb.inode_count as usize).div_ceil(INODES_PER_BLOCK) as u64;
    for t in 0..table_blocks {
        dev.read_block(INODE_TABLE + t, &mut blk)?;
        for s in 0..INODES_PER_BLOCK {
            let ino = t * INODES_PER_BLOCK as u64 + s as u64;
            if ino == 0 || ino >= u64::from(sb.inode_count) {
                continue;
            }
            if let Ok(di) = DiskInode::decode(&blk[s * INODE_SIZE..(s + 1) * INODE_SIZE]) {
                inodes.insert(ino, di);
            }
        }
    }

    // I4: bitmap/table agreement.
    for ino in 2..u64::from(sb.inode_count) {
        let live_bitmap = bit(&inode_bitmap, ino);
        let live_table = inodes
            .get(&ino)
            .map(|d| d.mode != MODE_FREE)
            .unwrap_or(false);
        if live_bitmap != live_table {
            report.findings.push(Finding::BitmapTableMismatch {
                ino,
                bitmap_live: live_bitmap,
            });
        }
    }

    // Walk live inodes: block ownership (I2, I3, I6).
    let mut owner: HashMap<u64, u64> = HashMap::new();
    let mut claim = |blkno: u64, ino: u64, report: &mut FsckReport| {
        if blkno == 0 {
            return;
        }
        report.blocks_checked += 1;
        // A pointer past the file system is unallocated by definition;
        // checking it first keeps a corrupt pointer out of the bitmap.
        if blkno >= u64::from(sb.total_blocks) || !bit(&block_bitmap, blkno) {
            report
                .findings
                .push(Finding::UnallocatedBlockReferenced { ino, blkno });
        }
        if let Some(&first) = owner.get(&blkno) {
            report.findings.push(Finding::DoublyReferencedBlock {
                blkno,
                first,
                second: ino,
            });
        } else {
            owner.insert(blkno, ino);
        }
    };

    for (&ino, di) in &inodes {
        if di.mode == MODE_FREE {
            continue;
        }
        report.inodes_checked += 1;
        for d in di.direct {
            claim(u64::from(d), ino, &mut report);
        }
        if di.indirect != 0 {
            claim(u64::from(di.indirect), ino, &mut report);
            dev.read_block(u64::from(di.indirect), &mut blk)?;
            for i in 0..NINDIRECT {
                let e = u32::from_le_bytes(blk[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
                claim(u64::from(e), ino, &mut report);
            }
        }
        // I6: holes are legal, so the checkable bound is the format
        // maximum (nine direct + one single-indirect block's worth).
        if di.size > MAX_FILE_SIZE {
            report
                .findings
                .push(Finding::SizeBeyondAllocation { ino, size: di.size });
        }
    }

    // I5 + I7: walk the tree from the root.
    let mut reachable: HashSet<u64> = HashSet::new();
    let mut queue = VecDeque::new();
    queue.push_back(ROOT_INO);
    reachable.insert(ROOT_INO);
    while let Some(dir) = queue.pop_front() {
        let Some(di) = inodes.get(&dir) else { continue };
        // A directory larger than the format allows is already an I6
        // finding; its size is not trusted to size the read buffer.
        if di.mode != MODE_DIR || di.size > MAX_FILE_SIZE {
            continue;
        }
        // Read directory content through the raw device.
        let mut content = vec![0u8; di.size as usize];
        let mut read = 0usize;
        let mut fblk = 0usize;
        while read < content.len() {
            let dblk = if fblk < NDIRECT {
                u64::from(di.direct[fblk])
            } else if di.indirect != 0 {
                dev.read_block(u64::from(di.indirect), &mut blk)?;
                let idx = fblk - NDIRECT;
                u64::from(u32::from_le_bytes(
                    blk[idx * 4..idx * 4 + 4].try_into().expect("4 bytes"),
                ))
            } else {
                0
            };
            let n = (content.len() - read).min(bs);
            if dblk != 0 {
                dev.read_block(dblk, &mut blk)?;
                content[read..read + n].copy_from_slice(&blk[..n]);
            }
            read += n;
            fblk += 1;
        }
        match dirent_parse(&content) {
            Ok(entries) => {
                for (target, name) in entries {
                    let live = inodes
                        .get(&target)
                        .map(|d| d.mode != MODE_FREE)
                        .unwrap_or(false);
                    if !live {
                        report
                            .findings
                            .push(Finding::DanglingDirent { dir, name, target });
                    } else if reachable.insert(target) {
                        queue.push_back(target);
                    }
                }
            }
            Err(_) => report.findings.push(Finding::CorruptDirectory { dir }),
        }
    }
    for (&ino, di) in &inodes {
        if di.mode != MODE_FREE && !reachable.contains(&ino) {
            report.findings.push(Finding::Orphan { ino });
        }
    }

    check_journal(dev, &sb, &mut report)?;

    report.findings.sort_by_key(|f| format!("{f:?}"));
    Ok(report)
}

/// Parses the record starting at log offset `off`; returns `Some((seq,
/// count))` only for a *fully committed* record whose sequence is at
/// least `seq_min`.
fn committed_record_at(
    dev: &dyn BlockDevice,
    jstart: u64,
    jblocks: u64,
    off: u64,
    seq_min: u64,
) -> KResult<Option<(u64, u64)>> {
    Ok(
        match read_record(dev, jstart, jblocks, off, |seq| seq >= seq_min)? {
            LogRecord::Committed { seq, writes } => Some((seq, writes.len() as u64)),
            LogRecord::End | LogRecord::Torn => None,
        },
    )
}

/// I8: the journal's descriptor chain. Mirrors the recovery walk but is
/// read-only and *strictly bounded*: along the valid chain each record
/// advances the offset by its full length, and past the first tear the
/// probe advances one block at a time — an adversarial `count` field can
/// make a record invalid, but never make the checker loop or run past
/// the log area. A tear is only a finding when a fully committed record
/// with a later sequence lies beyond it (committed data recovery can
/// never reach); a bare torn tail is the normal residue of a crash
/// mid-commit.
fn check_journal(dev: &dyn BlockDevice, sb: &Superblock, report: &mut FsckReport) -> KResult<()> {
    let jstart = u64::from(sb.journal_start);
    let jblocks = u64::from(sb.journal_blocks);
    if jblocks == 0 {
        report.findings.push(Finding::BadJournalSuperblock(
            "journal region is empty".into(),
        ));
        return Ok(());
    }
    let area = jblocks - 1;
    let bs = dev.block_size();
    let mut jsb = vec![0u8; bs];
    dev.read_block(jstart, &mut jsb)?;
    if u32::from_le_bytes(jsb[0..4].try_into().expect("4 bytes")) != JSB_MAGIC {
        report.findings.push(Finding::BadJournalSuperblock(
            "bad journal superblock magic".into(),
        ));
        return Ok(());
    }
    let tail_seq = u64::from_le_bytes(jsb[4..12].try_into().expect("8 bytes"));
    let tail_off = u64::from_le_bytes(jsb[12..20].try_into().expect("8 bytes"));
    if tail_off > area {
        report.findings.push(Finding::BadJournalSuperblock(format!(
            "journal tail offset {tail_off} beyond log area {area}"
        )));
        return Ok(());
    }

    // Follow the committed chain exactly as recovery would.
    let mut expected = tail_seq;
    let mut off = tail_off;
    while off + 3 <= area {
        match committed_record_at(dev, jstart, jblocks, off, expected)? {
            Some((dseq, count)) if dseq == expected => {
                expected += 1;
                off += 2 + count;
            }
            _ => break,
        }
    }
    // Past the chain's end: any fully committed record with a sequence
    // recovery still expects is unreachable behind the tear.
    let mut probe = off;
    while probe + 3 <= area {
        if let Some((dseq, _)) = committed_record_at(dev, jstart, jblocks, probe, expected)? {
            if dseq >= expected {
                report.findings.push(Finding::TornJournal {
                    expected_seq: expected,
                    off,
                });
                break;
            }
        }
        probe += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MODE_REG;
    use crate::rsfs::{JournalMode, Rsfs};
    use sk_ksim::block::RamDisk;
    use sk_ksim::errno::Errno;
    use sk_vfs::modular::FileSystem;
    use std::sync::Arc;

    fn populated() -> (Arc<RamDisk>, Arc<dyn BlockDevice>) {
        let ram = Arc::new(RamDisk::new(1024));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();
        let root = fs.root_ino();
        let d = fs.mkdir(root, "dir").unwrap();
        let f = fs.create(d, "file").unwrap();
        fs.write(f, 0, &vec![3u8; 10_000]).unwrap();
        fs.create(root, "top").unwrap();
        // fsck reads the raw device: drain the deferred checkpoints so
        // home locations reflect every committed transaction.
        fs.sync().unwrap();
        (ram, dev)
    }

    #[test]
    fn freshly_made_fs_is_clean() {
        let (_ram, dev) = populated();
        let report = fsck(&*dev).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert!(report.inodes_checked >= 4);
        assert!(report.blocks_checked >= 3);
    }

    #[test]
    fn fsck_after_heavy_churn_is_clean() {
        let ram = Arc::new(RamDisk::new(2048));
        let dev: Arc<dyn BlockDevice> = ram;
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();
        let root = fs.root_ino();
        for round in 0..5 {
            for i in 0..20 {
                let f = fs.create(root, &format!("f{i}")).unwrap();
                fs.write(f, 0, &vec![round as u8; 2000 + i * 100]).unwrap();
            }
            for i in 0..20 {
                if i % 2 == 0 {
                    fs.unlink(root, &format!("f{i}")).unwrap();
                } else {
                    fs.rename(root, &format!("f{i}"), root, &format!("g{i}"))
                        .unwrap();
                }
            }
            for i in (1..20).step_by(2) {
                fs.unlink(root, &format!("g{i}")).unwrap();
            }
        }
        fs.sync().unwrap();
        let report = fsck(&*dev).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn detects_bitmap_table_mismatch() {
        let (ram, dev) = populated();
        // Clear a live inode's bitmap bit.
        let mut bm = vec![0u8; 4096];
        ram.read_block(INODE_BITMAP, &mut bm).unwrap();
        bm[0] &= !(1 << 2); // inode 2 is the first allocated after root
        ram.write_block(INODE_BITMAP, &bm).unwrap();
        let report = fsck(&*dev).unwrap();
        assert!(report.findings.iter().any(|f| matches!(
            f,
            Finding::BitmapTableMismatch {
                ino: 2,
                bitmap_live: false
            }
        )));
    }

    #[test]
    fn detects_dangling_dirent() {
        let (ram, dev) = populated();
        // Kill an inode in the table without touching its parent dir.
        let mut tbl = vec![0u8; 4096];
        ram.read_block(INODE_TABLE, &mut tbl).unwrap();
        let victim = 3usize; // "file" or "top"
        tbl[victim * INODE_SIZE..victim * INODE_SIZE + 2].copy_from_slice(&MODE_FREE.to_le_bytes());
        ram.write_block(INODE_TABLE, &tbl).unwrap();
        let report = fsck(&*dev).unwrap();
        assert!(
            report
                .findings
                .iter()
                .any(|f| matches!(f, Finding::DanglingDirent { .. })),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn detects_double_referenced_block() {
        let (ram, dev) = populated();
        // Point two inodes' direct[0] at the same block.
        let mut tbl = vec![0u8; 4096];
        ram.read_block(INODE_TABLE, &mut tbl).unwrap();
        // Find two live regular files and alias their first blocks.
        let mut live: Vec<usize> = Vec::new();
        for s in 2..64 {
            let mode =
                u16::from_le_bytes(tbl[s * INODE_SIZE..s * INODE_SIZE + 2].try_into().unwrap());
            let d0 = u32::from_le_bytes(
                tbl[s * INODE_SIZE + 24..s * INODE_SIZE + 28]
                    .try_into()
                    .unwrap(),
            );
            if mode == MODE_REG && d0 != 0 {
                live.push(s);
            }
        }
        if live.len() < 2 {
            // Ensure a second file with data exists for the scenario.
            drop(dev);
            let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
            let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();
            let f = fs.create(fs.root_ino(), "second").unwrap();
            fs.write(f, 0, b"data").unwrap();
            fs.sync().unwrap();
            ram.read_block(INODE_TABLE, &mut tbl).unwrap();
            live.clear();
            for s in 2..64 {
                let mode =
                    u16::from_le_bytes(tbl[s * INODE_SIZE..s * INODE_SIZE + 2].try_into().unwrap());
                let d0 = u32::from_le_bytes(
                    tbl[s * INODE_SIZE + 24..s * INODE_SIZE + 28]
                        .try_into()
                        .unwrap(),
                );
                if mode == MODE_REG && d0 != 0 {
                    live.push(s);
                }
            }
            let (a, b) = (live[0], live[1]);
            let d0 = tbl[a * INODE_SIZE + 24..a * INODE_SIZE + 28].to_vec();
            tbl[b * INODE_SIZE + 24..b * INODE_SIZE + 28].copy_from_slice(&d0);
            ram.write_block(INODE_TABLE, &tbl).unwrap();
            let report = fsck(&*ram.clone()).unwrap();
            assert!(report
                .findings
                .iter()
                .any(|f| matches!(f, Finding::DoublyReferencedBlock { .. })));
            return;
        }
        let (a, b) = (live[0], live[1]);
        let d0 = tbl[a * INODE_SIZE + 24..a * INODE_SIZE + 28].to_vec();
        tbl[b * INODE_SIZE + 24..b * INODE_SIZE + 28].copy_from_slice(&d0);
        ram.write_block(INODE_TABLE, &tbl).unwrap();
        let report = fsck(&*dev).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::DoublyReferencedBlock { .. })));
    }

    #[test]
    fn detects_unallocated_block_reference() {
        let (ram, dev) = populated();
        // Clear a data block's bitmap bit while a file still points at it.
        let mut tbl = vec![0u8; 4096];
        ram.read_block(INODE_TABLE, &mut tbl).unwrap();
        let mut target = 0u32;
        for s in 2..64 {
            let mode =
                u16::from_le_bytes(tbl[s * INODE_SIZE..s * INODE_SIZE + 2].try_into().unwrap());
            let d0 = u32::from_le_bytes(
                tbl[s * INODE_SIZE + 24..s * INODE_SIZE + 28]
                    .try_into()
                    .unwrap(),
            );
            if mode == MODE_REG && d0 != 0 {
                target = d0;
                break;
            }
        }
        assert_ne!(target, 0);
        let mut bm = vec![0u8; 4096];
        ram.read_block(BLOCK_BITMAP, &mut bm).unwrap();
        bm[(target / 8) as usize] &= !(1 << (target % 8));
        ram.write_block(BLOCK_BITMAP, &bm).unwrap();
        let report = fsck(&*dev).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::UnallocatedBlockReferenced { .. })));
    }

    /// Rewrites inode `name` (a child of the root) on the raw image.
    fn patch_inode(
        ram: &RamDisk,
        dev: &Arc<dyn BlockDevice>,
        name: &str,
        patch: fn(&mut DiskInode),
    ) {
        let ino = {
            let fs = Rsfs::mount(Arc::clone(dev), JournalMode::PerOp).unwrap();
            fs.lookup(fs.root_ino(), name).unwrap()
        };
        let blkno = INODE_TABLE + ino / INODES_PER_BLOCK as u64;
        let slot = (ino as usize % INODES_PER_BLOCK) * INODE_SIZE;
        let mut tbl = vec![0u8; 4096];
        ram.read_block(blkno, &mut tbl).unwrap();
        let mut di = DiskInode::decode(&tbl[slot..slot + INODE_SIZE]).unwrap();
        patch(&mut di);
        di.encode(&mut tbl[slot..slot + INODE_SIZE]);
        ram.write_block(blkno, &tbl).unwrap();
    }

    #[test]
    fn block_pointer_past_the_file_system_is_a_finding_not_a_panic() {
        // A pointer far past `total_blocks` also lies far past the
        // one-block bitmap, so the bitmap must never be indexed with it.
        let (ram, dev) = populated();
        patch_inode(&ram, &dev, "top", |di| di.direct[0] = 1 << 20);
        let report = fsck(&*dev).unwrap();
        assert!(
            report.findings.iter().any(|f| matches!(
                f,
                Finding::UnallocatedBlockReferenced { blkno, .. } if *blkno == 1 << 20
            )),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn oversized_directory_is_refused_not_allocated() {
        // A 1 TiB directory size must size no buffer: fsck reports it
        // (I6) and skips the walk below it, and rsfs refuses to read it.
        let (ram, dev) = populated();
        patch_inode(&ram, &dev, "dir", |di| di.size = 1 << 40);
        let report = fsck(&*dev).unwrap();
        assert!(report.findings.iter().any(|f| matches!(
            f,
            Finding::SizeBeyondAllocation { size, .. } if *size == 1 << 40
        )));
        // What sat below the skipped directory is unreachable.
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::Orphan { .. })));
        let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();
        let dir = fs.lookup(fs.root_ino(), "dir").unwrap();
        assert_eq!(fs.readdir(dir).unwrap_err(), Errno::EUCLEAN);
        assert_eq!(fs.lookup(dir, "file").unwrap_err(), Errno::EUCLEAN);
    }

    #[test]
    fn garbage_image_reports_bad_superblock() {
        let ram = RamDisk::new(64);
        let report = fsck(&ram).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert!(matches!(report.findings[0], Finding::BadSuperblock(_)));
    }

    /// Reads the journal geometry off a populated image.
    fn journal_geom(ram: &RamDisk) -> (u64, u64) {
        let mut blk = vec![0u8; 4096];
        ram.read_block(SB_BLOCK, &mut blk).unwrap();
        let sb = Superblock::decode(&blk).unwrap();
        (u64::from(sb.journal_start), u64::from(sb.journal_blocks))
    }

    /// Builds a fully committed journal record (desc + payload + commit)
    /// for `seq` writing `fill` to home block 4.
    fn committed_record(seq: u64, fill: u8) -> Vec<Vec<u8>> {
        let bs = 4096;
        crate::journal::encode_record(seq, &[(4, vec![fill; bs])], bs)
            .chunks(bs)
            .map(<[u8]>::to_vec)
            .collect()
    }

    /// A torn record at the tail with nothing committed beyond it is the
    /// normal residue of a crash mid-commit — not a finding.
    #[test]
    fn bare_torn_tail_record_is_clean() {
        use crate::journal::DESC_MAGIC;
        let (ram, dev) = populated();
        let (jstart, _) = journal_geom(&ram);
        let mut blk = vec![0u8; 4096];
        ram.read_block(jstart, &mut blk).unwrap();
        let tail_off = u64::from_le_bytes(blk[12..20].try_into().unwrap());
        // A descriptor with the expected seq but an absurd count: torn.
        let tail_seq = u64::from_le_bytes(blk[4..12].try_into().unwrap());
        let mut desc = vec![0u8; 4096];
        desc[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        desc[4..12].copy_from_slice(&tail_seq.to_le_bytes());
        desc[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        ram.write_block(jstart + 1 + tail_off, &desc).unwrap();
        let report = fsck(&*dev).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    /// A committed record stranded beyond a tear is exactly the data-loss
    /// image the journal-abort fix prevents; fsck must flag it — and must
    /// terminate despite the torn descriptor's adversarial count.
    #[test]
    fn committed_record_beyond_tear_is_flagged() {
        use crate::journal::DESC_MAGIC;
        let (ram, dev) = populated();
        let (jstart, _) = journal_geom(&ram);
        let mut blk = vec![0u8; 4096];
        ram.read_block(jstart, &mut blk).unwrap();
        let tail_seq = u64::from_le_bytes(blk[4..12].try_into().unwrap());
        let tail_off = u64::from_le_bytes(blk[12..20].try_into().unwrap());
        // The gap: a torn descriptor (bad count) for the expected seq…
        let mut desc = vec![0u8; 4096];
        desc[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        desc[4..12].copy_from_slice(&tail_seq.to_le_bytes());
        desc[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        ram.write_block(jstart + 1 + tail_off, &desc).unwrap();
        // …followed by a fully committed record for the NEXT seq, as the
        // pre-abort journal would have produced after a failed batch.
        for (i, b) in committed_record(tail_seq + 1, 0xEE).iter().enumerate() {
            ram.write_block(jstart + 1 + tail_off + 3 + i as u64, b)
                .unwrap();
        }
        let report = fsck(&*dev).unwrap();
        assert!(
            report
                .findings
                .iter()
                .any(|f| matches!(f, Finding::TornJournal { .. })),
            "{:?}",
            report.findings
        );
    }

    /// Regression: a torn descriptor whose count exceeds the descriptor's
    /// slots but fits a large log area must read as torn — a clean
    /// report — rather than index past the descriptor block.
    #[test]
    fn overfull_descriptor_count_is_clean_torn_tail() {
        use crate::journal::DESC_MAGIC;
        let ram = Arc::new(RamDisk::new(2048));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, 128, 1024).unwrap();
        let (jstart, _) = journal_geom(&ram);
        let mut blk = vec![0u8; 4096];
        ram.read_block(jstart, &mut blk).unwrap();
        let tail_seq = u64::from_le_bytes(blk[4..12].try_into().unwrap());
        let tail_off = u64::from_le_bytes(blk[12..20].try_into().unwrap());
        let mut desc = vec![0u8; 4096];
        desc[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        desc[4..12].copy_from_slice(&tail_seq.to_le_bytes());
        desc[12..16].copy_from_slice(&600u32.to_le_bytes());
        ram.write_block(jstart + 1 + tail_off, &desc).unwrap();
        let report = fsck(&*dev).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn corrupt_journal_superblock_is_flagged() {
        let (ram, dev) = populated();
        let (jstart, _) = journal_geom(&ram);
        let mut jsb = vec![0u8; 4096];
        ram.read_block(jstart, &mut jsb).unwrap();
        jsb[0] ^= 0xFF;
        ram.write_block(jstart, &jsb).unwrap();
        let report = fsck(&*dev).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::BadJournalSuperblock(_))));
    }
}
