//! Fault injection: what the axioms are for (§4.4).
//!
//! "The verified file system will appear buggy if either the block I/O
//! layer is buggy or the model erroneous." This example runs the safe file
//! system twice — once on honest hardware, once on hardware that silently
//! corrupts one read in five — with the axiomatic device model wedged in
//! between. On honest hardware the axioms stay silent; on rotten hardware
//! they pinpoint the substrate, exonerating the file system.
//!
//! It closes with the journal shrugging off torn writes: a transaction cut
//! mid-flight by a torn block write is discarded by checksum at recovery.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use std::sync::Arc;

use safer_kernel::core::spec::AxiomaticDevice;
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::fs_safe::{fsck, journal::Journal};
use safer_kernel::ksim::block::{BlockDevice, DiskFaultConfig, FaultyDisk, RamDisk, BLOCK_SIZE};
use safer_kernel::vfs::modular::FileSystem;

fn workload(fs: &Rsfs) {
    let root = fs.root_ino();
    for i in 0..8 {
        if let Ok(ino) = fs.create(root, &format!("f{i}")) {
            let _ = fs.write(ino, 0, &vec![i as u8; 6000]);
            let mut buf = vec![0u8; 6000];
            let _ = fs.read(ino, 0, &mut buf);
        }
    }
}

fn main() {
    println!("== honest hardware ==\n");
    let axio = Arc::new(AxiomaticDevice::new(
        Arc::new(RamDisk::new(2048)) as Arc<dyn BlockDevice>
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&axio) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).expect("mkfs");
    let fs = Rsfs::mount(dev, JournalMode::PerOp).expect("mount");
    workload(&fs);
    println!(
        "axiom violations: {} (the file system and the device agree)",
        axio.violations().len()
    );
    assert!(axio.is_clean());

    println!("\n== flaky hardware (20% of reads corrupted) ==\n");
    let rotten = FaultyDisk::new(
        Arc::new(RamDisk::new(2048)) as Arc<dyn BlockDevice>,
        DiskFaultConfig {
            read_corrupt: 0.2,
            ..DiskFaultConfig::default()
        },
        2026,
    );
    let axio = Arc::new(AxiomaticDevice::new(rotten));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&axio) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).expect("mkfs");
    match Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp) {
        Ok(fs) => {
            workload(&fs);
            // Corruption is only observable at read-back, and the cache
            // (plus deferred checkpointing) satisfies the workload's reads
            // from memory. Push everything home, drop the cache, and read
            // it again from the flaky disk.
            let _ = fs.sync();
            fs.cache().invalidate();
            let root = fs.root_ino();
            for i in 0..8 {
                if let Ok(ino) = fs.lookup(root, &format!("f{i}")) {
                    let mut buf = vec![0u8; 6000];
                    let _ = fs.read(ino, 0, &mut buf);
                }
            }
        }
        Err(e) => println!("mount already failed: {e} (a corrupted read hit the superblock)"),
    }
    let violations = axio.violations();
    println!(
        "axiom violations: {} — e.g. {:?}",
        violations.len(),
        violations.first()
    );
    println!("blame assigned: the substrate broke its contract, not the FS");
    assert!(!violations.is_empty());

    println!("\n== torn write vs the journal ==\n");
    // Build a committed-but-unretired transaction, then tear its payload.
    let ram = Arc::new(RamDisk::new(2048));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).expect("mkfs");
    let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).expect("mount");
    fs.create(fs.root_ino(), "survivor").expect("create");
    fs.sync().expect("sync"); // Checkpoint, so the txn is retired on disk.
    drop(fs);
    let jstart = 2048 - 64;
    // Rewind the journal superblock so recovery reconsiders the last txn...
    let mut jsb = vec![0u8; BLOCK_SIZE];
    dev.read_block(jstart, &mut jsb).expect("read jsb");
    let seq = u64::from_le_bytes(jsb[4..12].try_into().expect("8 bytes"));
    jsb[4..12].copy_from_slice(&(seq - 1).to_le_bytes());
    jsb[12..20].copy_from_slice(&0u64.to_le_bytes());
    ram.write_block(jstart, &jsb).expect("rewind");
    // ...and tear the journaled payload (half old, half new — a torn write).
    let mut payload = vec![0u8; BLOCK_SIZE];
    ram.read_block(jstart + 2, &mut payload)
        .expect("read payload");
    payload[BLOCK_SIZE / 2..].fill(0xFF);
    ram.write_block(jstart + 2, &payload).expect("tear");
    let outcome = Journal::recover(&dev, jstart, 64).expect("recover");
    println!("recovery outcome for the torn transaction: {outcome:?}");
    let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).expect("remount");
    println!(
        "the file system still mounts; 'survivor' present: {}",
        fs.lookup(fs.root_ino(), "survivor").is_ok()
    );
    let report = fsck(&*dev).expect("fsck");
    println!(
        "fsck after the ordeal: {} findings — structurally sound",
        report.findings.len()
    );
    assert!(report.is_clean());
}
