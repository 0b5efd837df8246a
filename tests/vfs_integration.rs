//! Integration: the VFS layer over both file system generations.
//!
//! The same suite runs against rsfs (mounted directly) and cext4 (mounted
//! through the legacy shim) — the workloads must behave identically, which
//! is the paper's requirement that replacement be behaviour-preserving.

use std::sync::Arc;

use safer_kernel::core::modularity::Registry;
use safer_kernel::fs_legacy::{cext4_ops, BugKnobs, Cext4};
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::ksim::block::{BlockDevice, RamDisk};
use safer_kernel::ksim::errno::Errno;
use safer_kernel::ksim::lock::LockRegistry;
use safer_kernel::legacy::LegacyCtx;
use safer_kernel::vfs::inode::FileType;
use safer_kernel::vfs::modular::FileSystem;
use safer_kernel::vfs::path::{Vfs, FS_INTERFACE};
use safer_kernel::vfs::shim::LegacyFsAdapter;

fn mount_rsfs() -> Vfs {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Rsfs::mkfs(&dev, 256, 64).unwrap();
    let fs = Rsfs::mount(dev, JournalMode::PerOp).unwrap();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "rsfs", Arc::new(fs) as Arc<dyn FileSystem>)
        .unwrap();
    Vfs::mount(&registry).unwrap()
}

fn mount_cext4() -> Vfs {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Cext4::mkfs(&dev, 256).unwrap();
    let ctx = LegacyCtx::new();
    let fs = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).unwrap());
    let adapter = LegacyFsAdapter::new(Arc::new(cext4_ops(fs)), ctx);
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(
            FS_INTERFACE,
            "cext4",
            Arc::new(adapter) as Arc<dyn FileSystem>,
        )
        .unwrap();
    Vfs::mount(&registry).unwrap()
}

/// Exact work counts of the cached read path, independent of host
/// speed (one thread, a disabled registry, which still counts every
/// acquisition): a warm rsfs `getattr` takes one buffer-head lock, for
/// the inode decode, and none for the `Uptodate` test; a warm
/// `stat("/d0/f1")` takes one dcache shard lock per path component.
#[test]
fn cached_read_path_takes_exact_lock_counts() {
    const N: u64 = 1_000;
    let locks = LockRegistry::new_disabled();
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Rsfs::mkfs(&dev, 256, 64).unwrap();
    let fs =
        Arc::new(Rsfs::mount_with_registry(dev, JournalMode::PerOp, Arc::clone(&locks)).unwrap());
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "rsfs", Arc::clone(&fs) as Arc<dyn FileSystem>)
        .unwrap();
    let vfs = Vfs::mount_with_lockdep(&registry, Arc::clone(&locks)).unwrap();
    vfs.mkdir("/d0").unwrap();
    vfs.create("/d0/f1").unwrap();
    vfs.write_file("/d0/f1", 0, &[7; 256]).unwrap();
    vfs.sync().unwrap();
    let ino = vfs.resolve("/d0/f1").unwrap();
    assert_eq!(vfs.stat("/d0/f1").unwrap().size, 256);
    let acquisitions = |class: &str| {
        locks
            .class_stats()
            .iter()
            .find(|s| s.name == class)
            .map_or(0, |s| s.acquisitions)
    };

    let heads = acquisitions("buffer.head");
    for _ in 0..N {
        assert_eq!(fs.getattr(ino).unwrap().size, 256);
    }
    assert_eq!(acquisitions("buffer.head") - heads, N);

    let shards = acquisitions("dcache.shard");
    vfs.stat("/d0/f1").unwrap();
    assert_eq!(acquisitions("dcache.shard") - shards, 2);
}

fn all_mounts() -> Vec<(&'static str, Vfs)> {
    vec![("rsfs", mount_rsfs()), ("cext4", mount_cext4())]
}

#[test]
fn basic_tree_operations_match_across_generations() {
    for (name, vfs) in all_mounts() {
        vfs.mkdir("/dir")
            .unwrap_or_else(|e| panic!("{name}: mkdir {e}"));
        vfs.create("/dir/file").unwrap();
        vfs.write_file("/dir/file", 0, b"payload").unwrap();
        assert_eq!(vfs.read_file("/dir/file").unwrap(), b"payload", "{name}");
        let attr = vfs.stat("/dir/file").unwrap();
        assert_eq!(attr.size, 7, "{name}");
        assert_eq!(attr.ftype, FileType::Regular, "{name}");
        assert_eq!(vfs.stat("/dir").unwrap().ftype, FileType::Directory);
        let names: Vec<String> = vfs
            .readdir("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["dir"], "{name}");
    }
}

#[test]
fn error_codes_match_across_generations() {
    for (name, vfs) in all_mounts() {
        assert_eq!(vfs.stat("/missing"), Err(Errno::ENOENT), "{name}");
        vfs.create("/f").unwrap();
        assert_eq!(vfs.create("/f"), Err(Errno::EEXIST), "{name}");
        assert_eq!(vfs.rmdir("/f").unwrap_err(), Errno::ENOTDIR, "{name}");
        vfs.mkdir("/d").unwrap();
        vfs.create("/d/child").unwrap();
        assert_eq!(vfs.rmdir("/d"), Err(Errno::ENOTEMPTY), "{name}");
        assert_eq!(vfs.unlink("/d"), Err(Errno::EISDIR), "{name}");
        assert_eq!(vfs.read_file("/d"), Err(Errno::EISDIR), "{name}");
        assert_eq!(vfs.open("/d"), Err(Errno::EISDIR), "{name}");
    }
}

#[test]
fn fd_api_sequential_io() {
    for (name, vfs) in all_mounts() {
        vfs.create("/log").unwrap();
        let fd = vfs.open("/log").unwrap();
        assert_eq!(vfs.write(fd, b"hello ").unwrap(), 6, "{name}");
        assert_eq!(vfs.write(fd, b"world").unwrap(), 5, "{name}");
        vfs.seek(fd, 0).unwrap();
        let mut buf = [0u8; 16];
        let n = vfs.read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello world", "{name}");
        // Sequential read continues from the cursor.
        let n2 = vfs.read(fd, &mut buf).unwrap();
        assert_eq!(n2, 0, "{name}: EOF");
        vfs.close(fd).unwrap();
        assert_eq!(vfs.read(fd, &mut buf), Err(Errno::EBADF), "{name}");
        assert_eq!(vfs.close(fd), Err(Errno::EBADF), "{name}");
    }
}

#[test]
fn open_flags_enforced() {
    use safer_kernel::vfs::path::OpenFlags;
    for (name, vfs) in all_mounts() {
        vfs.create("/log").unwrap();
        vfs.write_file("/log", 0, b"start:").unwrap();

        // Read-only descriptor refuses writes.
        let ro = vfs.open_with("/log", OpenFlags::RDONLY).unwrap();
        assert_eq!(vfs.write(ro, b"nope"), Err(Errno::EBADF), "{name}");
        let mut buf = [0u8; 6];
        assert_eq!(vfs.read(ro, &mut buf).unwrap(), 6, "{name}");
        vfs.close(ro).unwrap();

        // Append descriptor always writes at EOF, whatever the cursor.
        let ap = vfs.open_with("/log", OpenFlags::APPEND).unwrap();
        vfs.seek(ap, 0).unwrap();
        vfs.write(ap, b"one").unwrap();
        vfs.seek(ap, 1).unwrap();
        vfs.write(ap, b"two").unwrap();
        vfs.close(ap).unwrap();
        assert_eq!(vfs.read_file("/log").unwrap(), b"start:onetwo", "{name}");
    }
}

#[test]
fn deep_paths_resolve_with_dcache() {
    for (name, vfs) in all_mounts() {
        vfs.mkdir("/a").unwrap();
        vfs.mkdir("/a/b").unwrap();
        vfs.mkdir("/a/b/c").unwrap();
        vfs.create("/a/b/c/leaf").unwrap();
        vfs.write_file("/a/b/c/leaf", 0, b"deep").unwrap();
        // Warm the dcache, then resolve again.
        assert_eq!(vfs.read_file("/a/b/c/leaf").unwrap(), b"deep", "{name}");
        let hits_before = vfs.dcache().stats().hits;
        assert_eq!(vfs.read_file("/a/b/c/leaf").unwrap(), b"deep", "{name}");
        assert!(
            vfs.dcache().stats().hits > hits_before,
            "{name}: dcache used"
        );
        // Normalization: dots and double slashes.
        assert_eq!(
            vfs.read_file("//a/./b/c/../c/leaf").unwrap(),
            b"deep",
            "{name}"
        );
    }
}

#[test]
fn unlink_invalidates_dcache() {
    for (name, vfs) in all_mounts() {
        vfs.create("/victim").unwrap();
        vfs.stat("/victim").unwrap(); // cached
        vfs.unlink("/victim").unwrap();
        assert_eq!(vfs.stat("/victim"), Err(Errno::ENOENT), "{name}");
        // Re-creating under the same name must resolve to the new file.
        vfs.create("/victim").unwrap();
        vfs.write_file("/victim", 0, b"new").unwrap();
        assert_eq!(vfs.read_file("/victim").unwrap(), b"new", "{name}");
    }
}

#[test]
fn rename_across_directories() {
    for (name, vfs) in all_mounts() {
        vfs.mkdir("/src").unwrap();
        vfs.mkdir("/dst").unwrap();
        vfs.create("/src/f").unwrap();
        vfs.write_file("/src/f", 0, b"moving").unwrap();
        vfs.rename("/src/f", "/dst/g").unwrap();
        assert_eq!(vfs.stat("/src/f"), Err(Errno::ENOENT), "{name}");
        assert_eq!(vfs.read_file("/dst/g").unwrap(), b"moving", "{name}");
    }
}

#[test]
fn truncate_and_sparse_files() {
    for (name, vfs) in all_mounts() {
        vfs.create("/sparse").unwrap();
        // Write past a hole.
        vfs.write_file("/sparse", 10_000, b"tail").unwrap();
        let data = vfs.read_file("/sparse").unwrap();
        assert_eq!(data.len(), 10_004, "{name}");
        assert!(
            data[..10_000].iter().all(|&b| b == 0),
            "{name}: hole is zeros"
        );
        assert_eq!(&data[10_000..], b"tail", "{name}");
        vfs.truncate("/sparse", 3).unwrap();
        assert_eq!(vfs.stat("/sparse").unwrap().size, 3, "{name}");
    }
}

#[test]
fn statfs_reflects_usage() {
    for (name, vfs) in all_mounts() {
        let before = vfs.statfs().unwrap();
        vfs.create("/hog").unwrap();
        vfs.write_file("/hog", 0, &vec![1u8; 8 * 4096]).unwrap();
        let after = vfs.statfs().unwrap();
        assert!(after.blocks_free < before.blocks_free, "{name}");
        assert_eq!(after.inodes_free, before.inodes_free - 1, "{name}");
        vfs.unlink("/hog").unwrap();
        let freed = vfs.statfs().unwrap();
        assert_eq!(freed.blocks_free, before.blocks_free, "{name}");
        assert_eq!(freed.inodes_free, before.inodes_free, "{name}");
    }
}

#[test]
fn many_files_in_one_directory() {
    for (name, vfs) in all_mounts() {
        for i in 0..100 {
            vfs.create(&format!("/f{i:03}")).unwrap();
        }
        let mut names: Vec<String> = vfs
            .readdir("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        assert_eq!(names.len(), 100, "{name}");
        assert_eq!(names[0], "f000", "{name}");
        assert_eq!(names[99], "f099", "{name}");
        // Delete every other one and re-list.
        for i in (0..100).step_by(2) {
            vfs.unlink(&format!("/f{i:03}")).unwrap();
        }
        assert_eq!(vfs.readdir("/").unwrap().len(), 50, "{name}");
    }
}
