//! Path resolution, file descriptors, and the syscall-shaped API.
//!
//! [`Vfs`] is "the rest of the kernel" relative to a file system module: it
//! owns path walking (through the [`Dcache`]), the file descriptor table,
//! and the mount point. Crucially for the roadmap, it holds the file system
//! only as an `InterfaceHandle<dyn FileSystem>` (Step 1): the workloads in
//! the examples and benches run unchanged while the implementation behind
//! the handle is hot-swapped from the legacy adapter to the safe file
//! system.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sk_core::modularity::{InterfaceHandle, Registry};
use sk_core::spec::Refines;
use sk_ksim::errno::{Errno, KResult};
use sk_ksim::lock::LockRegistry;

use crate::dcache::Dcache;
use crate::inode::{Attr, FileType, InodeNo};
use crate::migrate::SwapGate;
use crate::modular::{validate_name, DirEntry, FileSystem, StatFs};
use crate::spec::{normalize, FsModel};

/// A file descriptor.
pub type Fd = u64;

/// The interface name the VFS subscribes to in the registry.
pub const FS_INTERFACE: &str = "vfs.filesystem";

/// Open-mode flags for the fd API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Refuse writes through this descriptor.
    pub read_only: bool,
    /// Every write lands at end-of-file, regardless of the cursor.
    pub append: bool,
}

impl OpenFlags {
    /// Read-write, positional (the default).
    pub const RDWR: OpenFlags = OpenFlags {
        read_only: false,
        append: false,
    };
    /// Read-only.
    pub const RDONLY: OpenFlags = OpenFlags {
        read_only: true,
        append: false,
    };
    /// Append mode.
    pub const APPEND: OpenFlags = OpenFlags {
        read_only: false,
        append: true,
    };
}

struct OpenFile {
    ino: InodeNo,
    pos: u64,
    flags: OpenFlags,
}

/// The VFS layer: path walking + fd table over a modular file system.
pub struct Vfs {
    fs: InterfaceHandle<dyn FileSystem>,
    dcache: Dcache,
    fds: Mutex<HashMap<Fd, OpenFile>>,
    next_fd: AtomicU64,
    /// Admission gate for live replacement: every public operation holds
    /// it shared; [`crate::migrate::Migrator`] holds it exclusive across
    /// quiesce/transfer/switch. Shared with gated ring reactors.
    gate: Arc<SwapGate>,
}

impl Vfs {
    /// Mounts whatever file system is registered under
    /// [`FS_INTERFACE`] in `registry`.
    pub fn mount(registry: &Registry) -> KResult<Vfs> {
        Vfs::mount_with_lockdep(registry, LockRegistry::new_disabled())
    }

    /// Mounts with the dcache shard locks reporting to `locks`, so a
    /// lockdep-enabled run sees VFS locks in the same acquires-after
    /// graph as the file system and storage locks below it.
    pub fn mount_with_lockdep(registry: &Registry, locks: Arc<LockRegistry>) -> KResult<Vfs> {
        let fs = registry.subscribe::<dyn FileSystem>(FS_INTERFACE)?;
        Ok(Vfs {
            fs,
            dcache: Dcache::with_registry(1024, 8, locks),
            fds: Mutex::new(HashMap::new()),
            next_fd: AtomicU64::new(3), // 0-2 reserved, as tradition demands
            gate: Arc::new(SwapGate::new()),
        })
    }

    /// The interface handle (e.g. to inspect which implementation serves).
    pub fn fs_handle(&self) -> &InterfaceHandle<dyn FileSystem> {
        &self.fs
    }

    /// The dentry cache (exposed for stats in benches).
    pub fn dcache(&self) -> &Dcache {
        &self.dcache
    }

    /// The swap admission gate (shared with gated ring reactors; held
    /// exclusive by [`crate::migrate::Migrator`] during a handoff).
    pub fn gate(&self) -> Arc<SwapGate> {
        Arc::clone(&self.gate)
    }

    /// Rekeys the open-fd table through `map` after a generation swap
    /// (old inode number → new inode number); descriptors keep their
    /// position and flags. Returns `(kept, dropped)`: descriptors whose
    /// inode has no mapping (e.g. unlinked-but-open files, which the
    /// tree walk cannot see) are removed so later use fails with `EBADF`
    /// instead of silently addressing a stranger's inode.
    pub(crate) fn remap_open_files(&self, map: impl Fn(InodeNo) -> Option<InodeNo>) -> (u64, u64) {
        let mut fds = self.fds.lock();
        let mut dropped = 0u64;
        let mut kept = 0u64;
        fds.retain(|_, f| match map(f.ino) {
            Some(new) => {
                f.ino = new;
                kept += 1;
                true
            }
            None => {
                dropped += 1;
                false
            }
        });
        (kept, dropped)
    }

    /// Resolves a path to an inode, walking component by component.
    pub fn resolve(&self, path: &str) -> KResult<InodeNo> {
        let _g = self.gate.enter();
        self.resolve_in(&*self.fs.get(), path)
    }

    /// Path walk in `fs` without the gate: every caller already holds the
    /// gate shared (the fair lock would deadlock a recursive reader
    /// behind a waiting swap) and fetched the file system handle once
    /// for its whole operation.
    fn resolve_in(&self, fs: &dyn FileSystem, path: &str) -> KResult<InodeNo> {
        let path = normal(path)?;
        let mut cur = fs.root_ino();
        if path == "/" {
            return Ok(cur);
        }
        for comp in path[1..].split('/') {
            if let Some(ino) = self.dcache.get(cur, comp) {
                cur = ino;
                continue;
            }
            let ino = fs.lookup(cur, comp)?;
            self.dcache.insert(cur, comp, ino);
            cur = ino;
        }
        Ok(cur)
    }

    /// Resolves a path's parent directory and final component.
    fn resolve_parent(&self, fs: &dyn FileSystem, path: &str) -> KResult<(InodeNo, String)> {
        let path = normal(path)?;
        let name = crate::spec::basename_of(&path)
            .ok_or(Errno::EINVAL)?
            .to_string();
        validate_name(&name)?;
        let parent = crate::spec::parent_of(&path).ok_or(Errno::EINVAL)?;
        let dir = self.resolve_in(fs, &parent)?;
        Ok((dir, name))
    }

    /// Creates a regular file.
    pub fn create(&self, path: &str) -> KResult<InodeNo> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let (dir, name) = self.resolve_parent(&*fs, path)?;
        let ino = fs.create(dir, &name)?;
        self.dcache.insert(dir, &name, ino);
        Ok(ino)
    }

    /// Creates a directory.
    pub fn mkdir(&self, path: &str) -> KResult<InodeNo> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let (dir, name) = self.resolve_parent(&*fs, path)?;
        let ino = fs.mkdir(dir, &name)?;
        self.dcache.insert(dir, &name, ino);
        Ok(ino)
    }

    /// Removes a regular file.
    pub fn unlink(&self, path: &str) -> KResult<()> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let (dir, name) = self.resolve_parent(&*fs, path)?;
        fs.unlink(dir, &name)?;
        self.dcache.invalidate(dir, &name);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, path: &str) -> KResult<()> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let (dir, name) = self.resolve_parent(&*fs, path)?;
        // Invalidate children entries of the dying directory first.
        if let Ok(victim) = self.resolve_in(&*fs, path) {
            self.dcache.invalidate_dir(victim);
        }
        fs.rmdir(dir, &name)?;
        self.dcache.invalidate(dir, &name);
        Ok(())
    }

    /// Renames `old` to `new`.
    ///
    /// The VFS (not the file system) owns the ancestor check: renaming a
    /// directory into its own subtree is refused with `EINVAL`, as in
    /// Linux's `lock_rename` path — the file system only ever sees
    /// per-directory entry moves and cannot detect the cycle itself.
    pub fn rename(&self, old: &str, new: &str) -> KResult<()> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let old_n = normal(old)?;
        let new_n = normal(new)?;
        if new_n != old_n && new_n.starts_with(&format!("{old_n}/")) {
            let ino = self.resolve_in(&*fs, &old_n)?;
            let attr = fs.getattr(ino)?;
            if attr.ftype == FileType::Directory {
                return Err(Errno::EINVAL);
            }
        }
        let (odir, oname) = self.resolve_parent(&*fs, old)?;
        let (ndir, nname) = self.resolve_parent(&*fs, new)?;
        fs.rename(odir, &oname, ndir, &nname)?;
        self.dcache.invalidate(odir, &oname);
        self.dcache.invalidate(ndir, &nname);
        Ok(())
    }

    /// Attributes of the object at `path`.
    pub fn stat(&self, path: &str) -> KResult<Attr> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let ino = self.resolve_in(&*fs, path)?;
        fs.getattr(ino)
    }

    /// Directory listing.
    pub fn readdir(&self, path: &str) -> KResult<Vec<DirEntry>> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let ino = self.resolve_in(&*fs, path)?;
        fs.readdir(ino)
    }

    /// Truncates a file.
    pub fn truncate(&self, path: &str, size: u64) -> KResult<()> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let ino = self.resolve_in(&*fs, path)?;
        fs.truncate(ino, size)
    }

    /// Whole-file convenience read.
    pub fn read_file(&self, path: &str) -> KResult<Vec<u8>> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let ino = self.resolve_in(&*fs, path)?;
        let attr = fs.getattr(ino)?;
        if attr.ftype == FileType::Directory {
            return Err(Errno::EISDIR);
        }
        let mut buf = vec![0u8; attr.size as usize];
        let n = fs.read(ino, 0, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Positional write by path.
    pub fn write_file(&self, path: &str, off: u64, data: &[u8]) -> KResult<usize> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let ino = self.resolve_in(&*fs, path)?;
        fs.write(ino, off, data)
    }

    /// Makes everything durable.
    pub fn sync(&self) -> KResult<()> {
        let _g = self.gate.enter();
        self.fs.get().sync()
    }

    /// File system usage summary.
    pub fn statfs(&self) -> KResult<StatFs> {
        let _g = self.gate.enter();
        self.fs.get().statfs()
    }

    // --- fd-based API -----------------------------------------------------

    /// Opens an existing regular file read-write at offset 0.
    pub fn open(&self, path: &str) -> KResult<Fd> {
        self.open_with(path, OpenFlags::RDWR)
    }

    /// Opens an existing regular file with explicit [`OpenFlags`].
    pub fn open_with(&self, path: &str, flags: OpenFlags) -> KResult<Fd> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let ino = self.resolve_in(&*fs, path)?;
        let attr = fs.getattr(ino)?;
        if attr.ftype == FileType::Directory {
            return Err(Errno::EISDIR);
        }
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fds.lock().insert(fd, OpenFile { ino, pos: 0, flags });
        Ok(fd)
    }

    /// Sequential read advancing the descriptor offset.
    pub fn read(&self, fd: Fd, buf: &mut [u8]) -> KResult<usize> {
        let _g = self.gate.enter();
        let (ino, pos) = {
            let fds = self.fds.lock();
            let f = fds.get(&fd).ok_or(Errno::EBADF)?;
            (f.ino, f.pos)
        };
        let n = self.fs.get().read(ino, pos, buf)?;
        if let Some(f) = self.fds.lock().get_mut(&fd) {
            f.pos += n as u64;
        }
        Ok(n)
    }

    /// Sequential write advancing the descriptor offset. Honors
    /// [`OpenFlags`]: read-only descriptors refuse with `EBADF`; append
    /// descriptors write at end-of-file.
    pub fn write(&self, fd: Fd, data: &[u8]) -> KResult<usize> {
        let _g = self.gate.enter();
        let (ino, pos, flags) = {
            let fds = self.fds.lock();
            let f = fds.get(&fd).ok_or(Errno::EBADF)?;
            (f.ino, f.pos, f.flags)
        };
        if flags.read_only {
            return Err(Errno::EBADF);
        }
        let fs = self.fs.get();
        let pos = if flags.append {
            fs.getattr(ino)?.size
        } else {
            pos
        };
        let n = fs.write(ino, pos, data)?;
        if let Some(f) = self.fds.lock().get_mut(&fd) {
            f.pos = pos + n as u64;
        }
        Ok(n)
    }

    /// Makes `fd`'s completed operations durable (POSIX `fsync(2)`):
    /// delegates to the mounted file system's per-file durability point.
    pub fn fsync(&self, fd: Fd) -> KResult<()> {
        let _g = self.gate.enter();
        let ino = {
            let fds = self.fds.lock();
            fds.get(&fd).ok_or(Errno::EBADF)?.ino
        };
        self.fs.get().fsync(ino)
    }

    /// Path-level fsync, for callers without a descriptor.
    pub fn fsync_path(&self, path: &str) -> KResult<()> {
        let _g = self.gate.enter();
        let fs = self.fs.get();
        let ino = self.resolve_in(&*fs, path)?;
        fs.fsync(ino)
    }

    /// Absolute seek; returns the new offset.
    pub fn seek(&self, fd: Fd, pos: u64) -> KResult<u64> {
        let _g = self.gate.enter();
        let mut fds = self.fds.lock();
        let f = fds.get_mut(&fd).ok_or(Errno::EBADF)?;
        f.pos = pos;
        Ok(pos)
    }

    /// Closes a descriptor.
    pub fn close(&self, fd: Fd) -> KResult<()> {
        let _g = self.gate.enter();
        self.fds.lock().remove(&fd).map(|_| ()).ok_or(Errno::EBADF)
    }
}

/// `path` as given when it is already normal (absolute, without empty,
/// `.` or `..` components, so also without a trailing slash), which is
/// what [`normalize`] would return for it; otherwise its normal form.
fn normal(path: &str) -> KResult<Cow<'_, str>> {
    let is_normal = path == "/"
        || path
            .strip_prefix('/')
            .is_some_and(|rest| rest.split('/').all(|c| !matches!(c, "" | "." | "..")));
    if is_normal {
        Ok(Cow::Borrowed(path))
    } else {
        normalize(path).map(Cow::Owned)
    }
}

impl Refines<FsModel> for Vfs {
    /// Interprets the mounted tree as the abstract model by walking it.
    /// Holds the gate shared, so the walk never observes a half-done
    /// generation handoff.
    fn abstraction(&self) -> FsModel {
        let _g = self.gate.enter();
        crate::modular::fs_abstraction(&*self.fs.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every path of up to three components drawn from `""`, `.`, `..`,
    /// `a` and `bc`, relative or absolute: [`normal`] gives the answer
    /// [`normalize`] gives, and borrows exactly when it is the input.
    #[test]
    fn normal_agrees_with_normalize() {
        let comps = ["", ".", "..", "a", "bc"];
        for n in 0..=3u32 {
            for mut code in 0..comps.len().pow(n) {
                let mut parts = Vec::new();
                for _ in 0..n {
                    parts.push(comps[code % comps.len()]);
                    code /= comps.len();
                }
                let rel = parts.join("/");
                for path in [rel.clone(), format!("/{rel}")] {
                    let got = normal(&path);
                    assert_eq!(
                        got.as_deref().map_err(|e| *e),
                        normalize(&path).as_deref().map_err(|e| *e),
                        "{path:?}"
                    );
                    assert_eq!(
                        matches!(got, Ok(Cow::Borrowed(_))),
                        normalize(&path).is_ok_and(|n| n == path),
                        "{path:?}"
                    );
                }
            }
        }
    }
}
