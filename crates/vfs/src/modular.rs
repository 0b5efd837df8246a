//! The modular, typed file system interface (roadmap Steps 1–3).
//!
//! This trait is what the paper's roadmap produces for the VFS boundary:
//!
//! - **Step 1** (modularity): callers hold an
//!   `InterfaceHandle<dyn FileSystem>` from the `sk-core` registry; any
//!   implementation with this interface drops in.
//! - **Step 2** (type safety): no `void *` anywhere. The
//!   `write_begin`/`write_end` custom data is a typed, move-only
//!   [`Token`] (see [`FileSystem::write_begin`]);
//!   errors are `KResult`, never punned pointers.
//! - **Step 3** (ownership safety): signatures encode the three sharing
//!   models. `&[u8]` arguments are model 3 (shared read-only loan for the
//!   duration of the call), `&mut [u8]` arguments are model 2 (exclusive
//!   loan: callee may mutate, cannot free or keep), and
//!   [`FileSystem::write_owned`] takes an
//!   [`Owned<Vec<u8>>`](sk_core::ownership::Owned) payload by value —
//!   model 1, the callee frees.

use sk_core::ownership::Owned;
use sk_core::typesafe::Token;
use sk_ksim::errno::{Errno, KResult};

use crate::inode::{Attr, InodeNo};

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (no slashes).
    pub name: String,
    /// Target inode.
    pub ino: InodeNo,
}

/// File system usage summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatFs {
    /// Total data blocks.
    pub blocks_total: u64,
    /// Free data blocks.
    pub blocks_free: u64,
    /// Total inodes.
    pub inodes_total: u64,
    /// Free inodes.
    pub inodes_free: u64,
}

/// One typed operation of a batch submission (the payload of a ring SQE;
/// see [`FileSystem::submit_batch`] and [`crate::ring`]).
///
/// Buffer ownership moves *in* with the op — [`BatchOp::Write`] carries
/// its data and [`BatchOp::Read`] carries the destination buffer — and
/// moves *out* again with the matching [`BatchReply`], success or
/// failure. No loans cross the batching boundary, so a reactor thread
/// can process the batch long after the submitting stack frame is gone:
/// the paper's model-1 ownership transfer, round-tripped.
#[derive(Debug)]
pub enum BatchOp {
    /// Create the regular file `name` in `dir`.
    Create {
        /// Parent directory.
        dir: InodeNo,
        /// New entry name.
        name: String,
    },
    /// Write `data` at `off` in `ino`; the buffer moves in.
    Write {
        /// Target file.
        ino: InodeNo,
        /// Byte offset.
        off: u64,
        /// Payload, owned by the op until the reply returns it.
        data: Vec<u8>,
    },
    /// Read `buf.len()` bytes at `off` from `ino` into `buf` (moved in,
    /// returned filled in the reply).
    Read {
        /// Source file.
        ino: InodeNo,
        /// Byte offset.
        off: u64,
        /// Destination buffer, owned by the op until the reply returns it.
        buf: Vec<u8>,
    },
    /// Durability point for `ino` (and, per [`FileSystem::fsync`]
    /// semantics, possibly more).
    Fsync {
        /// File to make durable.
        ino: InodeNo,
    },
    /// Remove the regular file `name` from `dir`.
    Unlink {
        /// Parent directory.
        dir: InodeNo,
        /// Entry name.
        name: String,
    },
}

/// Per-op outcome of a batch submission (the payload of a ring CQE).
///
/// Ops that carried a buffer get it back here — on success *and* on
/// failure, so a failed batch never leaks a submitter's buffer.
#[derive(Debug)]
pub enum BatchReply {
    /// Result of [`BatchOp::Create`].
    Create(KResult<InodeNo>),
    /// Result of [`BatchOp::Write`]: byte count plus the returned buffer.
    Write {
        /// Bytes written, or the error.
        result: KResult<usize>,
        /// The submitted payload, ownership returned.
        buf: Vec<u8>,
    },
    /// Result of [`BatchOp::Read`]: byte count plus the filled buffer.
    Read {
        /// Bytes read (0 at EOF), or the error.
        result: KResult<usize>,
        /// The submitted destination buffer, ownership returned.
        buf: Vec<u8>,
    },
    /// Result of [`BatchOp::Fsync`].
    Fsync(KResult<()>),
    /// Result of [`BatchOp::Unlink`].
    Unlink(KResult<()>),
}

impl BatchReply {
    /// The op's result with the payload erased (for assertions and
    /// bookkeeping that only care about success).
    pub fn result(&self) -> KResult<()> {
        match self {
            BatchReply::Create(r) => r.as_ref().map(|_| ()).map_err(|e| *e),
            BatchReply::Write { result, .. } | BatchReply::Read { result, .. } => {
                result.as_ref().map(|_| ()).map_err(|e| *e)
            }
            BatchReply::Fsync(r) | BatchReply::Unlink(r) => *r,
        }
    }

    /// Takes the returned buffer out of the reply, if this op carried one.
    pub fn take_buf(&mut self) -> Option<Vec<u8>> {
        match self {
            BatchReply::Write { buf, .. } | BatchReply::Read { buf, .. } => {
                Some(core::mem::take(buf))
            }
            _ => None,
        }
    }
}

/// Typed context threaded from [`FileSystem::write_begin`] to
/// [`FileSystem::write_end`] — the replacement for the `void *fsdata`
/// parameter of the Linux address-space operations.
///
/// The payload is opaque to VFS (that is the point: VFS carries it, the
/// file system interprets it), but it is *typed* end to end: the file
/// system states its context type by choosing what to put in the token,
/// and the move-only token guarantees one `write_end` per `write_begin`.
pub type WriteCtx = Token<Box<dyn std::any::Any + Send>>;

/// The modular file system interface.
pub trait FileSystem: Send + Sync {
    /// Implementation name (for diagnostics and the migration example).
    fn fs_name(&self) -> &'static str;

    /// The root directory's inode number.
    fn root_ino(&self) -> InodeNo;

    /// Resolves `name` in directory `dir`.
    fn lookup(&self, dir: InodeNo, name: &str) -> KResult<InodeNo>;

    /// Reads attributes of `ino`.
    fn getattr(&self, ino: InodeNo) -> KResult<Attr>;

    /// Creates a regular file `name` in `dir`.
    fn create(&self, dir: InodeNo, name: &str) -> KResult<InodeNo>;

    /// Creates a directory `name` in `dir`.
    fn mkdir(&self, dir: InodeNo, name: &str) -> KResult<InodeNo>;

    /// Removes the regular file `name` from `dir`.
    fn unlink(&self, dir: InodeNo, name: &str) -> KResult<()>;

    /// Removes the empty directory `name` from `dir`.
    fn rmdir(&self, dir: InodeNo, name: &str) -> KResult<()>;

    /// Reads up to `buf.len()` bytes at `off` into `buf` (model 2 loan),
    /// returning the byte count (0 at EOF).
    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> KResult<usize>;

    /// Writes `data` (model 3 loan) at `off`, returning the byte count.
    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> KResult<usize>;

    /// Model-1 write: the payload is passed by ownership and freed by the
    /// file system. Default implementation delegates to [`FileSystem::write`].
    fn write_owned(&self, ino: InodeNo, off: u64, data: Owned<Vec<u8>>) -> KResult<usize> {
        let v = data.into_inner();
        self.write(ino, off, &v)
        // `v` drops here, inside the callee: model 1's "callee must free".
    }

    /// Begins a write session on `ino`, returning the typed context that
    /// must be passed to [`FileSystem::write_end`].
    ///
    /// The default pairing implements write via [`FileSystem::write`]; file
    /// systems with allocation-time state (e.g. the journal) override both
    /// ends.
    fn write_begin(&self, ino: InodeNo, off: u64, len: usize) -> KResult<WriteCtx> {
        let _ = (ino, off, len);
        Ok(Token::new(Box::new(()) as Box<dyn std::any::Any + Send>))
    }

    /// Completes a write session started by [`FileSystem::write_begin`].
    fn write_end(&self, ino: InodeNo, off: u64, data: &[u8], ctx: WriteCtx) -> KResult<usize> {
        let _ = ctx.consume();
        self.write(ino, off, data)
    }

    /// Lists the entries of directory `dir` (excluding `.`/`..`).
    fn readdir(&self, dir: InodeNo) -> KResult<Vec<DirEntry>>;

    /// Moves `oldname` in `olddir` to `newname` in `newdir`, replacing any
    /// existing regular file at the destination.
    fn rename(&self, olddir: InodeNo, oldname: &str, newdir: InodeNo, newname: &str)
        -> KResult<()>;

    /// Sets the size of `ino` (zero-filling on extension).
    fn truncate(&self, ino: InodeNo, size: u64) -> KResult<()>;

    /// Makes all completed operations durable.
    fn sync(&self) -> KResult<()>;

    /// Makes `ino`'s completed operations durable — the per-file
    /// durability point (POSIX `fsync(2)`). Implementations may provide
    /// stronger guarantees than the single file; the default delegates
    /// to [`FileSystem::sync`], which trivially covers it. Returns
    /// `ENOENT` for a nonexistent inode.
    fn fsync(&self, ino: InodeNo) -> KResult<()> {
        let _ = ino;
        self.sync()
    }

    /// Usage summary.
    fn statfs(&self) -> KResult<StatFs>;

    /// Prepares this generation to give up (or assume) authority in a
    /// live replacement — see [`crate::migrate::Migrator`]. On return,
    /// every completed operation must be durable on the generation's
    /// own device and the instance must hold **no** dirty state that
    /// only it can write back: an outgoing generation's caches may be
    /// discarded, and an incoming generation must survive a crash
    /// immediately after this call with everything it was handed.
    /// Implementations that defer work past `sync` (delayed-durability
    /// pins, background checkpoints) must drain it here or fail with
    /// `EBUSY` so the migrator aborts cleanly. The default delegates to
    /// [`FileSystem::sync`], which is exactly this contract for
    /// implementations with no deferred work.
    fn quiesce_for_handoff(&self) -> KResult<()> {
        self.sync()
    }

    /// Processes a batch of typed operations, returning one reply per op
    /// in submission order (the reply vector always has `ops.len()`
    /// entries — individual failures are carried in the reply, never
    /// dropped).
    ///
    /// The default loops over the per-call interface, so every
    /// implementation — including a legacy ops table behind
    /// [`crate::shim::LegacyFsAdapter`] — is ring-capable for free.
    /// Journaling file systems override this to stage the whole batch in
    /// one pass (one op-lock hold, one journal join per batch) — the
    /// batching win the ring exists to expose.
    ///
    /// Ordering contract for overriders: replies must correspond to ops
    /// in order, an op acknowledged `Ok` must be at least as durable as
    /// the per-call interface would have left it, and a
    /// [`BatchOp::Fsync`] must act as a durability point for every
    /// earlier op in the batch.
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<BatchReply> {
        ops.into_iter().map(|op| dispatch(self, op)).collect()
    }
}

/// Runs one typed op through `fs`'s per-call interface and wraps the
/// result in its reply — the default [`FileSystem::submit_batch`] one op
/// at a time, and the per-call path of a harness that drives the same
/// op stream both ways.
pub fn dispatch<F: FileSystem + ?Sized>(fs: &F, op: BatchOp) -> BatchReply {
    match op {
        BatchOp::Create { dir, name } => BatchReply::Create(fs.create(dir, &name)),
        BatchOp::Write { ino, off, data } => {
            let result = fs.write(ino, off, &data);
            BatchReply::Write { result, buf: data }
        }
        BatchOp::Read { ino, off, mut buf } => {
            let result = fs.read(ino, off, &mut buf);
            BatchReply::Read { result, buf }
        }
        BatchOp::Fsync { ino } => BatchReply::Fsync(fs.fsync(ino)),
        BatchOp::Unlink { dir, name } => BatchReply::Unlink(fs.unlink(dir, &name)),
    }
}

/// Interprets a mounted file system as an instance of the abstract model
/// by walking its tree — the abstraction function shared by `Vfs` and the
/// file system implementations' `Refines<FsModel>` impls.
pub fn fs_abstraction(fs: &dyn FileSystem) -> crate::spec::FsModel {
    use crate::inode::FileType;
    let mut model = crate::spec::FsModel::new();
    let mut stack = vec![("/".to_string(), fs.root_ino())];
    while let Some((path, ino)) = stack.pop() {
        let entries = match fs.readdir(ino) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for e in entries {
            let child_path = if path == "/" {
                format!("/{}", e.name)
            } else {
                format!("{}/{}", path, e.name)
            };
            match fs.getattr(e.ino) {
                Ok(attr) if attr.ftype == FileType::Directory => {
                    model.dirs.insert(child_path.clone());
                    stack.push((child_path, e.ino));
                }
                Ok(attr) => {
                    let mut buf = vec![0u8; attr.size as usize];
                    let n = fs.read(e.ino, 0, &mut buf).unwrap_or(0);
                    buf.truncate(n);
                    model.files.insert(child_path, buf);
                }
                Err(_) => {}
            }
        }
    }
    model
}

/// Validates a single path component: non-empty, no `/`, no NUL, and not
/// `.`/`..` (the path walker handles dots; file systems never see them).
pub fn validate_name(name: &str) -> KResult<()> {
    if name.is_empty() || name == "." || name == ".." {
        return Err(Errno::EINVAL);
    }
    if name.len() > 255 {
        return Err(Errno::ENAMETOOLONG);
    }
    if name.contains('/') || name.contains('\0') {
        return Err(Errno::EINVAL);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(validate_name("file.txt").is_ok());
        assert!(validate_name("a").is_ok());
        assert_eq!(validate_name(""), Err(Errno::EINVAL));
        assert_eq!(validate_name("."), Err(Errno::EINVAL));
        assert_eq!(validate_name(".."), Err(Errno::EINVAL));
        assert_eq!(validate_name("a/b"), Err(Errno::EINVAL));
        assert_eq!(validate_name("a\0b"), Err(Errno::EINVAL));
        let long = "x".repeat(256);
        assert_eq!(validate_name(&long), Err(Errno::ENAMETOOLONG));
        let ok = "x".repeat(255);
        assert!(validate_name(&ok).is_ok());
    }
}
