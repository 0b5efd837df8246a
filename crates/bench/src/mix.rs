//! One definition per workload: the op generator, the reply each op
//! must get, the per-reply check and the end-of-run state check, so
//! every number a harness reports for a mix comes from one stream judged
//! one way.

/// The ring mix (DESIGN.md §14): per 8-op cycle a client issues one
/// create, three 1 KiB writes, two 1 KiB reads, one unlink and one
/// fsync, every data op on its own base file, so a client can keep a
/// window of SQEs in flight without data dependencies between them. The
/// unlink names the file created 12 ops earlier, beyond the window, so
/// its create has completed even when reactors run batches out of
/// order; in the first cycle it is a read. The base file starts with
/// 4 KiB of seeded content and the reads land on the two 1 KiB blocks
/// the writes never touch, so every read is checked byte for byte.
pub mod ring {
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::Instant;

    use sk_ksim::errno::KResult;
    use sk_vfs::inode::InodeNo;
    use sk_vfs::modular::{dispatch, BatchOp, BatchReply, FileSystem};
    use sk_vfs::ring::Ring;

    /// Bytes per read or write.
    pub const IO: usize = 1024;
    const BASE_LEN: usize = 4 * IO;
    const UNLINK_LAG: u64 = 12;
    const WINDOW: usize = 8;
    /// Clients set up per sync: a running transaction of more blocks than
    /// one journal descriptor can list overruns the descriptor at commit.
    const SETUP_BATCH: usize = 32;

    /// One client: its directory, its base file, the byte its writes
    /// carry and the base file's initial content.
    pub struct Client {
        /// Where its creates and unlinks name files.
        pub dir: InodeNo,
        /// The file every data op targets.
        pub base: InodeNo,
        /// The byte every write carries.
        pub byte: u8,
        /// The base file's content before the first write.
        pub content: Vec<u8>,
    }

    /// What a reply must look like.
    #[derive(Clone, Copy)]
    pub enum Expect {
        /// A create, unlink or fsync that succeeded.
        Done,
        /// A write of the whole buffer.
        Write,
        /// A read of the base file's content at this offset.
        Read(usize),
    }

    fn name(prefix: &str, k: u64) -> String {
        format!("{prefix}o{k}")
    }

    /// Client `c`'s base-file content under `seed`.
    pub fn base_content(seed: u64, c: usize) -> Vec<u8> {
        let x0 = seed ^ (c as u64).wrapping_mul(0x9E37_79B9);
        (0..BASE_LEN as u64)
            .map(|i| (x0.wrapping_add(i / 7).wrapping_mul(31) ^ i.wrapping_mul(131)) as u8)
            .collect()
    }

    /// Makes `clients` clients on `fs`, client `c` in directory `d{c}`
    /// with base file `base{c}`, and syncs them. Name ops serialize on
    /// the directory's op stripe, so each client gets its own.
    pub fn setup(fs: &dyn FileSystem, clients: usize, seed: u64) -> KResult<Vec<Client>> {
        let mut out = Vec::with_capacity(clients);
        for c in 0..clients {
            let dir = fs.mkdir(fs.root_ino(), &format!("d{c}"))?;
            let base = fs.create(dir, &format!("base{c}"))?;
            let content = base_content(seed, c);
            fs.write(base, 0, &content)?;
            let byte = c as u8;
            out.push(Client {
                dir,
                base,
                byte,
                content,
            });
            if c % SETUP_BATCH == SETUP_BATCH - 1 {
                fs.sync()?;
            }
        }
        fs.sync()?;
        Ok(out)
    }

    /// Op `k` of client `cx`'s stream, its names keyed by `prefix`.
    pub fn nth_op(cx: &Client, prefix: &str, k: u64) -> (BatchOp, Expect) {
        let (dir, ino, off) = (cx.dir, cx.base, (k % 4) * IO as u64);
        match k % 8 {
            0 => (
                BatchOp::Create {
                    dir,
                    name: name(prefix, k),
                },
                Expect::Done,
            ),
            4 if k >= UNLINK_LAG => {
                let name = name(prefix, k - UNLINK_LAG);
                (BatchOp::Unlink { dir, name }, Expect::Done)
            }
            7 => (BatchOp::Fsync { ino }, Expect::Done),
            2 | 4 | 6 => {
                let buf = vec![0u8; IO];
                (BatchOp::Read { ino, off, buf }, Expect::Read(off as usize))
            }
            _ => {
                let data = vec![cx.byte; IO];
                (BatchOp::Write { ino, off, data }, Expect::Write)
            }
        }
    }

    /// Whether `reply` is what `expect` asks for, given the base file's
    /// initial `content`.
    pub fn check(expect: Expect, reply: &BatchReply, content: &[u8]) -> bool {
        match (expect, reply) {
            (Expect::Read(off), BatchReply::Read { result, buf }) => {
                *result == Ok(IO) && buf[..IO] == content[off..off + IO]
            }
            (Expect::Write, BatchReply::Write { result, .. }) => *result == Ok(IO),
            (
                Expect::Done,
                BatchReply::Create(_) | BatchReply::Unlink(_) | BatchReply::Fsync(_),
            ) => reply.result().is_ok(),
            _ => false,
        }
    }

    /// The files an `n`-op stream keyed `prefix` created in its last 12
    /// ops, whose unlink never came.
    pub fn leftovers(prefix: &str, n: u64) -> impl Iterator<Item = String> + '_ {
        let ks = n.saturating_sub(UNLINK_LAG)..n;
        ks.filter(|k| k % 8 == 0).map(move |k| name(prefix, k))
    }

    /// After client `c` ran `n` ops keyed `prefix`, its directory holds
    /// `base{c}` and the [`leftovers`], and its base file holds the
    /// initial content with its byte over the blocks it wrote.
    pub fn state_ok(fs: &dyn FileSystem, c: usize, cx: &Client, prefix: &str, n: u64) -> bool {
        let mut want: Vec<String> = leftovers(prefix, n).collect();
        want.push(format!("base{c}"));
        want.sort();
        let Ok(entries) = fs.readdir(cx.dir) else {
            return false;
        };
        let mut have: Vec<String> = entries.into_iter().map(|e| e.name).collect();
        have.sort();
        let mut content = cx.content.clone();
        for k in (0..n.min(8)).filter(|k| matches!(k % 8, 1 | 3 | 5)) {
            let off = (k % 4) as usize * IO;
            content[off..off + IO].fill(cx.byte);
        }
        let mut buf = vec![0u8; BASE_LEN];
        have == want && fs.read(cx.base, 0, &mut buf) == Ok(BASE_LEN) && buf == content
    }

    /// How [`drive`]'s clients submit.
    pub enum Submit {
        /// Calling the `FileSystem` methods directly.
        PerCall,
        /// Keeping 8 SQEs in flight on this ring.
        Ring(Arc<Ring>),
    }

    /// What [`drive`] measured.
    pub struct Sample {
        /// Wall time of the fastest repetition.
        pub wall_ns: u64,
        /// Every op's latency in the fastest repetition.
        pub lats_ns: Vec<u64>,
        /// Failed [`check`]s and [`state_ok`]s over every repetition.
        pub failed_ops: u64,
    }

    /// Runs `ops_each` ops per client from one thread per client, `runs`
    /// times, and keeps the fastest repetition with its own latencies.
    /// An op's latency runs from building it to its reply, so on a ring
    /// it includes any time blocked on a full queue. Repetition `run`
    /// keys client `c`'s names `r{run}c{c}`; after it, off the clock,
    /// each client's state is checked and its leftovers unlinked.
    pub fn drive(
        fs: &Arc<dyn FileSystem>,
        submit: &Submit,
        clients: &[Client],
        ops_each: u64,
        runs: usize,
    ) -> Sample {
        let mut best: Option<(u64, Vec<u64>)> = None;
        let mut failed_ops = 0;
        for run in 0..runs {
            let prefix = |c| format!("r{run}c{c}");
            let t0 = Instant::now();
            let per_client: Vec<(Vec<u64>, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = (clients.iter().enumerate())
                    .map(|(c, cx)| s.spawn(move || client(&**fs, submit, cx, &prefix(c), ops_each)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client"))
                    .collect()
            });
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let mut lats = Vec::with_capacity(clients.len() * ops_each as usize);
            for (client_lats, failed) in per_client {
                lats.extend(client_lats);
                failed_ops += failed;
            }
            for (c, cx) in clients.iter().enumerate() {
                failed_ops += u64::from(!state_ok(&**fs, c, cx, &prefix(c), ops_each));
                for name in leftovers(&prefix(c), ops_each) {
                    failed_ops += u64::from(fs.unlink(cx.dir, &name).is_err());
                }
            }
            if best.as_ref().is_none_or(|(w, _)| wall_ns < *w) {
                best = Some((wall_ns, lats));
            }
        }
        let (wall_ns, lats_ns) = best.expect("at least one repetition");
        Sample {
            wall_ns,
            lats_ns,
            failed_ops,
        }
    }

    /// One client's repetition: its op latencies and failed replies.
    fn client(
        fs: &dyn FileSystem,
        submit: &Submit,
        cx: &Client,
        prefix: &str,
        ops_each: u64,
    ) -> (Vec<u64>, u64) {
        let mut lats = Vec::with_capacity(ops_each as usize);
        let mut failed = 0u64;
        let mut done = |t: Instant, expect, reply: &BatchReply| {
            lats.push(t.elapsed().as_nanos() as u64);
            failed += u64::from(!check(expect, reply, &cx.content));
        };
        let mut inflight = VecDeque::with_capacity(WINDOW);
        for k in 0..ops_each {
            if let Submit::Ring(ring) = submit {
                if inflight.len() == WINDOW {
                    let (ticket, t, expect) = inflight.pop_front().expect("window full");
                    done(t, expect, &ring.wait(ticket).reply);
                }
            }
            let t = Instant::now();
            let (op, expect) = nth_op(cx, prefix, k);
            match submit {
                Submit::PerCall => done(t, expect, &dispatch(fs, op)),
                Submit::Ring(ring) => {
                    inflight.push_back((ring.submit(op).expect("ring live"), t, expect));
                }
            }
        }
        if let Submit::Ring(ring) = submit {
            for (ticket, t, expect) in inflight {
                done(t, expect, &ring.wait(ticket).reply);
            }
        }
        (lats, failed)
    }
}

/// The hot-swap mix (DESIGN.md §17): calls on two directories of 24
/// files of 256 bytes, each drawn by a xorshift step — an 8-byte
/// overwrite at offset 0 one time in four, a stat one time in four, a
/// whole-file read otherwise. A read must return 256 bytes whose tail
/// past the 8-byte head is the initial fill, a stat must report 256
/// bytes, and at the end each file's head must be some worker's last
/// write to it (the fill if nobody wrote it), so a write lost across a
/// swap fails the run unless a later write covered it.
pub mod swap {
    use sk_ksim::errno::KResult;
    use sk_vfs::path::Vfs;

    const FILES_PER_DIR: usize = 24;
    const FILES: usize = 2 * FILES_PER_DIR;
    const FILE_LEN: usize = 256;
    const HEAD: usize = 8;
    const FILL: u8 = 0xA5;

    fn path(file: usize) -> String {
        format!("/d{}/f{}", file / FILES_PER_DIR, file % FILES_PER_DIR)
    }

    /// A file's length and its tail past the head are intact.
    fn intact(d: &[u8]) -> bool {
        d.len() == FILE_LEN && d[HEAD..].iter().all(|&b| b == FILL)
    }

    /// Makes the tree on `vfs`: both directories, then every file.
    pub fn populate(vfs: &Vfs) -> KResult<()> {
        vfs.mkdir("/d0")?;
        vfs.mkdir("/d1")?;
        for f in 0..FILES {
            vfs.create(&path(f))?;
            vfs.write_file(&path(f), 0, &[FILL; FILE_LEN])?;
        }
        Ok(())
    }

    /// One worker's stream and what it saw.
    pub struct Worker {
        x: u64,
        /// Calls issued.
        pub ops: u64,
        /// Calls whose reply failed its check.
        pub failed: u64,
        last: Vec<Option<[u8; HEAD]>>,
    }

    impl Worker {
        /// A worker whose xorshift state starts at `x` (nonzero).
        pub fn new(x: u64) -> Worker {
            assert_ne!(x, 0, "xorshift state must be nonzero");
            Worker {
                x,
                ops: 0,
                failed: 0,
                last: vec![None; FILES],
            }
        }

        /// Issues the next call on `vfs` and checks its reply.
        pub fn call(&mut self, vfs: &Vfs) {
            let mut x = self.x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.x = x;
            let file = (x % 2) as usize * FILES_PER_DIR + (x >> 8) as usize % FILES_PER_DIR;
            let path = path(file);
            let ok = match x % 4 {
                0 => {
                    let head = x.to_le_bytes();
                    self.last[file] = Some(head);
                    vfs.write_file(&path, 0, &head) == Ok(HEAD)
                }
                1 => vfs.stat(&path).is_ok_and(|a| a.size == FILE_LEN as u64),
                _ => vfs.read_file(&path).is_ok_and(|d| intact(&d)),
            };
            self.ops += 1;
            self.failed += u64::from(!ok);
        }
    }

    /// Every file is intact and its head is some worker's last write to
    /// it, or the fill if no worker wrote it.
    pub fn state_ok(vfs: &Vfs, workers: &[Worker]) -> bool {
        (0..FILES).all(|f| {
            let Ok(d) = vfs.read_file(&path(f)) else {
                return false;
            };
            let mut heads = workers.iter().filter_map(|w| w.last[f]).peekable();
            intact(&d)
                && match heads.peek() {
                    None => d[..HEAD] == [FILL; HEAD],
                    Some(_) => heads.any(|h| d[..HEAD] == h),
                }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::ring::{self, Client, Expect, Submit, IO};
    use sk_fs_safe::rsfs::{JournalMode, Rsfs};
    use sk_ksim::block::{BlockDevice, DiskFaultConfig, FaultyDisk, RamDisk};
    use sk_ksim::errno::Errno;
    use sk_ksim::lock::LockRegistry;
    use sk_vfs::modular::{BatchOp, BatchReply, FileSystem};
    use sk_vfs::ring::{Ring, RingReactor};
    use std::sync::Arc;

    fn client() -> Client {
        Client {
            dir: 2,
            base: 3,
            byte: 7,
            content: ring::base_content(1, 0),
        }
    }

    #[test]
    fn check_rejects_error_short_read_and_wrong_byte() {
        let cx = client();
        let good = cx.content[..IO].to_vec();
        let read = |result, buf| BatchReply::Read { result, buf };
        assert!(ring::check(
            Expect::Read(0),
            &read(Ok(IO), good.clone()),
            &cx.content
        ));
        assert!(!ring::check(
            Expect::Read(0),
            &read(Err(Errno::EIO), good.clone()),
            &cx.content
        ));
        assert!(!ring::check(
            Expect::Read(0),
            &read(Ok(IO - 1), good.clone()),
            &cx.content
        ));
        let mut wrong = good;
        wrong[IO / 2] ^= 1;
        assert!(!ring::check(
            Expect::Read(0),
            &read(Ok(IO), wrong),
            &cx.content
        ));
        let write = |result| BatchReply::Write {
            result,
            buf: vec![],
        };
        assert!(ring::check(Expect::Write, &write(Ok(IO)), &cx.content));
        assert!(!ring::check(
            Expect::Write,
            &write(Err(Errno::EROFS)),
            &cx.content
        ));
        assert!(!ring::check(
            Expect::Done,
            &BatchReply::Fsync(Err(Errno::EIO)),
            &cx.content
        ));
        assert!(!ring::check(Expect::Done, &write(Ok(IO)), &cx.content));
    }

    /// The first 16 ops of the stream, pinned so the rows stay comparable
    /// with earlier reports: (kind, offset).
    #[test]
    fn generator_prefix_is_pinned() {
        const PINNED: [(&str, u64); 16] = [
            ("create", 0),
            ("write", 1024),
            ("read", 2048),
            ("write", 3072),
            ("read", 0),
            ("write", 1024),
            ("read", 2048),
            ("fsync", 0),
            ("create", 0),
            ("write", 1024),
            ("read", 2048),
            ("write", 3072),
            ("unlink", 0),
            ("write", 1024),
            ("read", 2048),
            ("fsync", 0),
        ];
        let cx = client();
        for (k, want) in PINNED.iter().enumerate() {
            let got = match ring::nth_op(&cx, "p", k as u64).0 {
                BatchOp::Create { name, .. } => {
                    assert_eq!(name, format!("po{k}"));
                    ("create", 0)
                }
                BatchOp::Unlink { name, .. } => {
                    assert_eq!(name, format!("po{}", k - 12));
                    ("unlink", 0)
                }
                BatchOp::Fsync { .. } => ("fsync", 0),
                BatchOp::Read { off, .. } => ("read", off),
                BatchOp::Write { off, .. } => ("write", off),
            };
            assert_eq!(&got, want, "op {k}");
        }
        assert_eq!(ring::leftovers("p", 16).collect::<Vec<_>>(), ["po8"]);
    }

    #[test]
    fn drive_counts_failures_on_a_disk_that_fails_writes() {
        let faulty = Arc::new(FaultyDisk::new(
            RamDisk::new(4096),
            DiskFaultConfig::default(),
            1,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, 256, 256).unwrap();
        let fs = Rsfs::mount(dev, JournalMode::PerOp).unwrap();
        let fs: Arc<dyn FileSystem> = Arc::new(fs);
        let clients = ring::setup(&*fs, 4, 1).unwrap();
        let clean = ring::drive(&fs, &Submit::PerCall, &clients, 16, 1);
        assert_eq!(clean.failed_ops, 0);
        assert_eq!(clean.lats_ns.len(), 4 * 16);
        faulty.set_config(DiskFaultConfig {
            write_eio: 1.0,
            ..DiskFaultConfig::default()
        });
        let per_call = ring::drive(&fs, &Submit::PerCall, &clients, 16, 1);
        assert!(per_call.failed_ops > 0);
        let ring = Arc::new(Ring::new(&LockRegistry::new_disabled(), 32));
        let pool = RingReactor::spawn_pool(Arc::clone(&ring), Arc::clone(&fs), None, 1);
        let ringed = ring::drive(&fs, &Submit::Ring(ring), &clients, 16, 1);
        drop(pool);
        assert!(ringed.failed_ops > 0);
    }
}
