//! `ring-churn`: the batched submission path under the ring's documented
//! mixed workload.
//!
//! The ops and the client shape are those of `bench_report`'s ring sweep
//! (DESIGN.md §14 and §18; EXPERIMENTS.md, "Multi-reactor ring
//! scaling"), at its two-reactor, depth-1024 row: `CLIENTS` closed-loop
//! clients, each in its own directory and keeping `INFLIGHT` SQEs in
//! flight, share one ring drained by `REACTORS` work-stealing reactors
//! into rsfs in async-commit mode, behind the journal's log-pressure
//! throttle. Per 8-op cycle a client issues one create, three 1 KiB
//! writes, two 1 KiB reads, one unlink and one fsync, every data op on
//! its base file. The unlink names the file created 12 ops earlier,
//! beyond the in-flight window, so that create has completed even when
//! reactors run batches out of order; in the first cycle it is a read.
//!
//! One addition makes every read checkable: the base file starts with
//! 4 KiB of seeded content, and the reads land on the two 1 KiB blocks
//! the writes never touch, so each is compared byte for byte.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use sk_fs_safe::rsfs::JournalMode;
use sk_ksim::block::BlockDevice;
use sk_vfs::modular::{BatchOp, BatchReply, FileSystem};
use sk_vfs::ring::{Ring, RingReactor};

use crate::layers;
use crate::report::{Outcome, Window};
use crate::sys::{self, Rng};
use crate::Plan;

const CLIENTS: usize = 128;
const INFLIGHT: usize = 8;
const DEPTH: usize = 1024;
const REACTORS: usize = 2;
const IO: usize = 1024;
const BASE_LEN: usize = 4 * IO;
/// Clients set up per commit: a running transaction of more blocks than
/// one journal descriptor can list overruns the descriptor at commit.
const SETUP_BATCH: usize = 32;

struct System {
    fs: Arc<dyn FileSystem>,
    dev: Arc<dyn BlockDevice>,
    dirs: Vec<u64>,
    bases: Vec<u64>,
    ring: Arc<Ring>,
    pool: Vec<RingReactor>,
}

/// The byte client `c` writes.
fn client_byte(seed: u64, c: usize) -> u8 {
    Rng::new(seed, 100 + c as u64).next() as u8
}

/// The content client `c`'s base file starts with.
fn base_content(seed: u64, c: usize) -> Vec<u8> {
    sys::pattern(seed, c as u64, 0, BASE_LEN)
}

fn setup(seed: u64) -> System {
    let (rsfs, dev) = sys::rsfs(16384, 1024, JournalMode::Async);
    let fs = sys::interface(Arc::clone(&rsfs) as Arc<dyn FileSystem>);
    let root = fs.root_ino();
    let (mut dirs, mut bases) = (Vec::new(), Vec::new());
    for c in 0..CLIENTS {
        let dir = fs.mkdir(root, &format!("d{c}")).expect("mkdir");
        let base = fs.create(dir, &format!("base{c}")).expect("create base");
        fs.write(base, 0, &base_content(seed, c))
            .expect("write base");
        dirs.push(dir);
        bases.push(base);
        if c % SETUP_BATCH == SETUP_BATCH - 1 {
            fs.sync().expect("sync");
        }
    }
    let throttle = Some(sys::throttle(&rsfs));
    let (ring, pool) = sys::ring_pool(Arc::clone(&fs), throttle, DEPTH, REACTORS);
    System {
        fs,
        dev,
        dirs,
        bases,
        ring,
        pool,
    }
}

/// What a reply must look like.
enum Expect {
    /// A create, unlink or fsync that succeeded.
    Done,
    /// A write of the whole buffer.
    Write,
    /// A read of the base file's content at this offset.
    Read(usize),
}

struct ClientCtx {
    ring: Arc<Ring>,
    dir: u64,
    base: u64,
    byte: u8,
    content: Vec<u8>,
}

fn name(k: u64) -> String {
    format!("o{k}")
}

/// Op `k` of a client's stream.
fn nth_op(cx: &ClientCtx, k: u64) -> (BatchOp, Expect) {
    let off = (k % 4) as usize * IO;
    match k % 8 {
        0 => {
            let op = BatchOp::Create {
                dir: cx.dir,
                name: name(k),
            };
            (op, Expect::Done)
        }
        4 if k >= 12 => {
            let op = BatchOp::Unlink {
                dir: cx.dir,
                name: name(k - 12),
            };
            (op, Expect::Done)
        }
        7 => (BatchOp::Fsync { ino: cx.base }, Expect::Done),
        2 | 4 | 6 => {
            let op = BatchOp::Read {
                ino: cx.base,
                off: off as u64,
                buf: vec![0u8; IO],
            };
            (op, Expect::Read(off))
        }
        _ => {
            let op = BatchOp::Write {
                ino: cx.base,
                off: off as u64,
                data: vec![cx.byte; IO],
            };
            (op, Expect::Write)
        }
    }
}

fn check(expect: Expect, reply: BatchReply, content: &[u8]) -> bool {
    match (expect, reply) {
        (Expect::Read(off), BatchReply::Read { result, buf }) => {
            result == Ok(IO) && buf[..IO] == content[off..off + IO]
        }
        (Expect::Write, BatchReply::Write { result, .. }) => result == Ok(IO),
        (
            Expect::Done,
            r @ (BatchReply::Create(_) | BatchReply::Unlink(_) | BatchReply::Fsync(_)),
        ) => r.result().is_ok(),
        _ => false,
    }
}

struct Client {
    lats: Vec<u32>,
    submitted: u64,
    failed: u64,
}

fn client(cx: ClientCtx, window: Window) -> Client {
    let mut out = Client {
        lats: Vec::new(),
        submitted: 0,
        failed: 0,
    };
    let mut inflight: VecDeque<(u64, Instant, Expect)> = VecDeque::with_capacity(INFLIGHT);
    loop {
        let done = Instant::now() >= window.to;
        if inflight.len() == INFLIGHT || (done && !inflight.is_empty()) {
            let (ticket, t0, expect) = inflight.pop_front().expect("an op is in flight");
            let cqe = cx.ring.wait(ticket);
            let t1 = Instant::now();
            if !check(expect, cqe.reply, &cx.content) {
                out.failed += 1;
            }
            window.record(&mut out.lats, t0, t1);
            continue;
        }
        if done {
            return out;
        }
        let (op, expect) = nth_op(&cx, out.submitted);
        let t0 = Instant::now();
        let ticket = sys::submit(&cx.ring, op);
        out.submitted += 1;
        inflight.push_back((ticket, t0, expect));
    }
}

/// Each client's directory holds its base file and the files created in
/// its last 12 ops, whose unlink never came; the base file holds its
/// seeded content with the client's byte over the blocks it wrote.
fn state_ok(s: &System, seed: u64, clients: &[Client]) -> bool {
    clients.iter().enumerate().all(|(c, cl)| {
        let n = cl.submitted;
        let mut want: Vec<String> = (n.saturating_sub(12)..n)
            .filter(|k| k % 8 == 0)
            .map(name)
            .collect();
        want.push(format!("base{c}"));
        want.sort();
        let mut have: Vec<String> = match s.fs.readdir(s.dirs[c]) {
            Ok(entries) => entries.into_iter().map(|e| e.name).collect(),
            Err(_) => return false,
        };
        have.sort();
        let mut content = base_content(seed, c);
        for k in (0..n.min(8)).filter(|k| matches!(k % 8, 1 | 3 | 5)) {
            let off = (k % 4) as usize * IO;
            content[off..off + IO].fill(client_byte(seed, c));
        }
        let mut buf = vec![0u8; BASE_LEN];
        have == want && s.fs.read(s.bases[c], 0, &mut buf) == Ok(BASE_LEN) && buf == content
    })
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let (s, setup_s) = plan.set_up(|| setup(plan.seed), |s| sys::stop_pool(s.pool));
    let window = plan.window_from(Instant::now());
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let cx = ClientCtx {
                ring: Arc::clone(&s.ring),
                dir: s.dirs[c],
                base: s.bases[c],
                byte: client_byte(plan.seed, c),
                content: base_content(plan.seed, c),
            };
            std::thread::spawn(move || client(cx, window))
        })
        .collect();
    let layers = plan.watch_layers(window, || {
        let mut kept = layers::device(s.dev.stats()).to_vec();
        kept.extend(layers::ring(s.ring.stats()));
        kept
    });
    let clients: Vec<Client> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let ok = state_ok(&s, plan.seed, &clients);
    sys::stop_pool(s.pool);
    Outcome {
        attempted: clients.iter().map(|c| c.submitted).sum(),
        failed: clients.iter().map(|c| c.failed).sum(),
        state_ok: ok,
        lats_ns: clients.into_iter().flat_map(|c| c.lats).collect(),
        window: plan.window,
        setup_s,
        layers,
        reactors: REACTORS,
        requests: 0,
    }
}
