//! `serve`: files read from the file system through the ring and
//! served over TCP — the one workload that crosses every layer.
//!
//! The server runs the upgraded generations (rsfs under the VFS, the
//! modular TCP stack); its `CLIENTS` clients run the legacy TCP stack,
//! so the link carries mixed generations as incremental deployment
//! would. Closed loop: each client keeps one request outstanding on its
//! own keep-alive connection, `GET <path>\n`, and the server answers
//! with a 4-byte length and the file's bytes. Per request the server
//! walks the path through the VFS (dentry cache), submits one read SQE
//! and, when its CQE arrives, sends the buffer. Every response is
//! compared byte for byte with the file's content.
//!
//! The traffic is an assumption, not taken from a trace: `HOT_PCT`% of
//! requests go to a hot set of `HOT_FILES` files and the rest spread
//! evenly over all `FILES`, whose sizes are evenly spaced over
//! `MIN_LEN..=MAX_LEN`. The tree is about twice the buffer cache, so
//! cold requests reach the device.
//!
//! One thread drives both network stacks (they are simulated on one
//! virtual clock); it parks on the oldest outstanding CQE whenever a
//! round moves nothing, like an event loop blocking in its poller.

use std::sync::Arc;
use std::time::Instant;

use sk_core::modularity::Registry;
use sk_fs_safe::rsfs::JournalMode;
use sk_ksim::block::BlockDevice;
use sk_ksim::time::SimClock;
use sk_legacy::LegacyCtx;
use sk_netstack::legacy_stack::LegacyStack;
use sk_netstack::modular_stack::{register_families, ModularStack};
use sk_netstack::packet::proto;
use sk_netstack::tcp::TcpState;
use sk_netstack::wire::{Link, Side, Wire};
use sk_vfs::modular::{BatchOp, BatchReply, FileSystem};
use sk_vfs::path::{Vfs, FS_INTERFACE};
use sk_vfs::ring::{Cqe, Ring, RingReactor};

use crate::layers::{self, C};
use crate::report::{Outcome, Window};
use crate::sys::{self, Rng};
use crate::Plan;

const DIRS: usize = 8;
const FILES_PER_DIR: usize = 64;
const FILES: usize = DIRS * FILES_PER_DIR;
const MIN_LEN: usize = 512;
const MAX_LEN: usize = 8192;
const HOT_FILES: usize = 64;
const HOT_PCT: u64 = 80;
const CLIENTS: usize = 16;
const DEPTH: usize = 64;
const REACTORS: usize = 1;
const PORT: u16 = 80;
const CLIENT_PORT0: u16 = 5000;
/// Virtual time per event-loop round: well under the delayed-ACK timer and
/// the retransmission timeout, so a clean link never retransmits.
const ROUND_NS: u64 = 100_000;

struct System {
    vfs: Vfs,
    contents: Vec<Vec<u8>>,
    dev: Arc<dyn BlockDevice>,
    ring: Arc<Ring>,
    pool: Vec<RingReactor>,
    clock: Arc<SimClock>,
    wire: Arc<Wire>,
    server: ModularStack,
    clients: LegacyStack,
    conns: Vec<u64>,
    client_fds: Vec<u64>,
}

fn path(file: usize) -> String {
    format!("/d{}/f{}", file / FILES_PER_DIR, file % FILES_PER_DIR)
}

fn setup(seed: u64) -> System {
    let (rsfs, dev) = sys::rsfs(16384, 1024, JournalMode::Async);
    let fs = sys::interface(Arc::clone(&rsfs) as Arc<dyn FileSystem>);
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "rsfs", Arc::clone(&fs))
        .expect("register rsfs");
    let vfs = Vfs::mount(&registry).expect("mount vfs");
    let mut rng = Rng::new(seed, 1);
    let mut lens = rng.sizes(HOT_FILES, MIN_LEN, MAX_LEN);
    lens.extend(rng.sizes(FILES - HOT_FILES, MIN_LEN, MAX_LEN));
    let mut contents = Vec::with_capacity(FILES);
    for d in 0..DIRS {
        vfs.mkdir(&format!("/d{d}")).expect("mkdir");
    }
    for (f, &len) in lens.iter().enumerate() {
        let data = sys::pattern(seed, f as u64, 0, len);
        vfs.create(&path(f)).expect("create");
        vfs.write_file(&path(f), 0, &data).expect("write");
        contents.push(data);
        // A running transaction of more blocks than one journal
        // descriptor can list overruns the descriptor at commit, so the
        // tree is committed a directory at a time.
        if f % FILES_PER_DIR == FILES_PER_DIR - 1 {
            vfs.sync().expect("sync");
        }
    }
    let (ring, pool) = sys::ring_pool(fs, Some(sys::throttle(&rsfs)), DEPTH, REACTORS);

    let clock = Arc::new(SimClock::new());
    let wire = Arc::new(Wire::new());
    let link: Arc<dyn Link> = Arc::clone(&wire) as Arc<dyn Link>;
    let families = Arc::new(Registry::new());
    register_families(&families).expect("register protocol families");
    let server = ModularStack::new(families, Side::B, Arc::clone(&link), Arc::clone(&clock));
    let clients = LegacyStack::new(LegacyCtx::new(), Side::A, link, Arc::clone(&clock));
    let listener = server.socket("tcp", PORT).expect("server socket");
    server.listen_backlog(listener, CLIENTS).expect("listen");
    let client_fds: Vec<u64> = (0..CLIENTS)
        .map(|i| {
            let fd = clients
                .socket(proto::TCP, CLIENT_PORT0 + i as u16)
                .expect("client socket");
            clients.connect(fd, PORT).expect("connect");
            fd
        })
        .collect();
    let mut conns = Vec::with_capacity(CLIENTS);
    for _ in 0..1000 {
        clients.pump().expect("pump");
        server.pump().expect("pump");
        while let Some(c) = server.accept(listener).expect("accept") {
            conns.push(c);
        }
        let connected = client_fds
            .iter()
            .all(|&fd| clients.tcp_state(fd) == Ok(TcpState::Established));
        if conns.len() == CLIENTS && connected {
            break;
        }
        clock.advance(ROUND_NS);
        clients.tick();
        server.tick();
    }
    assert_eq!(conns.len(), CLIENTS, "every client connects");
    System {
        vfs,
        contents,
        dev,
        ring,
        pool,
        clock,
        wire,
        server,
        clients,
        conns,
        client_fds,
    }
}

/// One client's outstanding request.
struct Request {
    file: usize,
    sent: Instant,
    got: Vec<u8>,
}

/// The server's half of one connection.
struct Conn {
    fd: u64,
    inbuf: Vec<u8>,
}

struct Driver<'a> {
    s: &'a System,
    traced: bool,
    rng: Rng,
    reqs: Vec<Request>,
    conns: Vec<Conn>,
    /// Reads in flight: ticket and the connection to answer.
    pending: Vec<(u64, usize)>,
    lats: Vec<u32>,
    window: Window,
    attempted: u64,
    failed: u64,
    served: u64,
}

impl Driver<'_> {
    /// Runs `f` as network-stack time.
    fn net<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        layers::add_since(C::NetNs, t0);
        r
    }

    fn pick(&mut self) -> usize {
        if self.rng.range(0, 100) < HOT_PCT {
            self.rng.range(0, HOT_FILES as u64) as usize
        } else {
            self.rng.range(0, FILES as u64) as usize
        }
    }

    fn send_request(&mut self, c: usize) {
        let file = self.pick();
        let line = format!("GET {}\n", path(file));
        let fd = self.s.client_fds[c];
        self.reqs[c] = Request {
            file,
            sent: Instant::now(),
            got: Vec::new(),
        };
        let sent = self.net(|| self.s.clients.send(fd, PORT, line.as_bytes()));
        self.attempted += 1;
        if sent.is_err() {
            self.failed += 1;
        }
    }

    /// Parses complete request lines and submits one read per request.
    fn take_requests(&mut self) -> bool {
        let mut moved = false;
        for ci in 0..self.conns.len() {
            let fd = self.conns[ci].fd;
            let data = self.net(|| self.s.server.recv(fd)).unwrap_or_default();
            if data.is_empty() {
                continue;
            }
            moved = true;
            self.conns[ci].inbuf.extend_from_slice(&data);
            while let Some(nl) = self.conns[ci].inbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.conns[ci].inbuf.drain(..=nl).collect();
                let ino = std::str::from_utf8(&line[..nl])
                    .ok()
                    .and_then(|l| l.strip_prefix("GET "))
                    .map(|p| self.s.vfs.resolve(p));
                match ino {
                    Some(Ok(ino)) => {
                        let op = BatchOp::Read {
                            ino,
                            off: 0,
                            buf: vec![0u8; MAX_LEN],
                        };
                        let ticket = sys::submit(&self.s.ring, op);
                        self.pending.push((ticket, ci));
                    }
                    _ => self.failed += 1,
                }
            }
        }
        moved
    }

    /// Sends the file a completed read returned.
    fn respond(&mut self, ci: usize, cqe: Cqe) {
        let fd = self.conns[ci].fd;
        match cqe.reply {
            BatchReply::Read { result: Ok(n), buf } => {
                let mut out = Vec::with_capacity(4 + n);
                out.extend_from_slice(&(n as u32).to_le_bytes());
                out.extend_from_slice(&buf[..n]);
                if self.net(|| self.s.server.send(fd, 0, &out)).is_err() {
                    self.failed += 1;
                }
            }
            _ => self.failed += 1,
        }
    }

    fn reap(&mut self) -> bool {
        let mut moved = false;
        let mut i = 0;
        while i < self.pending.len() {
            let (ticket, ci) = self.pending[i];
            match self.s.ring.try_reap(ticket) {
                Some(cqe) => {
                    self.pending.swap_remove(i);
                    self.respond(ci, cqe);
                    moved = true;
                }
                None => i += 1,
            }
        }
        moved
    }

    /// Collects response bytes; a complete response is checked, timed,
    /// and followed by the client's next request.
    fn take_responses(&mut self) -> bool {
        let mut moved = false;
        for c in 0..CLIENTS {
            let fd = self.s.client_fds[c];
            let data = self.net(|| self.s.clients.recv(fd)).unwrap_or_default();
            if data.is_empty() {
                continue;
            }
            moved = true;
            let req = &mut self.reqs[c];
            req.got.extend_from_slice(&data);
            let want = &self.s.contents[req.file];
            if req.got.len() < 4 + want.len() {
                continue;
            }
            let t1 = Instant::now();
            let len_ok = req.got[..4] == (want.len() as u32).to_le_bytes();
            if !len_ok || req.got.len() != 4 + want.len() || req.got[4..] != want[..] {
                self.failed += 1;
            }
            self.window.record(&mut self.lats, req.sent, t1);
            self.served += 1;
            self.send_request(c);
        }
        moved
    }

    fn round(&mut self) {
        let frames =
            self.net(|| self.s.clients.pump().unwrap_or(0) + self.s.server.pump().unwrap_or(0));
        let mut moved = frames > 0;
        moved |= self.take_requests();
        moved |= self.reap();
        moved |= self.take_responses();
        self.s.clock.advance(ROUND_NS);
        self.net(|| {
            self.s.clients.tick();
            self.s.server.tick();
        });
        if !moved && !self.pending.is_empty() {
            let (ticket, ci) = self.pending.remove(0);
            let cqe = self.s.ring.wait(ticket);
            self.respond(ci, cqe);
        }
    }
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let (s, setup_s) = plan.set_up(|| setup(plan.seed), |s| sys::stop_pool(s.pool));
    let start = Instant::now();
    let window = plan.window_from(start);
    let mut d = Driver {
        s: &s,
        traced: layers::on(),
        rng: Rng::new(plan.seed, 2),
        reqs: (0..CLIENTS)
            .map(|_| Request {
                file: 0,
                sent: start,
                got: Vec::new(),
            })
            .collect(),
        conns: s
            .conns
            .iter()
            .map(|&fd| Conn {
                fd,
                inbuf: Vec::new(),
            })
            .collect(),
        pending: Vec::new(),
        lats: Vec::new(),
        window,
        attempted: 0,
        failed: 0,
        served: 0,
    };
    for c in 0..CLIENTS {
        d.send_request(c);
    }
    while Instant::now() < window.from {
        d.round();
    }
    let kept = || {
        let mut kept = layers::device(s.dev.stats()).to_vec();
        kept.extend(layers::ring(s.ring.stats()));
        kept.push((C::NetFrames, s.wire.stats().0));
        kept
    };
    let before = layers::snapshot(&kept());
    let served_before = d.served;
    while Instant::now() < window.to {
        d.round();
    }
    let layers = layers::snapshot(&kept()).since(&before);
    let requests = d.served - served_before;
    let (attempted, failed, lats_ns) = (d.attempted, d.failed, std::mem::take(&mut d.lats));
    let state_ok = (0..FILES).all(|f| {
        s.vfs
            .stat(&path(f))
            .is_ok_and(|a| a.size == s.contents[f].len() as u64)
    });
    sys::stop_pool(s.pool);
    Outcome {
        attempted,
        failed,
        state_ok,
        lats_ns,
        window: plan.window,
        setup_s,
        layers,
        reactors: REACTORS,
        requests,
    }
}
