//! The socket-layer adapter harnesses drive both netstack generations
//! through: the legacy stack and the modular stack expose the same
//! surface, and only socket creation differs (protocol byte vs family
//! name). Calls a harness cannot go on from unwrap; calls whose failure
//! is an outcome (a refused send, an empty receive) report it.

use sk_netstack::legacy_stack::LegacyStack;
use sk_netstack::modular_stack::ModularStack;
use sk_netstack::packet::proto;
use sk_netstack::tcp::TcpCounters;

/// The least common denominator of the two socket layers.
pub trait NetStack {
    /// A TCP socket bound to `port`.
    fn tcp_socket(&self, port: u16) -> u64;
    /// Listens on `fd` with the default backlog.
    fn listen(&self, fd: u64);
    /// Listens on `fd` admitting up to `backlog` pending connections.
    fn listen_backlog(&self, fd: u64, backlog: usize);
    /// The next accepted connection on listener `fd`, if one is ready.
    fn accept(&self, fd: u64) -> Option<u64>;
    /// Starts a handshake from `fd` to `port`.
    fn connect(&self, fd: u64, port: u16);
    /// Whether `data` was accepted for sending to `dst`.
    fn try_send(&self, fd: u64, dst: u16, data: &[u8]) -> bool;
    /// Bytes delivered on `fd` since the last call (empty on error).
    fn recv(&self, fd: u64) -> Vec<u8>;
    /// Processes every frame waiting on the link.
    fn pump(&self);
    /// Runs the timers at the clock's current time.
    fn tick(&self);
    /// Whether `fd`'s connection failed (reset or retries exhausted).
    fn conn_failed(&self, fd: u64) -> bool;
    /// `fd`'s TCP counters (zero if it has none).
    fn counters(&self, fd: u64) -> TcpCounters;
    /// Frees the PCBs of closed connections; returns how many.
    fn reap(&self) -> usize;
}

/// Implements [`NetStack`] for a stack whose `socket` takes `$family`.
macro_rules! net_stack {
    ($stack:ty, $family:expr) => {
        impl NetStack for $stack {
            fn tcp_socket(&self, port: u16) -> u64 {
                self.socket($family, port).unwrap()
            }
            fn listen(&self, fd: u64) {
                <$stack>::listen(self, fd).unwrap()
            }
            fn listen_backlog(&self, fd: u64, backlog: usize) {
                <$stack>::listen_backlog(self, fd, backlog).unwrap()
            }
            fn accept(&self, fd: u64) -> Option<u64> {
                <$stack>::accept(self, fd).unwrap()
            }
            fn connect(&self, fd: u64, port: u16) {
                <$stack>::connect(self, fd, port).unwrap()
            }
            fn try_send(&self, fd: u64, dst: u16, data: &[u8]) -> bool {
                self.send(fd, dst, data).is_ok()
            }
            fn recv(&self, fd: u64) -> Vec<u8> {
                <$stack>::recv(self, fd).unwrap_or_default()
            }
            fn pump(&self) {
                <$stack>::pump(self).unwrap();
            }
            fn tick(&self) {
                <$stack>::tick(self)
            }
            fn conn_failed(&self, fd: u64) -> bool {
                <$stack>::conn_failed(self, fd).unwrap_or(false)
            }
            fn counters(&self, fd: u64) -> TcpCounters {
                self.tcp_counters(fd).unwrap_or_default()
            }
            fn reap(&self) -> usize {
                self.reap_closed()
            }
        }
    };
}

net_stack!(LegacyStack, proto::TCP);
net_stack!(ModularStack, "tcp");
