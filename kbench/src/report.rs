//! From recorded latencies to the reported metrics.
//!
//! Every workload records the latency of each operation that completes
//! inside the measured window, from submission to a verified result.
//! The end-to-end figures pool all of them: throughput is their count
//! divided by the window, and the percentiles are taken over every one,
//! so a stall anywhere in the window shows in both.

use std::time::{Duration, Instant};

use crate::layers::{Snapshot, C};

/// The measured window of a run.
#[derive(Clone, Copy)]
pub struct Window {
    /// Where the warm-up ends and measuring starts.
    pub from: Instant,
    /// Where measuring ends.
    pub to: Instant,
}

impl Window {
    /// Records in `lats` the latency of an operation issued at `t0` and
    /// done at `t1`, if it was done inside the window.
    pub fn record(&self, lats: &mut Vec<u32>, t0: Instant, t1: Instant) {
        if (self.from..self.to).contains(&t1) {
            lats.push(u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX));
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Operations (requests) issued over the whole run.
    pub attempted: u64,
    /// Operations that failed or returned wrong data.
    pub failed: u64,
    /// End-of-run state checks passed.
    pub state_ok: bool,
    /// Latencies in nanoseconds of the operations done inside the
    /// window.
    pub lats_ns: Vec<u32>,
    /// Length of the measured window.
    pub window: Duration,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Layer figures accumulated over the measured window.
    pub layers: Snapshot,
    /// Reactor threads draining the ring.
    pub reactors: usize,
    /// Requests served, the base of the per-request network figures.
    pub requests: u64,
}

/// The median of `v` (upper median for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    f64::from(sorted[((sorted.len() - 1) as f64 * q).round() as usize])
}

/// Throughput, median latency and p99 latency over every operation done
/// inside the window.
fn end_to_end(o: &Outcome) -> (f64, f64, f64) {
    let mut lats = o.lats_ns.clone();
    if lats.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    lats.sort_unstable();
    (
        lats.len() as f64 / o.window.as_secs_f64(),
        quantile_sorted(&lats, 0.50) / 1e3,
        quantile_sorted(&lats, 0.99) / 1e3,
    )
}

fn per_op(n: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        n as f64 / ops as f64
    }
}

fn pct(part: u64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        part as f64 / whole * 100.0
    }
}

/// The `--trace 1` metrics: one figure per layer counter group.
fn per_layer(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let l = &o.layers;
    let wall_ns = o.window.as_nanos() as f64;
    let fs_ops = l.get(C::RingOps) + l.get(C::FsCalls);
    let fs_ns = l.get(C::FsBatchNs) + l.get(C::FsCallNs);
    let reactor_ns = l.get(C::FsBatchNs) + l.get(C::ReliefNs);
    vec![
        (
            "ring_submit_us",
            per_op(l.get(C::RingSubmitNs), l.get(C::RingSubmitted)) / 1e3,
            "us",
        ),
        (
            "ring_batch_ops",
            per_op(l.get(C::RingOps), l.get(C::RingBatches)),
            "count",
        ),
        (
            "reactor_busy_pct",
            pct(reactor_ns, wall_ns * o.reactors as f64),
            "%",
        ),
        (
            "fs_self_us_per_op",
            per_op(fs_ns.saturating_sub(l.get(C::FsDevNs)), fs_ops) / 1e3,
            "us",
        ),
        ("dev_us_per_op", per_op(l.get(C::DevNs), fs_ops) / 1e3, "us"),
        (
            "dev_reads_per_op",
            per_op(l.get(C::DevReads), fs_ops),
            "count",
        ),
        (
            "dev_writes_per_op",
            per_op(l.get(C::DevWrites), fs_ops),
            "count",
        ),
        (
            "dev_flushes_per_op",
            per_op(l.get(C::DevFlushes), fs_ops),
            "count",
        ),
        (
            "journal_relief_pct",
            pct(l.get(C::ReliefNs), reactor_ns as f64),
            "%",
        ),
        ("net_share_pct", pct(l.get(C::NetNs), wall_ns), "%"),
        (
            "net_frames_per_req",
            per_op(l.get(C::NetFrames), o.requests),
            "count",
        ),
        (
            "swap_blackout_pct",
            pct(l.get(C::SwapBlackoutNs), wall_ns),
            "%",
        ),
        (
            "swap_blocked_per_swap",
            per_op(l.get(C::SwapBlocked), l.get(C::Swaps)),
            "count",
        ),
    ]
}

/// The result line: end-to-end metrics untraced, per-layer ones traced.
pub fn json(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<(&str, f64, &str)> = if traced {
        per_layer(o)
    } else {
        let (tput, p50, p99) = end_to_end(o);
        vec![
            ("ops_per_s", tput, "1/s"),
            ("p50_us", p50, "us"),
            ("p99_us", p99, "us"),
            ("setup_s", o.setup_s, "s"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.state_ok && o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}
