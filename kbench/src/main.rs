//! kbench: one benchmark for the whole simulated kernel.
//!
//! Usage: `kbench --workload <ring-churn|serve|swap-mixed> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Each workload builds its system from `--seed` (set up several times;
//! the median set-up time is reported), warms up for a second, then
//! measures for `--seconds`. With `--trace 0` the last line of standard
//! output is the end-to-end result (throughput, median and p99 latency,
//! set-up time); with `--trace 1` every layer boundary is instrumented
//! and the per-layer breakdown is printed instead. Every run checks
//! what the system returned and the state it was left in; `correct` is
//! false if any check failed.

mod layers;
mod report;
mod ring_churn;
mod serve;
mod swap_mixed;
mod sys;

use std::time::{Duration, Instant};

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 25;

/// A run that has not finished by then is stuck: fail it rather than
/// outlive the caller's time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

/// What one run does, shared by every workload.
pub struct Plan {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Untimed run-in before the measured window.
    pub warmup: Duration,
    /// Length of the measured window.
    pub window: Duration,
}

impl Plan {
    /// Builds the system `SETUPS` times, tearing down all but the last
    /// build, and returns it with the median build time in seconds.
    pub fn set_up<S>(&self, build: impl Fn() -> S, teardown: impl Fn(S)) -> (S, f64) {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        for _ in 0..SETUPS {
            if let Some(s) = last.take() {
                teardown(s);
            }
            let t0 = Instant::now();
            last = Some(build());
            times.push(t0.elapsed().as_secs_f64());
        }
        (
            last.expect("at least one set-up"),
            report::median(&mut times),
        )
    }

    /// The measured window of a run that starts at `start`: the warm-up,
    /// then `window`.
    pub fn window_from(&self, start: Instant) -> report::Window {
        let from = start + self.warmup;
        report::Window {
            from,
            to: from + self.window,
        }
    }

    /// Sleeps through window `w`, returning the layer figures accumulated
    /// over it; `kept` reads the crates' own counters.
    pub fn watch_layers(
        &self,
        w: report::Window,
        kept: impl Fn() -> Vec<(layers::C, u64)>,
    ) -> layers::Snapshot {
        sleep_until(w.from);
        let before = layers::snapshot(&kept());
        sleep_until(w.to);
        layers::snapshot(&kept()).since(&before)
    }
}

/// Sleeps until `t` (returns at once if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "kbench: {msg}\nusage: kbench --workload <ring-churn|serve|swap-mixed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {value}")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number()),
            "--trace" => trace = Some(number()),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(1..=60).contains(&seconds) {
        usage("--seconds must be 1..=60");
    }
    let traced = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let plan = Plan {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        warmup: Duration::from_secs(1),
        window: Duration::from_secs(seconds),
    };

    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("kbench: run exceeded {}s, aborting", WATCHDOG.as_secs());
        std::process::exit(3);
    });

    layers::enable(traced);
    let outcome = match workload.as_str() {
        "ring-churn" => ring_churn::run(&plan),
        "serve" => serve::run(&plan),
        "swap-mixed" => swap_mixed::run(&plan),
        other => usage(&format!("unknown workload {other}")),
    };
    eprintln!(
        "kbench {workload}: {} attempted, {} failed, state {}, {} timed in the window",
        outcome.attempted,
        outcome.failed,
        if outcome.state_ok { "ok" } else { "WRONG" },
        outcome.lats_ns.len()
    );
    println!("{}", report::json(&outcome, traced));
}
