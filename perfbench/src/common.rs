//! What every workload shares: the seeded generator, the timed closed loop's
//! bookkeeping, the process's peak memory, and the result line.

use std::time::{Duration, Instant};

/// SplitMix64: a small, fully specified generator, so the same seed gives the
/// same inputs on every platform and with every version of the workspace's
/// own `rand` stand-in.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per stream so two streams drawn from
    /// one seed do not repeat each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The unit it is reported in.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Flow decisions attempted in the timed phase.
    pub attempted: u64,
    /// Identity queries in the timed phase that went unanswered or timed
    /// out, by the backend's own counter (`BackendStats::timeouts`).
    pub failed: u64,
    /// Oracle and cross-check violations; any entry fails the run.
    pub violations: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a violation, keeping the first few verbatim.
    pub fn violation(&mut self, message: String) {
        if self.violations.len() < 16 {
            self.violations.push(message);
        } else if self.violations.len() == 16 {
            self.violations
                .push("... further violations elided".to_string());
        }
    }
}

/// The one-line JSON result the benchmark prints last.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timed phase of a closed loop: whole rounds until the budget is spent,
/// each round's duration kept for the latency percentiles.
#[derive(Debug)]
pub struct Rounds {
    budget: Duration,
    started: Instant,
    /// Duration of every timed round, nanoseconds.
    round_ns: Vec<u64>,
    /// When each round ended, nanoseconds after the phase started.
    round_end_ns: Vec<u64>,
    /// Flows decided in timed rounds.
    pub flows: u64,
    wall: Duration,
    rss_mark: u64,
    rss_at_mark: Option<f64>,
}

impl Rounds {
    /// Starts the clock on a phase of `seconds`. Peak memory is read once
    /// the phase has decided `rss_mark` flows (or at its end, if fewer).
    pub fn start(seconds: u64, rss_mark: u64) -> Rounds {
        Rounds {
            budget: Duration::from_secs(seconds),
            started: Instant::now(),
            round_ns: Vec::new(),
            round_end_ns: Vec::new(),
            flows: 0,
            wall: Duration::ZERO,
            rss_mark,
            rss_at_mark: None,
        }
    }

    /// Whether another round fits in the budget.
    pub fn more(&self) -> bool {
        self.started.elapsed() < self.budget
    }

    /// Records one round of `flows` flows that took `elapsed`.
    pub fn record(&mut self, elapsed: Duration, flows: usize) {
        self.round_ns.push(elapsed.as_nanos() as u64);
        self.round_end_ns
            .push(self.started.elapsed().as_nanos() as u64);
        self.flows += flows as u64;
        if self.rss_at_mark.is_none() && self.flows >= self.rss_mark {
            self.rss_at_mark = Some(peak_rss_mb());
        }
    }

    /// Ends the phase: its wall time is frozen for [`Rounds::rate`].
    pub fn finish(&mut self) {
        self.wall = self.started.elapsed();
        if self.rss_at_mark.is_none() {
            self.rss_at_mark = Some(peak_rss_mb());
        }
    }

    /// Peak resident memory, MB, once the phase had decided its mark.
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_at_mark.unwrap_or_else(peak_rss_mb)
    }

    /// Flows per second of wall time over the finished phase.
    pub fn rate(&self) -> f64 {
        self.flows as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The phase cut into consecutive slices of at least [`SLICE_ROUNDS`]
    /// rounds and at least [`SLICE_NS`] of wall time (a trailing partial
    /// slice is dropped; a phase too short for one slice is one slice).
    pub fn slices(&self) -> Vec<Slice> {
        let mut out = Vec::new();
        let mut first = 0;
        let mut began = 0;
        let flows_per_round = self.flows as f64 / self.round_ns.len().max(1) as f64;
        for (i, &end) in self.round_end_ns.iter().enumerate() {
            let last = i + 1 == self.round_ns.len();
            if (i + 1 - first >= SLICE_ROUNDS && end - began >= SLICE_NS)
                || (last && out.is_empty())
            {
                let rounds = &self.round_ns[first..=i];
                out.push(Slice {
                    rate: rounds.len() as f64 * flows_per_round * 1e9 / (end - began).max(1) as f64,
                    p50_us: percentile(rounds, 50.0) as f64 / 1e3,
                    p99_us: percentile(rounds, 99.0) as f64 / 1e3,
                });
                first = i + 1;
                began = end;
            }
        }
        out
    }
}

/// One slice of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Flows per second over the slice.
    pub rate: f64,
    /// Median round duration, µs.
    pub p50_us: f64,
    /// 99th-percentile round duration, µs.
    pub p99_us: f64,
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `f64` samples; 0 when empty.
pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Fewest rounds in a slice: enough that its p99 has ten rounds beyond it.
pub const SLICE_ROUNDS: usize = 1_000;
/// Shortest slice, so that a slice spans the campus workload's reloads.
pub const SLICE_NS: u64 = 1_000_000_000;

/// The six end-to-end metrics, in `BENCHMARK.json` order. Rate and latency
/// are medians over the phase's slices: a burst of load from outside the
/// process spoils a slice or two, not the run. Every flow of a round waits
/// for the whole round and all rounds of a workload have the same size, so
/// a percentile over rounds is the same percentile over flows.
pub fn end_to_end(setup: Duration, rounds: &Rounds, queries: u64) -> Vec<Metric> {
    let slices = rounds.slices();
    let median = |f: fn(&Slice) -> f64| median_f64(&slices.iter().map(f).collect::<Vec<f64>>());
    eprintln!(
        "slice rates (1/s): {:?}",
        slices.iter().map(|s| s.rate.round()).collect::<Vec<_>>()
    );
    vec![
        metric("setup_s", "s", setup.as_secs_f64()),
        metric("decisions_per_s", "1/s", median(|s| s.rate)),
        metric("decision_p50_us", "us", median(|s| s.p50_us)),
        metric("decision_p99_us", "us", median(|s| s.p99_us)),
        metric(
            "queries_per_flow",
            "queries",
            queries as f64 / rounds.flows.max(1) as f64,
        ),
        metric("peak_rss_mb", "MB", rounds.peak_rss_mb()),
    ]
}
