//! E11: open-loop sustained load over the sharded tier, with population
//! churn.
//!
//! E9/E10 are **closed-loop**: the driver decides a round, waits, decides
//! the next, so the offered load adjusts itself to whatever the tier can
//! absorb and the reported latency can never show queueing. E11 is
//! **open-loop**: flow arrivals are scheduled on a wall clock at a
//! configured rate — flow `i` arrives at `i / rate` seconds, whether or not
//! the tier has finished earlier work — and each decision's latency is
//! measured from its *scheduled arrival* to its completion. A tier that
//! falls behind accumulates queue delay that lands in the tail percentiles
//! instead of silently stretching the run (the coordinated-omission trap;
//! DESIGN.md §10 has the full rationale).
//!
//! The population is thousands of in-process daemons behind one shared
//! directory ([`SharedDirectoryBackend`]) queried by every shard, each
//! daemon presenting a per-host signed delegation bundle so the decision
//! path exercises the full E13 verify plane (policy: `pass` only what
//! `verify()` authenticates; a slice of hosts present forged bundles and
//! must never pass). Sources are drawn with hot-set locality, destinations
//! uniformly. A [`ChurnPlan`] arrives/departs daemons mid-run through the
//! tier's churn hooks; a small share of traffic keeps naming recently
//! departed hosts, which the fail-closed configuration must deny.
//!
//! Latency goes into the mergeable [`LogHistogram`]; the cell reports
//! p50/p99/p999, queries/flow, verify-cache hit rate, fail-closed denies,
//! churn volume, and peak RSS/threads, emitted as `BENCH_E11.json` rows by
//! the scenarios binary.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::hist::LogHistogram;
use crate::report::BenchRow;
use crate::scenarios::process_threads;
use identxx_controller::{ControllerConfig, ShardedController, SharedDirectoryBackend};
use identxx_crypto::{sign_bundle_windowed, KeyPair};
use identxx_daemon::{ChurnPlan, ChurnSchedule, Daemon};
use identxx_hostmodel::Host;
use identxx_pf::CacheGranularity;
use identxx_proto::{FiveTuple, Ipv4Addr};

/// The requirements every E11 bundle signs over (the delegated policy).
const E11_REQS: &str = "block all\npass all with eq(@src[name], research-app)";

/// The controller policy: nothing passes without an authentic delegation.
/// `keep state` caches passing host pairs (HostPairDstPort keys), so
/// repeated hot pairs skip the query round entirely — the warming curve E8b
/// measures, here under sustained load.
const E11_POLICY: &str = "block all\npass all with verify(@src[req-sig], Secur, \
                          @src[exe-hash], @src[name], @src[requirements]) keep state\n";

/// Every 16th daemon presents a bundle signed over a different name than it
/// claims — a forged delegation the verify plane must block at any scale.
const IMPOSTER_EVERY: usize = 16;

/// Hot sources: this many live hosts receive `locality` of the source
/// picks.
const HOT_SOURCES: usize = 64;

/// Verify-cache capacity: holds the hot sources' bundles comfortably, far
/// fewer than the whole population, so cold traffic and churn arrivals
/// keep paying (and amortizing) fresh verifies.
const E11_VERIFY_CAPACITY: usize = 256;

/// Max flows dispatched per `decide_batch` round.
const E11_MAX_BATCH: usize = 128;

/// One in this many destination picks names a recently departed host
/// (peers keep connecting to hosts that left — the fail-closed path).
const DEPARTED_DST_EVERY: u64 = 32;

/// First address of the E11 population; daemon `i` is `base + i`.
const E11_BASE_ADDR: Ipv4Addr = Ipv4Addr::new(10, 32, 0, 0);

/// One sustained-load cell.
#[derive(Debug, Clone)]
pub struct E11Config {
    /// Initial daemon population.
    pub daemons: usize,
    /// Controller shards over the shared directory.
    pub shards: usize,
    /// Offered arrival rate, flows per second.
    pub rate_per_sec: f64,
    /// Steady-state window length.
    pub duration: Duration,
    /// Probability a source pick comes from the hot set.
    pub locality: f64,
    /// Population churn, when enabled.
    pub churn: Option<ChurnPlan>,
    /// Workload seed (source/destination picks).
    pub seed: u64,
}

/// What one cell measured.
pub struct E11Cell {
    /// Per-decision latency (scheduled arrival → completion), microseconds.
    pub latency: LogHistogram,
    /// Flows offered (and decided — the run asserts none were dropped).
    pub flows: usize,
    /// Wall-clock length of the run.
    pub elapsed: Duration,
    /// Decisions per second actually completed.
    pub achieved_rate: f64,
    /// Pass / deny split.
    pub passes: usize,
    /// Denies (forged bundles, fail-closed, default blocks).
    pub blocks: usize,
    /// Daemon queries per flow (state-table hits drive this below 2).
    pub queries_per_flow: f64,
    /// State-table hit ratio.
    pub cache_hit_ratio: f64,
    /// Verify-cache hit rate over verify() evaluations.
    pub verify_hit_rate: f64,
    /// Forged bundles rejected by the verify plane.
    pub forged_rejections: u64,
    /// Fail-closed denies (unanswerable flows).
    pub fail_closed: usize,
    /// Daemons that joined mid-run.
    pub arrivals: usize,
    /// Daemons that left mid-run.
    pub departures: usize,
    /// Peak resident set of the process, kB (`VmHWM`; process-wide).
    pub peak_rss_kb: u64,
    /// Peak thread count sampled during the run.
    pub peak_threads: usize,
}

/// Peak resident set size of this process in kB, from `/proc/self/status`
/// (`VmHWM`); 0 when unreadable (non-Linux).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Mints daemon `index`: a per-host signed bundle under the `Secur` key,
/// forged (name mismatch) for every [`IMPOSTER_EVERY`]-th host. Returns the
/// daemon, its address, and whether it is an imposter.
fn mint_daemon(signer: &KeyPair, index: usize) -> (Daemon, Ipv4Addr, bool) {
    let addr = Ipv4Addr(E11_BASE_ADDR.0 + index as u32);
    let exe_hash = format!("e11-exe-{index:06}");
    let bundle = sign_bundle_windowed(
        signer,
        "Secur",
        0,
        u64::MAX,
        &[exe_hash.as_str(), "research-app", E11_REQS],
    );
    let imposter = index % IMPOSTER_EVERY == IMPOSTER_EVERY - 1;
    let name = if imposter {
        "imposter-app"
    } else {
        "research-app"
    };
    let mut daemon = Daemon::bare(Host::new(format!("h{addr}"), addr));
    daemon.set_forged_response(Some(vec![
        ("name".to_string(), name.to_string()),
        ("exe-hash".to_string(), exe_hash),
        ("requirements".to_string(), E11_REQS.to_string()),
        ("req-sig".to_string(), bundle.to_hex()),
    ]));
    (daemon, addr, imposter)
}

/// Builds the tier: `shards` controllers over one shared daemon directory,
/// fail-closed on unanswerable flows, host-pair+port cache keys, the E11
/// verify policy.
fn e11_tier(signer: &KeyPair, config: &E11Config) -> (ShardedController, Vec<(Ipv4Addr, bool)>) {
    let (directory, first) = SharedDirectoryBackend::fresh();
    let mut live = Vec::with_capacity(config.daemons);
    {
        let mut directory = directory.lock().expect("fresh directory");
        for index in 0..config.daemons {
            let (daemon, addr, imposter) = mint_daemon(signer, index);
            live.push((addr, imposter));
            directory.register(daemon);
        }
    }
    let controller_config = ControllerConfig::new()
        .with_control_file("00.control", E11_POLICY)
        .with_trusted_key("Secur", signer.public())
        .with_verify_cache_capacity(E11_VERIFY_CAPACITY)
        .with_cache_granularity(CacheGranularity::HostPairDstPort)
        .with_fail_closed_on_unanswered();
    let mut first = Some(first);
    let tier = ShardedController::new(controller_config, config.shards)
        .expect("compile E11 policy")
        .with_backends(|_| match first.take() {
            Some(backend) => Box::new(backend),
            None => Box::new(SharedDirectoryBackend::new(Arc::clone(&directory))),
        });
    (tier, live)
}

/// Applies one churn tick through the tier's churn hooks: departures leave
/// the shared directory (picked deterministically from the live set),
/// arrivals are freshly minted hosts with fresh bundles.
#[allow(clippy::too_many_arguments)]
fn apply_churn_tick(
    tier: &mut ShardedController,
    schedule: &mut ChurnSchedule,
    signer: &KeyPair,
    live: &mut Vec<(Ipv4Addr, bool)>,
    departed: &mut Vec<Ipv4Addr>,
    next_index: &mut usize,
    arrivals: usize,
    departures: usize,
) -> (usize, usize) {
    let mut left = 0;
    for _ in 0..departures {
        // Keep the population comfortably above the hot set so locality
        // keeps meaning something even under a departure-heavy plan.
        if live.len() <= HOT_SOURCES * 2 {
            break;
        }
        let victim = schedule.pick(live.len());
        let (addr, _) = live.swap_remove(victim);
        assert!(
            tier.unregister_daemon(addr),
            "E11 churn: departing daemon {addr} was not registered"
        );
        departed.push(addr);
        left += 1;
    }
    if departed.len() > DEPARTED_DST_EVERY as usize {
        let excess = departed.len() - DEPARTED_DST_EVERY as usize;
        departed.drain(..excess);
    }
    let mut joined = 0;
    for _ in 0..arrivals {
        let (daemon, addr, imposter) = mint_daemon(signer, *next_index);
        *next_index += 1;
        live.push((addr, imposter));
        tier.register_daemon(daemon);
        joined += 1;
    }
    (joined, left)
}

/// Runs one open-loop cell. Panics when a harness invariant breaks (a
/// forged bundle passes, a flow is dropped, the tier cannot hold ≥ half the
/// offered rate).
pub fn run_cell(config: &E11Config) -> E11Cell {
    assert!(config.rate_per_sec > 0.0 && config.shards > 0 && config.daemons > HOT_SOURCES);
    let signer = KeyPair::from_seed(b"Secur");
    let (mut tier, mut live) = e11_tier(&signer, config);
    let mut schedule = config.churn.as_ref().map(ChurnPlan::schedule);

    let total = (config.rate_per_sec * config.duration.as_secs_f64()).round() as usize;
    let ns_per_arrival = (1e9 / config.rate_per_sec) as u64;
    let scheduled_at = |i: usize| Duration::from_nanos(i as u64 * ns_per_arrival);

    // Peak-thread sampler: the tier itself spawns no thread (its shards'
    // rounds are futures joined on this one), so the peak shows the
    // runtime's fixed threads; sampling from outside would also catch any
    // thread that exists only while a batch is in flight.
    let stop = Arc::new(AtomicBool::new(false));
    let peak_threads = Arc::new(AtomicUsize::new(process_threads()));
    let sampler = {
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak_threads);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(process_threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let mut rng = config.seed | 1;
    let mut next_rand = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let mut latency = LogHistogram::new();
    let mut departed: Vec<Ipv4Addr> = Vec::new();
    let mut next_index = config.daemons;
    let mut arrivals = 0usize;
    let mut departures = 0usize;
    let mut passes = 0usize;
    let mut blocks = 0usize;
    let mut decided = 0usize;
    let mut chunk: Vec<FiveTuple> = Vec::with_capacity(E11_MAX_BATCH);
    let mut chunk_meta: Vec<(usize, bool)> = Vec::with_capacity(E11_MAX_BATCH);

    let started = Instant::now();
    let mut next = 0usize;
    while next < total {
        let now = started.elapsed();
        let now_micros = now.as_micros() as u64;
        if let Some(schedule) = schedule.as_mut() {
            for tick in schedule.ticks_until(now_micros) {
                let (joined, left) = apply_churn_tick(
                    &mut tier,
                    schedule,
                    &signer,
                    &mut live,
                    &mut departed,
                    &mut next_index,
                    tick.arrivals,
                    tick.departures,
                );
                arrivals += joined;
                departures += left;
            }
        }

        // Every flow whose scheduled arrival has passed is due, up to the
        // dispatch cap; each is generated against the population as of its
        // arrival.
        chunk.clear();
        chunk_meta.clear();
        while next < total && chunk.len() < E11_MAX_BATCH && scheduled_at(next) <= now {
            let hot = HOT_SOURCES.min(live.len());
            let (src, imposter) = if (next_rand() % 1_000) as f64 / 1_000.0 < config.locality {
                live[(next_rand() as usize) % hot]
            } else {
                live[(next_rand() as usize) % live.len()]
            };
            let dst = if !departed.is_empty() && next_rand() % DEPARTED_DST_EVERY == 0 {
                departed[(next_rand() as usize) % departed.len()]
            } else {
                let mut dst = live[(next_rand() as usize) % live.len()].0;
                if dst == src {
                    dst = live[(next_rand() as usize) % live.len()].0;
                }
                dst
            };
            let dst_port = if next_rand() % 2 == 0 { 80 } else { 443 };
            chunk.push(FiveTuple::tcp(
                src,
                40_000 + (next % 20_000) as u16,
                dst,
                dst_port,
            ));
            chunk_meta.push((next, imposter));
            next += 1;
        }

        if chunk.is_empty() {
            // Ahead of schedule: sleep toward the next arrival (bounded so
            // churn ticks stay timely).
            let until_next = scheduled_at(next).saturating_sub(started.elapsed());
            if !until_next.is_zero() {
                std::thread::sleep(until_next.min(Duration::from_millis(1)));
            }
            continue;
        }

        let decisions = tier.decide_batch(&chunk, now_micros);
        let completed = started.elapsed();
        assert_eq!(decisions.len(), chunk.len(), "E11: decisions dropped");
        for ((index, imposter), decision) in chunk_meta.iter().zip(&decisions) {
            latency.record(completed.saturating_sub(scheduled_at(*index)).as_micros() as u64);
            if decision.is_pass() {
                assert!(
                    !imposter,
                    "E11: forged bundle passed under load (flow {index})"
                );
                passes += 1;
            } else {
                blocks += 1;
            }
            decided += 1;
        }
    }
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("thread sampler");

    assert_eq!(
        decided, total,
        "E11: offered {total} flows, decided {decided}"
    );
    let achieved_rate = total as f64 / elapsed.as_secs_f64();
    assert!(
        achieved_rate >= config.rate_per_sec * 0.5,
        "E11: tier did not sustain the offered rate \
         ({achieved_rate:.0}/s achieved vs {:.0}/s offered)",
        config.rate_per_sec
    );

    let verify = tier.verify_stats();
    let verify_hit_rate = verify.hits as f64 / (verify.hits + verify.misses).max(1) as f64;
    let fail_closed = tier
        .shards()
        .iter()
        .map(|shard| {
            shard
                .audit()
                .policy_notes()
                .iter()
                .filter(|note| note.category == "fail-closed")
                .count()
        })
        .sum();

    E11Cell {
        flows: total,
        elapsed,
        achieved_rate,
        passes,
        blocks,
        queries_per_flow: tier.total_queries() as f64 / total as f64,
        cache_hit_ratio: tier.cache_hit_ratio(),
        verify_hit_rate,
        forged_rejections: verify.forged,
        fail_closed,
        arrivals,
        departures,
        peak_rss_kb: peak_rss_kb(),
        peak_threads: peak_threads.load(Ordering::Relaxed),
        latency,
    }
}

/// Prints the E11 table — the same configuration with churn off and on —
/// and returns the bench rows for `BENCH_E11.json`.
///
/// Every cell asserts: no forged bundle passes, no flow is dropped, and the
/// achieved rate stays within 2× of the offered rate (open-loop lag bound,
/// generous for a loaded 1-vCPU CI box). The churn cell additionally
/// asserts daemons actually joined and left and that flows naming departed
/// hosts were denied fail-closed; the steady cell asserts zero fail-closed
/// denies. `smoke` shrinks the run from minutes to seconds for CI.
pub fn print_e11(smoke: bool) -> Vec<BenchRow> {
    // Rates are sized for the 1-vCPU CI container (verify-heavy decisions
    // cost ~0.5 ms there): 1000/s keeps smoke utilization near one-half so
    // the tail percentiles measure the tier, not a saturated core. The full
    // cells run the ROADMAP's minutes-long steady-state windows.
    let (daemons, rate, seconds, churn_interval_ms, churn_count) = if smoke {
        (1_024, 1_000.0, 4, 250, 4)
    } else {
        (2_048, 1_500.0, 150, 1_000, 8)
    };
    let base = E11Config {
        daemons,
        shards: 4,
        rate_per_sec: rate,
        duration: Duration::from_secs(seconds),
        locality: 0.8,
        churn: None,
        seed: 0xE11_5EED,
    };
    println!(
        "\n# E11: open-loop sustained load ({daemons} daemons, {} shards, {rate:.0} flows/s x {seconds}s per cell, hot set {HOT_SOURCES})",
        base.shards
    );
    println!(
        "{:>7} {:>8} {:>10} {:>8} {:>8} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9} {:>8}",
        "churn",
        "flows",
        "rate/s",
        "p50_us",
        "p99_us",
        "p999_us",
        "q/flow",
        "vhit",
        "failc",
        "arr",
        "dep",
        "rss_mb",
        "threads"
    );

    let mut rows = Vec::new();
    for churn_on in [false, true] {
        let mut config = base.clone();
        if churn_on {
            config.churn = Some(ChurnPlan::steady(
                churn_interval_ms * 1_000,
                churn_count,
                churn_count,
            ));
        }
        let cell = run_cell(&config);
        let label = if churn_on { "on" } else { "off" };
        if churn_on {
            assert!(cell.arrivals > 0, "E11 churn cell: no daemon ever arrived");
            assert!(cell.departures > 0, "E11 churn cell: no daemon ever left");
            assert!(
                cell.fail_closed > 0,
                "E11 churn cell: flows to departed hosts were never denied fail-closed"
            );
        } else {
            assert_eq!(
                cell.fail_closed, 0,
                "E11 steady cell: fail-closed denies without churn"
            );
            assert_eq!(cell.arrivals + cell.departures, 0);
        }
        assert!(cell.passes > 0 && cell.blocks > 0, "E11: degenerate mix");
        assert!(
            cell.forged_rejections > 0,
            "E11: forged bundles were never checked"
        );

        let (p50, p99, p999) = cell.latency.percentiles();
        println!(
            "{label:>7} {:>8} {:>10.0} {p50:>8} {p99:>8} {p999:>9} {:>6.2} {:>6.2} {:>6} {:>6} {:>6} {:>9.1} {:>8}",
            cell.flows,
            cell.achieved_rate,
            cell.queries_per_flow,
            cell.verify_hit_rate,
            cell.fail_closed,
            cell.arrivals,
            cell.departures,
            cell.peak_rss_kb as f64 / 1024.0,
            cell.peak_threads
        );
        rows.push(
            BenchRow::new()
                .with("experiment", "e11")
                .with("churn", label)
                .with("daemons", daemons)
                .with("shards", base.shards)
                .with("offered_rate_per_sec", rate)
                .with("duration_s", seconds)
                .with("flows", cell.flows)
                .with("achieved_rate_per_sec", cell.achieved_rate)
                .with("latency_p50_us", p50)
                .with("latency_p99_us", p99)
                .with("latency_p999_us", p999)
                .with("latency_max_us", cell.latency.max())
                .with("latency_mean_us", cell.latency.mean())
                .with("queries_per_flow", cell.queries_per_flow)
                .with("cache_hit_ratio", cell.cache_hit_ratio)
                .with("verify_hit_rate", cell.verify_hit_rate)
                .with("forged_rejections", cell.forged_rejections)
                .with("fail_closed", cell.fail_closed)
                .with("passes", cell.passes)
                .with("blocks", cell.blocks)
                .with("churn_arrivals", cell.arrivals)
                .with("churn_departures", cell.departures)
                .with("peak_rss_kb", cell.peak_rss_kb)
                .with("peak_threads", cell.peak_threads),
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature open-loop cell with aggressive churn: the invariants the
    /// full run asserts (nothing dropped, forged never passes, departures
    /// fail closed, histogram consistent) hold at test scale too.
    #[test]
    fn tiny_cell_upholds_run_invariants() {
        // The rate is modest on purpose: the test also runs in debug builds,
        // where a fresh ed25519 verify costs milliseconds, and the point here
        // is the invariants, not throughput (the scenarios binary measures
        // that in release).
        let config = E11Config {
            daemons: 192,
            shards: 2,
            rate_per_sec: 250.0,
            duration: Duration::from_millis(1_200),
            locality: 0.8,
            churn: Some(ChurnPlan::steady(100_000, 3, 3)),
            seed: 7,
        };
        let cell = run_cell(&config);
        assert_eq!(cell.flows, 300);
        assert_eq!(cell.latency.count(), 300);
        assert_eq!(cell.passes + cell.blocks, 300);
        assert!(cell.arrivals > 0 && cell.departures > 0);
        assert!(cell.fail_closed > 0, "departed hosts must fail closed");
        assert!(cell.forged_rejections > 0);
        let (p50, p99, p999) = cell.latency.percentiles();
        assert!(p50 <= p99 && p99 <= p999 && p999 <= cell.latency.max());
    }
}
