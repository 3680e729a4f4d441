//! `signed_delegation`: a 2-shard `ShardedController` over one
//! `SharedDirectoryBackend` population of in-process daemons, each answering
//! with a bundle the third party `Secur` signed over one of a few
//! requirement texts; every 16th daemon is an imposter whose claimed name is
//! not the one signed. The policy is Fig. 7's delegation rule with `keep
//! state`. Crypto, the `allowed()` path in `pf`, the verify cache and shard
//! routing do the work; there are no sockets.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use identxx_controller::{
    ControllerConfig, ShardRouter, ShardedController, SharedDirectoryBackend,
};
use identxx_crypto::{sign_bundle_windowed, KeyPair};
use identxx_daemon::Daemon;
use identxx_hostmodel::Host;
use identxx_pf::CacheGranularity;
use identxx_proto::{FiveTuple, Ipv4Addr};

use crate::common::{end_to_end, Outcome, Rng, Rounds};
use crate::trace::{self, SharedLog, TracedBackend};
use crate::{check_all_decided, check_round, Tally};

/// Daemons in the population.
pub const DAEMONS: usize = 1_024;
/// Every this-many-th daemon is an imposter.
pub const IMPOSTER_EVERY: usize = 16;
/// Service types, and as many requirement texts (text `k` admits type `k`).
pub const TYPES: usize = 4;
/// Hot sources, and the share of source picks they get.
pub const HOT: usize = 64;
/// Share of source picks drawn from the hot set.
pub const LOCALITY: f64 = 0.8;
/// Verify-cache capacity: far below the population.
pub const VERIFY_CACHE: usize = 256;
/// Controller shards.
pub const SHARDS: usize = 2;
/// Flows per `decide_batch` round.
pub const ROUND: usize = 16;
/// Distinct flows generated per seed; the timed loop cycles over them.
pub const POOL: usize = 4_096;
/// Untimed rounds before the clock starts: one pass over the pool, so the
/// state table and the verify cache start the timed phase in the steady
/// state every later pass repeats, and the share of flows served from state
/// does not depend on how many passes a run completes.
pub const WARMUP_ROUNDS: usize = POOL / ROUND;
/// Timed flows after which peak memory is read.
pub const RSS_MARK: u64 = 25_000;

/// Fig. 7's delegation rule under the trusted key `Secur`.
pub const POLICY: &str = "\
block all
pass from any \\
    with eq(@src[rule-maker], Secur) \\
    with allowed(@src[requirements]) \\
    with verify(@src[req-sig], Secur, @src[exe-hash], @src[name], @src[requirements]) \\
    to any keep state
";

/// The service type names; the destination reports its type as `type`.
pub fn service_type(k: usize) -> String {
    format!("svc-{k}")
}

/// Secur's requirement text number `k`: admit only destinations of type `k`.
pub fn requirements(k: usize) -> String {
    format!(
        "block all\npass from any to any with eq(@dst[type], {})",
        service_type(k)
    )
}

/// One population member as the generator made it.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// Address.
    pub addr: Ipv4Addr,
    /// The service type the host reports.
    pub service: usize,
    /// Which requirement text its application carries.
    pub reqs: usize,
    /// Whether its claimed name differs from the signed one.
    pub imposter: bool,
    /// The answer pairs its daemon reports (bundle included).
    pub pairs: Vec<(String, String)>,
}

/// One seed's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The population.
    pub members: Vec<Member>,
    /// Secur's public key (hex), trusted by the controller.
    pub secur: identxx_crypto::PublicKey,
    /// The flow pool, as (source member, destination member, flow).
    pub flows: Vec<(usize, usize, FiveTuple)>,
    /// The oracle's verdict for each flow.
    pub expected: Vec<bool>,
}

impl Inputs {
    /// Generates the inputs for `seed`, Secur's signing included.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 2);
        let signer = KeyPair::from_seed(b"Secur");
        let members: Vec<Member> = (0..DAEMONS)
            .map(|i| {
                let addr = Ipv4Addr::new(10, 2, (i / 250) as u8, (i % 250) as u8 + 1);
                let service = rng.below(TYPES);
                let reqs = rng.below(TYPES);
                let imposter = i % IMPOSTER_EVERY == IMPOSTER_EVERY - 1;
                let exe_hash = format!("exe-{seed:x}-{i:04}");
                let text = requirements(reqs);
                let signed_name = format!("secur-app-{reqs}");
                let bundle = sign_bundle_windowed(
                    &signer,
                    "Secur",
                    0,
                    u64::MAX,
                    &[exe_hash.as_str(), signed_name.as_str(), text.as_str()],
                );
                let claimed = if imposter {
                    "imposter-app".to_string()
                } else {
                    signed_name
                };
                let pairs = vec![
                    ("name".to_string(), claimed),
                    ("exe-hash".to_string(), exe_hash),
                    ("rule-maker".to_string(), "Secur".to_string()),
                    ("requirements".to_string(), text),
                    ("req-sig".to_string(), bundle.to_hex()),
                    ("type".to_string(), service_type(service)),
                ];
                Member {
                    addr,
                    service,
                    reqs,
                    imposter,
                    pairs,
                }
            })
            .collect();
        let mut flows = Vec::with_capacity(POOL);
        let mut expected = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            let src = if rng.chance(LOCALITY) {
                // Spread the hot set over the population, imposters included.
                let h = rng.below(HOT);
                h * (DAEMONS / HOT) + h % (DAEMONS / HOT)
            } else {
                rng.below(DAEMONS)
            };
            let dst = (src + 1 + rng.below(DAEMONS - 1)) % DAEMONS;
            let flow = FiveTuple::tcp(
                members[src].addr,
                10_000 + rng.below(50_000) as u16,
                members[dst].addr,
                8_000 + members[dst].service as u16,
            );
            expected.push(!members[src].imposter && members[src].reqs == members[dst].service);
            flows.push((src, dst, flow));
        }
        Inputs {
            members,
            secur: signer.public(),
            flows,
            expected,
        }
    }

    /// The inputs as bytes, for the same-seed-same-inputs test.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }
}

/// The daemon for one member.
pub fn daemon(member: &Member) -> Daemon {
    let mut daemon = Daemon::bare(Host::new(format!("h{}", member.addr), member.addr));
    daemon.set_forged_response(Some(member.pairs.clone()));
    daemon
}

/// The controller configuration.
pub fn config(inputs: &Inputs) -> ControllerConfig {
    ControllerConfig::new()
        .with_control_file("30-secur.control", POLICY)
        .with_trusted_key("Secur", inputs.secur)
        .with_verify_cache_capacity(VERIFY_CACHE)
        .with_cache_granularity(CacheGranularity::HostPairDstPort)
}

/// Checks that no imposter passed, and that passes plus blocks equal the
/// flows handed to the tier.
pub fn check_totals(handed: u64, imposter_passes: u64, tally: &Tally, outcome: &mut Outcome) {
    if imposter_passes > 0 {
        outcome.violation(format!("{imposter_passes} imposter flows passed"));
    }
    check_all_decided(handed, tally, outcome);
}

/// Counts the passed decisions whose source address is an imposter's.
pub fn imposter_passes(
    decisions: &[identxx_controller::FlowDecision],
    imposters: &BTreeSet<Ipv4Addr>,
) -> u64 {
    decisions
        .iter()
        .filter(|d| d.is_pass() && imposters.contains(&d.flow.src_ip))
        .count() as u64
}

/// One run of the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let inputs = Inputs::generate(seed);
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let mut imposters = 0u64;
    let imposter_addrs: BTreeSet<Ipv4Addr> = inputs
        .members
        .iter()
        .filter(|m| m.imposter)
        .map(|m| m.addr)
        .collect();

    let setup_started = Instant::now();
    let (directory, first) = SharedDirectoryBackend::fresh();
    {
        let mut directory = directory.lock().expect("fresh directory");
        for member in &inputs.members {
            directory.register(daemon(member));
        }
    }
    let mut first = Some(first);
    let mut logs: Vec<SharedLog> = Vec::new();
    let mut tier = ShardedController::new(config(&inputs), SHARDS)
        .expect("the policy compiles")
        .with_backends(|_| {
            let backend: Box<dyn identxx_controller::QueryBackend> = match first.take() {
                Some(backend) => Box::new(backend),
                None => Box::new(SharedDirectoryBackend::new(Arc::clone(&directory))),
            };
            if traced {
                let (decorated, log) = TracedBackend::wrap(backend);
                logs.push(log);
                Box::new(decorated)
            } else {
                backend
            }
        });
    let rounds_in_pool = POOL / ROUND;
    let mut next = 0;
    let mut handed = 0u64;
    let mut round = |tier: &mut ShardedController,
                     handed: &mut u64,
                     tally: &mut Tally,
                     outcome: &mut Outcome,
                     imposters: &mut u64| {
        let start = (next % rounds_in_pool) * ROUND;
        next += 1;
        let pool = &inputs.flows[start..start + ROUND];
        let flows: Vec<FiveTuple> = pool.iter().map(|&(_, _, flow)| flow).collect();
        *handed += flows.len() as u64;
        let started = Instant::now();
        let decisions = tier.decide_batch(&flows, 0);
        let elapsed = started.elapsed();
        *imposters += imposter_passes(&decisions, &imposter_addrs);
        check_round(
            &flows,
            &decisions,
            &inputs.expected[start..],
            tally,
            outcome,
        );
        (elapsed, decisions.len(), start)
    };
    for _ in 0..WARMUP_ROUNDS {
        round(
            &mut tier,
            &mut handed,
            &mut tally,
            &mut outcome,
            &mut imposters,
        );
    }
    let setup = setup_started.elapsed();

    trace::set_recording(&logs, true);
    let warm = tally;
    let verify_before = tier.verify_stats();
    let timeouts_before = tier.backend_stats().timeouts;
    let mut self_ns = 0u64;
    let mut routed = Vec::new();
    let mut rounds = Rounds::start(seconds, RSS_MARK);
    while rounds.more() {
        let inside_before = trace::inside_ns(&logs);
        let (elapsed, decided, start) = round(
            &mut tier,
            &mut handed,
            &mut tally,
            &mut outcome,
            &mut imposters,
        );
        rounds.record(elapsed, decided);
        if traced {
            // Shards run in parallel: the round waits for the slowest
            // backend call, so self time is what the round spent beyond it.
            let inside = trace::inside_ns(&logs)
                .iter()
                .zip(&inside_before)
                .map(|(after, before)| after - before)
                .max()
                .unwrap_or(0);
            self_ns += (elapsed.as_nanos() as u64).saturating_sub(inside);
            routed.extend(inputs.flows[start..start + ROUND].iter().map(|f| f.2));
        }
    }
    rounds.finish();
    trace::set_recording(&logs, false);

    outcome.attempted = tally.decided - warm.decided;
    outcome.failed = tier.backend_stats().timeouts - timeouts_before;
    check_totals(handed, imposters, &tally, &mut outcome);

    if traced {
        let flows = rounds.flows.max(1) as f64;
        let verify = tier.verify_stats();
        let misses = verify.misses - verify_before.misses;
        let hits = verify.hits - verify_before.hits;
        let log = trace::merged(&logs);
        let controller = tier.shard(0);
        let measured = [
            ("controller.self_us_per_flow", self_ns as f64 / 1e3 / flows),
            ("shard.max_share", max_share(tier.router(), &routed)),
            ("crypto.fresh_verifies_per_flow", misses as f64 / flows),
            (
                "crypto.verify_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            (
                "crypto.verify_us",
                trace::verify_us(&log.captured, controller),
            ),
            (
                "pf.evaluate_us",
                trace::evaluate_us(&log.captured, controller),
            ),
        ];
        outcome.metrics = trace::per_layer(&measured);
        eprintln!(
            "traced decisions_per_s {:.1} over {} flows",
            rounds.rate(),
            rounds.flows
        );
    } else {
        outcome.metrics = end_to_end(setup, &rounds, tally.queries - warm.queries);
    }
    outcome
}

/// The busiest shard's share of the timed phase's flows, against an even
/// split, on the tier's own router.
fn max_share(router: &ShardRouter, routed: &[FiveTuple]) -> f64 {
    let mut counts = vec![0u64; router.shard_count()];
    for flow in routed {
        counts[router.route(flow)] += 1;
    }
    let even = routed.len().max(1) as f64 / counts.len() as f64;
    counts.iter().copied().max().unwrap_or(0) as f64 / even
}
