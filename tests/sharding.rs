//! Sharding invariants: the consistent-hash router keeps every flow (and
//! everything that could alias it in the state table) on one stable shard,
//! and the sharded / batched decision paths are decision-identical to the
//! single controller deciding one flow at a time.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Poll;
use std::thread::ThreadId;

use identxx::controller::{
    BackendStats, ControllerConfig, DaemonDirectory, FlowDecision, FlowRequest, FlowResponses,
    IdentxxController, QueryBackend, RecordingBackend, RoundFuture, ShardRouter, ShardedController,
    SharedDirectoryBackend,
};
use identxx::daemon::Daemon;
use identxx::hostmodel::Host;
use identxx::pf::{CacheGranularity, Decision};
use identxx::proto::{FiveTuple, IpProtocol, Ipv4Addr};
use proptest::prelude::*;

const GRANULARITIES: [CacheGranularity; 3] = [
    CacheGranularity::ExactFiveTuple,
    CacheGranularity::HostPair,
    CacheGranularity::HostPairDstPort,
];

fn arb_flow() -> impl Strategy<Value = FiveTuple> {
    (
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u16>(),
        prop_oneof![Just(6u8), Just(17u8), any::<u8>()],
    )
        .prop_map(|(src, sport, dst, dport, proto)| {
            FiveTuple::new(
                Ipv4Addr(src),
                sport,
                Ipv4Addr(dst),
                dport,
                IpProtocol::from_number(proto),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A flow and its reverse land on the same shard, under every cache
    /// granularity and shard count, and routing is deterministic across
    /// independently built routers.
    #[test]
    fn flow_and_reverse_share_a_shard(flow in arb_flow(), shards in 1usize..9) {
        for granularity in GRANULARITIES {
            let router = ShardRouter::new(shards, granularity);
            let forward = router.route(&flow);
            prop_assert!(forward < shards);
            prop_assert_eq!(forward, router.route(&flow.reversed()),
                "reverse direction re-routed under {:?}", granularity);
            // A freshly built identical router agrees: routing is a pure
            // function of (shards, granularity, flow).
            let rebuilt = ShardRouter::new(shards, granularity);
            prop_assert_eq!(forward, rebuilt.route(&flow));
        }
    }

    /// Flows that can share a state-table entry share a shard: same host
    /// pair and protocol, any ports, any direction.
    #[test]
    fn cache_aliases_are_colocated(flow in arb_flow(), sport in any::<u16>(), dport in any::<u16>()) {
        for granularity in [CacheGranularity::HostPair, CacheGranularity::HostPairDstPort] {
            let router = ShardRouter::new(8, granularity);
            let mut sibling = flow;
            sibling.src_port = sport;
            sibling.dst_port = dport;
            prop_assert_eq!(router.route(&flow), router.route(&sibling));
            prop_assert_eq!(router.route(&flow), router.route(&sibling.reversed()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Growing the ring N → N+1 remaps ≈ 1/(N+1) of sampled keys — every
    /// moved key moves **to** the new member — and no alias group (a flow,
    /// its reverse, its port siblings) is ever split across shards by the
    /// transition: aliases move together or not at all.
    #[test]
    fn growth_remaps_one_over_n_plus_one_and_never_splits_alias_groups(
        flows in prop::collection::vec(arb_flow(), 400..401),
        shards in 1usize..8,
    ) {
        for granularity in GRANULARITIES {
            let before = ShardRouter::new(shards, granularity);
            let after = before.with_added(shards as u64);
            let mut moved = 0usize;
            for flow in &flows {
                let old = before.route(flow);
                let new = after.route(flow);
                if old != new {
                    prop_assert_eq!(new, shards, "a moved key must move to the new member");
                    moved += 1;
                }
                // The alias group transitions atomically: reverse and (for
                // coarse granularities) port siblings agree with the flow
                // both before and after the growth.
                let mut aliases = vec![flow.reversed()];
                if granularity != CacheGranularity::ExactFiveTuple {
                    let mut sibling = *flow;
                    sibling.src_port = flow.src_port.wrapping_add(17);
                    sibling.dst_port = flow.dst_port.wrapping_add(3);
                    aliases.push(sibling);
                    aliases.push(sibling.reversed());
                }
                for alias in aliases {
                    prop_assert_eq!(old, before.route(&alias),
                        "alias split before growth under {:?}", granularity);
                    prop_assert_eq!(new, after.route(&alias),
                        "alias split after growth under {:?}", granularity);
                }
            }
            // ≈ 1/(N+1) of the keys move; the bounds are generous (vnode
            // lumpiness ~1/√512 relative, sampling noise over 400 keys) but
            // rule out both `hash % n`-style reshuffles and a dead member.
            let expected = flows.len() / (shards + 1);
            prop_assert!(moved >= expected / 4,
                "suspiciously few keys moved: {}/{} at {} shards", moved, flows.len(), shards);
            prop_assert!(moved <= (expected * 2).min(flows.len() * 9 / 10),
                "consistent hashing moved too much: {}/{} at {} shards", moved, flows.len(), shards);
        }
    }
}

/// The scripted scenario both equivalence tests run: four hosts, two of
/// them claiming firefox (pass), one claiming an unknown app (block), one
/// silent (fail closed).
fn scripted_backend() -> RecordingBackend {
    RecordingBackend::new()
        .with_answer(
            Ipv4Addr::new(10, 0, 0, 1),
            vec![
                ("name".to_string(), "firefox".to_string()),
                ("userID".to_string(), "alice".to_string()),
            ],
        )
        .with_answer(
            Ipv4Addr::new(10, 0, 0, 2),
            vec![("name".to_string(), "firefox".to_string())],
        )
        .with_answer(
            Ipv4Addr::new(10, 0, 0, 3),
            vec![("name".to_string(), "unknownd".to_string())],
        )
        .with_silent(Ipv4Addr::new(10, 0, 0, 4))
}

fn test_config() -> ControllerConfig {
    ControllerConfig::new()
        .with_control_file(
            "00.control",
            "block all\npass all with eq(@src[name], firefox) keep state\n",
        )
        .with_cache_granularity(CacheGranularity::HostPairDstPort)
}

/// Distinct flows spanning every scripted host, plus repeats in later
/// rounds to exercise the cache.
fn test_flows() -> Vec<FiveTuple> {
    let h = |i: u8| Ipv4Addr::new(10, 0, 0, i);
    vec![
        FiveTuple::tcp(h(1), 41_000, h(2), 80),
        FiveTuple::tcp(h(3), 41_001, h(1), 80), // unknown app → block
        FiveTuple::tcp(h(4), 41_002, h(2), 80), // silent src → fail closed
        FiveTuple::tcp(h(2), 41_003, h(3), 443),
        FiveTuple::tcp(h(1), 41_004, h(4), 22),
        FiveTuple::tcp(h(2), 41_005, h(1), 80), // reverse host pair of flow 0
    ]
}

fn digest(d: &FlowDecision) -> (Decision, Option<usize>, bool, u32) {
    (
        d.verdict.decision,
        d.verdict.matched_line,
        d.from_cache,
        d.queries_issued,
    )
}

/// `decide_batch` (one query round per batch) reproduces the singleton
/// `decide` loop exactly — decisions, backend stats, audit trail, and the
/// per-host query log the recording backend captured.
#[test]
fn batched_rounds_match_singleton_decisions() {
    let mut singleton = IdentxxController::new(test_config())
        .unwrap()
        .with_backend(Box::new(scripted_backend()));
    let mut batched = IdentxxController::new(test_config())
        .unwrap()
        .with_backend(Box::new(scripted_backend()));

    let flows = test_flows();
    // Three rounds; no flow repeats *within* a round (intra-round repeats
    // are the one documented divergence from sequential deciding).
    for (round, chunk) in flows.chunks(2).enumerate() {
        let now = round as u64 * 100;
        let batch = batched.decide_batch(chunk, now);
        for (flow, b) in chunk.iter().zip(&batch) {
            let s = singleton.decide(flow, now);
            assert_eq!(digest(&s), digest(b), "decision diverged for {flow}");
        }
    }
    assert_eq!(singleton.backend_stats(), batched.backend_stats());
    assert_eq!(singleton.audit().records(), batched.audit().records());

    let log = |c: &IdentxxController| {
        c.backend()
            .as_any()
            .downcast_ref::<RecordingBackend>()
            .unwrap()
            .recorded()
            .to_vec()
    };
    assert_eq!(log(&singleton), log(&batched));
}

/// A one-shard `ShardedController` *is* the single controller: identical
/// decisions, stats, and audit for the same flow sequence.
#[test]
fn one_shard_is_decision_identical_to_single_controller() {
    let mut single = IdentxxController::new(test_config())
        .unwrap()
        .with_backend(Box::new(scripted_backend()));
    let mut sharded = ShardedController::new(test_config(), 1)
        .unwrap()
        .with_backends(|_| Box::new(scripted_backend()));

    let flows = test_flows();
    for (i, flow) in flows.iter().enumerate() {
        let now = i as u64 * 10;
        assert_eq!(
            digest(&single.decide(flow, now)),
            digest(&sharded.decide(flow, now)),
            "shards=1 diverged for {flow}"
        );
    }
    assert_eq!(single.backend_stats(), sharded.backend_stats());
    assert_eq!(single.audit().records(), sharded.merged_audit().as_slice());
}

/// Four shards reach the same decisions as one controller; the merged
/// views add up; and every decision really ran on the shard the router
/// names (shard-local audit is the proof).
#[test]
fn four_shards_decide_identically_and_merge_views() {
    let mut single = IdentxxController::new(test_config())
        .unwrap()
        .with_backend(Box::new(scripted_backend()));
    let mut sharded = ShardedController::new(test_config(), 4)
        .unwrap()
        .with_backends(|_| Box::new(scripted_backend()));

    let flows = test_flows();
    // Two passes so the second is cache-warm — shard-local state tables
    // must serve repeats (and reverse flows) exactly like the single
    // controller's.
    for pass in 0u64..2 {
        let now = pass * 1_000;
        let batch = sharded.decide_batch(&flows, now);
        for (flow, b) in flows.iter().zip(&batch) {
            let s = single.decide(flow, now);
            assert_eq!(
                digest(&s),
                digest(b),
                "shards=4 diverged for {flow} on pass {pass}"
            );
        }
    }

    let merged: BackendStats = sharded.backend_stats();
    assert_eq!(single.backend_stats(), merged);
    assert_eq!(single.audit().len(), sharded.audit_len());
    assert_eq!(
        single.audit().total_queries(),
        sharded.total_queries(),
        "merged query accounting must be the sum of the shards"
    );
    assert!(sharded.cache_hit_ratio() > 0.0, "second pass must hit");

    // Each flow's audit records live on exactly the shard the router names.
    for flow in &flows {
        let owner = sharded.shard_for(flow);
        for (index, shard) in (0..sharded.shard_count()).map(|i| (i, sharded.shard(i))) {
            let here = shard
                .audit()
                .records()
                .iter()
                .filter(|r| r.flow == *flow)
                .count();
            if index == owner {
                assert!(here > 0, "owning shard has no record of {flow}");
            } else {
                assert_eq!(here, 0, "shard {index} decided foreign flow {flow}");
            }
        }
    }
}

/// A tier that grows, drains, and shrinks *between rounds of a warm
/// workload* stays decision-identical — including `from_cache` and query
/// accounting — to a tier whose membership never changed, and no state
/// entry is lost or duplicated along the way.
#[test]
fn live_resharding_preserves_decision_identity() {
    let mut fixed = ShardedController::new(test_config(), 3)
        .unwrap()
        .with_backends(|_| Box::new(scripted_backend()));
    let mut elastic = ShardedController::new(test_config(), 3)
        .unwrap()
        .with_backends(|_| Box::new(scripted_backend()));

    let flows = test_flows();
    let compare = |elastic: &mut ShardedController, fixed: &mut ShardedController, now: u64| {
        let e = elastic.decide_batch(&flows, now);
        let f = fixed.decide_batch(&flows, now);
        for ((flow, e), f) in flows.iter().zip(&e).zip(&f) {
            assert_eq!(digest(e), digest(f), "diverged for {flow} at t={now}");
        }
    };

    compare(&mut elastic, &mut fixed, 0); // cold round
    elastic
        .add_shard(Box::new(scripted_backend()))
        .expect("policy recompiles on the new shard");
    compare(&mut elastic, &mut fixed, 100); // warm round on the grown tier
    elastic.drain_shard(0);
    compare(&mut elastic, &mut fixed, 200); // warm round with a drained member
    elastic.remove_shard(0);
    compare(&mut elastic, &mut fixed, 300); // warm round after removal
    assert_eq!(elastic.epoch(), 3, "add + drain + remove = three epochs");

    // Conservation: the churned tier holds exactly as much state as the
    // fixed one, and every entry sits on the shard the router names.
    let count = |tier: &ShardedController| {
        tier.shards()
            .iter()
            .map(|s| s.state_table().len())
            .sum::<usize>()
    };
    assert_eq!(count(&elastic), count(&fixed));
    for (slot, shard) in elastic.shards().iter().enumerate() {
        for (key, _) in shard.state_table().entries() {
            assert_eq!(elastic.shard_for(key), slot, "entry stranded off-owner");
        }
    }
    assert_eq!(elastic.audit_len(), fixed.audit_len());
}

/// Fail-closed mode at the sharded tier: a silent daemon's flow is denied
/// by the explicit fail-closed path (no matched line), the deny is audited
/// on the owning shard with a `fail-closed` policy note, and it is never
/// cached — answered flows keep caching normally.
#[test]
fn fail_closed_denies_silent_hosts_without_caching_the_deny() {
    let config = test_config().with_fail_closed_on_unanswered();
    let mut sharded = ShardedController::new(config, 3)
        .unwrap()
        .with_backends(|_| Box::new(scripted_backend()));

    let h = |i: u8| Ipv4Addr::new(10, 0, 0, i);
    let silent_src = FiveTuple::tcp(h(4), 41_002, h(2), 80); // h4 never answers
    let answered = FiveTuple::tcp(h(1), 41_000, h(2), 80); // firefox → pass

    for round in 0u64..2 {
        let decisions = sharded.decide_batch(&[silent_src, answered], round * 100);
        assert_eq!(decisions[0].verdict.decision, Decision::Block);
        assert_eq!(
            decisions[0].verdict.matched_line, None,
            "fail-closed denies before any rule can match"
        );
        assert!(
            !decisions[0].from_cache,
            "a fail-closed deny must never be served from cache (round {round})"
        );
        assert_eq!(decisions[0].queries_issued, 2);
        assert!(decisions[1].is_pass());
    }
    let owner = sharded.shard_for(&silent_src);
    assert!(
        sharded
            .shard(owner)
            .audit()
            .policy_notes()
            .iter()
            .any(|n| n.category == "fail-closed"),
        "the owning shard must explain the deny with a fail-closed note"
    );
    // Only the pass was cached (one decided flow = the coarse entry plus
    // its exact-tuple secondary under HostPairDstPort granularity); the
    // fail-closed deny left no state anywhere.
    let cached: usize = sharded.shards().iter().map(|s| s.state_table().len()).sum();
    assert_eq!(cached, 2);
    assert!(sharded
        .shards()
        .iter()
        .all(|s| !s.state_table().contains(&silent_src, 300)));
}

// ---------------------------------------------------------------------------
// Population churn (daemons joining and leaving mid-stream)
// ---------------------------------------------------------------------------

/// A live in-process daemon claiming application `app` (its forged response
/// answers any query).
fn churn_daemon(addr: Ipv4Addr, app: &str) -> Daemon {
    let mut daemon = Daemon::bare(Host::new(format!("h{addr}"), addr));
    daemon.set_forged_response(Some(vec![
        ("name".to_string(), app.to_string()),
        ("userID".to_string(), "alice".to_string()),
    ]));
    daemon
}

/// A shared directory seeded with hosts .1–.8: odd hosts claim firefox
/// (pass under [`test_config`]), even ones an unknown app (block).
fn churn_directory() -> Arc<Mutex<DaemonDirectory>> {
    let (directory, _) = SharedDirectoryBackend::fresh();
    {
        let mut directory = directory.lock().unwrap();
        for i in 1u8..=8 {
            let app = if i % 2 == 1 { "firefox" } else { "unknownd" };
            directory.register(churn_daemon(Ipv4Addr::new(10, 0, 0, i), app));
        }
    }
    directory
}

/// A tier of `shards` controllers over (a backend onto) `directory`.
fn tier_over(directory: &Arc<Mutex<DaemonDirectory>>, shards: usize) -> ShardedController {
    ShardedController::new(test_config(), shards)
        .unwrap()
        .with_backends(|_| Box::new(SharedDirectoryBackend::new(Arc::clone(directory))))
}

/// Round-robin flows over hosts .1–.9 (including the not-yet-arrived .9):
/// distinct within a round, so batched and singleton deciding agree.
fn churn_flows(round: u64) -> Vec<FiveTuple> {
    let h = |i: u8| Ipv4Addr::new(10, 0, 0, i);
    (1u8..=9)
        .map(|i| {
            FiveTuple::tcp(
                h(i),
                41_000 + round as u16,
                h(i % 9 + 1),
                if i % 2 == 0 { 80 } else { 443 },
            )
        })
        .collect()
}

/// Daemons joining and leaving mid-stream change *which* flows pass — and
/// nothing else: a 3-shard tier tracks a single controller over an
/// identically-churned population decision-for-decision (including
/// `from_cache` and query accounting), audit records are conserved (one
/// round's worth per round, each on exactly the shard that owns the flow),
/// and the departure/arrival flip the affected flow's verdict in both
/// worlds at the same round boundary.
#[test]
fn population_churn_preserves_decision_identity_and_audit_conservation() {
    let single_dir = churn_directory();
    let tier_dir = churn_directory();
    let mut single = tier_over(&single_dir, 1);
    let mut tier = tier_over(&tier_dir, 3);

    let mut decided = 0usize;
    let mut verdict_of = |round: u64,
                          single: &mut ShardedController,
                          tier: &mut ShardedController|
     -> Vec<Decision> {
        let flows = churn_flows(round);
        let now = round * 1_000;
        let t = tier.decide_batch(&flows, now);
        let mut verdicts = Vec::new();
        for (flow, t) in flows.iter().zip(&t) {
            let s = single.decide(flow, now);
            assert_eq!(
                digest(&s),
                digest(t),
                "churned tier diverged for {flow} at round {round}"
            );
            verdicts.push(t.verdict.decision);
        }
        decided += flows.len();
        verdicts
    };

    // Round 0: h9 has not arrived yet — its flow blocks (no answer under
    // default-deny); h1 (firefox) passes.
    let before = verdict_of(0, &mut single, &mut tier);
    assert_eq!(before[0], Decision::Pass, "h1 claims firefox");
    assert_eq!(before[8], Decision::Block, "h9 is not registered yet");

    // Mid-stream churn through the tier hooks: firefox-claiming h9 arrives,
    // firefox-claiming h1 leaves. Same churn on the reference population.
    let h = |i: u8| Ipv4Addr::new(10, 0, 0, i);
    tier.register_daemon(churn_daemon(h(9), "firefox"));
    assert!(tier.unregister_daemon(h(1)), "h1 was live");
    single.register_daemon(churn_daemon(h(9), "firefox"));
    assert!(single.unregister_daemon(h(1)));

    // Round 1: the arrival passes. h1's pass was cached with `keep state`
    // before it left — flow-table entries outliving the host is the
    // documented cache semantics, and both worlds must agree on it.
    let after = verdict_of(1, &mut single, &mut tier);
    assert_eq!(after[8], Decision::Pass, "arrived h9 must pass");

    // Elastic membership composes with population churn: grow the tier by
    // one shard (over the same shared directory) mid-run, churn again, and
    // decisions still track the single controller.
    tier.add_shard(Box::new(SharedDirectoryBackend::new(Arc::clone(&tier_dir))))
        .expect("policy recompiles on the new shard");
    tier.register_daemon(churn_daemon(h(1), "firefox"));
    single.register_daemon(churn_daemon(h(1), "firefox"));
    assert!(tier.unregister_daemon(h(2)));
    assert!(single.unregister_daemon(h(2)));
    verdict_of(2, &mut single, &mut tier);

    // Conservation: every decision left exactly one audit record, the
    // merged view has all of them, and each sits on the owning shard.
    assert_eq!(tier.audit_len(), decided);
    assert_eq!(single.audit_len(), decided);
    assert_eq!(tier.merged_audit().len(), decided);
    let per_shard: usize = tier.shards().iter().map(|s| s.audit().len()).sum();
    assert_eq!(per_shard, decided, "audit records lost or duplicated");
    for round in 0..3 {
        for flow in churn_flows(round) {
            let owner = tier.shard_for(&flow);
            for (slot, shard) in tier.shards().iter().enumerate() {
                let here = shard
                    .audit()
                    .records()
                    .iter()
                    .filter(|r| r.flow == flow)
                    .count();
                assert_eq!(
                    here,
                    if slot == owner { 1 } else { 0 },
                    "round-{round} record for {flow} misplaced on shard {slot}"
                );
            }
        }
    }

    // Both populations ended at the same size: 8 seeded + h9 − h2.
    assert_eq!(tier_dir.lock().unwrap().len(), 8);
    assert_eq!(single_dir.lock().unwrap().len(), 8);
}

/// The shared-directory churn hooks register once, not once per shard: a
/// daemon arriving through the tier appears exactly once in the shared
/// population, departing removes it for every shard at once, and
/// re-registering after departure is a clean rejoin.
#[test]
fn shared_directory_churn_hooks_are_idempotent_across_shards() {
    let directory = churn_directory();
    let mut tier = tier_over(&directory, 4);
    let addr = Ipv4Addr::new(10, 0, 0, 42);

    tier.register_daemon(churn_daemon(addr, "firefox"));
    assert_eq!(directory.lock().unwrap().len(), 9);
    assert!(tier.unregister_daemon(addr));
    assert!(!tier.unregister_daemon(addr), "double departure");
    assert_eq!(directory.lock().unwrap().len(), 8);
    tier.register_daemon(churn_daemon(addr, "firefox"));
    assert_eq!(directory.lock().unwrap().len(), 9, "rejoin after departure");

    // The flow actually decides through the rejoined daemon on every shard
    // it can route to.
    for sport in [41_000u16, 41_001, 41_002, 41_003] {
        let flow = FiveTuple::tcp(addr, sport, Ipv4Addr::new(10, 0, 0, 2), 80);
        assert!(tier.decide(&flow, 0).is_pass(), "rejoined daemon unheard");
    }
}

// ---------------------------------------------------------------------------
// The tier is single-threaded: shares are futures joined on the caller
// ---------------------------------------------------------------------------

/// Every requested end unanswered (the tests below look at *where* and
/// *when* rounds run, not at what they answer).
fn unanswered(requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
    requests
        .iter()
        .map(|r| FlowResponses {
            queries_issued: r.targets.len() as u32,
            ..FlowResponses::default()
        })
        .collect()
}

/// Records the thread every query round runs on.
struct ThreadRecordingBackend {
    threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl QueryBackend for ThreadRecordingBackend {
    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        unanswered(requests)
    }

    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }

    fn name(&self) -> &str {
        "thread-recording"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Flows that route to `shards` distinct shards of a 3-shard tier.
fn flows_on_shards(tier: &ShardedController, shards: usize) -> Vec<FiveTuple> {
    let mut seen = Vec::new();
    let mut picked = Vec::new();
    for i in 0..1_000u16 {
        let flow = FiveTuple::tcp([10, 0, 0, 1], 40_000 + i, [10, 0, 1, (i % 250) as u8], 80);
        let shard = tier.shard_for(&flow);
        if !seen.contains(&shard) && seen.len() < shards {
            seen.push(shard);
            picked.push(flow);
        }
    }
    assert_eq!(seen.len(), shards, "no flows found for {shards} shards");
    picked
}

#[test]
fn every_share_runs_on_the_calling_thread() {
    let threads = Arc::new(Mutex::new(Vec::new()));
    let config = ControllerConfig::new().with_control_file("00.control", "pass all\n");
    let mut tier = ShardedController::new(config, 3)
        .unwrap()
        .with_backends(|_| {
            Box::new(ThreadRecordingBackend {
                threads: Arc::clone(&threads),
            })
        });
    let flows: Vec<FiveTuple> = (0..60u16)
        .map(|i| FiveTuple::tcp([10, 0, 0, (i % 9) as u8], 40_000 + i, [10, 0, 1, 7], 80))
        .collect();
    let busy = {
        let mut shards: Vec<usize> = flows.iter().map(|f| tier.shard_for(f)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards.len()
    };
    assert_eq!(busy, 3, "the workload should keep every shard busy");

    tier.decide_batch(&flows, 0);
    assert_eq!(
        threads.lock().unwrap().len(),
        busy,
        "one round per busy shard"
    );
    tier.decide_stream(&flows, 4, 1);
    let me = std::thread::current().id();
    let seen = threads.lock().unwrap();
    assert!(
        seen.len() > busy + 3,
        "the stream runs several rounds per shard"
    );
    assert!(
        seen.iter().all(|&id| id == me),
        "a share ran off the calling thread"
    );
}

/// A round that completes only on its second poll and reports whether, by
/// then, every busy shard had started its own round. Shares that ran one
/// after another would each see only the rounds started before them.
struct RendezvousBackend {
    started: Arc<AtomicUsize>,
    busy: usize,
    met: Arc<Mutex<Vec<bool>>>,
}

impl QueryBackend for RendezvousBackend {
    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
        unanswered(requests)
    }

    fn query_round<'a>(&'a mut self, requests: &'a [FlowRequest<'a>]) -> RoundFuture<'a> {
        let mut polled = false;
        Box::pin(std::future::poll_fn(move |cx| {
            if !polled {
                polled = true;
                self.started.fetch_add(1, Ordering::SeqCst);
                cx.waker().wake_by_ref();
                return Poll::Pending;
            }
            let all_started = self.started.load(Ordering::SeqCst) == self.busy;
            self.met.lock().unwrap().push(all_started);
            Poll::Ready(unanswered(requests))
        }))
    }

    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }

    fn name(&self) -> &str {
        "rendezvous"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn busy_shares_overlap_their_rounds() {
    let started = Arc::new(AtomicUsize::new(0));
    let met = Arc::new(Mutex::new(Vec::new()));
    let config = ControllerConfig::new().with_control_file("00.control", "pass all\n");
    let mut tier = ShardedController::new(config, 3)
        .unwrap()
        .with_backends(|_| {
            Box::new(RendezvousBackend {
                started: Arc::clone(&started),
                busy: 2,
                met: Arc::clone(&met),
            })
        });
    let flows = flows_on_shards(&tier, 2);
    let decisions = tier.decide_batch(&flows, 0);
    assert_eq!(decisions.len(), 2);
    assert_eq!(
        *met.lock().unwrap(),
        [true, true],
        "each round must find both shards' rounds started before it finishes"
    );
}
