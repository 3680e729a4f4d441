//! Scenario fixtures and printable experiment tables.
//!
//! The criterion benches under `benches/` used to print the E1/E6/E7/E8a/E8b
//! scenario tables as a side effect, which made `cargo bench` part
//! measurement, part report. The fixtures now live here, shared by two
//! consumers:
//!
//! * the `scenarios` binary (`cargo run --release -p identxx-bench --bin
//!   scenarios [e1|e6|e7|e8a|e8b|e9|e10|all]`, `--json` for
//!   `BENCH_<exp>.json` rows) prints the tables,
//! * the benches reuse the same fixtures for pure measurement.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::BenchRow;
use identxx_baselines::common::IntentScore;
use identxx_baselines::{
    DistributedFirewall, EthaneController, EthanePolicy, FlowClassifier, VanillaFirewall,
};
use identxx_controller::{
    BreakerConfig, ControllerConfig, IdentxxController, NetworkBackend, QueryBackend,
    RecordingBackend, ShardedController,
};
use identxx_core::{firefox_app, EnterpriseNetwork};
use identxx_crypto::{sign_bundle_windowed, KeyPair, VerifyCache};
use identxx_daemon::{Daemon, FaultInjector, FaultPlan, Window};
use identxx_hostmodel::{Executable, Host};
use identxx_net::DaemonServer;
use identxx_netsim::workload::{WorkloadConfig, WorkloadGenerator};
use identxx_pf::{parse_ruleset, CacheGranularity, CompiledPolicy, Decision, EvalContext};
use identxx_proto::{FiveTuple, Ipv4Addr, Response, Section};

// ---------------------------------------------------------------------------
// E1: flow-setup latency vs path length
// ---------------------------------------------------------------------------

/// The default single-rule policy used by the flow-setup experiment.
pub fn flow_setup_policy() -> ControllerConfig {
    ControllerConfig::new().with_control_file(
        "00.control",
        "block all\npass all with eq(@src[name], firefox) keep state\n",
    )
}

/// A chain network of `switches` switches with one firefox flow staged.
pub fn flow_setup_network(switches: usize) -> (EnterpriseNetwork, FiveTuple) {
    let mut net = EnterpriseNetwork::chain(switches, flow_setup_policy()).unwrap();
    let client = Ipv4Addr::new(10, 0, 0, 1);
    let server = Ipv4Addr::new(10, 0, 1, 1);
    let flow = net.start_app(client, server, 80, "alice", firefox_app());
    (net, flow)
}

/// Prints the E1 table: simulated flow-setup latency vs path length (the
/// Fig. 1 sequence).
pub fn print_e1() {
    println!("\n# E1: simulated flow-setup latency vs path length (Fig. 1 sequence)");
    println!(
        "{:>8} {:>16} {:>16} {:>10} {:>8} {:>8}",
        "switches", "setup_us(sim)", "cached_us(sim)", "overhead", "ident", "openflow"
    );
    for switches in [1usize, 2, 4, 8, 16] {
        let (mut net, flow) = flow_setup_network(switches);
        let report = net.simulate_flow_setup(&flow).unwrap();
        println!(
            "{:>8} {:>16} {:>16} {:>10.1} {:>8} {:>8}",
            switches,
            report.setup_latency_us,
            report.cached_latency_us,
            report.setup_overhead(),
            report.ident_exchanges,
            report.openflow_messages
        );
    }
}

// ---------------------------------------------------------------------------
// E6: compromise blast radius
// ---------------------------------------------------------------------------

const SENSITIVE_PORT: u16 = 445;

/// ident++ policy for E6: only the backup application run by the system user
/// may reach the file service.
const BLAST_POLICY: &str = "\
block all
pass all with eq(@src[userID], system) with eq(@src[name], backupd) with eq(@dst[name], Server) keep state
";

/// Builds the E6 star network with the file service on every host.
pub fn blast_network(hosts: usize) -> EnterpriseNetwork {
    let mut net = EnterpriseNetwork::star_with_config(
        hosts,
        ControllerConfig::new().with_control_file("00.control", BLAST_POLICY),
    )
    .unwrap();
    let server_exe = Executable::new(
        "/win/services.exe",
        "Server",
        6,
        "microsoft",
        "file-service",
    );
    for addr in net.host_addrs() {
        net.run_service(addr, "system", server_exe.clone(), SENSITIVE_PORT);
    }
    net
}

/// Counts how many victims the attacker at `attacker` can reach on the
/// sensitive port.
pub fn identxx_blast_radius(net: &mut EnterpriseNetwork, attacker: Ipv4Addr) -> usize {
    let malware = Executable::new("/tmp/conficker", "conficker", 1, "unknown", "worm");
    let victims: Vec<Ipv4Addr> = net
        .host_addrs()
        .into_iter()
        .filter(|a| *a != attacker)
        .collect();
    let mut reached = 0;
    for (i, victim) in victims.iter().enumerate() {
        let flow = {
            match net.daemon_mut(attacker) {
                Some(mut daemon) => daemon.host_mut().open_connection(
                    "mallory",
                    malware.clone(),
                    48000 + i as u16,
                    *victim,
                    SENSITIVE_PORT,
                ),
                None => FiveTuple::tcp(attacker, 48000 + i as u16, *victim, SENSITIVE_PORT),
            }
        };
        if net.decide(&flow).is_pass() {
            reached += 1;
        }
    }
    reached
}

/// Prints the E6 table: blast radius per compromise scenario, ident++ vs the
/// distributed-firewall baseline.
pub fn print_e6() {
    let host_count = 20;
    let total_victims = host_count - 1;
    println!("\n# E6: blast radius after compromise (victims reachable on port {SENSITIVE_PORT}, out of {total_victims})");
    println!(
        "{:<42} {:>10} {:>14}",
        "scenario", "ident++", "distributed-fw"
    );

    // Distributed firewall baseline: every host enforces "only port 22 from
    // anywhere" (i.e. the sensitive port is closed); a compromised receiver
    // stops enforcing.
    let build_dfw = |compromised: &[Ipv4Addr]| {
        let mut dfw = DistributedFirewall::new();
        let net = blast_network(host_count);
        for addr in net.host_addrs() {
            dfw.manage_host(addr, &[22]);
        }
        for addr in compromised {
            dfw.set_compromised(*addr, true);
        }
        dfw
    };
    let dfw_radius = |dfw: &mut DistributedFirewall, attacker: Ipv4Addr, hosts: &[Ipv4Addr]| {
        hosts
            .iter()
            .filter(|v| **v != attacker)
            .filter(|v| dfw.allow(&FiveTuple::tcp(attacker, 48000, **v, SENSITIVE_PORT)))
            .count()
    };

    // Scenario 1: no compromise.
    let mut net = blast_network(host_count);
    let hosts = net.host_addrs();
    let attacker = hosts[0];
    let mut dfw = build_dfw(&[]);
    println!(
        "{:<42} {:>10} {:>14}",
        "baseline (no compromise)",
        identxx_blast_radius(&mut net, attacker),
        dfw_radius(&mut dfw, attacker, &hosts)
    );

    // Scenario 2: one end-host compromised (attacker's own machine, daemon
    // forges responses claiming to be the backup service).
    let mut net = blast_network(host_count);
    net.daemon_mut(attacker)
        .unwrap()
        .set_forged_response(Some(vec![
            ("userID".to_string(), "system".to_string()),
            ("name".to_string(), "backupd".to_string()),
        ]));
    let mut dfw = build_dfw(&[attacker]);
    println!(
        "{:<42} {:>10} {:>14}",
        "attacker's end-host compromised",
        identxx_blast_radius(&mut net, attacker),
        dfw_radius(&mut dfw, attacker, &hosts)
    );

    // Scenario 3: one *other* end-host (a victim) compromised. Under the
    // distributed firewall that victim is now wide open; under ident++ the
    // network still blocks the attacker's flows to everyone.
    let victim = hosts[1];
    let mut net = blast_network(host_count);
    net.daemon_mut(victim)
        .unwrap()
        .set_forged_response(Some(vec![("name".to_string(), "Server".to_string())]));
    let mut dfw = build_dfw(&[victim]);
    println!(
        "{:<42} {:>10} {:>14}",
        "one victim end-host compromised",
        identxx_blast_radius(&mut net, attacker),
        dfw_radius(&mut dfw, attacker, &hosts)
    );

    // Scenario 4: a switch is compromised (ident++/OpenFlow): the single
    // switch in the star stops enforcing — everything behind it is reachable,
    // matching §5.2's "compromising a single ident++-enabled switch can
    // disable the protection it affords".
    let mut net = blast_network(host_count);
    let switch_ids: Vec<_> = net.switches().keys().copied().collect();
    for id in switch_ids {
        net.switch_mut(id).unwrap().set_compromised(true);
    }
    let data_plane_reached = {
        let hosts = net.host_addrs();
        let malware = Executable::new("/tmp/conficker", "conficker", 1, "unknown", "worm");
        let mut reached = 0;
        for (i, victim) in hosts.iter().skip(1).enumerate() {
            let flow = net
                .daemon_mut(attacker)
                .unwrap()
                .host_mut()
                .open_connection(
                    "mallory",
                    malware.clone(),
                    52000 + i as u16,
                    *victim,
                    SENSITIVE_PORT,
                );
            if net.deliver_first_packet(&flow, 0).delivered {
                reached += 1;
            }
        }
        reached
    };
    let mut dfw = build_dfw(&[]); // distributed firewalls do not depend on switches
    println!(
        "{:<42} {:>10} {:>14}",
        "switch compromised (data plane)",
        data_plane_reached,
        dfw_radius(&mut dfw, attacker, &hosts)
    );

    // Scenario 5: the controller itself is compromised — total loss, as §5.1
    // concedes.
    let mut net = blast_network(host_count);
    net.controller_mut().set_compromised(true);
    let mut dfw = build_dfw(&[]);
    println!(
        "{:<42} {:>10} {:>14}",
        "controller compromised",
        identxx_blast_radius(&mut net, attacker),
        dfw_radius(&mut dfw, attacker, &hosts)
    );
}

// ---------------------------------------------------------------------------
// E7: expressiveness / collateral damage
// ---------------------------------------------------------------------------

/// The administrator's intent, expressed in ident++ terms: allow known-good
/// applications (current skype, browsers, mail, ssh, Server, research-app),
/// block old skype and unknown applications. Shared by the E7
/// (expressiveness) and E8b (query overhead) experiments, which run the same
/// enterprise workload against the same policy.
const ALLOW_KNOWN_APPS_POLICY: &str = "\
block all
pass all with eq(@src[name], firefox) keep state
pass all with eq(@src[name], skype) with gte(@src[version], 200) keep state
pass all with eq(@src[name], thunderbird) keep state
pass all with eq(@src[name], ssh) keep state
pass all with eq(@src[name], Server) keep state
pass all with eq(@src[name], research-app) keep state
";

/// Runs the annotated workload through ident++, a vanilla port firewall, and
/// an Ethane-style controller, scoring each against the administrator's
/// intent.
pub fn run_expressiveness_comparison(flow_count: usize, seed: u64) -> Vec<(String, IntentScore)> {
    let mut net = EnterpriseNetwork::star_with_config(
        20,
        ControllerConfig::new().with_control_file("00.control", ALLOW_KNOWN_APPS_POLICY),
    )
    .unwrap();
    let hosts = net.host_addrs();
    let workload =
        WorkloadGenerator::new(WorkloadConfig::enterprise(hosts.clone(), flow_count, seed))
            .generate();

    // Baselines: the port firewall allows the ports the good applications
    // need; Ethane binds every host to the "employees" group and allows
    // employee traffic on those same ports.
    let mut vanilla = VanillaFirewall::enterprise_default(Ipv4Addr::new(10, 0, 0, 0), 16);
    vanilla.add_rule(identxx_baselines::PortRule::allow_port(7000)); // research app port
    let mut ethane = EthaneController::new();
    for addr in &hosts {
        ethane.bind(*addr, format!("host-{addr}"), "employees");
    }
    for port in [80u16, 443, 25, 22, 445, 7000] {
        ethane.add_rule(EthanePolicy {
            src_group: Some("employees".into()),
            dst_group: Some("employees".into()),
            dst_port: Some(port),
            allow: true,
        });
    }

    let mut identxx_score = IntentScore::default();
    let mut vanilla_score = IntentScore::default();
    let mut ethane_score = IntentScore::default();

    for flow in &workload {
        // Stage the real application on the source host so the daemon reports
        // the truth.
        let exe = Executable::new(
            format!("/usr/bin/{}", flow.app.name),
            flow.app.name.replace("-old", ""),
            flow.app.version,
            "vendor",
            &flow.app.app_type,
        );
        {
            let mut daemon = net.daemon_mut(flow.five_tuple.src_ip).unwrap();
            let pid = daemon.host_mut().spawn(&flow.user, exe);
            daemon.host_mut().connect_flow(pid, flow.five_tuple);
        }
        let decision = net.decide(&flow.five_tuple).verdict.decision.is_pass();
        identxx_score.record(flow.app.intended_allowed, decision);
        vanilla_score.record(flow.app.intended_allowed, vanilla.allow(&flow.five_tuple));
        ethane_score.record(flow.app.intended_allowed, ethane.allow(&flow.five_tuple));
    }

    vec![
        ("ident++".to_string(), identxx_score),
        ("vanilla-firewall".to_string(), vanilla_score),
        ("ethane".to_string(), ethane_score),
    ]
}

/// Prints the E7 table: decisions vs administrator intent.
pub fn print_e7() {
    println!("\n# E7: decisions vs administrator intent (1000 flows, enterprise mix)");
    println!(
        "{:<18} {:>10} {:>14} {:>14}",
        "mechanism", "accuracy", "false-allow", "false-block"
    );
    for (name, score) in run_expressiveness_comparison(1_000, 7) {
        println!(
            "{:<18} {:>9.1}% {:>13.1}% {:>13.1}%",
            name,
            score.accuracy() * 100.0,
            score.false_allow_rate() * 100.0,
            score.false_block_rate() * 100.0
        );
    }
}

// ---------------------------------------------------------------------------
// E8a: policy scaling
// ---------------------------------------------------------------------------

/// Builds a policy with `n` non-matching application rules followed by one
/// matching rule. With `quick` the matching rule ends evaluation early when
/// it is placed first instead.
pub fn scaling_policy(n: usize, quick_first: bool) -> String {
    let mut policy = String::from("block all\n");
    if quick_first {
        policy.push_str("pass quick all with eq(@src[name], firefox)\n");
    }
    for i in 0..n {
        policy.push_str(&format!("pass all with eq(@src[name], app-{i})\n"));
    }
    if !quick_first {
        policy.push_str("pass all with eq(@src[name], firefox)\n");
    }
    policy
}

/// The firefox src response (and an empty dst response) the scaling
/// experiment evaluates against.
pub fn scaling_responses(flow: FiveTuple) -> (Response, Response) {
    let mut src = Response::new(flow);
    let mut s = Section::new();
    s.push("name", "firefox");
    s.push("userID", "alice");
    src.push_section(s);
    (src, Response::new(flow))
}

/// Times `f` per call in microseconds: doubles the batch size until one
/// batch takes at least 10 ms, then reports the best of three batches at
/// that size (the minimum is robust against scheduler noise — identical
/// work measures identically).
fn time_per_call_us(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(10) {
            let mut best = elapsed.as_secs_f64() / iters as f64;
            for _ in 0..2 {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                best = best.min(start.elapsed().as_secs_f64() / iters as f64);
            }
            return best * 1e6;
        }
        iters *= 2;
    }
}

/// Prints the E8a table — rules examined and decision cost vs policy size,
/// for the interpreter (last-match and `quick`), the linear compiled scan,
/// and the field-indexed matcher tree — and returns the cells as
/// [`BenchRow`]s for `BENCH_E8A.json`.
///
/// Asserts the tree's flat-cost claim: the per-decision tree cost at the
/// largest policy must stay within 2× of the 1 000-rule cost (the response-
/// literal hash dispatch hands the merge ~2 candidate rules no matter how
/// many `eq(@src[name], app-i)` rules the policy holds), while the linear
/// paths grow with the rule count.
pub fn print_e8a() -> Vec<BenchRow> {
    let flow = FiveTuple::tcp([10, 0, 0, 1], 40000, [10, 0, 0, 2], 80);
    let (src, dst) = scaling_responses(flow);
    println!("\n# E8a: decision cost vs policy size (interpreter vs linear vs matcher tree)");
    println!(
        "{:>8} {:>11} {:>12} {:>11} {:>14} {:>11} {:>9} {:>12}",
        "rules",
        "eval(last)",
        "eval(quick)",
        "eval(tree)",
        "interpreted-us",
        "linear-us",
        "tree-us",
        "compile-us"
    );
    let mut rows = Vec::new();
    let mut tree_us_at_1k = None;
    for n in [10usize, 100, 1_000, 10_000, 100_000] {
        let last = parse_ruleset(&scaling_policy(n, false)).unwrap();
        let quick = parse_ruleset(&scaling_policy(n, true)).unwrap();
        let compile_start = Instant::now();
        let compiled = CompiledPolicy::compile(&last);
        let compile_us = compile_start.elapsed().as_secs_f64() * 1e6;
        let ctx_last = EvalContext::new(&last).with_responses(&src, &dst);
        let ctx_quick = EvalContext::new(&quick).with_responses(&src, &dst);
        let v_last = ctx_last.evaluate(&flow);
        let v_quick = ctx_quick.evaluate(&flow);
        let v_linear = compiled.evaluate_linear(&flow, Some(&src), Some(&dst));
        let v_tree = compiled.evaluate(&flow, Some(&src), Some(&dst));
        assert_eq!(v_last.decision, Decision::Pass);
        assert_eq!(v_quick.decision, Decision::Pass);
        assert_eq!(v_linear.decision, Decision::Pass);
        assert_eq!(v_tree.decision, Decision::Pass);
        let interpreted_us = time_per_call_us(|| {
            std::hint::black_box(ctx_last.evaluate(&flow));
        });
        let linear_us = time_per_call_us(|| {
            std::hint::black_box(compiled.evaluate_linear(&flow, Some(&src), Some(&dst)));
        });
        let tree_us = time_per_call_us(|| {
            std::hint::black_box(compiled.evaluate(&flow, Some(&src), Some(&dst)));
        });
        println!(
            "{:>8} {:>11} {:>12} {:>11} {:>14.3} {:>11.3} {:>9.3} {:>12.0}",
            n,
            v_last.rules_evaluated,
            v_quick.rules_evaluated,
            v_tree.rules_evaluated,
            interpreted_us,
            linear_us,
            tree_us,
            compile_us
        );
        if n == 1_000 {
            tree_us_at_1k = Some((tree_us, v_tree.rules_evaluated));
        }
        if let Some((base_us, base_rules)) = tree_us_at_1k {
            // The structural invariant first (exact, noise-free), then the
            // headline cost curve with the 2× acceptance margin.
            assert_eq!(
                v_tree.rules_evaluated, base_rules,
                "tree candidate count must not grow with policy size"
            );
            assert!(
                tree_us <= base_us * 2.0,
                "tree decision cost must stay flat: {tree_us:.3}us at {n} rules \
                 vs {base_us:.3}us at 1000 rules"
            );
        }
        rows.push(
            BenchRow::new()
                .with("rules", n)
                .with("evaluated_interpreted", v_last.rules_evaluated)
                .with("evaluated_quick", v_quick.rules_evaluated)
                .with("evaluated_linear", v_linear.rules_evaluated)
                .with("evaluated_tree", v_tree.rules_evaluated)
                .with("interpreted_us", interpreted_us)
                .with("linear_us", linear_us)
                .with("tree_us", tree_us)
                .with("compile_us", compile_us),
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// E8b: query overhead vs workload locality
// ---------------------------------------------------------------------------

/// Runs `flow_count` flows at a given locality and returns
/// `(cache_hit_ratio, total_queries, flows)`.
///
/// The controller caches decisions at host-pair + service-port granularity
/// here: the enterprise workload opens every flow from a fresh ephemeral
/// source port, so an exact-5-tuple rule cache never hits (2.00
/// queries/flow at every locality — the failure mode this experiment used
/// to exhibit). With host-pair keys, locality warms the cache exactly as
/// the paper's "the controller may cache the rules and apply them to
/// future flows" (§3.4) intends.
pub fn run_query_workload(flow_count: usize, locality: f64, seed: u64) -> (f64, u64, usize) {
    run_query_workload_sharded(flow_count, locality, seed, 1)
}

/// [`run_query_workload`] over a decision tier of `shards` shards sharing
/// one daemon directory ([`identxx_controller::SharedDirectoryBackend`]):
/// the scenario-table shape of the sharded simulator path, selected by
/// `IDENTXX_SHARDS` in [`print_e8b`].
pub fn run_query_workload_sharded(
    flow_count: usize,
    locality: f64,
    seed: u64,
    shards: usize,
) -> (f64, u64, usize) {
    let mut net = EnterpriseNetwork::star_with_config_sharded(
        20,
        ControllerConfig::new()
            .with_control_file("00.control", ALLOW_KNOWN_APPS_POLICY)
            .with_cache_granularity(CacheGranularity::HostPairDstPort),
        shards,
    )
    .unwrap();
    let hosts = net.host_addrs();
    let mut config = WorkloadConfig::enterprise(hosts, flow_count, seed);
    config.locality = locality;
    let flows = WorkloadGenerator::new(config).generate();
    for flow in &flows {
        let exe = Executable::new(
            format!("/usr/bin/{}", flow.app.name),
            flow.app.name.replace("-old", ""),
            flow.app.version,
            "vendor",
            &flow.app.app_type,
        );
        {
            let mut daemon = net.daemon_mut(flow.five_tuple.src_ip).unwrap();
            let pid = daemon.host_mut().spawn(&flow.user, exe);
            daemon.host_mut().connect_flow(pid, flow.five_tuple);
        }
        net.decide(&flow.five_tuple);
    }
    (net.cache_hit_ratio(), net.total_queries(), flows.len())
}

/// Prints the E8b table: ident++ queries per flow vs workload locality.
/// With `IDENTXX_SHARDS=N` the same table runs over an N-shard decision
/// tier sharing one daemon directory — the scenario-table proof that the
/// simulator path shards (DESIGN.md §7). Returns the cells as bench rows.
pub fn print_e8b() -> Vec<BenchRow> {
    let shards = env_shards().unwrap_or(1);
    println!(
        "\n# E8b: ident++ queries per flow vs workload locality (2000 flows, {shards} shard{})",
        if shards == 1 { "" } else { "s" }
    );
    println!(
        "{:>10} {:>16} {:>16} {:>16}",
        "locality", "cache-hit-ratio", "total queries", "queries/flow"
    );
    let mut rows = Vec::new();
    for locality in [0.0f64, 0.25, 0.5, 0.75, 0.9] {
        let (hit_ratio, queries, flows) = run_query_workload_sharded(2_000, locality, 13, shards);
        if shards > 1 {
            // The sharded tier must reproduce the single tier's aggregate
            // behaviour exactly: same audited queries, same hit ratio.
            let (single_hit, single_queries, _) = run_query_workload(2_000, locality, 13);
            assert_eq!(
                queries, single_queries,
                "sharded E8b diverged from the single-controller path at locality {locality}"
            );
            assert!((hit_ratio - single_hit).abs() < 1e-9);
        }
        println!(
            "{:>10.2} {:>15.1}% {:>16} {:>16.2}",
            locality,
            hit_ratio * 100.0,
            queries,
            queries as f64 / flows as f64
        );
        rows.push(
            BenchRow::new()
                .with("experiment", "e8b")
                .with("shards", shards)
                .with("locality", locality)
                .with("cache_hit_ratio", hit_ratio)
                .with("total_queries", queries)
                .with("queries_per_flow", queries as f64 / flows as f64),
        );
    }
    rows
}

/// The `IDENTXX_SHARDS` override, when set and valid.
///
/// # Panics
///
/// Panics when the variable is set but not a positive integer — a silent
/// fallback would quietly un-shard a CI smoke configuration.
pub fn env_shards() -> Option<usize> {
    std::env::var("IDENTXX_SHARDS").ok().map(|value| {
        value
            .parse::<usize>()
            .ok()
            .filter(|n| *n >= 1)
            .unwrap_or_else(|| panic!("IDENTXX_SHARDS must be a positive integer, got {value:?}"))
    })
}

// ---------------------------------------------------------------------------
// E9: sharded controller, batched query rounds
// ---------------------------------------------------------------------------

/// Hosts in the E9 enterprise: small enough that one batched round reaches
/// most daemons (exercising the per-host coalescing), large enough that the
/// host-pair router spreads work over 8 shards.
const E9_HOSTS: u8 = 16;

/// Artificial per-round-trip daemon processing delay (microseconds). The
/// sweep is deliberately **latency-bound**: a controller tier's time goes to
/// waiting on end-hosts, and the overlap that batching (one round trip per
/// host per round) and sharding (independent decision loops) buy is exactly
/// what the sweep should surface. A CPU-bound variant would measure the
/// container's core count instead.
const E9_DAEMON_DELAY_MICROS: u64 = 3_000;

fn e9_hosts() -> Vec<Ipv4Addr> {
    (1..=E9_HOSTS).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect()
}

/// The E9 workload: `flow_count` enterprise flows over the E9 hosts, at
/// locality 0 (uniform host pairs). A hot host pair is pinned to one shard
/// by design — the router *must* colocate everything that can share a cache
/// entry — so a skewed workload measures the skew, not the tier; E8b is the
/// locality experiment.
pub fn sharding_workload(flow_count: usize, seed: u64) -> Vec<FiveTuple> {
    let mut config = WorkloadConfig::enterprise(e9_hosts(), flow_count, seed);
    config.locality = 0.0;
    WorkloadGenerator::new(config)
        .generate()
        .into_iter()
        .map(|flow| flow.five_tuple)
        .collect()
}

/// Starts one real TCP daemon per E9 host. Odd-numbered hosts forge a
/// firefox identity (their flows pass the allow-known-apps policy), even
/// ones forge an unknown application (blocked) — so the sweep's decision
/// stream is a genuine pass/block mix and the decision-identity assertion
/// in [`print_e9`] has teeth. Every daemon charges `delay_micros` of
/// processing per round trip.
pub fn start_e9_daemons(delay_micros: u64) -> Vec<(Ipv4Addr, DaemonServer)> {
    e9_hosts()
        .into_iter()
        .map(|addr| {
            let mut daemon = Daemon::bare(Host::new(format!("h{addr}"), addr));
            let app = if addr.0 % 2 == 1 {
                "firefox"
            } else {
                "unknownd"
            };
            daemon.set_forged_response(Some(vec![
                ("name".to_string(), app.to_string()),
                ("userID".to_string(), "alice".to_string()),
            ]));
            daemon.set_response_delay_micros(delay_micros);
            // The vendored runtime's `block_on` drives the (brief) async
            // bind; with real tokio this becomes `Runtime::block_on`.
            let server = tokio::runtime::block_on(DaemonServer::start(
                daemon,
                "127.0.0.1:0".parse().unwrap(),
            ))
            .expect("bind loopback daemon");
            (addr, server)
        })
        .collect()
}

/// Builds the sweep's controller tier: `shards` shards over the
/// allow-known-apps policy with host-pair+service-port cache keys, each
/// shard owning its own [`NetworkBackend`] (and thus its own connection
/// pool) over the same daemon endpoints.
pub fn sharded_controller_over(
    endpoints: &[(Ipv4Addr, SocketAddr)],
    shards: usize,
) -> ShardedController {
    let config = ControllerConfig::new()
        .with_control_file("00.control", ALLOW_KNOWN_APPS_POLICY)
        .with_cache_granularity(CacheGranularity::HostPairDstPort);
    ShardedController::new(config, shards)
        .expect("compile E9 policy")
        .with_backends(|_| {
            let mut backend = NetworkBackend::new();
            for (addr, endpoint) in endpoints {
                backend.register_endpoint(*addr, *endpoint);
            }
            Box::new(backend)
        })
}

/// Runs one sweep cell — `flows` decided in rounds of `batch` over
/// `shards` — returning (decisions/sec, queries/flow, decision stream).
pub fn run_sharding_cell(
    endpoints: &[(Ipv4Addr, SocketAddr)],
    shards: usize,
    batch: usize,
    flows: &[FiveTuple],
) -> (f64, f64, Vec<Decision>) {
    let mut controller = sharded_controller_over(endpoints, shards);
    let started = Instant::now();
    let decisions = controller.decide_stream(flows, batch, 0);
    let elapsed = started.elapsed().as_secs_f64();
    let decisions_per_sec = flows.len() as f64 / elapsed;
    let queries_per_flow = controller.total_queries() as f64 / flows.len() as f64;
    (
        decisions_per_sec,
        queries_per_flow,
        decisions.iter().map(|d| d.verdict.decision).collect(),
    )
}

/// Prints the E9 table: decisions/sec and queries/flow for shards ×
/// batch-size over real loopback TCP daemons, asserting along the way that
/// every sharded/batched configuration reproduces the single-controller
/// decision stream exactly. Returns the cells as bench rows.
pub fn print_e9(shard_counts: &[usize], flow_count: usize) -> Vec<BenchRow> {
    let flows = sharding_workload(flow_count, 11);
    let servers = start_e9_daemons(E9_DAEMON_DELAY_MICROS);
    let endpoints: Vec<(Ipv4Addr, SocketAddr)> = servers
        .iter()
        .map(|(addr, server)| (*addr, server.local_addr()))
        .collect();

    // The reference stream: one unsharded controller, one flow per round —
    // the exact pre-sharding decision path.
    let (_, _, baseline) = run_sharding_cell(&endpoints, 1, 1, &flows);

    println!(
        "\n# E9: sharded controller over TCP ({flow_count} flows, {E9_HOSTS} hosts, {E9_DAEMON_DELAY_MICROS} us/daemon round trip)"
    );
    println!(
        "{:>8} {:>8} {:>16} {:>14}",
        "shards", "batch", "decisions/sec", "queries/flow"
    );
    const BATCHES: [usize; 3] = [1, 8, 32];
    let largest = BATCHES[BATCHES.len() - 1];
    let mut rows = Vec::new();
    // Decisions/sec at the largest batch, per shard count.
    let mut at_largest: Vec<(usize, f64)> = Vec::new();
    for &shards in shard_counts {
        for batch in BATCHES {
            let (dps, qpf, decisions) = run_sharding_cell(&endpoints, shards, batch, &flows);
            assert_eq!(
                decisions, baseline,
                "sharded ({shards}x batch {batch}) decisions diverge from the single-controller path"
            );
            if batch == largest {
                at_largest.push((shards, dps));
            }
            println!("{shards:>8} {batch:>8} {dps:>16.0} {qpf:>14.2}");
            rows.push(
                BenchRow::new()
                    .with("experiment", "e9")
                    .with("shards", shards)
                    .with("batch", batch)
                    .with("flows", flow_count)
                    .with("decisions_per_sec", dps)
                    .with("queries_per_flow", qpf),
            );
        }
    }
    for (_, server) in servers {
        server.shutdown();
    }
    // The point of sharding over the network: four shards' rounds wait on
    // their daemons at the same time. Shares run one after another would
    // read about 0.9x one shard here, and overlapped ones read over 3x.
    let rate = |shards: usize| at_largest.iter().find(|c| c.0 == shards).map(|c| c.1);
    if let (Some(one), Some(four)) = (rate(1), rate(4)) {
        assert!(
            four >= 2.0 * one,
            "E9: 4 shards at batch {largest} decide {four:.0}/s, under 2x one shard's {one:.0}/s: the shards' query rounds no longer overlap"
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// E10: the reactor runtime under connection fan-out
// ---------------------------------------------------------------------------

/// Artificial daemon processing delay for E10 (microseconds). Small on
/// purpose: E9 measures the latency-bound overlap story; E10 measures the
/// *runtime* — scheduling, wakeups, and per-connection cost — so the delay
/// only needs to be large enough that rounds genuinely interleave.
const E10_DAEMON_DELAY_MICROS: u64 = 300;

/// Query-round size for every E10 cell: the E9 ceiling row (batch 32) is
/// exactly the configuration the reactor is meant to multiply.
const E10_BATCH: usize = 32;

/// Current thread count of this process (from `/proc/self/status`); 0 when
/// unreadable (non-Linux), which disables the thread columns' meaning but
/// not the sweep.
pub fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("Threads:")
                    .and_then(|v| v.trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Starts `count` loopback daemons for the E10 sweep (same forged-identity
/// mix as E9 so the decision stream is a pass/block mix).
fn start_e10_daemons(count: usize) -> Vec<(Ipv4Addr, DaemonServer)> {
    (1..=count)
        .map(|i| {
            let addr = Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8 + 1);
            let mut daemon = Daemon::bare(Host::new(format!("h{addr}"), addr));
            let app = if i % 2 == 1 { "firefox" } else { "unknownd" };
            daemon.set_forged_response(Some(vec![
                ("name".to_string(), app.to_string()),
                ("userID".to_string(), "alice".to_string()),
            ]));
            daemon.set_response_delay_micros(E10_DAEMON_DELAY_MICROS);
            let server = tokio::runtime::block_on(DaemonServer::start(
                daemon,
                "127.0.0.1:0".parse().unwrap(),
            ))
            .expect("bind loopback daemon");
            (addr, server)
        })
        .collect()
}

/// One E10 cell: `lanes` independent controllers (each with its own
/// `NetworkBackend` connection pool over every daemon) decide their slice
/// of the workload in rounds of 32 (the E9 ceiling batch), concurrently. Returns
/// `(decisions/sec, queries/flow, peak process threads seen mid-run)`.
pub fn run_e10_cell(
    endpoints: &[(Ipv4Addr, SocketAddr)],
    lanes: usize,
    flows: &[FiveTuple],
) -> (f64, f64, usize) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let config = ControllerConfig::new()
        .with_control_file("00.control", ALLOW_KNOWN_APPS_POLICY)
        .with_cache_granularity(CacheGranularity::HostPairDstPort);
    let mut controllers: Vec<_> = (0..lanes)
        .map(|_| {
            let mut backend = NetworkBackend::new();
            for (addr, endpoint) in endpoints {
                backend.register_endpoint(*addr, *endpoint);
            }
            identxx_controller::IdentxxController::new(config.clone())
                .expect("compile E10 policy")
                .with_backend(Box::new(backend))
        })
        .collect();

    let slice = flows.len().div_ceil(lanes);
    let done = AtomicBool::new(false);
    let peak_threads = AtomicUsize::new(process_threads());
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = controllers
            .iter_mut()
            .enumerate()
            .map(|(lane, controller)| {
                let work =
                    &flows[(lane * slice).min(flows.len())..((lane + 1) * slice).min(flows.len())];
                scope.spawn(move || {
                    for round in work.chunks(E10_BATCH) {
                        controller.decide_batch(round, 0);
                    }
                })
            })
            .collect();
        // Sampler: record the peak thread count while lanes are in flight;
        // stopped (and then joined by the scope) once every lane finished.
        let done = &done;
        let peak = &peak_threads;
        scope.spawn(move || {
            while !done.load(Ordering::Acquire) {
                peak.fetch_max(process_threads(), Ordering::AcqRel);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        for handle in handles {
            handle.join().expect("E10 lane panicked");
        }
        done.store(true, Ordering::Release);
    });
    let elapsed = started.elapsed().as_secs_f64();
    let decisions_per_sec = flows.len() as f64 / elapsed;
    let total_queries: u64 = controllers.iter().map(|c| c.audit().total_queries()).sum();
    (
        decisions_per_sec,
        total_queries as f64 / flows.len() as f64,
        peak_threads.load(Ordering::Acquire),
    )
}

/// Threads an E10 cell may run beyond the runtime's workers and its lanes:
/// the main thread, the reactor thread, and the cell's peak-thread sampler.
const E10_FIXED_THREADS: usize = 3;

/// Prints the E10 table: the reactor runtime across daemon count ×
/// concurrent lanes, all at the E9 ceiling round size (batch 32). Every
/// cell asserts the runtime's thread bound — the process never runs more
/// than `workers + lanes + 3` threads (main, reactor, sampler), however
/// many daemon connections are live — so thread count stays O(workers),
/// not O(connections). Returns the cells as bench rows.
///
/// `smoke` shrinks the sweep for CI (fewer daemons, fewer flows).
pub fn print_e10(smoke: bool) -> Vec<BenchRow> {
    let (daemon_counts, lane_counts, flow_count): (&[usize], &[usize], usize) = if smoke {
        (&[4, 32], &[1, 4], 512)
    } else {
        (&[4, 32, 128], &[1, 4], 1024)
    };
    let workers = crate::report::runtime_workers();
    println!(
        "\n# E10: reactor runtime under connection fan-out (batch {E10_BATCH}, {E10_DAEMON_DELAY_MICROS} us/daemon, {flow_count} flows/cell, {workers} workers)"
    );
    println!(
        "{:>8} {:>6} {:>16} {:>14} {:>13} {:>13}",
        "daemons", "lanes", "decisions/sec", "queries/flow", "peak-threads", "thread-bound"
    );
    let mut rows = Vec::new();
    for &daemons in daemon_counts {
        let servers = start_e10_daemons(daemons);
        let endpoints: Vec<(Ipv4Addr, SocketAddr)> = servers
            .iter()
            .map(|(addr, server)| (*addr, server.local_addr()))
            .collect();
        let hosts: Vec<Ipv4Addr> = endpoints.iter().map(|(a, _)| *a).collect();
        let mut config = WorkloadConfig::enterprise(hosts, flow_count, 17);
        config.locality = 0.0;
        let flows: Vec<FiveTuple> = WorkloadGenerator::new(config)
            .generate()
            .into_iter()
            .map(|flow| flow.five_tuple)
            .collect();
        for &lanes in lane_counts {
            let (dps, qpf, threads) = run_e10_cell(&endpoints, lanes, &flows);
            let bound = workers + lanes + E10_FIXED_THREADS;
            println!("{daemons:>8} {lanes:>6} {dps:>16.0} {qpf:>14.2} {threads:>13} {bound:>13}");
            assert!(
                threads <= bound,
                "E10: {threads} threads at {daemons} daemons × {lanes} lanes exceed \
                 {workers} workers + {lanes} lanes + {E10_FIXED_THREADS}"
            );
            rows.push(
                BenchRow::new()
                    .with("experiment", "e10")
                    .with("daemons", daemons)
                    .with("lanes", lanes)
                    .with("batch", E10_BATCH)
                    .with("flows", flow_count)
                    .with("decisions_per_sec", dps)
                    .with("queries_per_flow", qpf)
                    .with("peak_threads", threads),
            );
        }
        for (_, server) in servers {
            server.shutdown();
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E12: failure drills — fail-closed decisions under injected faults
// ---------------------------------------------------------------------------

/// Per-round-trip daemon processing delay for E12 (microseconds). Small:
/// the drills measure *fault* latency (deadline misses, breaker fast-fails),
/// not healthy-path throughput — E9 owns that table.
const E12_DAEMON_DELAY_MICROS: u64 = 300;

/// Query-round size for every drill cell (the E9 ceiling batch).
const E12_BATCH: usize = 32;

/// The controller tier's per-round query budget. Short relative to a
/// brownout on purpose: a browned-out daemon (5 s extra) must blow it so the
/// drill exercises deadline-miss → breaker-open → fast-fail, and a faulted
/// round's cost is bounded by it instead of by the fault. But generous
/// relative to the healthy path (~ms on loopback): on a shared 1-vCPU CI
/// runner a scheduler stall must not fake a deadline miss in the cells that
/// assert *zero* fail-closed denies.
const E12_BUDGET: Duration = Duration::from_secs(2);

/// Extra processing delay a brownout inflicts (microseconds); ≫ the budget.
const E12_BROWNOUT_EXTRA_MICROS: u64 = 5_000_000;

/// Logical microseconds between drill rounds: the injector clock and the
/// controller's `now` advance by this much per batch, so fault windows are
/// expressed in whole rounds.
const E12_ROUND_MICROS: u64 = 1_000_000;

/// Shards in the drilled tier.
const E12_SHARDS: usize = 4;

/// Rounds allowed between a fault clearing and the tier provably matching
/// the unfaulted baseline again: enough for the breaker cooldown
/// (`E12_BREAKER.cooldown_rounds`) plus its half-open probe.
const E12_RECOVERY_SLACK_ROUNDS: usize = 5;

const E12_BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 2,
    cooldown_rounds: 2,
};

/// Hard per-round wall-clock ceiling (milliseconds). Deliberately generous —
/// shared 1-vCPU CI runners stall — while still distinguishing "bounded by
/// the query budget" from "hung on a dead host": an unbounded wait would be
/// the 500 ms connect/read timeout times the flow count, orders of magnitude
/// past this.
const E12_ROUND_CEILING_MS: f64 = 10_000.0;

/// Starts the E9 daemon population with a drill [`FaultInjector`] attached,
/// so scripted silences, brownouts, and frame faults reach every daemon and
/// server choke point.
pub fn start_drill_daemons(injector: &Arc<FaultInjector>) -> Vec<(Ipv4Addr, DaemonServer)> {
    e9_hosts()
        .into_iter()
        .map(|addr| {
            let mut daemon = Daemon::bare(Host::new(format!("h{addr}"), addr));
            let app = if addr.0 % 2 == 1 {
                "firefox"
            } else {
                "unknownd"
            };
            daemon.set_forged_response(Some(vec![
                ("name".to_string(), app.to_string()),
                ("userID".to_string(), "alice".to_string()),
            ]));
            daemon.set_response_delay_micros(E12_DAEMON_DELAY_MICROS);
            daemon.set_fault_injector(Some(injector.clone()));
            let server = tokio::runtime::block_on(DaemonServer::start(
                daemon,
                "127.0.0.1:0".parse().unwrap(),
            ))
            .expect("bind loopback daemon");
            (addr, server)
        })
        .collect()
}

/// One drilled query backend: short budget, circuit breaker, and the cell's
/// injector (partitions are enforced controller-side).
fn drill_backend(
    endpoints: &[(Ipv4Addr, SocketAddr)],
    injector: &Arc<FaultInjector>,
) -> Box<dyn QueryBackend> {
    let mut backend = NetworkBackend::new()
        .with_budget(E12_BUDGET)
        .with_breaker(E12_BREAKER)
        .with_fault_injector(injector.clone());
    for (addr, endpoint) in endpoints {
        backend.register_endpoint(*addr, *endpoint);
    }
    Box::new(backend)
}

/// The drilled controller tier: fail-closed decisions over the E9 policy,
/// every shard wired to a drilled backend (short budget, breaker, injector).
pub fn drill_tier(
    endpoints: &[(Ipv4Addr, SocketAddr)],
    shards: usize,
    injector: &Arc<FaultInjector>,
) -> ShardedController {
    let config = ControllerConfig::new()
        .with_control_file("00.control", ALLOW_KNOWN_APPS_POLICY)
        .with_cache_granularity(CacheGranularity::HostPairDstPort)
        .with_fail_closed_on_unanswered();
    ShardedController::new(config, shards)
        .expect("compile E12 policy")
        .with_backends(|_| drill_backend(endpoints, injector))
}

/// What one drill run produced: the verdict stream, per-round wall-clock,
/// and the tier's final audit/state shape.
pub struct DrillRun {
    /// One verdict per flow, in decision order.
    pub verdicts: Vec<Decision>,
    /// Whether each decision came from a shard's state table (a cached
    /// answer is obtainable by definition, so fault assertions exempt it).
    pub from_cache: Vec<bool>,
    /// Wall-clock milliseconds per round.
    pub round_millis: Vec<f64>,
    /// `fail-closed` policy notes accumulated across all shards.
    pub fail_closed_notes: usize,
    /// State-table entries summed across all shards at the end of the run.
    pub state_entries: usize,
}

/// Drives `flows` through `tier` in rounds of `E12_BATCH`, advancing the
/// injector's logical clock in lock-step and calling `on_round` before each
/// round (where drills reshard mid-run).
pub fn run_drill(
    tier: &mut ShardedController,
    injector: &Arc<FaultInjector>,
    flows: &[FiveTuple],
    mut on_round: impl FnMut(usize, &mut ShardedController),
) -> DrillRun {
    let mut verdicts = Vec::with_capacity(flows.len());
    let mut from_cache = Vec::with_capacity(flows.len());
    let mut round_millis = Vec::new();
    for (round, chunk) in flows.chunks(E12_BATCH).enumerate() {
        on_round(round, tier);
        let now = round as u64 * E12_ROUND_MICROS;
        injector.advance_to(now);
        let started = Instant::now();
        let decisions = tier.decide_batch(chunk, now);
        round_millis.push(started.elapsed().as_secs_f64() * 1e3);
        verdicts.extend(decisions.iter().map(|d| d.verdict.decision));
        from_cache.extend(decisions.iter().map(|d| d.from_cache));
    }
    let fail_closed_notes = tier
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
    let state_entries = tier
        .shards()
        .iter()
        .map(|shard| shard.state_table().len())
        .sum();
    DrillRun {
        verdicts,
        from_cache,
        round_millis,
        fail_closed_notes,
        state_entries,
    }
}

fn percentile_ms(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// Asserts the drill-wide latency contract: no round — faulted or not — ever
/// blocks past the (generous) ceiling. The query budget bounds each faulted
/// round; the breaker bounds how many rounds pay it.
fn assert_rounds_bounded(cell: &str, run: &DrillRun) {
    let max = run.round_millis.iter().copied().fold(0.0f64, f64::max);
    assert!(
        max <= E12_ROUND_CEILING_MS,
        "E12 {cell}: a round took {max:.0} ms — decisions must never block unboundedly"
    );
}

/// Asserts that every surviving shard holds exactly the state the router
/// names it owner of — the "no lost or duplicated entries" half of the
/// reshard contract (counts are checked against the baseline separately).
fn assert_state_owned(cell: &str, tier: &ShardedController) {
    for (slot, shard) in tier.shards().iter().enumerate() {
        if tier.is_drained(slot) {
            assert_eq!(
                shard.state_table().len(),
                0,
                "E12 {cell}: drained shard {slot} must hold no state"
            );
            continue;
        }
        for (key, _) in shard.state_table().entries() {
            assert_eq!(
                tier.shard_for(key),
                slot,
                "E12 {cell}: shard {slot} holds state the router assigns elsewhere"
            );
        }
    }
}

/// Prints the E12 failure-drill table: four drill cells (host partition,
/// daemon brownout, shard loss, reshard-under-load) over real loopback TCP
/// daemons, each asserting the fail-closed contract (DESIGN.md §9):
///
/// * no decision ever blocks past the ceiling (the budget + breaker bound
///   every faulted round),
/// * flows whose answers are unobtainable are denied with a `fail-closed`
///   audit note — and those denies are never cached,
/// * once the fault clears (plus breaker cooldown), the verdict stream is
///   identical to an unfaulted single-controller baseline,
/// * membership changes preserve decision identity end-to-end and migrate
///   state without loss or duplication.
///
/// `smoke` shrinks the run for CI. Returns the cells as bench rows.
pub fn print_e12(smoke: bool) -> Vec<BenchRow> {
    let flow_count = if smoke { 512 } else { 1024 };
    let flows = sharding_workload(flow_count, 23);
    let rounds = flows.len().div_ceil(E12_BATCH);
    // Fault window in rounds: [rounds/4, 3*rounds/8). Recovery is asserted
    // from the window's end plus the breaker slack to the end of the run.
    let fault_from = rounds / 4;
    let fault_until = rounds * 3 / 8;
    let recovered_from = fault_until + E12_RECOVERY_SLACK_ROUNDS;
    assert!(
        recovered_from + 2 < rounds,
        "drill must have a post-recovery tail to assert identity over"
    );
    let window = Window::between(
        fault_from as u64 * E12_ROUND_MICROS,
        fault_until as u64 * E12_ROUND_MICROS,
    );
    let flow_round = |i: usize| i / E12_BATCH;
    let in_window = |i: usize| (fault_from..fault_until).contains(&flow_round(i));
    let recovered = |i: usize| flow_round(i) >= recovered_from;

    println!(
        "\n# E12: failure drills ({flow_count} flows, {E12_SHARDS} shards, {} ms budget, window rounds {fault_from}..{fault_until} of {rounds})",
        E12_BUDGET.as_millis()
    );
    println!(
        "{:>18} {:>9} {:>9} {:>9} {:>12} {:>10}",
        "cell", "p50 ms", "p99 ms", "max ms", "fail-closed", "recovered"
    );

    // The unfaulted baseline: a single-controller tier over healthy daemons,
    // same flows, same logical clock. Every cell's recovery (and the
    // membership cells' entire run) is compared against its verdict stream.
    let baseline = {
        let injector = FaultInjector::none();
        let servers = start_drill_daemons(&injector);
        let endpoints: Vec<(Ipv4Addr, SocketAddr)> = servers
            .iter()
            .map(|(addr, server)| (*addr, server.local_addr()))
            .collect();
        let mut tier = drill_tier(&endpoints, 1, &injector);
        let run = run_drill(&mut tier, &injector, &flows, |_, _| {});
        for (_, server) in servers {
            server.shutdown();
        }
        assert_eq!(run.fail_closed_notes, 0, "the baseline must be healthy");
        run
    };

    let mut rows = Vec::new();
    let mut row = |cell: &'static str, run: &DrillRun| {
        let p50 = percentile_ms(&run.round_millis, 0.50);
        let p99 = percentile_ms(&run.round_millis, 0.99);
        let max = run.round_millis.iter().copied().fold(0.0f64, f64::max);
        println!(
            "{cell:>18} {p50:>9.1} {p99:>9.1} {max:>9.1} {:>12} {:>10}",
            run.fail_closed_notes, "yes"
        );
        rows.push(
            BenchRow::new()
                .with("experiment", "e12")
                .with("cell", cell)
                .with("flows", flows.len())
                .with("rounds", rounds)
                .with("shards", E12_SHARDS)
                .with("p50_ms", p50)
                .with("p99_ms", p99)
                .with("max_ms", max)
                .with("fail_closed_notes", run.fail_closed_notes),
        );
    };

    // --- Cell 1: partition — a third of the hosts unreachable mid-run. ----
    {
        let partitioned: Vec<Ipv4Addr> = e9_hosts().into_iter().take(4).collect();
        let mut plan = FaultPlan::new(23);
        for &host in &partitioned {
            plan = plan.partition(host, window);
        }
        let injector = plan.injector();
        let servers = start_drill_daemons(&injector);
        let endpoints: Vec<(Ipv4Addr, SocketAddr)> = servers
            .iter()
            .map(|(addr, server)| (*addr, server.local_addr()))
            .collect();
        let mut tier = drill_tier(&endpoints, E12_SHARDS, &injector);
        let run = run_drill(&mut tier, &injector, &flows, |_, _| {});
        for (_, server) in servers {
            server.shutdown();
        }
        assert_rounds_bounded("partition", &run);
        assert!(
            run.fail_closed_notes > 0,
            "E12 partition: unreachable hosts must produce fail-closed denies"
        );
        for (i, flow) in flows.iter().enumerate() {
            let touches = partitioned.contains(&flow.src_ip) || partitioned.contains(&flow.dst_ip);
            if in_window(i) && touches && !run.from_cache[i] {
                // A cached answer is obtainable, so only freshly queried
                // flows are required to fail closed.
                assert_eq!(
                    run.verdicts[i],
                    Decision::Block,
                    "E12 partition: flow {flow} crossed the partition yet was not denied"
                );
            }
            if recovered(i) {
                assert_eq!(
                    run.verdicts[i], baseline.verdicts[i],
                    "E12 partition: verdicts must match the baseline after recovery (flow {flow})"
                );
            }
        }
        row("partition", &run);
    }

    // --- Cell 2: brownout — one host slower than the budget mid-run. ------
    {
        let browned = Ipv4Addr::new(10, 0, 0, 1);
        let injector = FaultPlan::new(23)
            .brownout(browned, E12_BROWNOUT_EXTRA_MICROS, window)
            .injector();
        let servers = start_drill_daemons(&injector);
        let endpoints: Vec<(Ipv4Addr, SocketAddr)> = servers
            .iter()
            .map(|(addr, server)| (*addr, server.local_addr()))
            .collect();
        let mut tier = drill_tier(&endpoints, E12_SHARDS, &injector);
        let run = run_drill(&mut tier, &injector, &flows, |_, _| {});
        for (_, server) in servers {
            server.shutdown();
        }
        assert_rounds_bounded("brownout", &run);
        assert!(
            run.fail_closed_notes > 0,
            "E12 brownout: deadline misses and breaker-open rounds must fail closed"
        );
        for (i, flow) in flows.iter().enumerate() {
            if recovered(i) {
                assert_eq!(
                    run.verdicts[i], baseline.verdicts[i],
                    "E12 brownout: verdicts must match the baseline after recovery (flow {flow})"
                );
            }
        }
        row("brownout", &run);
    }

    // --- Cell 3: shard loss — a shard removed (state evacuated) mid-run. --
    {
        let injector = FaultInjector::none();
        let servers = start_drill_daemons(&injector);
        let endpoints: Vec<(Ipv4Addr, SocketAddr)> = servers
            .iter()
            .map(|(addr, server)| (*addr, server.local_addr()))
            .collect();
        let mut tier = drill_tier(&endpoints, E12_SHARDS, &injector);
        let run = run_drill(&mut tier, &injector, &flows, |round, tier| {
            if round == fault_from {
                tier.remove_shard(1);
            }
        });
        assert_rounds_bounded("shard-loss", &run);
        assert_eq!(
            run.verdicts, baseline.verdicts,
            "E12 shard-loss: evacuating a shard must not change any decision"
        );
        assert_eq!(
            run.fail_closed_notes, 0,
            "E12 shard-loss: losing a controller shard loses no answers"
        );
        assert_eq!(
            run.state_entries, baseline.state_entries,
            "E12 shard-loss: state entries lost or duplicated in the handoff"
        );
        assert_state_owned("shard-loss", &tier);
        for (_, server) in servers {
            server.shutdown();
        }
        row("shard-loss", &run);
    }

    // --- Cell 4: reshard under load — grow, drain, and retire mid-run. ----
    {
        let injector = FaultInjector::none();
        let servers = start_drill_daemons(&injector);
        let endpoints: Vec<(Ipv4Addr, SocketAddr)> = servers
            .iter()
            .map(|(addr, server)| (*addr, server.local_addr()))
            .collect();
        let mut tier = drill_tier(&endpoints, E12_SHARDS, &injector);
        let grow_at = fault_from;
        let drain_at = fault_until;
        let retire_at = recovered_from;
        let run = run_drill(&mut tier, &injector, &flows, |round, tier| {
            if round == grow_at {
                tier.add_shard(drill_backend(&endpoints, &injector))
                    .expect("add shard mid-run");
            } else if round == drain_at {
                tier.drain_shard(0);
            } else if round == retire_at {
                tier.remove_shard(0);
            }
        });
        assert_rounds_bounded("reshard", &run);
        assert_eq!(
            run.verdicts, baseline.verdicts,
            "E12 reshard: live membership changes must not change any decision"
        );
        assert_eq!(run.fail_closed_notes, 0, "E12 reshard: no fault injected");
        assert_eq!(
            run.state_entries, baseline.state_entries,
            "E12 reshard: state entries lost or duplicated across handoffs"
        );
        assert_eq!(tier.epoch(), 3, "add + drain + remove = three epochs");
        assert_state_owned("reshard", &tier);
        for (_, server) in servers {
            server.shutdown();
        }
        row("reshard", &run);
    }

    rows
}

// ---------------------------------------------------------------------------
// E13: amortized delegation verification — hit rate × lifetime × batch
// ---------------------------------------------------------------------------

/// Hot delegation bundles (the working set the verify cache should retain).
const E13_HOT_APPS: usize = 4;
/// Cold bundles — more than the deliberately small verify cache holds, so
/// low-locality traffic churns it.
const E13_COLD_APPS: usize = 64;
/// Verify-cache capacity for the sweep: big enough for the hot set, far
/// smaller than the whole bundle population.
const E13_VERIFY_CAPACITY: usize = 32;
/// Logical microseconds per decision round.
const E13_ROUND_MICROS: u64 = 1_000;
/// Bound on a headline cell's `surplus_x`: the signed path's extra cost per
/// decision over the unsigned rule, in units of `misses / flows ×
/// verify_us`. Fresh verifies account for 1.0 of it; the rest is the hash
/// and lookup each cache hit costs. Twenty measured headline cells (five
/// full-size and five smoke runs on a 2-vCPU x86-64 container) read
/// 1.13–1.61; the bound is that maximum plus about a quarter for timer
/// jitter, and a doubling of uncounted curve math per decision breaks it.
const E13_SURPLUS_MULTIPLE: f64 = 2.0;
/// The delegated requirements every E13 bundle signs over.
const E13_REQS: &str = "block all\npass all with eq(@src[name], research-app)";

/// One delegated application: a source address plus the response its daemon
/// gives (including the signed bundle).
struct E13App {
    addr: Ipv4Addr,
    pairs: Vec<(String, String)>,
}

/// Builds the E13 bundle population: `E13_HOT_APPS + E13_COLD_APPS` apps,
/// each with its own exe-hash (hence its own bundle), windowed
/// `[0, not_after)` under the `Secur` key. The last cold app's response
/// claims a different name than its bundle signs over — a forged delegation
/// every cell must reject.
fn e13_apps(signer: &KeyPair, not_after: u64) -> Vec<E13App> {
    let total = E13_HOT_APPS + E13_COLD_APPS;
    (0..total)
        .map(|i| {
            let exe_hash = format!("e13-exe-{i:03}");
            let bundle = sign_bundle_windowed(
                signer,
                "Secur",
                0,
                not_after,
                &[exe_hash.as_str(), "research-app", E13_REQS],
            );
            let forged = i == total - 1;
            let name = if forged {
                "imposter-app"
            } else {
                "research-app"
            };
            E13App {
                addr: Ipv4Addr::new(10, 0, (i / 200) as u8, (i % 200) as u8 + 1),
                pairs: vec![
                    ("name".to_string(), name.to_string()),
                    ("exe-hash".to_string(), exe_hash),
                    ("requirements".to_string(), E13_REQS.to_string()),
                    ("req-sig".to_string(), bundle.to_hex()),
                ],
            }
        })
        .collect()
}

/// The app index each flow presents: the first pass enumerates every app
/// once (so every bundle — the forged one included — is exercised in every
/// cell), then a deterministic xorshift stream picks hot apps with
/// probability `locality` and cold ones uniformly otherwise.
fn e13_app_sequence(flow_count: usize, locality: f64, seed: u64) -> Vec<usize> {
    let total = E13_HOT_APPS + E13_COLD_APPS;
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..flow_count)
        .map(|k| {
            if k < total {
                k
            } else if (next() % 1_000) as f64 / 1_000.0 < locality {
                (next() as usize) % E13_HOT_APPS
            } else {
                E13_HOT_APPS + (next() as usize) % E13_COLD_APPS
            }
        })
        .collect()
}

/// Mean wall-clock cost of one fresh verification through the verify plane
/// (parse, window check, content hash, curve math, insert): every app's
/// bundle once through an empty cache, so every lookup is a miss. The
/// median of three passes damps timer jitter.
fn e13_verify_us(signer: &KeyPair, apps: &[E13App]) -> f64 {
    let key = signer.public().to_hex();
    let mut passes: Vec<f64> = (0..3)
        .map(|_| {
            let cache = VerifyCache::new();
            let started = Instant::now();
            for app in apps {
                let field = |name: &str| {
                    app.pairs
                        .iter()
                        .find(|(k, _)| k == name)
                        .map_or("", |(_, v)| v.as_str())
                };
                let items = [field("exe-hash"), field("name"), field("requirements")];
                cache.verify_hex_at(field("req-sig"), &key, &items, 0);
            }
            assert_eq!(cache.stats().misses, apps.len() as u64);
            started.elapsed().as_secs_f64() * 1e6 / apps.len() as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[1]
}

/// Drives the flow stream through one controller in rounds of `batch`,
/// advancing the logical clock one round per batch. Returns per-decision
/// wall-clock microseconds and the pass verdicts.
fn e13_run(
    controller: &mut IdentxxController,
    flows: &[FiveTuple],
    batch: usize,
) -> (f64, Vec<bool>) {
    let mut passes = Vec::with_capacity(flows.len());
    let started = Instant::now();
    for (round, chunk) in flows.chunks(batch).enumerate() {
        let now = round as u64 * E13_ROUND_MICROS;
        for decision in controller.decide_batch(chunk, now) {
            passes.push(decision.is_pass());
        }
    }
    let per_decision_us = started.elapsed().as_secs_f64() * 1e6 / flows.len() as f64;
    (per_decision_us, passes)
}

/// Builds the E13 controller (signed or unsigned policy) over a recording
/// backend scripted with every app's response. The state table is disabled
/// so every decision re-evaluates — the experiment measures the verify
/// plane, not the flow cache.
fn e13_controller(
    signer: &KeyPair,
    apps: &[E13App],
    server: Ipv4Addr,
    signed: bool,
) -> IdentxxController {
    let policy = if signed {
        "block all\npass all with verify(@src[req-sig], Secur, @src[exe-hash], \
         @src[name], @src[requirements])\n"
    } else {
        "block all\npass all with eq(@src[name], research-app)\n"
    };
    let mut backend = RecordingBackend::new()
        .with_answer(server, vec![("name".to_string(), "httpd".to_string())]);
    for app in apps {
        backend = backend.with_answer(app.addr, app.pairs.clone());
    }
    IdentxxController::new(
        ControllerConfig::new()
            .with_control_file("00.control", policy)
            .with_trusted_key("Secur", signer.public())
            .with_verify_cache_capacity(E13_VERIFY_CAPACITY)
            .without_state_table(),
    )
    .expect("compile E13 policy")
    .with_backend(Box::new(backend))
}

/// Prints the E13 table: amortized authenticated-delegation cost across
/// bundle locality {0.5, 0.9} × bundle lifetime {short, long} × batch size
/// {1, 32}, against an unsigned-rule baseline over the same flows and
/// backend.
///
/// Every cell asserts the security invariants (the forged bundle never
/// passes; short-lived bundles stop passing at expiry; long-lived cells see
/// no expiry), and the headline cells (0.9 locality, long lifetime) assert
/// the amortization claim: the hot set stays cached, and the signed path's
/// surplus over the unsigned rule is accounted for by its fresh
/// verifications (at most `E13_SURPLUS_MULTIPLE` times
/// `misses / flows × verify_us`, with `verify_us` measured in the same
/// cell). `smoke` shrinks the flow count for CI.
pub fn print_e13(smoke: bool) -> Vec<BenchRow> {
    let flow_count = if smoke { 1_024 } else { 8_192 };
    let signer = KeyPair::from_seed(b"Secur");
    let server = Ipv4Addr::new(10, 0, 200, 1);
    let total_apps = E13_HOT_APPS + E13_COLD_APPS;
    assert!(
        flow_count > 2 * total_apps,
        "enumeration prefix must not dominate"
    );

    println!(
        "\n# E13: amortized delegation verification ({flow_count} flows, {total_apps} bundles, cache {E13_VERIFY_CAPACITY})"
    );
    println!(
        "{:>9} {:>9} {:>6} {:>9} {:>8} {:>9} {:>8} {:>11} {:>13} {:>7} {:>10} {:>10}",
        "locality",
        "lifetime",
        "batch",
        "hit_rate",
        "misses",
        "expired",
        "forged",
        "signed_us",
        "unsigned_us",
        "ratio",
        "verify_us",
        "surplus_x"
    );

    let mut rows = Vec::new();
    for &locality in &[0.5f64, 0.9] {
        for &(lifetime, short) in &[("short", true), ("long", false)] {
            for &batch in &[1usize, 32] {
                let rounds = flow_count.div_ceil(batch);
                let run_micros = rounds as u64 * E13_ROUND_MICROS;
                // Short-lived bundles expire at the run's midpoint; long
                // ones outlive the run.
                let not_after = if short {
                    run_micros / 2
                } else {
                    run_micros + 1
                };
                let apps = e13_apps(&signer, not_after);
                let sequence = e13_app_sequence(flow_count, locality, 0xe13_5eed);
                let flows: Vec<FiveTuple> = sequence
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        FiveTuple::tcp(apps[i].addr, 40_000 + (k % 20_000) as u16, server, 80)
                    })
                    .collect();

                let verify_us = e13_verify_us(&signer, &apps);
                let mut signed_ctl = e13_controller(&signer, &apps, server, true);
                let (signed_us, signed_passes) = e13_run(&mut signed_ctl, &flows, batch);
                let mut unsigned_ctl = e13_controller(&signer, &apps, server, false);
                let (unsigned_us, unsigned_passes) = e13_run(&mut unsigned_ctl, &flows, batch);

                let stats = signed_ctl.verify_stats();
                let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
                let ratio = signed_us / unsigned_us;
                // The signed path's extra cost per decision, in units of
                // what its fresh verifications cost.
                let miss_us = stats.misses as f64 / flow_count as f64 * verify_us;
                let surplus_x = (signed_us - unsigned_us) / miss_us;
                let cell = format!("E13 locality {locality} lifetime {lifetime} batch {batch}");

                // The forged bundle never passes; with a valid window it is
                // actually checked (and counted) rather than masked.
                let forged_idx = total_apps - 1;
                for (k, &i) in sequence.iter().enumerate() {
                    if i == forged_idx {
                        assert!(!signed_passes[k], "{cell}: forged bundle passed (flow {k})");
                    }
                }
                assert!(
                    stats.forged > 0,
                    "{cell}: the forged bundle was never checked"
                );
                // The unsigned policy reads no bundle, so it must never pay
                // for verifying one.
                let unsigned_misses = unsigned_ctl.verify_stats().misses;
                assert_eq!(
                    unsigned_misses, 0,
                    "{cell}: the unsigned baseline ran curve math {unsigned_misses} times"
                );
                // The unsigned baseline accepts what verify() accepts while
                // the bundles are live — the delegations differ only in
                // authentication. (The forged app's claim differs, and after
                // expiry the signed plane — correctly — stops passing.)
                let live = |k: usize| !short || (k / batch) as u64 * E13_ROUND_MICROS < not_after;
                for (k, &i) in sequence.iter().enumerate() {
                    if i != forged_idx && live(k) {
                        assert_eq!(
                            signed_passes[k], unsigned_passes[k],
                            "{cell}: live signed decision diverged from baseline (flow {k})"
                        );
                    }
                }
                if short {
                    assert!(
                        stats.expired > 0,
                        "{cell}: short-lived bundles never expired"
                    );
                    // After the window closes, nothing signed passes: expiry
                    // is fail-closed, not advisory.
                    for (k, &pass) in signed_passes.iter().enumerate() {
                        if !live(k) {
                            assert!(!pass, "{cell}: decision {k} passed after bundle expiry");
                        }
                    }
                } else {
                    assert_eq!(
                        stats.expired, 0,
                        "{cell}: long-lived bundles must not expire"
                    );
                    // Headline cells: the hot set stays cached, and the
                    // signed path costs what its fresh verifications cost
                    // and not much more.
                    if locality >= 0.9 {
                        assert!(
                            hit_rate >= 0.85,
                            "{cell}: hot bundles should amortize (hit rate {hit_rate:.3})"
                        );
                        assert!(
                            surplus_x <= E13_SURPLUS_MULTIPLE,
                            "{cell}: signed surplus {:.2} us/decision is {surplus_x:.2}x \
                             what {} fresh verifies at {verify_us:.1} us account for",
                            signed_us - unsigned_us,
                            stats.misses
                        );
                    }
                }

                println!(
                    "{locality:>9} {lifetime:>9} {batch:>6} {hit_rate:>9.3} {:>8} {:>9} {:>8} {signed_us:>11.2} {unsigned_us:>13.2} {ratio:>7.2} {verify_us:>10.1} {surplus_x:>10.2}",
                    stats.misses, stats.expired, stats.forged
                );
                rows.push(
                    BenchRow::new()
                        .with("experiment", "e13")
                        .with("locality", locality)
                        .with("lifetime", lifetime)
                        .with("batch", batch)
                        .with("flows", flow_count)
                        .with("bundles", total_apps)
                        .with("cache_capacity", E13_VERIFY_CAPACITY)
                        .with("hit_rate", hit_rate)
                        .with("hits", stats.hits)
                        .with("misses", stats.misses)
                        .with("evictions", stats.evictions)
                        .with("expired", stats.expired)
                        .with("forged", stats.forged)
                        .with("signed_us_per_decision", signed_us)
                        .with("unsigned_us_per_decision", unsigned_us)
                        .with("cost_ratio", ratio)
                        .with("verify_us", verify_us)
                        .with("surplus_x", surplus_x),
                );
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8b_cache_warms_at_high_locality() {
        // The paper's cache-warming curve: with host-pair keyed caching, a
        // high-locality workload must not pay the full two queries per flow,
        // and more locality must mean fewer queries.
        let (low_hit, low_queries, flows) = run_query_workload(2_000, 0.0, 13);
        let (high_hit, high_queries, _) = run_query_workload(2_000, 0.9, 13);
        let high_qpf = high_queries as f64 / flows as f64;
        let low_qpf = low_queries as f64 / flows as f64;
        assert!(
            high_qpf < 2.00,
            "high locality must warm the cache (got {high_qpf:.2} queries/flow)"
        );
        assert!(high_qpf < low_qpf, "locality must reduce query overhead");
        assert!(
            high_hit > low_hit,
            "locality must raise the cache hit ratio"
        );
        assert!(
            high_hit > 0.5,
            "0.9 locality should serve most flows from cache (got {high_hit:.2})"
        );
    }
}
