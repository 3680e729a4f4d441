//! `campus_dataplane`: first packets through a two-tier `EnterpriseNetwork`
//! of OpenFlow switches whose hosts are host-model daemons, so answers come
//! from real process and socket tables. Each flow's process is spawned before
//! its first packet and killed after it; the packet goes switch miss →
//! packet-in → `decide` → flow-mods. The policy is allow-known-apps plus an
//! administrator ACL of tens of thousands of rules of mixed shapes (see
//! [`ACL_SHAPES`]), reloaded every few thousand flows. This is the
//! single-flow `decide` path.
//!
//! Flows are replayed in overlapping windows: each window re-opens the second
//! half of the previous one after an idle gap longer than the switches' idle
//! timeout, so those first packets miss the switch again and hit the
//! controller's state table unless a reload cleared it.

use std::collections::BTreeSet;
use std::time::Instant;

use identxx_controller::{ControllerConfig, InProcessBackend};
use identxx_core::EnterpriseNetwork;
use identxx_hostmodel::Executable;
use identxx_netsim::workload::{WorkloadConfig, WorkloadGenerator};
use identxx_openflow::PacketHeader;
use identxx_proto::{FiveTuple, Ipv4Addr, Query};

use crate::common::{end_to_end, median_f64, Outcome, Rng, Rounds};
use crate::trace::{self, TracedBackend};
use crate::{check_all_decided, Tally};

/// Edge switches of the two-tier campus.
pub const EDGES: usize = 8;
/// Hosts per edge switch.
pub const HOSTS_PER_EDGE: usize = 16;
/// ACL rules naming addresses outside the campus (never matching its flows).
pub const ACL_RULES: usize = 20_000;
/// One campus host in this many has one service port quarantined by the ACL.
pub const QUARANTINE_EVERY: usize = 8;
/// Flows per replay window; consecutive windows overlap by half.
pub const WINDOW: usize = 2_048;
/// A reload replaces the ACL file every this many windows.
pub const RELOAD_WINDOWS: usize = 2;
/// Distinct flows generated per seed (a multiple of `WINDOW / 2`).
pub const POOL: usize = 32_768;
/// The netsim generator's locality (share of repeated host pairs and apps).
pub const LOCALITY: f64 = 0.5;
/// Untimed windows before the clock starts.
pub const WARMUP_WINDOWS: usize = 2;
/// Timed flows after which peak memory is read.
pub const RSS_MARK: u64 = 100_000;
/// Simulated idle gap between windows, µs: longer than the 30 s idle timeout
/// of installed entries, shorter than the 60 s state-table lifetime.
const IDLE_GAP_US: u64 = 31_000_000;

/// The allow-known-apps policy with `keep state` (E7's intent).
pub const APPS_POLICY: &str = "\
block all
pass all with eq(@src[name], firefox) keep state
pass all with eq(@src[name], skype) with gte(@src[version], 200) keep state
pass all with eq(@src[name], thunderbird) keep state
pass all with eq(@src[name], ssh) keep state
pass all with eq(@src[name], Server) keep state
pass all with eq(@src[name], research-app) keep state
";

/// The services every host runs: (port, executable name, type).
const SERVICES: &[(u16, &str, &str)] = &[
    (80, "httpd", "web-server"),
    (25, "smtpd", "email-server"),
    (22, "sshd", "remote-shell-server"),
    (445, "Server", "file-service"),
    (7000, "research-srv", "research"),
];

/// The service ports the ACL's port-specific rules name, the campus's five
/// services among them.
pub const ACL_PORTS: &[u16] = &[
    20, 21, 22, 23, 25, 53, 80, 110, 123, 135, 139, 143, 161, 389, 443, 445, 993, 995, 1433, 3306,
    3389, 5900, 7000, 8080,
];

/// The shapes of the ACL's rules and how many of every 20 rules take each.
/// `H` is a host and `N` a /24 network in 172.16.0.0/12, outside the campus;
/// `P` is a port from [`ACL_PORTS`]. The mix loosely follows the picture
/// ClassBench (Taylor and Turner, IEEE/ACM ToN 15(3), 2007) gives of its
/// ACL seed filter sets: most filters are specific about the destination
/// and name an exact destination port; port ranges and source-specific
/// filters are a minority. The shares are this benchmark's choice, not
/// figures from that paper.
pub const ACL_SHAPES: &[(&str, usize)] = &[
    ("block quick from any to H port P", 9),
    ("block quick from any to H", 3),
    ("block quick from any to N port P", 2),
    ("block quick from any to H port 1024:65535", 2),
    ("block quick from H to any port P", 2),
    ("block quick from N to any port P", 2),
];

/// One ACL rule of a shape from [`ACL_SHAPES`], its `H`, `N` and `P` drawn
/// from `rng`.
fn acl_rule(shape: &str, rng: &mut Rng) -> String {
    let (a, b, c) = (16 + rng.below(16), rng.below(256), rng.below(256));
    shape
        .replace('H', &format!("172.{a}.{b}.{c}"))
        .replace('N', &format!("172.{a}.{b}.0/24"))
        .replace('P', &ACL_PORTS[rng.below(ACL_PORTS.len())].to_string())
}

/// A flow of the pool: the 5-tuple, which generator app and user opened it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampusFlow {
    /// The flow.
    pub flow: FiveTuple,
    /// Index into the generator's application mix.
    pub app: usize,
    /// The user who opens it.
    pub user: String,
}

/// One seed's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The generator's application mix: (exe name, version, type, intended).
    pub apps: Vec<(String, i64, String, bool)>,
    /// The flow pool, every 5-tuple distinct.
    pub flows: Vec<CampusFlow>,
    /// The ACL `.control` file.
    pub acl: String,
    /// (host, port) pairs the ACL quarantines.
    pub quarantined: BTreeSet<(Ipv4Addr, u16)>,
    /// The oracle's verdict for each flow.
    pub expected: Vec<bool>,
}

/// The campus's host addresses, as the two-tier topology assigns them.
pub fn host_addrs() -> Vec<Ipv4Addr> {
    (0..EDGES)
        .flat_map(|e| {
            (0..HOSTS_PER_EDGE).map(move |h| {
                Ipv4Addr::new(10, (e + 1) as u8, (h / 250) as u8, (h % 250 + 1) as u8)
            })
        })
        .collect()
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let hosts = host_addrs();
        let mut config = WorkloadConfig::enterprise(hosts.clone(), POOL, seed);
        config.locality = LOCALITY;
        let apps: Vec<(String, i64, String, bool)> = config
            .apps
            .iter()
            .map(|a| {
                (
                    a.name.replace("-old", ""),
                    a.version,
                    a.app_type.clone(),
                    a.intended_allowed,
                )
            })
            .collect();
        let app_index = |name: &str| {
            config
                .apps
                .iter()
                .position(|a| a.name == name)
                .expect("generated flows use the configured apps")
        };
        let generated = WorkloadGenerator::new(config.clone()).generate();
        let mut seen = std::collections::HashSet::new();
        let flows: Vec<CampusFlow> = generated
            .into_iter()
            .map(|f| {
                // Make every 5-tuple distinct, so each window's first packets
                // all miss the switches.
                let mut flow = f.five_tuple;
                while !seen.insert(flow) {
                    flow.src_port = 10_000 + (flow.src_port - 10_000 + 1) % 50_000;
                }
                CampusFlow {
                    flow,
                    app: app_index(&f.app.name),
                    user: f.user,
                }
            })
            .collect();

        let mut rng = Rng::new(seed, 3);
        let mut quarantined = BTreeSet::new();
        for &host in &hosts {
            if rng.below(QUARANTINE_EVERY) == 0 {
                quarantined.insert((host, SERVICES[rng.below(SERVICES.len())].0));
            }
        }
        let mut acl = String::from("# administrator ACL\n");
        let mut quarantine_rules: Vec<String> = quarantined
            .iter()
            .map(|(host, port)| format!("block quick from {host} to any port {port}\n"))
            .collect();
        let shapes: Vec<&str> = ACL_SHAPES
            .iter()
            .flat_map(|&(shape, n)| std::iter::repeat_n(shape, n))
            .collect();
        for _ in 0..ACL_RULES {
            if !quarantine_rules.is_empty() && rng.below(ACL_RULES / quarantined.len().max(1)) == 0
            {
                acl.push_str(&quarantine_rules.pop().expect("checked non-empty"));
            }
            let shape = shapes[rng.below(shapes.len())];
            acl.push_str(&acl_rule(shape, &mut rng));
            acl.push('\n');
        }
        for rule in quarantine_rules {
            acl.push_str(&rule);
        }

        let expected = flows
            .iter()
            .map(|f| apps[f.app].3 && !quarantined.contains(&(f.flow.src_ip, f.flow.dst_port)))
            .collect();
        Inputs {
            apps,
            flows,
            acl,
            quarantined,
            expected,
        }
    }

    /// The inputs as bytes, for the same-seed-same-inputs test.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }
}

/// The controller configuration.
pub fn config(inputs: &Inputs) -> ControllerConfig {
    ControllerConfig::new()
        .with_control_file("00-apps.control", APPS_POLICY)
        .with_control_file("10-acl.control", inputs.acl.clone())
}

/// Checks one first packet against the oracle and the data plane's own
/// account: the outcome must be about the flow handed in, the packet must
/// reach the controller, be delivered exactly when it passed, and a passed
/// flow's second packet must be forwarded by the installed entries without
/// another packet-in.
pub fn check_packets(
    handed: &FiveTuple,
    first: &identxx_core::FlowOutcome,
    second: Option<&identxx_core::FlowOutcome>,
    expected_pass: bool,
    tally: &mut Tally,
    outcome: &mut Outcome,
) {
    if first.flow != *handed {
        outcome.violation(format!(
            "the outcome of {} came back for {handed}",
            first.flow
        ));
        return;
    }
    tally.decided += 1;
    tally.queries += first.queries_issued as u64;
    let Some(decision) = first.decision else {
        outcome.violation(format!(
            "{}: first packet never reached the controller",
            first.flow
        ));
        return;
    };
    if decision.is_pass() {
        tally.passes += 1;
    } else {
        tally.blocks += 1;
    }
    if decision.is_pass() != expected_pass {
        outcome.violation(format!(
            "{}: decided {decision:?}, the oracle says {}",
            first.flow,
            if expected_pass { "pass" } else { "block" }
        ));
    }
    if first.delivered != decision.is_pass() {
        outcome.violation(format!(
            "{}: decided {decision:?} but delivered = {}",
            first.flow, first.delivered
        ));
    }
    if let Some(second) = second {
        if !second.delivered || second.decision.is_some() {
            outcome.violation(format!(
                "{}: second packet delivered = {}, packet-in = {}",
                first.flow,
                second.delivered,
                second.decision.is_some()
            ));
        }
    }
}

/// Layer timings a traced run takes inline, on the live hosts.
#[derive(Debug, Default)]
struct Probes {
    /// `Daemon::answer`, microseconds.
    answer_us: Vec<f64>,
    /// `owner_of_outbound` / `owner_of_inbound`, nanoseconds.
    owner_lookup_ns: Vec<f64>,
    /// `update_control_file` reloads, milliseconds.
    reload_ms: Vec<f64>,
    /// Flow-table entries installed by timed first packets.
    entries_installed: u64,
}

/// One run of the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let inputs = Inputs::generate(seed);
    let exes: Vec<Executable> = inputs
        .apps
        .iter()
        .map(|(name, version, app_type, _)| {
            Executable::new(
                format!("/usr/bin/{name}"),
                name,
                *version,
                "vendor",
                app_type,
            )
        })
        .collect();
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();

    let setup_started = Instant::now();
    let mut net = EnterpriseNetwork::two_tier(EDGES, HOSTS_PER_EDGE, config(&inputs))
        .expect("the policy compiles");
    for addr in net.host_addrs() {
        for &(port, name, kind) in SERVICES {
            let exe = Executable::new(format!("/usr/sbin/{name}"), name, 1, "vendor", kind);
            net.run_service(addr, "daemon", exe, port);
        }
    }
    let mut logs = Vec::new();
    if traced {
        let controller = net.controller_mut();
        let inner = std::mem::take(
            controller
                .backend_mut()
                .as_any_mut()
                .downcast_mut::<InProcessBackend>()
                .expect("the campus runs the in-process backend"),
        );
        let (decorated, log) = TracedBackend::wrap(Box::new(inner));
        controller.set_backend(Box::new(decorated));
        logs.push(log);
    }

    let mut probes = Probes::default();
    let mut now = 0u64;
    let mut window = 0usize;
    let mut handed = 0u64;
    // One replay window: the idle gap, an optional reload, then every flow's
    // spawn → first packet → second packet → kill. Latency samples go to
    // `rounds` when the window is timed. The loop stops between windows, so
    // every run replays whole windows.
    let mut run_window = |net: &mut EnterpriseNetwork,
                          mut rounds: Option<&mut Rounds>,
                          handed: &mut u64,
                          tally: &mut Tally,
                          outcome: &mut Outcome,
                          probes: &mut Probes| {
        now += IDLE_GAP_US;
        if window > 0 && window.is_multiple_of(RELOAD_WINDOWS) {
            let started = Instant::now();
            net.controller_mut()
                .update_control_file("10-acl.control", inputs.acl.clone())
                .expect("the ACL recompiles");
            if traced && rounds.is_some() {
                probes.reload_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
        let start = (window * WINDOW / 2) % POOL;
        window += 1;
        for i in 0..WINDOW {
            let index = (start + i) % POOL;
            let f = &inputs.flows[index];
            now += 1;
            let pid = {
                let mut daemon = net.daemon_mut(f.flow.src_ip).expect("campus host");
                let pid = daemon.host_mut().spawn(&f.user, exes[f.app].clone());
                daemon.host_mut().connect_flow(pid, f.flow);
                pid
            };
            if traced && i % 64 == 0 {
                let query = Query::for_all_well_known(f.flow);
                let mut src = net.daemon_mut(f.flow.src_ip).expect("campus host");
                let started = Instant::now();
                std::hint::black_box(src.answer(&query).ok());
                probes
                    .answer_us
                    .push(started.elapsed().as_nanos() as f64 / 1e3);
                let started = Instant::now();
                std::hint::black_box(src.host().owner_of_outbound(&f.flow));
                probes
                    .owner_lookup_ns
                    .push(started.elapsed().as_nanos() as f64);
                drop(src);
                let dst = net.daemon_mut(f.flow.dst_ip).expect("campus host");
                let started = Instant::now();
                std::hint::black_box(dst.host().owner_of_inbound(&f.flow));
                probes
                    .owner_lookup_ns
                    .push(started.elapsed().as_nanos() as f64);
            }
            *handed += 1;
            let started = Instant::now();
            let first = net.deliver_first_packet(&f.flow, now);
            let elapsed = started.elapsed();
            let second = if first.decision.is_some_and(|d| d.is_pass()) {
                Some(net.deliver_first_packet(&f.flow, now))
            } else {
                None
            };
            net.daemon_mut(f.flow.src_ip)
                .expect("campus host")
                .host_mut()
                .kill(pid);
            check_packets(
                &f.flow,
                &first,
                second.as_ref(),
                inputs.expected[index],
                tally,
                outcome,
            );
            if let Some(rounds) = rounds.as_deref_mut() {
                rounds.record(elapsed, 1);
                probes.entries_installed += first.entries_installed as u64;
            }
        }
    };

    for _ in 0..WARMUP_WINDOWS {
        run_window(
            &mut net,
            None,
            &mut handed,
            &mut tally,
            &mut outcome,
            &mut probes,
        );
    }
    let setup = setup_started.elapsed();

    trace::set_recording(&logs, true);
    let warm = tally;
    let timeouts_before = net.controller().backend_stats().timeouts;
    let mut rounds = Rounds::start(seconds, RSS_MARK);
    while rounds.more() {
        run_window(
            &mut net,
            Some(&mut rounds),
            &mut handed,
            &mut tally,
            &mut outcome,
            &mut probes,
        );
    }
    rounds.finish();
    trace::set_recording(&logs, false);

    outcome.attempted = tally.decided - warm.decided;
    outcome.failed = net.controller().backend_stats().timeouts - timeouts_before;
    check_all_decided(handed, &tally, &mut outcome);

    if traced {
        outcome.metrics = trace::per_layer(&traced_metrics(
            &inputs,
            &mut net,
            &trace::merged(&logs),
            &probes,
            rounds.flows,
        ));
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

/// The per-layer metrics of a traced run, from its end state, the
/// decorator's log, the inline probes, and replays of the captured flows.
fn traced_metrics(
    inputs: &Inputs,
    net: &mut EnterpriseNetwork,
    log: &trace::TraceLog,
    probes: &Probes,
    flows: u64,
) -> Vec<(&'static str, f64)> {
    let hosts = net.host_addrs();
    // Each spawned process holds one socket and the services listen on one
    // each; `Host` exposes no socket count, so live processes stand in.
    let sockets_per_host = hosts
        .iter()
        .map(|&a| {
            let daemon = net.daemon_mut(a).expect("campus host");
            daemon.host().processes().len()
        })
        .sum::<usize>() as f64
        / hosts.len() as f64;
    let net = &*net;
    let controller = net.controller();
    // Rules examined per evaluated decision, replayed on the captured
    // answers (`FlowOutcome` does not carry the verdict).
    let rules: u64 = log
        .captured
        .iter()
        .map(|c| {
            controller
                .evaluate_only(&c.flow, c.src.as_ref(), c.dst.as_ref())
                .rules_evaluated as u64
        })
        .sum();
    let compile_ms: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(
                identxx_controller::IdentxxController::new(config(inputs))
                    .expect("the policy compiles"),
            );
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    // The run's fullest switch, cloned, on the captured flows' headers.
    let mut switch = net
        .switches()
        .values()
        .max_by_key(|s| s.table().len())
        .expect("the campus has switches")
        .clone();
    let headers: Vec<PacketHeader> = log
        .captured
        .iter()
        .map(|c| PacketHeader::from_flow(&c.flow, 1))
        .collect();
    let process_ns = trace::per_item_ns(headers.len(), || {
        for header in &headers {
            std::hint::black_box(switch.process(std::hint::black_box(header), 1500, 0));
        }
    });
    let table_entries: usize = net.switches().values().map(|s| s.table().len()).sum();
    vec![
        ("controller.state_hit_ratio", net.cache_hit_ratio()),
        (
            "pf.evaluate_us",
            trace::evaluate_us(&log.captured, controller),
        ),
        (
            "pf.rules_evaluated",
            rules as f64 / log.captured.len().max(1) as f64,
        ),
        ("pf.compile_ms", median_f64(&compile_ms)),
        ("pf.reload_ms", median_f64(&probes.reload_ms)),
        ("daemon.answer_us", median_f64(&probes.answer_us)),
        (
            "hostmodel.owner_lookup_ns",
            median_f64(&probes.owner_lookup_ns),
        ),
        ("hostmodel.sockets_per_host", sockets_per_host),
        ("openflow.process_ns", process_ns),
        (
            "openflow.entries_per_flow",
            probes.entries_installed as f64 / flows.max(1) as f64,
        ),
        ("openflow.table_entries", table_entries as f64),
    ]
}
