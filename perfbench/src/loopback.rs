//! `loopback_tcp`: batched rounds through `IdentxxController::decide_batch`
//! and `NetworkBackend` to zero-delay `DaemonServer`s on 127.0.0.1, served by
//! the program's own reactor in this process. The policy reads only
//! `@src[...]` and keeps no state, so every flow pays a query round: the
//! wire codec, the reactor and the daemons do the work, crypto none.

use std::time::Instant;

use identxx_controller::{ControllerConfig, IdentxxController, NetworkBackend};
use identxx_daemon::Daemon;
use identxx_hostmodel::Host;
use identxx_net::DaemonServer;
use identxx_proto::{FiveTuple, Ipv4Addr};

use crate::common::{end_to_end, Outcome, Rng, Rounds};
use crate::trace::{self, TracedBackend};
use crate::{check_all_decided, check_round, Tally};

/// Loopback daemons, one per simulated host.
pub const DAEMONS: usize = 32;
/// Flows per `decide_batch` round.
pub const ROUND: usize = 16;
/// Distinct flows generated per seed; the timed loop cycles over them.
pub const POOL: usize = 16_384;
/// Untimed rounds before the clock starts (opens every pooled connection).
pub const WARMUP_ROUNDS: usize = 256;
/// Timed flows after which peak memory is read.
pub const RSS_MARK: u64 = 200_000;

/// The application mix, Fig. 2's known apps plus old skype and unknowns:
/// the name and version a host's daemon reports, and whether the
/// allow-known-apps policy admits it (the oracle).
pub const APPS: &[(&str, i64, bool)] = &[
    ("firefox", 300, true),
    ("skype", 210, true),
    ("skype", 150, false),
    ("thunderbird", 78, true),
    ("ssh", 9, true),
    ("Server", 6, true),
    ("research-app", 1, true),
    ("malware", 1, false),
    ("unknownd", 3, false),
];

/// Fig. 2 / E7's allow-known-apps policy without `keep state`: it reads only
/// the source's answer, and every flow is evaluated afresh.
pub const POLICY: &str = "\
block all
pass all with eq(@src[name], firefox)
pass all with eq(@src[name], skype) with gte(@src[version], 200)
pass all with eq(@src[name], thunderbird)
pass all with eq(@src[name], ssh)
pass all with eq(@src[name], Server)
pass all with eq(@src[name], research-app)
";

/// Service ports flows are opened to.
const PORTS: &[u16] = &[80, 443, 25, 22, 445, 7000];

/// One seed's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Each host's address and the index (into [`APPS`]) of its application.
    pub hosts: Vec<(Ipv4Addr, usize)>,
    /// The flow pool, cycled by the timed loop.
    pub flows: Vec<FiveTuple>,
    /// The oracle's verdict for each flow (pass = true).
    pub expected: Vec<bool>,
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let hosts: Vec<(Ipv4Addr, usize)> = (0..DAEMONS)
            .map(|i| (Ipv4Addr::new(10, 1, 0, i as u8 + 1), rng.below(APPS.len())))
            .collect();
        let mut flows = Vec::with_capacity(POOL);
        let mut expected = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            let src = rng.below(DAEMONS);
            let dst = (src + 1 + rng.below(DAEMONS - 1)) % DAEMONS;
            let src_port = 10_000 + rng.below(50_000) as u16;
            let dst_port = PORTS[rng.below(PORTS.len())];
            flows.push(FiveTuple::tcp(
                hosts[src].0,
                src_port,
                hosts[dst].0,
                dst_port,
            ));
            expected.push(APPS[hosts[src].1].2);
        }
        Inputs {
            hosts,
            flows,
            expected,
        }
    }

    /// The inputs as bytes, for the same-seed-same-inputs test.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }
}

/// The daemon that answers for `addr`, running application `app`.
pub fn daemon(addr: Ipv4Addr, app: usize) -> Daemon {
    let mut daemon = Daemon::bare(Host::new(format!("h{addr}"), addr));
    daemon.set_forged_response(Some(vec![
        ("name".to_string(), APPS[app].0.to_string()),
        ("version".to_string(), APPS[app].1.to_string()),
        ("userID".to_string(), "alice".to_string()),
    ]));
    daemon
}

/// The controller configuration.
pub fn config() -> ControllerConfig {
    ControllerConfig::new().with_control_file("00-apps.control", POLICY)
}

/// Checks that the daemons served exactly the queries the controller sent.
pub fn check_query_totals(served: u64, sent: u64, outcome: &mut Outcome) {
    if served != sent {
        outcome.violation(format!(
            "daemons served {served} queries but the controller sent {sent}"
        ));
    }
}

/// One run of the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let inputs = Inputs::generate(seed);
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();

    let setup_started = Instant::now();
    let mut controller = IdentxxController::new(config()).expect("the policy compiles");
    let servers: Vec<DaemonServer> = inputs
        .hosts
        .iter()
        .map(|&(addr, app)| {
            tokio::runtime::block_on(DaemonServer::start(
                daemon(addr, app),
                "127.0.0.1:0".parse().expect("loopback address"),
            ))
            .expect("bind a loopback daemon")
        })
        .collect();
    let mut backend = NetworkBackend::new();
    for (&(addr, _), server) in inputs.hosts.iter().zip(&servers) {
        backend.register_endpoint(addr, server.local_addr());
    }
    let mut logs = Vec::new();
    if traced {
        let (decorated, log) = TracedBackend::wrap(Box::new(backend));
        controller.set_backend(Box::new(decorated));
        logs.push(log);
    } else {
        controller.set_backend(Box::new(backend));
    }
    let rounds_in_pool = POOL / ROUND;
    let mut next = 0;
    let mut handed = 0u64;
    let mut round = |controller: &mut IdentxxController,
                     handed: &mut u64,
                     tally: &mut Tally,
                     outcome: &mut Outcome| {
        let start = (next % rounds_in_pool) * ROUND;
        next += 1;
        let flows = &inputs.flows[start..start + ROUND];
        *handed += flows.len() as u64;
        let started = Instant::now();
        let decisions = controller.decide_batch(flows, 0);
        let elapsed = started.elapsed();
        check_round(flows, &decisions, &inputs.expected[start..], tally, outcome);
        (elapsed, decisions.len())
    };
    for _ in 0..WARMUP_ROUNDS {
        round(&mut controller, &mut handed, &mut tally, &mut outcome);
    }
    let setup = setup_started.elapsed();

    trace::set_recording(&logs, true);
    let warm = tally;
    let timeouts_before = controller.backend_stats().timeouts;
    let mut rounds = Rounds::start(seconds, RSS_MARK);
    while rounds.more() {
        let (elapsed, decided) = round(&mut controller, &mut handed, &mut tally, &mut outcome);
        rounds.record(elapsed, decided);
    }
    rounds.finish();
    trace::set_recording(&logs, false);

    outcome.attempted = tally.decided - warm.decided;
    outcome.failed = controller.backend_stats().timeouts - timeouts_before;
    check_all_decided(handed, &tally, &mut outcome);
    let served: u64 = servers.iter().map(DaemonServer::queries_served).sum();
    let sent = controller.audit().total_queries();
    check_query_totals(served, sent, &mut outcome);

    if traced {
        // Replays run after the cross-check: they add queries the
        // controller did not send.
        let log = trace::merged(&logs);
        let mut measured = trace::backend_metrics(&log);
        measured.extend(trace::proto_metrics(&log.captured));
        let rtt = trace::batch_rtt_us(&log.captured, ROUND, |addr| {
            let i = inputs
                .hosts
                .iter()
                .position(|&(a, _)| a == addr)
                .expect("captured flows name the run's hosts");
            servers[i].local_addr()
        });
        measured.push(("net.batch_rtt_us", rtt));
        outcome.metrics = trace::per_layer(&measured);
        eprintln!(
            "traced decisions_per_s {:.1} over {} flows",
            rounds.rate(),
            rounds.flows
        );
    } else {
        outcome.metrics = end_to_end(setup, &rounds, tally.queries - warm.queries);
    }
    for server in servers {
        server.shutdown();
    }
    outcome
}
