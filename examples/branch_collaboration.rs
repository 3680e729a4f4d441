//! §4 "Network Collaboration" and "Incremental Benefit": two branches of the
//! same enterprise filter traffic the other branch would reject before it
//! crosses the bottleneck link, and a controller answers ident++ queries on
//! behalf of legacy hosts that run no daemon.
//!
//! Run with: `cargo run --example branch_collaboration`

use identxx::controller::intercept::{PrefixAugmenter, StaticInterceptor};
use identxx::controller::{ControllerConfig, IdentxxController, NetworkMap};
use identxx::prelude::*;

fn main() {
    // Branch A's controller only forwards traffic toward branch B (10.2/16)
    // that branch B has declared it will accept. Branch B's declaration
    // arrives as an augmented section on the destination-side response.
    let policy = "\
table <branch-b> { 10.2.0.0/16 }
block all
# local traffic is unrestricted in this example
pass from 10.1.0.0/16 to 10.1.0.0/16 keep state
# inter-branch traffic must be explicitly accepted by the remote branch
pass from 10.1.0.0/16 to <branch-b> with includes(@dst[branch-accepts], 443) keep state
";
    let (topology, _sw, _ctrl, _hosts) = Topology::star(6, LinkProps::default());
    // Re-address hosts: first three in branch A (10.1/16), last three in B (10.2/16).
    let mut config = ControllerConfig::new().with_control_file("00-branch-a.control", policy);
    config.default_decision = Decision::Block;
    let mut controller = IdentxxController::new(config)
        .unwrap()
        .with_network(NetworkMap::new(topology));

    let branch_a: Vec<Ipv4Addr> = (1..=3).map(|i| Ipv4Addr::new(10, 1, 0, i)).collect();
    let branch_b: Vec<Ipv4Addr> = (1..=3).map(|i| Ipv4Addr::new(10, 2, 0, i)).collect();
    for addr in branch_a.iter() {
        controller.register_daemon(Daemon::bare(Host::new(format!("a-{addr}"), *addr)));
    }
    // Branch B's hosts are behind the WAN: branch A cannot query them
    // directly. Its controller intercepts those queries (incremental benefit)…
    controller.add_interceptor(Box::new(StaticInterceptor::new(
        "branch-b-gateway",
        branch_b.clone(),
        vec![("hostname".to_string(), "branch-b-gateway".to_string())],
    )));
    // …and augments the responses with what branch B is willing to accept.
    controller.add_augmenter(Box::new(PrefixAugmenter::new(
        "branch-b-policy",
        Ipv4Addr::new(10, 2, 0, 0),
        16,
        vec![("branch-accepts".to_string(), "443 993".to_string())],
    )));

    // alice in branch A talks HTTPS to branch B: accepted remotely, forwarded.
    let https = controller
        .daemons()
        .get_mut(branch_a[0])
        .unwrap()
        .host_mut()
        .open_connection("alice", firefox_app(), 40000, branch_b[0], 443);
    let decision = controller.decide(&https, 0);
    println!(
        "https to branch B: {:?} (queries sent to real daemons: {})",
        decision.verdict.decision, decision.queries_issued
    );

    // The same host tries SMB toward branch B: branch B did not list 445, so
    // branch A drops it locally and saves the WAN link the useless traffic.
    let smb = controller
        .daemons()
        .get_mut(branch_a[0])
        .unwrap()
        .host_mut()
        .open_connection("alice", firefox_app(), 40001, branch_b[1], 445);
    let decision = controller.decide(&smb, 10);
    println!(
        "smb to branch B:   {:?} (filtered at the source branch)",
        decision.verdict.decision
    );

    // Local branch-A traffic is unaffected.
    let local = controller
        .daemons()
        .get_mut(branch_a[1])
        .unwrap()
        .host_mut()
        .open_connection("bob", firefox_app(), 40002, branch_a[2], 8080);
    println!(
        "local branch-A flow: {:?}",
        controller.decide(&local, 20).verdict.decision
    );

    println!(
        "\naudit: {} decisions, {} allowed, {} blocked",
        controller.audit().len(),
        controller.audit().passed().count(),
        controller.audit().blocked().count()
    );
}
