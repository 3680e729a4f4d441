//! Failure injection: silent daemons, hosts without ident++ support,
//! malformed delegated rules, tampered signatures, and hostile protocol input.
//! The controller must fail closed (under default-deny) and never panic.

use identxx::daemon::appconfig::signed_app_config;
use identxx::hostmodel::Executable;
use identxx::prelude::*;

const POLICY: &str = "block all\npass all with eq(@src[name], firefox) keep state\n";

#[test]
fn silent_source_daemon_fails_closed() {
    let mut net = EnterpriseNetwork::star(4, POLICY).unwrap();
    let hosts = net.host_addrs();
    let flow = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());
    net.daemon_mut(hosts[0]).unwrap().set_silent(true);
    let decision = net.decide(&flow);
    assert!(!decision.is_pass());
    assert!(decision.src_response.is_none());
    // Queries were still attempted (and counted).
    assert_eq!(decision.queries_issued, 2);
}

#[test]
fn host_without_daemon_can_still_be_covered_by_interception() {
    // §4 "Incremental Benefit": controllers can answer some queries on behalf
    // of end-hosts that do not implement ident++.
    let mut net = EnterpriseNetwork::star(4, POLICY).unwrap();
    let hosts = net.host_addrs();
    let flow = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());
    // Remove the destination daemon entirely: the decision still works
    // because the policy only needs source-side facts.
    net.controller_mut().daemons().unregister(hosts[1]);
    assert!(net.decide(&flow).is_pass());

    // A policy that needs destination facts fails closed without a daemon…
    net.controller_mut()
        .update_control_file(
            "00.control",
            "block all\npass all with eq(@dst[name], httpd)\n",
        )
        .unwrap();
    let flow2 = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());
    assert!(!net.decide(&flow2).is_pass());
    // …until an interceptor speaks for the legacy host.
    net.controller_mut().add_interceptor(Box::new(
        identxx::controller::intercept::StaticInterceptor::new(
            "legacy",
            vec![hosts[1]],
            vec![("name".to_string(), "httpd".to_string())],
        ),
    ));
    assert!(net.decide(&flow2).is_pass());
}

#[test]
fn churned_out_daemon_fails_closed_and_rejoins_cleanly() {
    // Population churn × fail-closed (DESIGN.md §10): a daemon that leaves
    // mid-stream makes its host's queries unanswerable, so under
    // `fail_closed_on_unanswered` new flows from that host are denied with a
    // fail-closed audit note — and the deny is never cached, so the host
    // passes again the moment it rejoins.
    let config = identxx::controller::ControllerConfig::new()
        .with_control_file("00.control", POLICY)
        .with_fail_closed_on_unanswered();
    let mut net = EnterpriseNetwork::star_with_config(4, config).unwrap();
    let hosts = net.host_addrs();
    let flow = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());

    // Departure: capture the daemon as it leaves (the directory hands it
    // back), and check the tier-facing hook agrees it is already gone.
    let departed = net
        .controller_mut()
        .daemons()
        .unregister(hosts[0])
        .expect("h0 started with a live daemon");
    assert!(
        !net.controller_mut().unregister_daemon(hosts[0]),
        "double departure must report the daemon as already gone"
    );

    let denied = net.decide(&flow);
    assert!(!denied.is_pass(), "departed source must fail closed");
    assert!(denied.src_response.is_none());
    assert!(
        net.controller()
            .audit()
            .policy_notes()
            .iter()
            .any(|note| note.category == "fail-closed"),
        "fail-closed denies must be audited as such"
    );
    assert_eq!(
        net.controller().state_table().len(),
        0,
        "a fail-closed deny must never be cached"
    );

    // Rejoin through the churn hook: the very next decision passes — no
    // negative cache entry survived the outage.
    net.controller_mut().register_daemon(departed);
    assert!(net.decide(&flow).is_pass(), "rejoined daemon must pass");

    // Second departure, this time through the hook. The pass above was
    // cached `keep state`, so the *same* five-tuple still passes from cache
    // (documented semantics: flow-table entries outlive the host), but a
    // fresh flow from the departed host fails closed again.
    let fresh = net.start_app(hosts[0], hosts[1], 8080, "alice", firefox_app());
    assert!(net.controller_mut().unregister_daemon(hosts[0]));
    assert!(net.decide(&flow).is_pass(), "cached verdict outlives churn");
    assert!(!net.decide(&fresh).is_pass(), "uncached flow fails closed");
}

#[test]
fn malformed_delegated_requirements_never_grant_access() {
    let policy = "block all\npass all with allowed(@src[requirements])\n";
    let mut net = EnterpriseNetwork::star(4, policy).unwrap();
    let hosts = net.host_addrs();
    let exe = Executable::new("/usr/bin/tool", "tool", 1, "v", "t");
    {
        let mut daemon = net.daemon_mut(hosts[0]).unwrap();
        daemon.add_app_config(
            identxx::daemon::AppConfig::new("/usr/bin/tool")
                .with_pair("name", "tool")
                .with_pair("requirements", "pass from syntax error %%%"),
        );
    }
    let flow = net.start_app(hosts[0], hosts[1], 80, "alice", exe);
    assert!(!net.decide(&flow).is_pass());
}

#[test]
fn recursive_requirements_terminate_and_fail_closed() {
    let policy = "block all\npass all with allowed(@src[requirements])\n";
    let mut net = EnterpriseNetwork::star(4, policy).unwrap();
    let hosts = net.host_addrs();
    let exe = Executable::new("/usr/bin/tool", "tool", 1, "v", "t");
    {
        let mut daemon = net.daemon_mut(hosts[0]).unwrap();
        daemon.add_app_config(
            identxx::daemon::AppConfig::new("/usr/bin/tool")
                .with_pair("name", "tool")
                .with_pair(
                    "requirements",
                    "block all\npass all with allowed(@src[requirements])",
                ),
        );
    }
    let flow = net.start_app(hosts[0], hosts[1], 80, "alice", exe);
    assert!(!net.decide(&flow).is_pass());
}

#[test]
fn tampered_executable_invalidates_delegation() {
    // The user signed requirements for the genuine binary; a trojaned binary
    // with the same name and version has a different exe-hash, so verify()
    // rejects the delegation.
    let research_key = identxx::crypto::KeyPair::from_seed(b"research");
    let genuine = Executable::new(
        "/usr/bin/research-app",
        "research-app",
        1,
        "lab",
        "research",
    );
    let requirements = "block all\npass all with eq(@src[name], research-app)";
    let signed = signed_app_config(&genuine, requirements, &research_key, None);

    let policy = format!(
        "dict <pubkeys> {{ research : {} }}\nblock all\npass all with allowed(@src[requirements]) with verify(@src[req-sig], @pubkeys[research], @src[exe-hash], @src[app-name], @src[requirements])\n",
        research_key.public().to_hex()
    );
    let mut net = EnterpriseNetwork::star(4, &policy).unwrap();
    let hosts = net.host_addrs();

    // Genuine binary: allowed.
    {
        let mut daemon = net.daemon_mut(hosts[0]).unwrap();
        daemon.add_app_config(signed.clone());
    }
    let ok_flow = net.start_app(hosts[0], hosts[1], 7000, "alice", genuine.clone());
    assert!(net.decide(&ok_flow).is_pass());

    // Trojaned binary at the same path: the OS reports a different hash
    // (simulated as a different version ⇒ different image), so the same
    // signed requirements no longer verify.
    let trojaned = Executable::new(
        "/usr/bin/research-app",
        "research-app",
        2,
        "lab",
        "research",
    );
    {
        let mut daemon = net.daemon_mut(hosts[2]).unwrap();
        daemon.add_app_config(signed);
    }
    let bad_flow = net.start_app(hosts[2], hosts[1], 7000, "alice", trojaned);
    assert!(!net.decide(&bad_flow).is_pass());
}

#[test]
fn hostile_wire_input_is_rejected_not_panicking() {
    use identxx::proto::{codec, FlowAddresses, WireMessage};
    let addrs = FlowAddresses::new(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
    // A grab-bag of hostile inputs: none may panic, all must error or ask for
    // more data.
    let inputs: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"\n\n\n".to_vec(),
        b"IDENT++/1 QUERY 1.1.1.1 2.2.2.2 99999999\n".to_vec(),
        b"IDENT++/1 RESPONSE 1.1.1.1 2.2.2.2 5\nab".to_vec(),
        vec![0xff; 2048],
        b"IDENT++/9 QUERY 1.1.1.1 2.2.2.2 0\n".to_vec(),
    ];
    for input in inputs {
        let _ = WireMessage::decode(&input);
    }
    assert!(codec::decode_response("tcp 1 2\n\u{0}garbage\n", addrs).is_err());
    assert!(codec::decode_query("notaproto x y\n", addrs).is_err());

    // A daemon answer with an enormous number of pairs is capped by the codec
    // size limit rather than exhausting controller memory.
    let mut big = String::from("tcp 1 2\n");
    for i in 0..10_000 {
        big.push_str(&format!("key-{i}: {}\n", "v".repeat(16)));
    }
    assert!(codec::decode_response(&big, addrs).is_err());
}

#[test]
fn policy_with_unknown_function_or_missing_table_fails_closed() {
    // An administrator typo in a pass rule must not open the network.
    let mut net = EnterpriseNetwork::star(
        4,
        "block all\npass all with definitely-not-a-function(@src[name])\npass from <no-such-table> to any\n",
    )
    .unwrap();
    let hosts = net.host_addrs();
    let flow = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());
    assert!(!net.decide(&flow).is_pass());
}
