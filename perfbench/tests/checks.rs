//! The benchmark's own checks: inputs are a function of the seed, the
//! correctness checks catch a flipped verdict and a lost query, and a seed
//! not used while the benchmark was tuned gives the verdict mix `README.md`
//! states.

use identxx_controller::{IdentxxController, ShardedController, SharedDirectoryBackend};
use identxx_core::EnterpriseNetwork;
use identxx_hostmodel::Executable;
use identxx_perfbench::common::Outcome;
use identxx_perfbench::{
    campus, check_all_decided, check_decision, check_round, loopback, signed, Tally,
};
use identxx_pf::Decision;

/// A seed none of the tuning runs used.
const FRESH_SEED: u64 = 0x5EED_2026_1019;

/// The pass-share ranges `README.md` states for each workload's oracle.
const LOOPBACK_PASS: (f64, f64) = (0.35, 0.95);
const SIGNED_PASS: (f64, f64) = (0.18, 0.30);
const CAMPUS_PASS: (f64, f64) = (0.80, 0.93);

fn pass_share(expected: &[bool]) -> f64 {
    expected.iter().filter(|&&e| e).count() as f64 / expected.len() as f64
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    assert_eq!(
        loopback::Inputs::generate(7).to_bytes(),
        loopback::Inputs::generate(7).to_bytes()
    );
    assert_ne!(
        loopback::Inputs::generate(7).to_bytes(),
        loopback::Inputs::generate(8).to_bytes()
    );
    assert_eq!(
        signed::Inputs::generate(7).to_bytes(),
        signed::Inputs::generate(7).to_bytes()
    );
    assert_ne!(
        signed::Inputs::generate(7).to_bytes(),
        signed::Inputs::generate(8).to_bytes()
    );
    assert_eq!(
        campus::Inputs::generate(7).to_bytes(),
        campus::Inputs::generate(7).to_bytes()
    );
    assert_ne!(
        campus::Inputs::generate(7).to_bytes(),
        campus::Inputs::generate(8).to_bytes()
    );
}

/// Decides the first `n` loopback flows in-process, over the same daemons.
fn loopback_decisions(n: usize) -> (loopback::Inputs, Vec<identxx_controller::FlowDecision>) {
    let inputs = loopback::Inputs::generate(3);
    let mut controller = IdentxxController::new(loopback::config()).unwrap();
    for &(addr, app) in &inputs.hosts {
        controller.register_daemon(loopback::daemon(addr, app));
    }
    let decisions = controller.decide_batch(&inputs.flows[..n], 0);
    (inputs, decisions)
}

#[test]
fn a_flipped_decision_fails_the_check() {
    let (inputs, mut decisions) = loopback_decisions(64);
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    for (d, &e) in decisions.iter().zip(&inputs.expected) {
        check_decision(d, e, &mut tally, &mut outcome);
    }
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert_eq!(tally.decided, 64);
    assert_eq!(tally.queries, 128);

    flip(&mut decisions[17]);
    let mut outcome = Outcome::default();
    for (d, &e) in decisions.iter().zip(&inputs.expected) {
        check_decision(d, e, &mut Tally::default(), &mut outcome);
    }
    assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
}

fn flip(decision: &mut identxx_controller::FlowDecision) {
    let verdict = &mut decision.verdict.decision;
    *verdict = match *verdict {
        Decision::Pass => Decision::Block,
        Decision::Block => Decision::Pass,
    };
}

#[test]
fn only_a_queried_end_without_an_answer_skips_the_oracle() {
    let (inputs, mut decisions) = loopback_decisions(8);
    // Queried, no answer: the controller's fail-closed case.
    decisions[3].src_response = None;
    flip(&mut decisions[3]);
    // Not queried at all (an elided end), yet contradicting the oracle.
    decisions[5].dst_response = None;
    decisions[5].queries_issued = 1;
    flip(&mut decisions[5]);
    let mut outcome = Outcome::default();
    for (d, &e) in decisions.iter().zip(&inputs.expected) {
        check_decision(d, e, &mut Tally::default(), &mut outcome);
    }
    assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
    assert!(outcome.violations[0].starts_with(&decisions[5].flow.to_string()));
}

#[test]
fn a_lost_or_misplaced_decision_fails_the_round_check() {
    let (inputs, decisions) = loopback_decisions(16);
    let handed = &inputs.flows[..16];
    let check = |decisions: &[identxx_controller::FlowDecision]| {
        let mut outcome = Outcome::default();
        let mut tally = Tally::default();
        check_round(
            handed,
            decisions,
            &inputs.expected,
            &mut tally,
            &mut outcome,
        );
        check_all_decided(handed.len() as u64, &tally, &mut outcome);
        outcome.violations
    };
    assert!(check(&decisions).is_empty());
    // One decision fewer than flows handed: the round and the totals both
    // see it.
    assert_eq!(check(&decisions[..15]).len(), 2);
    let mut swapped = decisions.clone();
    swapped.swap(2, 9);
    assert!(!check(&swapped).is_empty());
}

#[test]
fn a_lost_query_fails_the_cross_check() {
    let mut outcome = Outcome::default();
    loopback::check_query_totals(4_096, 4_096, &mut outcome);
    assert!(outcome.violations.is_empty());
    loopback::check_query_totals(4_095, 4_096, &mut outcome);
    assert_eq!(outcome.violations.len(), 1);
}

/// A 2-shard tier over the signed population of `inputs`, as the workload
/// builds it.
fn signed_tier(inputs: &signed::Inputs) -> ShardedController {
    let (directory, first) = SharedDirectoryBackend::fresh();
    for member in &inputs.members {
        directory.lock().unwrap().register(signed::daemon(member));
    }
    let mut first = Some(first);
    ShardedController::new(signed::config(inputs), signed::SHARDS)
        .unwrap()
        .with_backends(|_| match first.take() {
            Some(backend) => Box::new(backend),
            None => Box::new(SharedDirectoryBackend::new(std::sync::Arc::clone(
                &directory,
            ))),
        })
}

#[test]
fn a_passed_imposter_or_a_lost_verdict_fails_the_totals() {
    let inputs = signed::Inputs::generate(3);
    let imposters: std::collections::BTreeSet<_> = inputs
        .members
        .iter()
        .filter(|m| m.imposter)
        .map(|m| m.addr)
        .collect();
    let flows: Vec<_> = inputs.flows[..64].iter().map(|&(_, _, f)| f).collect();
    let mut decisions = signed_tier(&inputs).decide_batch(&flows, 0);
    let totals = |decisions: &[identxx_controller::FlowDecision]| {
        let mut outcome = Outcome::default();
        let mut tally = Tally::default();
        check_round(
            &flows,
            decisions,
            &inputs.expected,
            &mut tally,
            &mut outcome,
        );
        let passed = signed::imposter_passes(decisions, &imposters);
        signed::check_totals(flows.len() as u64, passed, &tally, &mut outcome);
        outcome.violations
    };
    assert!(totals(&decisions).is_empty(), "{:?}", totals(&decisions));
    assert!(totals(&decisions[..63])
        .iter()
        .any(|v| v.contains("passes +")));

    let imposter = decisions
        .iter()
        .position(|d| imposters.contains(&d.flow.src_ip))
        .expect("the first 64 flows include an imposter's");
    flip(&mut decisions[imposter]);
    assert!(totals(&decisions)
        .iter()
        .any(|v| v.contains("imposter flows passed")));
}

#[test]
fn a_flipped_first_packet_fails_the_campus_check() {
    let inputs = campus::Inputs::generate(3);
    let mut net = EnterpriseNetwork::two_tier(
        campus::EDGES,
        campus::HOSTS_PER_EDGE,
        campus::config(&inputs),
    )
    .unwrap();
    let f = inputs
        .expected
        .iter()
        .position(|&e| e)
        .expect("the pool holds an admitted flow");
    let flow = &inputs.flows[f];
    let (name, version, kind, _) = &inputs.apps[flow.app];
    {
        let mut daemon = net.daemon_mut(flow.flow.src_ip).unwrap();
        let exe = Executable::new(format!("/usr/bin/{name}"), name, *version, "vendor", kind);
        let pid = daemon.host_mut().spawn(&flow.user, exe);
        daemon.host_mut().connect_flow(pid, flow.flow);
    }
    let first = net.deliver_first_packet(&flow.flow, 0);
    let second = net.deliver_first_packet(&flow.flow, 0);
    let mut outcome = Outcome::default();
    campus::check_packets(
        &flow.flow,
        &first,
        Some(&second),
        inputs.expected[f],
        &mut Tally::default(),
        &mut outcome,
    );
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);

    campus::check_packets(
        &flow.flow,
        &first,
        Some(&second),
        !inputs.expected[f],
        &mut Tally::default(),
        &mut outcome,
    );
    assert_eq!(outcome.violations.len(), 1);
    // A second packet that went back to the controller is a violation too.
    campus::check_packets(
        &flow.flow,
        &first,
        Some(&first),
        inputs.expected[f],
        &mut Tally::default(),
        &mut outcome,
    );
    assert_eq!(outcome.violations.len(), 2);
    // An outcome about another flow than the one handed in.
    campus::check_packets(
        &inputs.flows[f + 1].flow,
        &first,
        Some(&second),
        inputs.expected[f],
        &mut Tally::default(),
        &mut outcome,
    );
    assert_eq!(outcome.violations.len(), 3);
}

#[test]
fn a_fresh_seed_gives_the_stated_verdict_mix() {
    let within = |share: f64, (lo, hi): (f64, f64)| share >= lo && share <= hi;

    let (inputs, decisions) = {
        let inputs = loopback::Inputs::generate(FRESH_SEED);
        let mut controller = IdentxxController::new(loopback::config()).unwrap();
        for &(addr, app) in &inputs.hosts {
            controller.register_daemon(loopback::daemon(addr, app));
        }
        let decisions = controller.decide_batch(&inputs.flows[..512], 0);
        (inputs, decisions)
    };
    let share = pass_share(&inputs.expected);
    assert!(within(share, LOOPBACK_PASS), "loopback pass share {share}");
    for (d, &e) in decisions.iter().zip(&inputs.expected) {
        assert_eq!(d.is_pass(), e, "{}", d.flow);
    }

    let inputs = signed::Inputs::generate(FRESH_SEED);
    let share = pass_share(&inputs.expected);
    assert!(within(share, SIGNED_PASS), "signed pass share {share}");
    let mut tier = signed_tier(&inputs);
    let flows: Vec<_> = inputs.flows[..256].iter().map(|&(_, _, f)| f).collect();
    for (d, &e) in tier.decide_batch(&flows, 0).iter().zip(&inputs.expected) {
        assert_eq!(d.is_pass(), e, "{}", d.flow);
    }

    let inputs = campus::Inputs::generate(FRESH_SEED);
    let share = pass_share(&inputs.expected);
    assert!(within(share, CAMPUS_PASS), "campus pass share {share}");
}
