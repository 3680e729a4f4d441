//! Flow-setup benchmark for the ident++ workspace.
//!
//! Three closed-loop workloads drive the program through its public APIs
//! from one process, over inputs generated from a seed, and check every
//! decision against an oracle built from the benchmark's own generator:
//!
//! * [`loopback`] — `loopback_tcp`: batched rounds over real loopback TCP.
//! * [`signed`] — `signed_delegation`: a 2-shard tier over signed bundles.
//! * [`campus`] — `campus_dataplane`: first packets through OpenFlow
//!   switches into a host-model campus.
//!
//! An untraced run prints the end-to-end metrics; a traced run (see
//! [`trace`]) prints the per-layer ones. `README.md` beside this crate has
//! the metric definitions and reference figures.

pub mod campus;
pub mod common;
pub mod loopback;
pub mod signed;
pub mod trace;

use identxx_controller::FlowDecision;
use identxx_proto::FiveTuple;

use crate::common::Outcome;

/// The workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["loopback_tcp", "signed_delegation", "campus_dataplane"];

/// Running totals over checked decisions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Decisions checked.
    pub decided: u64,
    /// Decisions that passed.
    pub passes: u64,
    /// Decisions that blocked.
    pub blocks: u64,
    /// Daemon queries the decisions report.
    pub queries: u64,
}

/// Checks one decision against the oracle's verdict and counts it.
///
/// The oracle assumes every daemon answers. A decision on which an end was
/// queried and gave no answer is the controller's fail-closed block, so the
/// oracle is not consulted for it; the run counts it as failed through the
/// backend's own timeout counter. An end the controller chose not to query
/// is not a failure.
pub fn check_decision(
    decision: &FlowDecision,
    expected_pass: bool,
    tally: &mut Tally,
    outcome: &mut Outcome,
) {
    tally.decided += 1;
    tally.queries += decision.queries_issued as u64;
    if decision.is_pass() {
        tally.passes += 1;
    } else {
        tally.blocks += 1;
    }
    let answered = decision.src_response.is_some() as u32 + decision.dst_response.is_some() as u32;
    let unanswered = !decision.from_cache && decision.queries_issued > answered;
    if !unanswered && decision.is_pass() != expected_pass {
        outcome.violation(format!(
            "{}: decided {:?}, the oracle says {}",
            decision.flow,
            decision.verdict.decision,
            if expected_pass { "pass" } else { "block" }
        ));
    }
}

/// Checks one batched round: the program must return one decision per flow
/// handed to it, in the order handed, and each must agree with the oracle
/// (`expected[i]` is the verdict for `handed[i]`).
pub fn check_round(
    handed: &[FiveTuple],
    decisions: &[FlowDecision],
    expected: &[bool],
    tally: &mut Tally,
    outcome: &mut Outcome,
) {
    if decisions.len() != handed.len() {
        outcome.violation(format!(
            "{} flows handed to the program, {} decisions returned",
            handed.len(),
            decisions.len()
        ));
    }
    for ((flow, decision), &expected_pass) in handed.iter().zip(decisions).zip(expected) {
        if decision.flow != *flow {
            outcome.violation(format!(
                "a decision about {} came back in the place of {flow}",
                decision.flow
            ));
            continue;
        }
        check_decision(decision, expected_pass, tally, outcome);
    }
}

/// Checks that passes plus blocks, counted from the decisions that came
/// back, equal the flows the loop handed to the program.
pub fn check_all_decided(handed: u64, tally: &Tally, outcome: &mut Outcome) {
    if tally.passes + tally.blocks != handed {
        outcome.violation(format!(
            "{} passes + {} blocks != {handed} flows handed to the program",
            tally.passes, tally.blocks
        ));
    }
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Option<Outcome> {
    match workload {
        "loopback_tcp" => Some(loopback::run(seed, seconds, traced)),
        "signed_delegation" => Some(signed::run(seed, seconds, traced)),
        "campus_dataplane" => Some(campus::run(seed, seconds, traced)),
        _ => None,
    }
}
