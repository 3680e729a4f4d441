//! The traced run's instruments. Every number here is taken from outside the
//! program: a [`QueryBackend`] decorator around the real backend, replays of
//! the run's captured inputs into public functions, and public counters.
//!
//! Each workload measures the per-layer metrics `README.md` assigns to it
//! and hands them to [`per_layer`]; a metric that belongs to another
//! workload reads 0.

use std::any::Any;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use identxx_controller::{
    BackendStats, FlowRequest, FlowResponses, IdentxxController, QueryBackend, QueryTarget,
};
use identxx_crypto::verify_bundle_hex_at;
use identxx_net::QueryClient;
use identxx_proto::{well_known, FiveTuple, Ipv4Addr, Query, Response, WireMessage};

use crate::common::{median_f64, metric, percentile, Metric};

/// How many flows (with their answers) the decorator keeps for replays.
const CAPTURE_FLOWS: usize = 2_048;

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("backend.round_us_p50", "us"),
    ("backend.targets_per_round", "queries"),
    ("backend.hosts_per_round", "hosts"),
    ("net.batch_rtt_us", "us"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.bytes_per_flow", "bytes"),
    ("controller.self_us_per_flow", "us"),
    ("controller.state_hit_ratio", "ratio"),
    ("shard.max_share", "ratio"),
    ("crypto.fresh_verifies_per_flow", "verifies"),
    ("crypto.verify_hit_ratio", "ratio"),
    ("crypto.verify_us", "us"),
    ("pf.evaluate_us", "us"),
    ("pf.rules_evaluated", "rules"),
    ("pf.compile_ms", "ms"),
    ("pf.reload_ms", "ms"),
    ("daemon.answer_us", "us"),
    ("hostmodel.owner_lookup_ns", "ns"),
    ("hostmodel.sockets_per_host", "sockets"),
    ("openflow.process_ns", "ns"),
    ("openflow.entries_per_flow", "entries"),
    ("openflow.table_entries", "entries"),
];

/// Every per-layer metric, in order: the value a workload measured, or 0
/// for a metric that belongs to another workload.
pub fn per_layer(measured: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            PER_LAYER.iter().any(|(known, _)| known == name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metric(name, unit, value)
        })
        .collect()
}

/// One flow as the backend saw it: the flow, the ends it was asked to
/// resolve, the key hints, and the answers.
#[derive(Debug, Clone)]
pub struct Captured {
    /// The flow.
    pub flow: FiveTuple,
    /// The queries sent for it, one per requested end.
    pub queries: Vec<(Ipv4Addr, Query)>,
    /// Source-side answer.
    pub src: Option<Response>,
    /// Destination-side answer.
    pub dst: Option<Response>,
}

/// What the decorator recorded.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Duration of every backend call, nanoseconds.
    pub call_ns: Vec<u64>,
    /// Flow ends requested per call.
    pub targets: Vec<u32>,
    /// Distinct hosts per call (the frames a coalescing transport sends).
    pub hosts: Vec<u32>,
    /// Nanoseconds spent inside the backend since the log was created.
    pub inside_ns: u64,
    /// The first flows seen while capturing is on.
    pub captured: Vec<Captured>,
    /// Whether calls are being recorded (off during warm-up).
    pub recording: bool,
}

/// A shared handle on one decorator's log.
pub type SharedLog = Arc<Mutex<TraceLog>>;

/// Times and records every call into the real backend it wraps. Downcasts
/// reach the wrapped backend, so the program's own accessors (the daemon
/// directory behind an in-process backend) keep working.
pub struct TracedBackend {
    inner: Box<dyn QueryBackend>,
    log: SharedLog,
}

impl TracedBackend {
    /// Wraps `inner`, returning the decorator and its log.
    pub fn wrap(inner: Box<dyn QueryBackend>) -> (TracedBackend, SharedLog) {
        let log = SharedLog::default();
        (
            TracedBackend {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn observe(&self, requests: &[FlowRequest<'_>], answers: &[FlowResponses], elapsed: Duration) {
        let mut log = self.log.lock().expect("trace log poisoned");
        if !log.recording {
            return;
        }
        let ns = elapsed.as_nanos() as u64;
        log.inside_ns += ns;
        log.call_ns.push(ns);
        let mut hosts = BTreeSet::new();
        let mut targets = 0;
        for request in requests {
            for target in request.targets {
                targets += 1;
                hosts.insert(end_addr(&request.flow, *target));
            }
        }
        log.targets.push(targets);
        log.hosts.push(hosts.len() as u32);
        for (request, answer) in requests.iter().zip(answers) {
            if log.captured.len() >= CAPTURE_FLOWS {
                break;
            }
            let queries = request
                .targets
                .iter()
                .map(|target| {
                    let mut query = Query::new(request.flow);
                    for key in request.keys {
                        query = query.with_key(key);
                    }
                    (end_addr(&request.flow, *target), query)
                })
                .collect();
            log.captured.push(Captured {
                flow: request.flow,
                queries,
                src: answer.src.clone(),
                dst: answer.dst.clone(),
            });
        }
    }
}

/// The host that answers for one end of a flow.
pub fn end_addr(flow: &FiveTuple, target: QueryTarget) -> Ipv4Addr {
    match target {
        QueryTarget::Source => flow.src_ip,
        QueryTarget::Destination => flow.dst_ip,
    }
}

impl QueryBackend for TracedBackend {
    fn query_flow(
        &mut self,
        flow: &FiveTuple,
        targets: &[QueryTarget],
        keys: &[&str],
    ) -> FlowResponses {
        let started = Instant::now();
        let answer = self.inner.query_flow(flow, targets, keys);
        let elapsed = started.elapsed();
        let request = FlowRequest {
            flow: *flow,
            targets,
            keys,
        };
        self.observe(&[request], std::slice::from_ref(&answer), elapsed);
        answer
    }

    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
        let started = Instant::now();
        let answers = self.inner.query_flows(requests);
        let elapsed = started.elapsed();
        self.observe(requests, &answers, elapsed);
        answers
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Switches recording on or off on every log.
pub fn set_recording(logs: &[SharedLog], on: bool) {
    for log in logs {
        log.lock().expect("trace log poisoned").recording = on;
    }
}

/// Nanoseconds each log has spent inside its backend so far.
pub fn inside_ns(logs: &[SharedLog]) -> Vec<u64> {
    logs.iter()
        .map(|log| log.lock().expect("trace log poisoned").inside_ns)
        .collect()
}

/// Everything the decorators captured, merged over shards.
pub fn merged(logs: &[SharedLog]) -> TraceLog {
    let mut out = TraceLog::default();
    for log in logs {
        let log = log.lock().expect("trace log poisoned");
        out.call_ns.extend_from_slice(&log.call_ns);
        out.targets.extend_from_slice(&log.targets);
        out.hosts.extend_from_slice(&log.hosts);
        out.inside_ns += log.inside_ns;
        out.captured.extend(log.captured.iter().cloned());
    }
    out.captured.truncate(CAPTURE_FLOWS);
    out
}

/// `backend.*`: the decorator's timing of each call, and the flow ends and
/// distinct hosts each call asked for.
pub fn backend_metrics(log: &TraceLog) -> Vec<(&'static str, f64)> {
    let calls = log.call_ns.len().max(1) as f64;
    let mean = |v: &[u32]| v.iter().map(|&x| x as f64).sum::<f64>() / calls;
    vec![
        (
            "backend.round_us_p50",
            percentile(&log.call_ns, 50.0) as f64 / 1e3,
        ),
        ("backend.targets_per_round", mean(&log.targets)),
        ("backend.hosts_per_round", mean(&log.hosts)),
    ]
}

/// `proto.*`: the captured query and answer frames, encoded and decoded.
pub fn proto_metrics(captured: &[Captured]) -> Vec<(&'static str, f64)> {
    let mut frames: Vec<WireMessage> = Vec::new();
    for c in captured {
        for (_, query) in &c.queries {
            frames.push(WireMessage::Query(query.clone()));
        }
        for answer in [&c.src, &c.dst].into_iter().flatten() {
            frames.push(WireMessage::Response(answer.clone()));
        }
    }
    let encoded: Vec<Vec<u8>> = frames.iter().map(WireMessage::encode).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let encode_ns = per_item_ns(frames.len(), || {
        for frame in &frames {
            black_box(black_box(frame).encode());
        }
    });
    let decode_ns = per_item_ns(encoded.len(), || {
        for buf in &encoded {
            black_box(WireMessage::decode(black_box(buf)).expect("captured frame decodes"));
        }
    });
    vec![
        ("proto.encode_ns", encode_ns),
        ("proto.decode_ns", decode_ns),
        (
            "proto.bytes_per_flow",
            bytes as f64 / captured.len().max(1) as f64,
        ),
    ]
}

/// `net.batch_rtt_us`: the first captured round's queries for its busiest
/// host, sent as one `QueryClient::query_batch` to that host's own daemon
/// server (`server_of` gives its address); the median round trip, µs.
pub fn batch_rtt_us(
    captured: &[Captured],
    round: usize,
    server_of: impl Fn(Ipv4Addr) -> SocketAddr,
) -> f64 {
    let queries: Vec<&(Ipv4Addr, Query)> = captured
        .iter()
        .take(round)
        .flat_map(|c| &c.queries)
        .collect();
    let Some(host) = busiest(queries.iter().map(|(addr, _)| *addr)) else {
        return 0.0;
    };
    let batch: Vec<Query> = queries
        .iter()
        .filter(|(addr, _)| *addr == host)
        .map(|(_, query)| query.clone())
        .collect();
    let mut client = QueryClient::new(server_of(host));
    let mut rtt = Vec::new();
    for i in 0..2_000 {
        let started = Instant::now();
        let answers = client
            .query_batch(&batch, Duration::from_secs(2))
            .expect("replayed batch is answered");
        if i >= 100 {
            rtt.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        black_box(answers);
    }
    median_f64(&rtt)
}

/// The address seen most often (ties to the lowest).
fn busiest(addrs: impl Iterator<Item = Ipv4Addr>) -> Option<Ipv4Addr> {
    let mut counts: std::collections::BTreeMap<Ipv4Addr, usize> = Default::default();
    for addr in addrs {
        *counts.entry(addr).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(addr, _)| addr)
}

/// `pf.evaluate_us`: `evaluate_only_at` on the captured (flow, src, dst),
/// after one untimed pass that leaves the verify cache warm.
pub fn evaluate_us(captured: &[Captured], controller: &IdentxxController) -> f64 {
    per_item_ns(captured.len(), || {
        for c in captured {
            black_box(controller.evaluate_only_at(&c.flow, c.src.as_ref(), c.dst.as_ref(), 0));
        }
    }) / 1e3
}

/// `crypto.verify_us`: median microseconds of one uncached
/// `verify_bundle_hex_at` over the run's distinct captured bundles signed
/// by a key the controller trusts.
pub fn verify_us(captured: &[Captured], controller: &IdentxxController) -> f64 {
    let items_of = |r: &Response| -> [String; 3] {
        [
            r.latest(well_known::EXE_HASH).unwrap_or("").to_string(),
            r.latest(well_known::APP_NAME).unwrap_or("").to_string(),
            r.latest(well_known::REQUIREMENTS).unwrap_or("").to_string(),
        ]
    };
    let mut seen = BTreeSet::new();
    let mut bundles: Vec<(String, String, [String; 3])> = Vec::new();
    for c in captured {
        for r in [&c.src, &c.dst].into_iter().flatten() {
            let Some(sig) = r.latest(well_known::REQ_SIG) else {
                continue;
            };
            let Ok(bundle) = identxx_crypto::SignedBundle::from_hex(sig) else {
                continue;
            };
            let Some(key) = controller.config().trusted_keys.get(&bundle.key_id) else {
                continue;
            };
            if seen.insert(sig.to_string()) && bundles.len() < 64 {
                bundles.push((sig.to_string(), key.to_hex(), items_of(r)));
            }
        }
    }
    let mut samples = Vec::new();
    for _ in 0..3 {
        for (sig, key, items) in &bundles {
            let started = Instant::now();
            black_box(verify_bundle_hex_at(sig, key, items, 0).is_ok());
            samples.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    median_f64(&samples)
}

/// Nanoseconds per item of `pass`, which handles `items` items: the median
/// of seven timed passes after one untimed one.
pub fn per_item_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut samples = Vec::new();
    for _ in 0..7 {
        let started = Instant::now();
        pass();
        samples.push(started.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    median_f64(&samples)
}
