//! The controller's pluggable query plane.
//!
//! The paper's central mechanism is the controller querying *both* end-hosts
//! for flow context at setup time (§3.2). How those queries travel is a
//! deployment decision, not a policy one: the simulator answers them
//! in-process, a deployment opens TCP connections to port 783 on each end,
//! and tests inject failures. [`QueryBackend`] is the seam between the two
//! concerns — [`IdentxxController`](crate::IdentxxController) asks one
//! question ("resolve this flow's ends") and the backend decides transport,
//! concurrency, and timeout handling, reporting uniform [`BackendStats`].
//!
//! Four implementations ship:
//!
//! * [`InProcessBackend`] — wraps an owned [`DaemonDirectory`] of simulated
//!   daemons; the simulator path, behaviour-identical to the controller's
//!   historical hard-wired directory.
//! * [`SharedDirectoryBackend`] — the same in-process semantics over an
//!   `Arc<Mutex<DaemonDirectory>>`, so N controller shards can query (and
//!   observe mutations of) **one** daemon population — what lets the
//!   simulator facade drive a [`crate::ShardedController`] without N
//!   diverging daemon copies (DESIGN.md §7).
//! * [`NetworkBackend`] — real TCP via `identxx-net`, querying every
//!   involved host **concurrently** with one shared deadline and a pooled
//!   connection per host.
//! * [`RecordingBackend`] — a scriptable test double that records every
//!   query for failure-injection and audit tests.
//!
//! ## Contract
//!
//! [`QueryBackend::query_flows`] is the one required query method: one call
//! resolves a round of flows (one [`FlowRequest`] each), returning one
//! [`FlowResponses`] per request in request order.
//! [`QueryBackend::query_round`] is the same round as a future, the form the
//! controller awaits; only a transport that waits on I/O needs to implement
//! it. For each requested target the backend must either produce a response
//! or silently yield `None` — transport failures (timeout, refused
//! connection, silent daemon, no daemon at all) are *not* errors, because the
//! paper's controller must "cope with missing information" and let the
//! policy decide. Every
//! requested target counts as one query sent; each `None` counts as
//! unanswered. Backends never interpret responses: interception,
//! augmentation, and policy evaluation stay controller-side.
//!
//! Per-request semantics do not depend on the round size — a round answers
//! exactly as its requests would one at a time, which is what the provided
//! [`QueryBackend::query_flow`] (the one-request round) relies on. A
//! transport may still reorganize the round: [`NetworkBackend`] coalesces
//! every query bound for the same host into one `QUERY-BATCH` frame on that
//! host's pooled connection, so a round of B flows costs one round trip per
//! involved host instead of up to 2·B connections. See DESIGN.md §6.

use std::any::Any;
use std::collections::BTreeMap;
use std::future::Future;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use identxx_daemon::FaultInjector;
use identxx_net::QueryClient;
use identxx_proto::{FiveTuple, Ipv4Addr, Query, Response};

use crate::intercept::QueryTarget;
use crate::querier::DaemonDirectory;

/// Per-backend transport counters, uniform across implementations so
/// experiments can compare transports like for like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Queries sent (one per requested target of every request).
    pub queries_sent: u64,
    /// Queries that produced a response.
    pub responses_received: u64,
    /// Queries that produced no response: a network timeout, a refused or
    /// closed connection, a silent daemon, or no daemon at all. The
    /// controller cannot distinguish these cases (§4 "Incremental Benefit"),
    /// so the stats do not either.
    pub timeouts: u64,
}

/// The responses gathered for one flow, at most one per end.
#[derive(Debug, Clone, Default)]
pub struct FlowResponses {
    /// Response from the flow's source host, if that end was requested and
    /// answered.
    pub src: Option<Response>,
    /// Response from the flow's destination host, if that end was requested
    /// and answered.
    pub dst: Option<Response>,
    /// How many queries the backend sent for this request (one per
    /// requested target, whether or not it was answered).
    pub queries_issued: u32,
}

impl FlowResponses {
    /// The response slot for a target.
    pub fn get(&self, target: QueryTarget) -> Option<&Response> {
        match target {
            QueryTarget::Source => self.src.as_ref(),
            QueryTarget::Destination => self.dst.as_ref(),
        }
    }

    fn set(&mut self, target: QueryTarget, response: Option<Response>) {
        match target {
            QueryTarget::Source => self.src = response,
            QueryTarget::Destination => self.dst = response,
        }
    }
}

/// One flow's slice of a batched query round: which flow, which of its ends,
/// and the advisory key hints to send.
#[derive(Debug, Clone, Copy)]
pub struct FlowRequest<'a> {
    /// The flow to resolve.
    pub flow: FiveTuple,
    /// The ends of the flow to query.
    pub targets: &'a [QueryTarget],
    /// The advisory key hints (§3.2).
    pub keys: &'a [&'a str],
}

/// One backend query round in flight: resolves to one [`FlowResponses`] per
/// request, in request order (see [`QueryBackend::query_round`]).
pub type RoundFuture<'a> = Pin<Box<dyn Future<Output = Vec<FlowResponses>> + 'a>>;

/// A transport that resolves ident++ queries for both ends of a flow.
pub trait QueryBackend: Send {
    /// Resolves a whole round of flows, returning one [`FlowResponses`] per
    /// request, in request order. Each request's `targets` are resolved with
    /// its `keys` as the advisory hint list (§3.2); ends not in `targets`
    /// are left `None` and do not count as queries. The backend decides
    /// how: serially in-process, coalesced per host over TCP, or from a
    /// script — but per-request semantics (counting, missing-information
    /// handling) must not change with the round size.
    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses>;

    /// The same round as a future, so a caller can keep several backends'
    /// rounds in flight on one thread ([`crate::ShardedController`] joins
    /// one per busy shard). The default answers with
    /// [`QueryBackend::query_flows`] at once and returns a ready future,
    /// which is right for in-process backends; a transport that waits on
    /// I/O ([`NetworkBackend`]) overrides it so the wait suspends instead
    /// of blocking the thread.
    fn query_round<'a>(&'a mut self, requests: &'a [FlowRequest<'a>]) -> RoundFuture<'a> {
        Box::pin(std::future::ready(self.query_flows(requests)))
    }

    /// Resolves the requested `targets` of one flow: the one-request round.
    fn query_flow(
        &mut self,
        flow: &FiveTuple,
        targets: &[QueryTarget],
        keys: &[&str],
    ) -> FlowResponses {
        self.query_flows(&[FlowRequest {
            flow: *flow,
            targets,
            keys,
        }])
        .pop()
        .unwrap_or_default()
    }

    /// Transport counters accumulated since construction.
    fn stats(&self) -> BackendStats;

    /// Backend name for reports and debugging.
    fn name(&self) -> &str;

    /// Downcast support (e.g. the simulator reaching the in-process daemon
    /// directory behind the trait).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

// ---------------------------------------------------------------------------
// In-process backend
// ---------------------------------------------------------------------------

/// The simulator's query plane: daemons live in the same process, reached
/// through a [`DaemonDirectory`]. Queries are answered synchronously; a
/// missing, silent, or refusing daemon is an unanswered query, exactly what
/// the same host would look like over the network.
#[derive(Debug, Default)]
pub struct InProcessBackend {
    directory: DaemonDirectory,
    stats: BackendStats,
    fault_injector: Option<Arc<FaultInjector>>,
}

impl InProcessBackend {
    /// Creates a backend with an empty daemon directory.
    pub fn new() -> InProcessBackend {
        InProcessBackend::default()
    }

    /// Creates a backend over an existing directory.
    pub fn with_directory(directory: DaemonDirectory) -> InProcessBackend {
        InProcessBackend {
            directory,
            stats: BackendStats::default(),
            fault_injector: None,
        }
    }

    /// Attaches a failure-drill fault injector: hosts inside an active
    /// partition window are unreachable from this backend (the in-process
    /// equivalent of the network partition seen from the query plane).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> InProcessBackend {
        self.fault_injector = Some(injector);
        self
    }

    /// The daemon directory.
    pub fn directory(&self) -> &DaemonDirectory {
        &self.directory
    }

    /// Mutable access to the daemon directory (scenarios use this to start
    /// applications, install configs, or compromise hosts mid-experiment).
    pub fn directory_mut(&mut self) -> &mut DaemonDirectory {
        &mut self.directory
    }
}

impl QueryBackend for InProcessBackend {
    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
        let directory = &mut self.directory;
        answer_round(
            requests,
            &mut self.stats,
            self.fault_injector.as_deref(),
            |addr, flow, keys| directory.query(addr, flow, keys),
        )
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &str {
        "in-process"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Shared-directory backend
// ---------------------------------------------------------------------------

/// An in-process query plane over a **shared** daemon directory.
///
/// [`InProcessBackend`] owns its directory, which is exactly right for one
/// controller but leaves a sharded tier stuck: N shards would need N copies
/// of every daemon, and a scenario mutating a host (starting an application,
/// compromising it) would have to repeat the mutation N times — the ROADMAP
/// deficiency this type removes. All shards (and the simulator facade)
/// instead hold clones of one `Arc<Mutex<DaemonDirectory>>`: a mutation is
/// visible to every shard at its next query, and per-backend
/// [`BackendStats`] stay shard-local so the tier's merged view still sums
/// real work.
///
/// The lock is held per queried target, not per round — matching the
/// granularity of a real daemon answering one query at a time. The tier
/// runs its shards' rounds on one thread, so the lock is never contended
/// there; shard threads sharing it would contend on every target.
#[derive(Debug)]
pub struct SharedDirectoryBackend {
    directory: Arc<Mutex<DaemonDirectory>>,
    stats: BackendStats,
    fault_injector: Option<Arc<FaultInjector>>,
}

impl SharedDirectoryBackend {
    /// Creates a backend over an existing shared directory.
    pub fn new(directory: Arc<Mutex<DaemonDirectory>>) -> SharedDirectoryBackend {
        SharedDirectoryBackend {
            directory,
            stats: BackendStats::default(),
            fault_injector: None,
        }
    }

    /// Attaches a failure-drill fault injector: hosts inside an active
    /// partition window are unreachable from *this* backend (per-shard
    /// injectors model a partition that cuts one shard off).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> SharedDirectoryBackend {
        self.fault_injector = Some(injector);
        self
    }

    /// A fresh shared directory plus the first backend over it; equip other
    /// shards via [`SharedDirectoryBackend::new`] on the returned handle.
    pub fn fresh() -> (Arc<Mutex<DaemonDirectory>>, SharedDirectoryBackend) {
        let directory = Arc::new(Mutex::new(DaemonDirectory::new()));
        let backend = SharedDirectoryBackend::new(Arc::clone(&directory));
        (directory, backend)
    }

    /// The shared directory handle.
    pub fn directory(&self) -> Arc<Mutex<DaemonDirectory>> {
        Arc::clone(&self.directory)
    }
}

impl QueryBackend for SharedDirectoryBackend {
    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
        let directory = &self.directory;
        answer_round(
            requests,
            &mut self.stats,
            self.fault_injector.as_deref(),
            // Locked per target, not per round (see the type docs).
            |addr, flow, keys| {
                directory
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .query(addr, flow, keys)
            },
        )
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &str {
        "shared-directory"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Network backend
// ---------------------------------------------------------------------------

/// Default per-decision query budget, shared by both ends: matching the
/// transport-level [`identxx_net::client::QUERY_TIMEOUT`], because flow
/// setup blocks on the slower of the two round trips.
pub const DEFAULT_QUERY_BUDGET: Duration = Duration::from_secs(2);

/// Per-host circuit breaker configuration for [`NetworkBackend`].
///
/// A host that misses `failure_threshold` consecutive query rounds (every
/// answer `None`: dead endpoint, deadline misses, silence) trips its breaker
/// **open**: the backend stops querying it, so a browned-out or dead host
/// costs nothing instead of a full deadline every round. After
/// `cooldown_rounds` skipped rounds the breaker goes **half-open**: the next
/// round probes the host normally — one answered query closes the breaker,
/// another all-miss round reopens it. States and transitions are documented
/// in DESIGN.md §9.
///
/// The breaker is opt-in ([`NetworkBackend::with_breaker`]): with it off the
/// backend keeps the historical always-query behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive all-miss rounds before the breaker opens.
    pub failure_threshold: u32,
    /// Rounds the host is skipped before a half-open probe.
    pub cooldown_rounds: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_rounds: 8,
        }
    }
}

/// One host's breaker state (see [`BreakerConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Queries flow normally; counts consecutive all-miss rounds.
    Closed { consecutive_misses: u32 },
    /// The host is skipped for `remaining` more rounds.
    Open { remaining: u32 },
    /// The next round is a probe: answered → closed, all-miss → reopen.
    HalfOpen,
}

/// The deployment-shaped query plane: each end-host's daemon is a TCP
/// endpoint (port 783 in a real deployment), queried through `identxx-net`.
///
/// The two ends of a flow are queried **concurrently**, each on its own
/// pooled connection, against one *shared* absolute deadline — so the wall
/// time a flow setup spends on queries is the maximum of the two round
/// trips, not their sum, mirroring Fig. 1's parallel step 3.
///
/// Concurrency is future-shaped, not thread-shaped: a round's per-host
/// shares are joined on the calling thread over the runtime's reactor, so a
/// round across a hundred hosts costs a hundred suspended exchanges and
/// zero spawned threads (EXPERIMENTS.md E10 checks the thread bound).
pub struct NetworkBackend {
    endpoints: BTreeMap<Ipv4Addr, SocketAddr>,
    clients: BTreeMap<Ipv4Addr, QueryClient>,
    budget: Duration,
    stats: BackendStats,
    /// Per-host circuit breaking; `None` = historical always-query mode.
    breaker: Option<BreakerConfig>,
    breakers: BTreeMap<Ipv4Addr, BreakerState>,
    /// Failure-drill partitions (hosts unreachable from this backend).
    fault_injector: Option<Arc<FaultInjector>>,
}

impl NetworkBackend {
    /// Creates a backend with no known endpoints and the default budget.
    pub fn new() -> NetworkBackend {
        NetworkBackend {
            endpoints: BTreeMap::new(),
            clients: BTreeMap::new(),
            budget: DEFAULT_QUERY_BUDGET,
            stats: BackendStats::default(),
            breaker: None,
            breakers: BTreeMap::new(),
            fault_injector: None,
        }
    }

    /// Sets the shared per-decision query budget (builder style).
    pub fn with_budget(mut self, budget: Duration) -> NetworkBackend {
        self.budget = budget;
        self
    }

    /// Enables the per-host circuit breaker (builder style). See
    /// [`BreakerConfig`].
    pub fn with_breaker(mut self, config: BreakerConfig) -> NetworkBackend {
        self.breaker = Some(config);
        self
    }

    /// Attaches a failure-drill fault injector: hosts inside an active
    /// partition window are unreachable from this backend. Per-shard
    /// injectors model a partition (or a shard-wide outage) that cuts one
    /// shard's query plane off while others keep answering.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> NetworkBackend {
        self.fault_injector = Some(injector);
        self
    }

    /// Whether `host`'s breaker is currently open (the host is being
    /// skipped). Always `false` with the breaker disabled.
    pub fn breaker_is_open(&self, host: Ipv4Addr) -> bool {
        matches!(self.breakers.get(&host), Some(BreakerState::Open { .. }))
    }

    /// The breaker state for `host`, for drills and reports:
    /// `"closed"`, `"open"`, or `"half-open"`.
    pub fn breaker_state_name(&self, host: Ipv4Addr) -> &'static str {
        match self.breakers.get(&host) {
            None | Some(BreakerState::Closed { .. }) => "closed",
            Some(BreakerState::Open { .. }) => "open",
            Some(BreakerState::HalfOpen) => "half-open",
        }
    }

    /// Whether the breaker admits queries to `host` this round. Advances an
    /// open breaker's cooldown; after the last cooldown round it parks in
    /// half-open so the *next* round probes.
    fn breaker_admits(&mut self, host: Ipv4Addr) -> bool {
        if self.breaker.is_none() {
            return true;
        }
        let state = self.breakers.entry(host).or_insert(BreakerState::Closed {
            consecutive_misses: 0,
        });
        match state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { remaining } => {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    *state = BreakerState::HalfOpen;
                }
                false
            }
        }
    }

    /// Records the outcome of a round in which `host` was actually queried.
    fn breaker_record(&mut self, host: Ipv4Addr, any_response: bool) {
        let Some(config) = self.breaker else {
            return;
        };
        let state = self.breakers.entry(host).or_insert(BreakerState::Closed {
            consecutive_misses: 0,
        });
        *state = if any_response {
            BreakerState::Closed {
                consecutive_misses: 0,
            }
        } else {
            match *state {
                BreakerState::Closed { consecutive_misses } => {
                    let misses = consecutive_misses + 1;
                    if misses >= config.failure_threshold.max(1) {
                        BreakerState::Open {
                            remaining: config.cooldown_rounds.max(1),
                        }
                    } else {
                        BreakerState::Closed {
                            consecutive_misses: misses,
                        }
                    }
                }
                // A failed half-open probe reopens for a full cooldown.
                BreakerState::HalfOpen => BreakerState::Open {
                    remaining: config.cooldown_rounds.max(1),
                },
                // Open hosts are never queried; keep the countdown.
                open @ BreakerState::Open { .. } => open,
            }
        };
    }

    /// Maps a host address to the socket address its daemon listens on
    /// (builder style). In a real deployment this is `host:783`; tests bind
    /// ephemeral localhost ports.
    pub fn with_endpoint(mut self, host: Ipv4Addr, endpoint: SocketAddr) -> NetworkBackend {
        self.register_endpoint(host, endpoint);
        self
    }

    /// Maps (or remaps) a host address to its daemon's socket address.
    pub fn register_endpoint(&mut self, host: Ipv4Addr, endpoint: SocketAddr) {
        self.endpoints.insert(host, endpoint);
        // A remap invalidates any pooled connection to the old endpoint —
        // and any breaker history: the new endpoint earns a clean slate.
        self.clients.remove(&host);
        self.breakers.remove(&host);
    }

    /// The shared per-decision query budget.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// The registered endpoint for a host, if any.
    pub fn endpoint(&self, host: Ipv4Addr) -> Option<SocketAddr> {
        self.endpoints.get(&host).copied()
    }

    /// Runs one host's share of a query round on its pooled client. A single
    /// query goes out as a plain `QUERY` frame (wire-identical to the
    /// historical singleton path); several go out as one `QUERY-BATCH` frame
    /// per [`identxx_proto::wire::MAX_BATCH`] chunk. `None` slots cover
    /// every no-information case: refused connection, timeout, silent
    /// daemon, flows the daemon knows nothing about. The batch client keeps
    /// earlier chunks' answers when a later chunk's transport fails, so the
    /// error fallback here only fires on a protocol-violating peer.
    async fn batch_on_client(
        client: &mut QueryClient,
        queries: &[Query],
        deadline: Instant,
    ) -> Vec<Option<Response>> {
        match queries {
            [] => Vec::new(),
            [one] => vec![client
                .query_deadline_async(one, deadline)
                .await
                .ok()
                .flatten()],
            many => client
                .query_batch_deadline_async(many, deadline)
                .await
                .unwrap_or_else(|_| vec![None; many.len()]),
        }
    }
}

impl Default for NetworkBackend {
    fn default() -> Self {
        NetworkBackend::new()
    }
}

impl QueryBackend for NetworkBackend {
    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
        tokio::runtime::block_on(self.query_round(requests))
    }

    fn query_round<'a>(&'a mut self, requests: &'a [FlowRequest<'a>]) -> RoundFuture<'a> {
        Box::pin(async move {
            let deadline = Instant::now() + self.budget;
            let mut responses: Vec<FlowResponses> = requests
                .iter()
                .map(|r| FlowResponses {
                    queries_issued: r.targets.len() as u32,
                    ..FlowResponses::default()
                })
                .collect();
            self.stats.queries_sent += requests.iter().map(|r| r.targets.len() as u64).sum::<u64>();

            // Group every (request, target) pair by the host whose daemon must
            // answer it; the round costs one round trip per host in this map,
            // not one thread per flow end (the historical fan-out shape).
            let mut per_host: BTreeMap<Ipv4Addr, Vec<(usize, QueryTarget)>> = BTreeMap::new();
            for (i, request) in requests.iter().enumerate() {
                for &target in request.targets {
                    per_host
                        .entry(target_addr(&request.flow, target))
                        .or_default()
                        .push((i, target));
                }
            }

            // One host's share of the round: its pooled client and the queries
            // (one per requested flow end) to send it in a single frame.
            struct HostShare {
                addr: Ipv4Addr,
                client: QueryClient,
                entries: Vec<(usize, QueryTarget)>,
                queries: Vec<Query>,
            }

            // Lift each involved host's pooled client out of the map (created on
            // first use). Hosts with no registered endpoint have no transport at
            // all; their slots stay `None`. The same applies to hosts behind an
            // active drill partition, and to hosts whose circuit breaker is open
            // — skipping them is the breaker's entire point: an unanswerable
            // host costs nothing instead of a deadline every round.
            let mut work: Vec<HostShare> = Vec::new();
            for (addr, entries) in per_host {
                if self
                    .fault_injector
                    .as_ref()
                    .is_some_and(|injector| injector.unreachable(addr))
                {
                    continue;
                }
                if !self.breaker_admits(addr) {
                    continue;
                }
                let Some(endpoint) = self.endpoints.get(&addr) else {
                    continue;
                };
                let client = self
                    .clients
                    .remove(&addr)
                    .unwrap_or_else(|| QueryClient::new(*endpoint));
                let queries: Vec<Query> = entries
                    .iter()
                    .map(|&(i, _)| {
                        let mut query = Query::new(requests[i].flow);
                        for k in requests[i].keys {
                            query = query.with_key(k);
                        }
                        query
                    })
                    .collect();
                work.push(HostShare {
                    addr,
                    client,
                    entries,
                    queries,
                });
            }

            // Every host's share of the round runs as a concurrent future under
            // the one shared deadline, joined on the polling thread — the round
            // costs ≈ the slowest host and **zero** spawned threads: the
            // runtime's reactor suspends each share on socket readiness and its
            // timer wheel enforces the deadline (DESIGN.md §7).
            let results = tokio::future::join_all(work.into_iter().map(|mut share| async move {
                let answers =
                    Self::batch_on_client(&mut share.client, &share.queries, deadline).await;
                (share, answers)
            }))
            .await;

            for (share, answers) in results {
                self.clients.insert(share.addr, share.client);
                self.breaker_record(share.addr, answers.iter().any(|a| a.is_some()));
                for ((i, target), answer) in share.entries.into_iter().zip(answers) {
                    responses[i].set(target, answer);
                }
            }

            for (i, request) in requests.iter().enumerate() {
                for &target in request.targets {
                    match responses[i].get(target) {
                        Some(_) => self.stats.responses_received += 1,
                        None => self.stats.timeouts += 1,
                    }
                }
            }
            responses
        })
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &str {
        "network"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for NetworkBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkBackend")
            .field("endpoints", &self.endpoints.len())
            .field("pooled", &self.clients.len())
            .field("budget", &self.budget)
            .field("stats", &self.stats)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Recording backend
// ---------------------------------------------------------------------------

/// How the [`RecordingBackend`] behaves for one host.
#[derive(Debug, Clone)]
pub enum ScriptedAnswer {
    /// Answer every query with these key-value pairs.
    Answer(Vec<(String, String)>),
    /// Never answer (a silent daemon or a timeout).
    Silent,
}

/// One recorded request: every [`FlowRequest`] of a round is logged as its
/// own entry, so a round of B flows records B entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedQuery {
    /// The flow queried about.
    pub flow: FiveTuple,
    /// The requested targets, in request order.
    pub targets: Vec<QueryTarget>,
    /// The advisory key hints.
    pub keys: Vec<String>,
}

/// A scriptable test double: answers from a per-host script (hosts with no
/// script are unreachable) and records every call, so failure-injection and
/// audit tests can assert exactly what the controller asked for.
#[derive(Debug, Default)]
pub struct RecordingBackend {
    script: BTreeMap<Ipv4Addr, ScriptedAnswer>,
    log: Vec<RecordedQuery>,
    stats: BackendStats,
}

impl RecordingBackend {
    /// Creates a backend where every host is unreachable.
    pub fn new() -> RecordingBackend {
        RecordingBackend::default()
    }

    /// Scripts a host to answer with fixed pairs (builder style).
    pub fn with_answer(mut self, host: Ipv4Addr, pairs: Vec<(String, String)>) -> RecordingBackend {
        self.script.insert(host, ScriptedAnswer::Answer(pairs));
        self
    }

    /// Scripts a host to be silent (builder style).
    pub fn with_silent(mut self, host: Ipv4Addr) -> RecordingBackend {
        self.script.insert(host, ScriptedAnswer::Silent);
        self
    }

    /// Every request answered so far, in order.
    pub fn recorded(&self) -> &[RecordedQuery] {
        &self.log
    }
}

impl QueryBackend for RecordingBackend {
    fn query_flows(&mut self, requests: &[FlowRequest<'_>]) -> Vec<FlowResponses> {
        self.log.extend(requests.iter().map(|r| RecordedQuery {
            flow: r.flow,
            targets: r.targets.to_vec(),
            keys: r.keys.iter().map(|k| k.to_string()).collect(),
        }));
        let script = &self.script;
        answer_round(
            requests,
            &mut self.stats,
            None,
            |addr, flow, _| match script.get(&addr)? {
                ScriptedAnswer::Answer(pairs) => {
                    let mut response = Response::new(*flow);
                    let mut section = identxx_proto::Section::new();
                    for (k, v) in pairs {
                        section.push(k, v.as_str());
                    }
                    response.push_section(section);
                    Some(response)
                }
                ScriptedAnswer::Silent => None,
            },
        )
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn name(&self) -> &str {
        "recording"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One round answered a target at a time — the in-process and scripted
/// backends' shared rule. Every requested target is one query sent; a host
/// behind an active drill partition is unanswered without asking `answer`;
/// otherwise `answer(addr, flow, keys)` resolves it. Each `None` counts as
/// unanswered.
fn answer_round(
    requests: &[FlowRequest<'_>],
    stats: &mut BackendStats,
    fault_injector: Option<&FaultInjector>,
    mut answer: impl FnMut(Ipv4Addr, &FiveTuple, &[&str]) -> Option<Response>,
) -> Vec<FlowResponses> {
    requests
        .iter()
        .map(|request| {
            let mut responses = FlowResponses::default();
            for &target in request.targets {
                let addr = target_addr(&request.flow, target);
                stats.queries_sent += 1;
                responses.queries_issued += 1;
                let partitioned = fault_injector.is_some_and(|injector| injector.unreachable(addr));
                let response = if partitioned {
                    None
                } else {
                    answer(addr, &request.flow, request.keys)
                };
                match &response {
                    Some(_) => stats.responses_received += 1,
                    None => stats.timeouts += 1,
                }
                responses.set(target, response);
            }
            responses
        })
        .collect()
}

/// The host address a target resolves to for a flow.
fn target_addr(flow: &FiveTuple, target: QueryTarget) -> Ipv4Addr {
    match target {
        QueryTarget::Source => flow.src_ip,
        QueryTarget::Destination => flow.dst_ip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use identxx_daemon::Daemon;
    use identxx_hostmodel::{Executable, Host};
    use identxx_proto::well_known;

    const BOTH_ENDS: &[QueryTarget] = &[QueryTarget::Source, QueryTarget::Destination];

    fn staged_directory() -> (DaemonDirectory, FiveTuple) {
        let mut directory = DaemonDirectory::new();
        let mut src = Daemon::bare(Host::new("src", Ipv4Addr::new(10, 0, 0, 1)));
        let exe = Executable::new("/usr/bin/firefox", "firefox", 300, "mozilla", "browser");
        let flow =
            src.host_mut()
                .open_connection("alice", exe, 40000, Ipv4Addr::new(10, 0, 0, 2), 80);
        directory.register(src);
        directory.register(Daemon::bare(Host::new("dst", Ipv4Addr::new(10, 0, 0, 2))));
        (directory, flow)
    }

    #[test]
    fn in_process_backend_resolves_both_ends_and_counts() {
        let (directory, flow) = staged_directory();
        let mut backend = InProcessBackend::with_directory(directory);
        let responses = backend.query_flow(&flow, BOTH_ENDS, &[well_known::USER_ID]);
        assert_eq!(responses.queries_issued, 2);
        assert_eq!(
            responses.src.as_ref().unwrap().latest(well_known::USER_ID),
            Some("alice")
        );
        assert!(responses.dst.is_some());
        assert_eq!(backend.stats().queries_sent, 2);
        assert_eq!(backend.stats().responses_received, 2);
        assert_eq!(backend.stats().timeouts, 0);
        assert_eq!(backend.name(), "in-process");
    }

    #[test]
    fn in_process_backend_counts_missing_daemons_as_unanswered() {
        let (directory, _) = staged_directory();
        let mut backend = InProcessBackend::with_directory(directory);
        let stranger = FiveTuple::tcp([192, 168, 9, 9], 1, [10, 0, 0, 2], 80);
        let responses = backend.query_flow(&stranger, BOTH_ENDS, &[]);
        assert!(responses.src.is_none());
        assert!(responses.dst.is_some());
        assert_eq!(responses.queries_issued, 2);
        assert_eq!(backend.stats().timeouts, 1);
    }

    #[test]
    fn in_process_backend_honours_target_selection() {
        let (directory, flow) = staged_directory();
        let mut backend = InProcessBackend::with_directory(directory);
        let responses = backend.query_flow(&flow, &[QueryTarget::Destination], &[]);
        assert!(responses.src.is_none());
        assert!(responses.dst.is_some());
        assert_eq!(responses.queries_issued, 1);
        assert_eq!(backend.stats().queries_sent, 1);
    }

    #[test]
    fn recording_backend_scripts_and_records() {
        let flow = FiveTuple::tcp([10, 0, 0, 1], 40000, [10, 0, 0, 2], 80);
        let mut backend = RecordingBackend::new()
            .with_answer(
                Ipv4Addr::new(10, 0, 0, 1),
                vec![("name".to_string(), "skype".to_string())],
            )
            .with_silent(Ipv4Addr::new(10, 0, 0, 2));
        let responses = backend.query_flow(&flow, BOTH_ENDS, &["name"]);
        assert_eq!(responses.src.unwrap().latest("name"), Some("skype"));
        assert!(responses.dst.is_none());
        assert_eq!(backend.stats().queries_sent, 2);
        assert_eq!(backend.stats().responses_received, 1);
        assert_eq!(backend.stats().timeouts, 1);
        assert_eq!(backend.recorded().len(), 1);
        assert_eq!(backend.recorded()[0].flow, flow);
        assert_eq!(backend.recorded()[0].targets, BOTH_ENDS.to_vec());
        assert_eq!(backend.recorded()[0].keys, vec!["name".to_string()]);
        // Unscripted host: unreachable.
        let other = FiveTuple::tcp([10, 0, 0, 9], 1, [10, 0, 0, 1], 2);
        let responses = backend.query_flow(&other, &[QueryTarget::Source], &[]);
        assert!(responses.src.is_none());
        assert_eq!(backend.recorded().len(), 2);
    }

    /// Answers `requests` as one round on `batched` and one request at a
    /// time on `sequential`, asserting the two agree per request and in
    /// their counters. Returns the pair for backend-specific checks.
    fn round_matches_singles<B: QueryBackend>(
        mut batched: B,
        mut sequential: B,
        requests: &[FlowRequest<'_>],
    ) -> (B, B) {
        let round = batched.query_flows(requests);
        assert_eq!(round.len(), requests.len());
        for (r, request) in round.iter().zip(requests) {
            let single = sequential.query_flow(&request.flow, request.targets, request.keys);
            assert_eq!(
                r.queries_issued,
                single.queries_issued,
                "{}",
                batched.name()
            );
            assert_eq!(r.src.is_some(), single.src.is_some(), "{}", batched.name());
            assert_eq!(r.dst.is_some(), single.dst.is_some(), "{}", batched.name());
        }
        assert_eq!(batched.stats(), sequential.stats(), "{}", batched.name());
        (batched, sequential)
    }

    /// A round mixing both ends of a staged flow, an end with no daemon, and
    /// a single end of the reversed flow.
    fn mixed_round(flow: FiveTuple) -> [FlowRequest<'static>; 3] {
        let stranger = FiveTuple::tcp([192, 168, 9, 9], 1, [10, 0, 0, 2], 80);
        [
            FlowRequest {
                flow,
                targets: BOTH_ENDS,
                keys: &[well_known::USER_ID],
            },
            FlowRequest {
                flow: stranger,
                targets: &[QueryTarget::Source],
                keys: &[],
            },
            FlowRequest {
                flow: flow.reversed(),
                targets: &[QueryTarget::Destination],
                keys: &[],
            },
        ]
    }

    #[test]
    fn default_query_flows_matches_sequential_query_flow() {
        let (directory, flow) = staged_directory();
        let (batched, _) = round_matches_singles(
            InProcessBackend::with_directory(directory),
            InProcessBackend::with_directory(staged_directory().0),
            &mixed_round(flow),
        );
        assert_eq!(batched.stats().queries_sent, 4);
        assert_eq!(batched.stats().timeouts, 1);
    }

    #[test]
    fn shared_directory_backend_batches_like_singles() {
        let (directory, flow) = staged_directory();
        let shared = Arc::new(Mutex::new(directory));
        let (batched, _) = round_matches_singles(
            SharedDirectoryBackend::new(Arc::clone(&shared)),
            SharedDirectoryBackend::new(shared),
            &mixed_round(flow),
        );
        assert_eq!(batched.stats().queries_sent, 4);
    }

    #[test]
    fn recording_backend_round_matches_singles() {
        let (_, flow) = staged_directory();
        let requests = mixed_round(flow);
        let scripted = || {
            RecordingBackend::new()
                .with_answer(
                    flow.src_ip,
                    vec![("name".to_string(), "firefox".to_string())],
                )
                .with_silent(flow.dst_ip)
        };
        let (batched, sequential) = round_matches_singles(scripted(), scripted(), &requests);
        assert_eq!(batched.stats().responses_received, 2);
        assert_eq!(batched.recorded().len(), requests.len());
        assert_eq!(batched.recorded(), sequential.recorded());
    }

    #[test]
    fn shared_directory_backend_matches_in_process_semantics() {
        let (directory, flow) = staged_directory();
        let shared = Arc::new(Mutex::new(directory));
        let mut a = SharedDirectoryBackend::new(Arc::clone(&shared));
        let mut b = SharedDirectoryBackend::new(Arc::clone(&shared));
        assert_eq!(a.name(), "shared-directory");

        // Both backends see the same daemons; counters stay per-backend.
        let responses = a.query_flow(&flow, BOTH_ENDS, &[well_known::USER_ID]);
        assert_eq!(
            responses.src.as_ref().unwrap().latest(well_known::USER_ID),
            Some("alice")
        );
        assert!(responses.dst.is_some());
        assert_eq!(a.stats().queries_sent, 2);
        assert_eq!(b.stats().queries_sent, 0);

        // A mutation through the shared handle is visible to every backend:
        // silencing the source daemon makes it unanswered for both.
        shared
            .lock()
            .unwrap()
            .get_mut(flow.src_ip)
            .unwrap()
            .set_silent(true);
        assert!(a.query_flow(&flow, BOTH_ENDS, &[]).src.is_none());
        assert!(b.query_flow(&flow, BOTH_ENDS, &[]).src.is_none());
        assert_eq!(a.stats().timeouts, 1);
        assert_eq!(b.stats().timeouts, 1);
    }

    #[tokio::test]
    async fn breaker_opens_after_consecutive_misses_and_recovers_via_half_open() {
        use identxx_net::DaemonServer;
        // A healthy server whose daemon is silent: every round connects fine
        // but yields no answer — the all-miss shape that must trip the
        // breaker without any endpoint churn.
        let h1 = Ipv4Addr::new(10, 0, 0, 1);
        let mut daemon = Daemon::bare(Host::new("h1", h1));
        let exe = Executable::new("/usr/bin/firefox", "firefox", 300, "mozilla", "browser");
        let flow =
            daemon
                .host_mut()
                .open_connection("alice", exe, 40000, Ipv4Addr::new(10, 0, 0, 2), 80);
        daemon.set_silent(true);
        let server = DaemonServer::start(daemon, "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut backend = NetworkBackend::new()
            .with_budget(Duration::from_millis(500))
            .with_endpoint(h1, server.local_addr())
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown_rounds: 1,
            });

        let src_only = &[QueryTarget::Source][..];
        assert_eq!(backend.breaker_state_name(h1), "closed");
        assert!(backend.query_flow(&flow, src_only, &[]).src.is_none());
        assert_eq!(backend.breaker_state_name(h1), "closed");
        assert!(backend.query_flow(&flow, src_only, &[]).src.is_none());
        assert!(backend.breaker_is_open(h1), "two misses must open");
        let served_before_skip = server.queries_served();

        // Open round: the host is skipped entirely (no wire traffic), the
        // slot is still an unanswered query, and the breaker parks half-open.
        assert!(backend.query_flow(&flow, src_only, &[]).src.is_none());
        assert_eq!(server.queries_served(), served_before_skip);
        assert_eq!(backend.breaker_state_name(h1), "half-open");

        // The daemon recovers; the half-open probe closes the breaker.
        server.daemon().lock().await.set_silent(false);
        let probed = backend.query_flow(&flow, src_only, &[]);
        assert!(probed.src.is_some(), "half-open probe must reach the host");
        assert_eq!(backend.breaker_state_name(h1), "closed");
        // Timeouts were charged for every unanswered round, probes included.
        assert_eq!(backend.stats().queries_sent, 4);
        assert_eq!(backend.stats().timeouts, 3);
        assert_eq!(backend.stats().responses_received, 1);
        server.shutdown();
    }

    #[tokio::test]
    async fn breaker_reopens_when_the_half_open_probe_fails() {
        use identxx_net::DaemonServer;
        let h1 = Ipv4Addr::new(10, 0, 0, 1);
        let mut daemon = Daemon::bare(Host::new("h1", h1));
        daemon.set_silent(true);
        let flow = FiveTuple::tcp(h1, 40000, [10, 0, 0, 2], 80);
        let server = DaemonServer::start(daemon, "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut backend = NetworkBackend::new()
            .with_budget(Duration::from_millis(500))
            .with_endpoint(h1, server.local_addr())
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown_rounds: 2,
            });
        let src_only = &[QueryTarget::Source][..];
        backend.query_flow(&flow, src_only, &[]); // miss → open(2)
        assert!(backend.breaker_is_open(h1));
        backend.query_flow(&flow, src_only, &[]); // skipped, open(1)
        assert!(backend.breaker_is_open(h1));
        backend.query_flow(&flow, src_only, &[]); // skipped → half-open
        assert_eq!(backend.breaker_state_name(h1), "half-open");
        backend.query_flow(&flow, src_only, &[]); // failed probe → reopen
        assert!(backend.breaker_is_open(h1));
        server.shutdown();
    }

    #[tokio::test]
    async fn drill_partition_cuts_a_host_off_until_the_window_ends() {
        use identxx_daemon::{FaultPlan, Window};
        use identxx_net::DaemonServer;
        let h1 = Ipv4Addr::new(10, 0, 0, 1);
        let mut daemon = Daemon::bare(Host::new("h1", h1));
        let exe = Executable::new("/usr/bin/firefox", "firefox", 300, "mozilla", "browser");
        let flow =
            daemon
                .host_mut()
                .open_connection("alice", exe, 40000, Ipv4Addr::new(10, 0, 0, 2), 80);
        let server = DaemonServer::start(daemon, "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let injector = FaultPlan::new(1)
            .partition(h1, Window::between(100, 200))
            .injector();
        let mut backend = NetworkBackend::new()
            .with_budget(Duration::from_millis(500))
            .with_endpoint(h1, server.local_addr())
            .with_fault_injector(Arc::clone(&injector));
        let src_only = &[QueryTarget::Source][..];
        assert!(backend.query_flow(&flow, src_only, &[]).src.is_some());
        let served = server.queries_served();
        injector.advance_to(150);
        // Partition active: no wire traffic at all, slot unanswered.
        assert!(backend.query_flow(&flow, src_only, &[]).src.is_none());
        assert_eq!(server.queries_served(), served);
        injector.advance_to(200);
        assert!(
            backend.query_flow(&flow, src_only, &[]).src.is_some(),
            "connectivity returns the microsecond the window closes"
        );
        server.shutdown();
    }

    #[test]
    fn network_backend_unknown_endpoint_is_unanswered() {
        let mut backend = NetworkBackend::new().with_budget(Duration::from_millis(100));
        let flow = FiveTuple::tcp([10, 0, 0, 1], 40000, [10, 0, 0, 2], 80);
        let responses = backend.query_flow(&flow, BOTH_ENDS, &[]);
        assert!(responses.src.is_none());
        assert!(responses.dst.is_none());
        assert_eq!(responses.queries_issued, 2);
        assert_eq!(backend.stats().timeouts, 2);
        assert_eq!(backend.name(), "network");
    }
}
