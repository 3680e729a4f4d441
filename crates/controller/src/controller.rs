//! The ident++ controller.

use std::sync::Arc;

use identxx_crypto::{VerifyCache, VerifyCacheStats};
use identxx_pf::{
    CompiledPolicy, Decision, EvalContext, PfError, PolicyCompiler, RuleSet, StateTable, Verdict,
};
use identxx_proto::{well_known, FiveTuple, Response};

use identxx_openflow::{ControllerDirective, FlowMod, OpenFlowController, PacketIn};

use crate::audit::{AuditLog, AuditRecord, PolicyNote};
use crate::backend::{BackendStats, InProcessBackend, QueryBackend, SharedDirectoryBackend};
use crate::config::ControllerConfig;
use crate::install::NetworkMap;
use crate::intercept::{Interceptor, QueryTarget, ResponseAugmenter};
use crate::querier::DaemonDirectory;

/// The keys the controller asks for by default. The hint list is advisory
/// (§3.2); the daemons may return more.
const DEFAULT_QUERY_KEYS: &[&str] = &[
    well_known::USER_ID,
    well_known::GROUP_ID,
    well_known::APP_NAME,
    well_known::EXE_HASH,
    well_known::VERSION,
    well_known::REQUIREMENTS,
    well_known::REQ_SIG,
    well_known::RULE_MAKER,
    well_known::OS_PATCH,
];

/// Priority used for flow entries installed by the controller.
const FLOW_ENTRY_PRIORITY: u16 = 100;

/// The outcome of the controller's handling of one new flow.
#[derive(Debug, Clone)]
pub struct FlowDecision {
    /// The flow the decision is about.
    pub flow: FiveTuple,
    /// The policy verdict.
    pub verdict: Verdict,
    /// The source-side ident++ response (if any was obtained).
    pub src_response: Option<Response>,
    /// The destination-side ident++ response (if any was obtained).
    pub dst_response: Option<Response>,
    /// Whether the decision came from the controller's state table without a
    /// fresh query/evaluation cycle.
    pub from_cache: bool,
    /// How many ident++ queries were sent to daemons for this decision.
    pub queries_issued: u32,
    /// The flow-table entries the controller wants installed.
    pub flow_mods: Vec<FlowMod>,
}

impl FlowDecision {
    /// Whether the flow is allowed.
    pub fn is_pass(&self) -> bool {
        self.verdict.decision.is_pass()
    }
}

/// The ident++ controller: policy, query backend, optional network map,
/// state table, interceptors/augmenters, and the audit log.
pub struct IdentxxController {
    config: ControllerConfig,
    ruleset: RuleSet,
    /// The ruleset lowered into its allocation-free evaluation form; rebuilt
    /// whenever a `.control` file changes.
    compiled: CompiledPolicy,
    /// The query plane: how (and over what transport) the controller reaches
    /// the end-host daemons. Defaults to [`InProcessBackend`].
    backend: Box<dyn QueryBackend>,
    network: Option<NetworkMap>,
    state: StateTable,
    audit: AuditLog,
    interceptors: Vec<Box<dyn Interceptor>>,
    augmenters: Vec<Box<dyn ResponseAugmenter>>,
    /// The amortized `verify()` plane: shared with the compiled policy (and
    /// every interpreter context it spawns), drained into audit notes after
    /// each decision. Bundles are verified lazily, only when an evaluation
    /// reaches a `verify()`, so `decide` and `decide_batch` pay the same
    /// curve math for the same flows.
    verify_cache: Arc<VerifyCache>,
    /// A compromised controller (§5.1) stops enforcing anything.
    compromised: bool,
}

impl IdentxxController {
    /// Creates a controller from a configuration, compiling its `.control`
    /// files.
    ///
    /// Construction also performs the cheap static checks: every rule the
    /// compiler's dead-rule elimination dropped is recorded as a policy note
    /// in the audit log (the administrator should know which delegated rules
    /// can never decide anything), and rules whose ports the configured
    /// [`identxx_pf::CacheGranularity`] erases from the state key are noted
    /// as well. In debug builds the latter additionally panics unless
    /// [`ControllerConfig::acknowledge_coarse_cache`] is set, because a
    /// coarse cache silently replays verdicts across ports such rules
    /// distinguish.
    pub fn new(config: ControllerConfig) -> Result<IdentxxController, PfError> {
        let ruleset = config.compile()?;
        let verify_cache = Arc::new(VerifyCache::with_capacity(config.verify_cache_capacity));
        let compiled = Self::compile_policy(&config, &ruleset, &verify_cache);
        let state = StateTable::new().with_granularity(config.cache_granularity);
        let mut audit = AuditLog::new();
        for dead in compiled.dead_rules() {
            // Unmatchable rules (unreachable matcher-tree leaves) get their
            // own category: the fix is editing the rule itself, not the
            // ordering around it.
            let category = match dead.reason {
                identxx_pf::DeadRuleReason::Unmatchable { .. } => "unmatchable-rule",
                _ => "shadowed-rule",
            };
            audit.push_note(PolicyNote {
                category: category.to_string(),
                line: dead.line,
                message: format!("rule never decides any flow: {}", dead.reason),
            });
        }
        if config.use_state_table {
            // The field-aware variant reuses the freshly compiled policy
            // (no second compile) and skips rules proven dead above.
            let hazards = identxx_pf::analyze::granularity_diagnostics_with(
                &ruleset,
                config.cache_granularity,
                &compiled,
            );
            debug_assert!(
                hazards.is_empty() || config.acknowledge_coarse_cache,
                "policy has port-constrained rules the {:?} cache granularity cannot key \
                 (acknowledge with ControllerConfig::with_coarse_cache_acknowledged): {}",
                config.cache_granularity,
                hazards
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            );
            for hazard in hazards {
                audit.push_note(PolicyNote {
                    category: hazard.category.as_str().to_string(),
                    line: hazard.span.line,
                    message: hazard.message,
                });
            }
        }
        Ok(IdentxxController {
            config,
            ruleset,
            compiled,
            backend: Box::new(InProcessBackend::new()),
            network: None,
            state,
            audit,
            interceptors: Vec::new(),
            augmenters: Vec::new(),
            verify_cache,
            compromised: false,
        })
    }

    /// Attaches a network map so decisions install entries along the whole
    /// path (builder style).
    pub fn with_network(mut self, network: NetworkMap) -> Self {
        self.network = Some(network);
        self
    }

    /// Replaces the query backend (builder style): e.g. a
    /// [`crate::backend::NetworkBackend`] to query real daemons over TCP, or
    /// a [`crate::backend::RecordingBackend`] in tests.
    pub fn with_backend(mut self, backend: Box<dyn QueryBackend>) -> Self {
        self.set_backend(backend);
        self
    }

    /// Replaces the query backend in place (what
    /// [`crate::ShardedController::with_backends`] uses to equip each shard).
    pub fn set_backend(&mut self, backend: Box<dyn QueryBackend>) {
        self.backend = backend;
    }

    /// The query backend.
    pub fn backend(&self) -> &dyn QueryBackend {
        self.backend.as_ref()
    }

    /// Mutable access to the query backend (e.g. to register endpoints on a
    /// network backend while the controller runs).
    pub fn backend_mut(&mut self) -> &mut dyn QueryBackend {
        self.backend.as_mut()
    }

    /// The backend's transport counters (queries sent / answered / not).
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Registers an end-host daemon with the in-process backend (owned or
    /// shared-directory flavor; registering through a shared directory is
    /// visible to every shard over the same handle).
    ///
    /// # Panics
    ///
    /// Panics when the controller runs over a network or recording backend —
    /// network deployments register daemon endpoints on the
    /// [`crate::backend::NetworkBackend`] instead.
    pub fn register_daemon(&mut self, daemon: identxx_daemon::Daemon) {
        if let Some(directory) = self.shared_daemons() {
            directory
                .lock()
                .expect("shared daemon directory poisoned")
                .register(daemon);
            return;
        }
        self.daemons_mut().register(daemon);
    }

    /// Access to the in-process backend's daemon directory.
    ///
    /// # Panics
    ///
    /// Panics when the controller runs over a different backend; simulator
    /// scenarios (the only callers) always use the in-process default.
    pub fn daemons(&self) -> &DaemonDirectory {
        self.backend
            .as_any()
            .downcast_ref::<InProcessBackend>()
            .expect("daemons(): controller is not using the in-process backend")
            .directory()
    }

    /// Mutable access to the in-process backend's daemon directory (scenarios
    /// use this to start applications or compromise hosts).
    ///
    /// # Panics
    ///
    /// Panics when the controller runs over a different backend.
    pub fn daemons_mut(&mut self) -> &mut DaemonDirectory {
        self.backend
            .as_any_mut()
            .downcast_mut::<InProcessBackend>()
            .expect("daemons_mut(): controller is not using the in-process backend")
            .directory_mut()
    }

    /// The shared daemon directory handle, when this controller queries
    /// through a [`SharedDirectoryBackend`] (the sharded-tier configuration
    /// where N shards see one daemon population). `None` on any other
    /// backend. This is the population-churn hook: registering or
    /// unregistering through the handle is immediately visible to every
    /// shard sharing it.
    pub fn shared_daemons(&self) -> Option<std::sync::Arc<std::sync::Mutex<DaemonDirectory>>> {
        self.backend
            .as_any()
            .downcast_ref::<SharedDirectoryBackend>()
            .map(SharedDirectoryBackend::directory)
    }

    /// Removes an end-host daemon from the query plane (population churn:
    /// the host left the network). Works over both in-process backend
    /// flavors; returns whether the daemon was present.
    ///
    /// # Panics
    ///
    /// Panics when the controller runs over a network or recording backend —
    /// those model daemon departure by dropping the endpoint or the scripted
    /// answer instead.
    pub fn unregister_daemon(&mut self, addr: identxx_proto::Ipv4Addr) -> bool {
        if let Some(directory) = self.shared_daemons() {
            return directory
                .lock()
                .expect("shared daemon directory poisoned")
                .unregister(addr)
                .is_some();
        }
        self.daemons_mut().unregister(addr).is_some()
    }

    /// Lowers a parsed ruleset into the evaluation-ready form, carrying the
    /// configuration's default decision, trusted keys, named lists, and the
    /// shared verify cache.
    fn compile_policy(
        config: &ControllerConfig,
        ruleset: &RuleSet,
        verify_cache: &Arc<VerifyCache>,
    ) -> CompiledPolicy {
        let mut compiler = PolicyCompiler::new()
            .with_default(config.default_decision)
            .with_key_registry(config.trusted_keys.clone())
            .with_verify_cache(Arc::clone(verify_cache));
        for (name, members) in &config.named_lists {
            compiler = compiler.with_named_list(name.clone(), members.clone());
        }
        compiler.compile(ruleset)
    }

    /// The parsed policy.
    pub fn ruleset(&self) -> &RuleSet {
        &self.ruleset
    }

    /// The policy in its compiled (allocation-free evaluation) form.
    pub fn compiled_policy(&self) -> &CompiledPolicy {
        &self.compiled
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The network map, if attached.
    pub fn network(&self) -> Option<&NetworkMap> {
        self.network.as_ref()
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Adds a query interceptor (answers queries on behalf of hosts).
    pub fn add_interceptor(&mut self, interceptor: Box<dyn Interceptor>) {
        self.interceptors.push(interceptor);
    }

    /// Adds a response augmenter (appends sections to responses).
    pub fn add_augmenter(&mut self, augmenter: Box<dyn ResponseAugmenter>) {
        self.augmenters.push(augmenter);
    }

    /// Marks the controller as compromised (§5.1): every flow is allowed and
    /// nothing is audited, modelling an attacker who disabled protection.
    pub fn set_compromised(&mut self, compromised: bool) {
        self.compromised = compromised;
    }

    /// Whether the controller is compromised.
    pub fn is_compromised(&self) -> bool {
        self.compromised
    }

    /// Replaces (or adds) one `.control` file and recompiles the policy. The
    /// state table is cleared because cached decisions may no longer reflect
    /// the policy.
    pub fn update_control_file(
        &mut self,
        name: impl Into<String>,
        contents: impl Into<String>,
    ) -> Result<(), PfError> {
        self.config.control_files.add_file(name, contents);
        self.ruleset = self.config.compile()?;
        // The verify cache survives recompiles: verdicts are content-addressed
        // (signature × key × items), so no policy change can invalidate them.
        self.compiled = Self::compile_policy(&self.config, &self.ruleset, &self.verify_cache);
        self.state.clear();
        Ok(())
    }

    /// Removes a `.control` file (revoking, say, a third party's delegated
    /// rules) and recompiles.
    pub fn remove_control_file(&mut self, name: &str) -> Result<bool, PfError> {
        let removed = self.config.control_files.remove(name);
        if removed {
            self.ruleset = self.config.compile()?;
            self.compiled = Self::compile_policy(&self.config, &self.ruleset, &self.verify_cache);
            self.state.clear();
        }
        Ok(removed)
    }

    /// Revokes previously allowed flows selected by `pred`: their state-table
    /// entries are dropped and delete `flow-mod`s are produced for the network
    /// (when a network map is attached).
    pub fn revoke_where<F: Fn(&AuditRecord) -> bool>(&mut self, pred: F) -> Vec<FlowMod> {
        let mut mods = Vec::new();
        let flows: Vec<FiveTuple> = self
            .audit
            .records()
            .iter()
            .filter(|r| r.decision == Decision::Pass && pred(r))
            .map(|r| r.flow)
            .collect();
        for flow in flows {
            self.state.remove(&flow);
            if let Some(network) = &self.network {
                for direction in [flow, flow.reversed()] {
                    if let Some(hops) = network.switch_hops(&direction) {
                        for (switch, _port) in hops {
                            mods.push(FlowMod::delete(
                                switch,
                                identxx_openflow::FlowMatch::exact_five_tuple(&direction),
                            ));
                        }
                    }
                }
            }
        }
        mods
    }

    /// Evaluates the policy for a flow given already-collected responses,
    /// without touching daemons, cache, or audit log. Used on the flow-setup
    /// path, by benchmarks, and by `allowed()`-style re-checks.
    ///
    /// This runs against the compiled policy — the allocation-free fast
    /// path. [`IdentxxController::evaluate_interpreted`] runs the reference
    /// interpreter over the same configuration.
    pub fn evaluate_only(
        &self,
        flow: &FiveTuple,
        src: Option<&Response>,
        dst: Option<&Response>,
    ) -> Verdict {
        self.evaluate_only_at(flow, src, dst, 0)
    }

    /// [`IdentxxController::evaluate_only`] at logical time `now`
    /// (microseconds): `verify()` checks short-lived bundles' validity
    /// windows against it. The decision cycle uses the decision's own clock;
    /// `evaluate_only` is the `now = 0` convenience for callers without one.
    pub fn evaluate_only_at(
        &self,
        flow: &FiveTuple,
        src: Option<&Response>,
        dst: Option<&Response>,
        now: u64,
    ) -> Verdict {
        self.compiled.evaluate_at(flow, src, dst, now)
    }

    /// Evaluates the same policy through the AST interpreter (the reference
    /// oracle the compiled form is property-tested against). Benchmarks use
    /// this to measure the compiled speedup; production paths should prefer
    /// [`IdentxxController::evaluate_only`].
    pub fn evaluate_interpreted(
        &self,
        flow: &FiveTuple,
        src: Option<&Response>,
        dst: Option<&Response>,
    ) -> Verdict {
        let mut ctx = EvalContext::new(&self.ruleset)
            .with_default(self.config.default_decision)
            .with_key_registry(self.config.trusted_keys.clone());
        for (name, members) in &self.config.named_lists {
            ctx = ctx.with_named_list(name.clone(), members.clone());
        }
        if let Some(src) = src {
            ctx = ctx.with_src_response(src);
        }
        if let Some(dst) = dst {
            ctx = ctx.with_dst_response(dst);
        }
        ctx.evaluate(flow)
    }

    /// Runs the full ident++ decision cycle for a flow at simulated time
    /// `now` (microseconds): state-table check, queries to both ends (unless
    /// intercepted), policy evaluation, state/audit updates, and flow-mod
    /// generation. This is the one-flow [`IdentxxController::decide_batch`].
    pub fn decide(&mut self, flow: &FiveTuple, now: u64) -> FlowDecision {
        self.decide_batch(std::slice::from_ref(flow), now)
            .pop()
            .expect("a one-flow batch yields one decision")
    }

    /// Runs the decision cycle for a whole batch of flows with **one**
    /// backend query round covering every flow the cache and interceptors
    /// could not settle: [`IdentxxController::decide_round`], driven to
    /// completion on the calling thread.
    pub fn decide_batch(&mut self, flows: &[FiveTuple], now: u64) -> Vec<FlowDecision> {
        tokio::runtime::block_on(self.decide_round(flows, now))
    }

    /// The decision cycle for a batch as a future: everything but the query
    /// round ([`QueryBackend::query_round`]) runs synchronously when polled,
    /// and the future suspends only while that round waits on its backend.
    /// An in-process backend's round is ready at once, so the future
    /// resolves on its first poll; a network round suspends on the reactor,
    /// which is what lets [`crate::ShardedController`] keep every busy
    /// shard's round in flight on one thread.
    ///
    /// Per-flow **decisions** match a sequential [`IdentxxController::decide`]
    /// loop exactly — including flows within one batch that share a cache
    /// key (a repeat, a reverse flow, a coarse-granularity alias): the
    /// cache is re-checked as each queried flow is finished, so a state
    /// entry written by an earlier flow of the batch serves the later one
    /// just as it would sequentially. The two batch-level differences are
    /// accounting, not decisions: queries for intra-batch cache aliases
    /// have already been sent by the time the alias hits (the backend
    /// counts that speculative work; sequential deciding would have
    /// skipped it), and a batch's phase-1 cache-hit audit records precede
    /// the records of its queried flows.
    pub async fn decide_round(&mut self, flows: &[FiveTuple], now: u64) -> Vec<FlowDecision> {
        struct Pending {
            index: usize,
            flow: FiveTuple,
            src: Option<Response>,
            dst: Option<Response>,
            targets: [QueryTarget; 2],
            target_count: usize,
        }

        let mut decisions: Vec<Option<FlowDecision>> = (0..flows.len()).map(|_| None).collect();
        let mut pending: Vec<Pending> = Vec::new();
        // Whether a decision of this round has written a state entry yet;
        // until one has, the cache cannot have changed since phase 1.
        let mut wrote_state = false;
        for (index, flow) in flows.iter().enumerate() {
            if self.compromised {
                decisions[index] = Some(self.compromised_decision(flow));
            } else if let Some(cached) = self.cached_decision(flow, now) {
                decisions[index] = Some(cached);
            } else {
                let (src, dst, targets, target_count) = self.intercept_phase(flow);
                if target_count == 0 {
                    let decision = self.finish_decision(flow, src, dst, 0, now);
                    wrote_state |= decision.verdict.keep_state;
                    decisions[index] = Some(decision);
                } else {
                    pending.push(Pending {
                        index,
                        flow: *flow,
                        src,
                        dst,
                        targets,
                        target_count,
                    });
                }
            }
        }

        if !pending.is_empty() {
            let responses = {
                let requests: Vec<crate::backend::FlowRequest<'_>> = pending
                    .iter()
                    .map(|p| crate::backend::FlowRequest {
                        flow: p.flow,
                        targets: &p.targets[..p.target_count],
                        keys: DEFAULT_QUERY_KEYS,
                    })
                    .collect();
                self.backend.query_round(&requests).await
            };
            for (p, queried) in pending.into_iter().zip(responses) {
                // Re-check the cache once a flow of this very batch has
                // written state: it may be an entry this flow aliases (its
                // repeat, its reverse, a coarse-key sibling). Sequential
                // deciding would have served it from the cache, so the batch
                // does too — the already-sent query is speculative work, not
                // a different decision.
                let cached = if wrote_state {
                    self.cached_decision(&p.flow, now)
                } else {
                    None
                };
                decisions[p.index] = Some(match cached {
                    Some(cached) => cached,
                    None => {
                        let src = p.src.or(queried.src);
                        let dst = p.dst.or(queried.dst);
                        if self.config.fail_closed_on_unanswered
                            && Self::queried_but_unanswered(
                                &p.targets[..p.target_count],
                                &src,
                                &dst,
                            )
                        {
                            self.fail_closed_decision(
                                &p.flow,
                                src,
                                dst,
                                queried.queries_issued,
                                now,
                            )
                        } else {
                            let decision = self.finish_decision(
                                &p.flow,
                                src,
                                dst,
                                queried.queries_issued,
                                now,
                            );
                            wrote_state |= decision.verdict.keep_state;
                            decision
                        }
                    }
                });
            }
        }

        decisions
            .into_iter()
            .map(|d| d.expect("every flow in the batch is decided"))
            .collect()
    }

    /// §5.1: "If the controller is compromised, an attacker can disable all
    /// protection in the network." Every flow passes, nothing is audited.
    fn compromised_decision(&mut self, flow: &FiveTuple) -> FlowDecision {
        let verdict = Verdict {
            decision: Decision::Pass,
            matched_rule: None,
            matched_line: None,
            keep_state: false,
            quick: false,
            rules_evaluated: 0,
        };
        let flow_mods = self.mods_for(flow, Decision::Pass);
        FlowDecision {
            flow: *flow,
            verdict,
            src_response: None,
            dst_response: None,
            from_cache: false,
            queries_issued: 0,
            flow_mods,
        }
    }

    /// The controller-side rule cache (state table): a hit is a complete
    /// decision, audited as such, with no query round at all.
    fn cached_decision(&mut self, flow: &FiveTuple, now: u64) -> Option<FlowDecision> {
        if !self.config.use_state_table {
            return None;
        }
        let entry = self.state.lookup(flow, now)?;
        let verdict = Verdict {
            decision: entry.decision,
            matched_rule: None,
            matched_line: None,
            keep_state: true,
            quick: false,
            rules_evaluated: 0,
        };
        let flow_mods = self.mods_for(flow, entry.decision);
        self.audit.push(AuditRecord {
            time: now,
            flow: *flow,
            decision: entry.decision,
            matched_line: None,
            from_cache: true,
            src_user: None,
            src_app: None,
            dst_user: None,
            dst_app: None,
            rule_maker: None,
            queries_issued: 0,
        });
        Some(FlowDecision {
            flow: *flow,
            verdict,
            src_response: None,
            dst_response: None,
            from_cache: true,
            queries_issued: 0,
            flow_mods,
        })
    }

    /// Lets interceptors answer for each end and derives the list of ends
    /// the backend still has to resolve.
    fn intercept_phase(
        &mut self,
        flow: &FiveTuple,
    ) -> (Option<Response>, Option<Response>, [QueryTarget; 2], usize) {
        let src = self.intercepted_response(flow, QueryTarget::Source);
        let dst = self.intercepted_response(flow, QueryTarget::Destination);
        let mut targets = [QueryTarget::Source; 2];
        let mut target_count = 0;
        if src.is_none() {
            targets[target_count] = QueryTarget::Source;
            target_count += 1;
        }
        if dst.is_none() {
            targets[target_count] = QueryTarget::Destination;
            target_count += 1;
        }
        (src, dst, targets, target_count)
    }

    /// The post-query tail of a decision: augmentation, policy evaluation,
    /// state-table insert, audit record, and flow-mod generation.
    fn finish_decision(
        &mut self,
        flow: &FiveTuple,
        mut src_response: Option<Response>,
        mut dst_response: Option<Response>,
        queries_issued: u32,
        now: u64,
    ) -> FlowDecision {
        // Augment whatever responses exist with sections from on-path
        // controllers.
        if let Some(r) = src_response.as_mut() {
            self.augment_response(flow, QueryTarget::Source, r);
        }
        if let Some(r) = dst_response.as_mut() {
            self.augment_response(flow, QueryTarget::Destination, r);
        }

        let verdict =
            self.evaluate_only_at(flow, src_response.as_ref(), dst_response.as_ref(), now);

        // Attach what the verify plane did for this evaluation: every bundle
        // check records whether it was served from the cache, verified fresh,
        // rejected outside its window, forged, or not parseable at all.
        for event in self.verify_cache.drain_events() {
            let under = match &event.key_id {
                Some(key_id) => format!(" under key '{key_id}'"),
                None => String::new(),
            };
            self.audit.push_note(PolicyNote {
                category: event.outcome.as_str().to_string(),
                line: 0,
                message: format!(
                    "delegation bundle for {flow}{under}: {}",
                    event.outcome.as_str()
                ),
            });
        }

        if self.config.use_state_table && verdict.keep_state {
            self.state.insert(flow, verdict.decision, now);
        }
        let flow_mods = self.mods_for(flow, verdict.decision);
        let latest = |r: &Option<Response>, key: &str| -> Option<String> {
            r.as_ref().and_then(|r| r.latest(key)).map(str::to_string)
        };
        self.audit.push(AuditRecord {
            time: now,
            flow: *flow,
            decision: verdict.decision,
            matched_line: verdict.matched_line,
            from_cache: false,
            src_user: latest(&src_response, well_known::USER_ID),
            src_app: latest(&src_response, well_known::APP_NAME),
            dst_user: latest(&dst_response, well_known::USER_ID),
            dst_app: latest(&dst_response, well_known::APP_NAME),
            rule_maker: latest(&src_response, well_known::RULE_MAKER)
                .or_else(|| latest(&dst_response, well_known::RULE_MAKER)),
            queries_issued,
        });

        FlowDecision {
            flow: *flow,
            verdict,
            src_response,
            dst_response,
            from_cache: false,
            queries_issued,
            flow_mods,
        }
    }

    /// Whether any end the backend was actually asked about (interceptor
    /// answers never reach the backend) is still missing its response —
    /// i.e. the query went out and nothing came back before the deadline.
    fn queried_but_unanswered(
        targets: &[QueryTarget],
        src: &Option<Response>,
        dst: &Option<Response>,
    ) -> bool {
        targets.iter().any(|target| match target {
            QueryTarget::Source => src.is_none(),
            QueryTarget::Destination => dst.is_none(),
        })
    }

    /// The fail-closed deny: identity for one end of the flow was queried
    /// and never answered, so instead of evaluating policy over a missing
    /// response the controller denies outright, audits the decision, and
    /// explains itself with a `fail-closed` policy note. The deny is **not**
    /// written to the state table — the moment the daemon answers again the
    /// flow is re-decided against the real policy (DESIGN.md §9).
    fn fail_closed_decision(
        &mut self,
        flow: &FiveTuple,
        src_response: Option<Response>,
        dst_response: Option<Response>,
        queries_issued: u32,
        now: u64,
    ) -> FlowDecision {
        let verdict = Verdict {
            decision: Decision::Block,
            matched_rule: None,
            matched_line: None,
            keep_state: false,
            quick: false,
            rules_evaluated: 0,
        };
        let flow_mods = self.mods_for(flow, Decision::Block);
        let latest = |r: &Option<Response>, key: &str| -> Option<String> {
            r.as_ref().and_then(|r| r.latest(key)).map(str::to_string)
        };
        self.audit.push(AuditRecord {
            time: now,
            flow: *flow,
            decision: Decision::Block,
            matched_line: None,
            from_cache: false,
            src_user: latest(&src_response, well_known::USER_ID),
            src_app: latest(&src_response, well_known::APP_NAME),
            dst_user: latest(&dst_response, well_known::USER_ID),
            dst_app: latest(&dst_response, well_known::APP_NAME),
            rule_maker: None,
            queries_issued,
        });
        self.audit.push_note(PolicyNote {
            category: "fail-closed".to_string(),
            line: 0,
            message: format!(
                "identity for {flow} unobtainable (src answered: {}, dst answered: {}): \
                 denied fail-closed, decision not cached",
                src_response.is_some(),
                dst_response.is_some(),
            ),
        });
        FlowDecision {
            flow: *flow,
            verdict,
            src_response,
            dst_response,
            from_cache: false,
            queries_issued,
            flow_mods,
        }
    }

    /// Lets interceptors answer a query on behalf of one end; `Some` means
    /// the query must not be forwarded to the backend.
    fn intercepted_response(&mut self, flow: &FiveTuple, target: QueryTarget) -> Option<Response> {
        let addr = match target {
            QueryTarget::Source => flow.src_ip,
            QueryTarget::Destination => flow.dst_ip,
        };
        self.interceptors
            .iter_mut()
            .find_map(|interceptor| interceptor.answer_for(addr, flow, target))
    }

    /// Applies every augmenter to one end's response in registration order.
    fn augment_response(&mut self, flow: &FiveTuple, target: QueryTarget, response: &mut Response) {
        for augmenter in &mut self.augmenters {
            if let Some(section) = augmenter.augment(flow, target, response) {
                response.augment(section);
            }
        }
    }

    fn mods_for(&self, flow: &FiveTuple, decision: Decision) -> Vec<FlowMod> {
        match &self.network {
            Some(network) => match decision {
                Decision::Pass => network.allow_flow_mods(
                    flow,
                    FLOW_ENTRY_PRIORITY,
                    self.config.flow_idle_timeout,
                    self.config.flow_hard_timeout,
                ),
                Decision::Block if self.config.install_drop_entries => {
                    network.drop_flow_mods(flow, FLOW_ENTRY_PRIORITY, self.config.flow_idle_timeout)
                }
                Decision::Block => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// The verify plane's counters: cache hits/misses/evictions and how many
    /// bundles resolved valid, expired, not-yet-valid, forged, or
    /// unparseable.
    pub fn verify_stats(&self) -> VerifyCacheStats {
        self.verify_cache.stats()
    }

    /// The shared `verify()` verdict cache (read access, for tests and
    /// experiments).
    pub fn verify_cache(&self) -> &VerifyCache {
        &self.verify_cache
    }

    /// The controller's state table (read access, for tests and experiments).
    pub fn state_table(&self) -> &StateTable {
        &self.state
    }

    /// Mutable state-table access for the sharding layer's reshard handoff
    /// (crate-internal: arbitrary external mutation would break the audit
    /// log's story of how each entry came to be).
    pub(crate) fn state_table_mut(&mut self) -> &mut StateTable {
        &mut self.state
    }

    /// Mutable audit-log access for the sharding layer's reshard handoff.
    pub(crate) fn audit_mut(&mut self) -> &mut AuditLog {
        &mut self.audit
    }
}

impl OpenFlowController for IdentxxController {
    fn packet_in(&mut self, event: &PacketIn, now: u64) -> ControllerDirective {
        let flow = event.header.five_tuple();
        let decision = self.decide(&flow, now);
        if decision.is_pass() {
            ControllerDirective::allow(decision.flow_mods)
        } else {
            ControllerDirective::deny_with(decision.flow_mods)
        }
    }

    fn name(&self) -> &str {
        "ident++"
    }
}

impl std::fmt::Debug for IdentxxController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdentxxController")
            .field("rules", &self.ruleset.rules.len())
            .field("backend", &self.backend.name())
            .field("audited", &self.audit.len())
            .field("compromised", &self.compromised)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use identxx_daemon::Daemon;
    use identxx_hostmodel::{Executable, Host};
    use identxx_netsim::{LinkProps, Topology};
    use identxx_proto::Ipv4Addr;

    fn skype(version: i64) -> Executable {
        Executable::new("/usr/bin/skype", "skype", version, "skype.com", "voip")
    }

    #[test]
    fn dead_rules_are_recorded_as_policy_notes() {
        let config = ControllerConfig::new().with_control_file(
            "00.control",
            "block from 10.0.0.1 to any\nblock all\npass quick all\npass from 10.0.0.2 to any\n",
        );
        let controller = IdentxxController::new(config).unwrap();
        let notes = controller.audit().policy_notes();
        assert!(
            notes.iter().any(|n| n.category == "shadowed-rule"),
            "{notes:?}"
        );
        // Rule 0 is superseded by the unconditional `block all`, rule 3 is
        // truncated behind `pass quick all`: both lines must be named.
        assert!(notes.iter().any(|n| n.line == 1), "{notes:?}");
        assert!(notes.iter().any(|n| n.line == 4), "{notes:?}");
    }

    #[test]
    fn coarse_cache_port_rules_are_noted_when_acknowledged() {
        let config = ControllerConfig::new()
            .with_control_file("00.control", "block all\npass from any to any port 80\n")
            .with_cache_granularity(identxx_pf::CacheGranularity::HostPair)
            .with_coarse_cache_acknowledged();
        let controller = IdentxxController::new(config).unwrap();
        let notes = controller.audit().policy_notes();
        assert!(
            notes
                .iter()
                .any(|n| n.category == "granularity-unsafe" && n.line == 2),
            "{notes:?}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "coarse_cache_acknowledged")]
    fn coarse_cache_port_rules_panic_in_debug_without_acknowledgement() {
        let config = ControllerConfig::new()
            .with_control_file("00.control", "block all\npass from any to any port 80\n")
            .with_cache_granularity(identxx_pf::CacheGranularity::HostPair);
        let _ = IdentxxController::new(config);
    }

    #[test]
    fn port_free_policy_is_safe_under_any_granularity() {
        let config = ControllerConfig::new()
            .with_control_file(
                "00.control",
                "block all\npass all with eq(@src[name], ssh)\n",
            )
            .with_cache_granularity(identxx_pf::CacheGranularity::HostPair);
        let controller = IdentxxController::new(config).unwrap();
        assert!(controller.audit().policy_notes().is_empty());
    }

    fn firefox() -> Executable {
        Executable::new("/usr/bin/firefox", "firefox", 300, "mozilla", "browser")
    }

    /// A controller over a 10-host star with the Fig. 2 skype policy.
    fn skype_controller() -> (IdentxxController, Vec<Ipv4Addr>) {
        let (topology, _sw, _ctrl, hosts) = Topology::star(10, LinkProps::default());
        let addrs: Vec<Ipv4Addr> = hosts
            .iter()
            .map(|h| topology.node(*h).unwrap().addr)
            .collect();
        let header = format!(
            "table <server> {{ {} }}\ntable <lan> {{ 10.0.0.0/16 }}\nblock all\n",
            addrs[0]
        );
        let skype_policy =
            "pass all with eq(@src[name], skype) with eq(@dst[name], skype) keep state\n";
        let footer = "block all with eq(@src[name], skype) with lt(@src[version], 200)\nblock from any to <server> with eq(@src[name], skype)\n";
        let config = ControllerConfig::new()
            .with_control_file("00-local-header.control", header)
            .with_control_file("50-skype.control", skype_policy)
            .with_control_file("99-local-footer.control", footer);
        let mut controller = IdentxxController::new(config)
            .unwrap()
            .with_network(NetworkMap::new(topology));
        for addr in &addrs {
            controller.register_daemon(Daemon::bare(Host::new(format!("host-{addr}"), *addr)));
        }
        (controller, addrs)
    }

    fn start_skype(
        controller: &mut IdentxxController,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        version: i64,
    ) -> FiveTuple {
        let flow = controller
            .daemons_mut()
            .get_mut(src)
            .unwrap()
            .host_mut()
            .open_connection("alice", skype(version), 41000, dst, 80);
        let pid = controller
            .daemons_mut()
            .get_mut(dst)
            .unwrap()
            .host_mut()
            .spawn("bob", skype(version));
        controller
            .daemons_mut()
            .get_mut(dst)
            .unwrap()
            .host_mut()
            .listen(pid, identxx_proto::IpProtocol::Tcp, 80);
        flow
    }

    #[test]
    fn skype_to_skype_is_allowed_and_installed_along_path() {
        let (mut controller, addrs) = skype_controller();
        let flow = start_skype(&mut controller, addrs[3], addrs[4], 210);
        let decision = controller.decide(&flow, 0);
        assert!(decision.is_pass());
        assert_eq!(decision.queries_issued, 2);
        assert!(!decision.from_cache);
        // Star topology: one switch, both directions → 2 flow mods.
        assert_eq!(decision.flow_mods.len(), 2);
        assert_eq!(controller.audit().len(), 1);
        assert_eq!(
            controller.audit().records()[0].src_app.as_deref(),
            Some("skype")
        );
    }

    #[test]
    fn old_skype_and_skype_to_server_are_blocked() {
        let (mut controller, addrs) = skype_controller();
        // Old version: blocked by the footer rule.
        let old_flow = start_skype(&mut controller, addrs[5], addrs[6], 150);
        let decision = controller.decide(&old_flow, 0);
        assert!(!decision.is_pass());
        // Skype to the server table entry: blocked even with a new version.
        let to_server = start_skype(&mut controller, addrs[7], addrs[0], 210);
        let decision = controller.decide(&to_server, 0);
        assert!(!decision.is_pass());
        // A drop entry is installed at the first-hop switch.
        assert_eq!(decision.flow_mods.len(), 1);
    }

    #[test]
    fn non_skype_traffic_is_blocked_by_default_deny() {
        let (mut controller, addrs) = skype_controller();
        let flow = controller
            .daemons_mut()
            .get_mut(addrs[1])
            .unwrap()
            .host_mut()
            .open_connection("bob", firefox(), 42000, addrs[2], 80);
        let decision = controller.decide(&flow, 0);
        assert!(!decision.is_pass());
    }

    #[test]
    fn state_table_serves_repeat_flows_without_queries() {
        let (mut controller, addrs) = skype_controller();
        let flow = start_skype(&mut controller, addrs[3], addrs[4], 210);
        let first = controller.decide(&flow, 0);
        assert!(!first.from_cache);
        let second = controller.decide(&flow, 10);
        assert!(second.from_cache);
        assert_eq!(second.queries_issued, 0);
        assert!(second.is_pass());
        // The reverse direction also hits the cache.
        let reverse = controller.decide(&flow.reversed(), 20);
        assert!(reverse.from_cache);
        assert!((controller.audit().cache_hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabling_state_table_forces_requery() {
        let (topology, _sw, _ctrl, hosts) = Topology::star(4, LinkProps::default());
        let addrs: Vec<Ipv4Addr> = hosts
            .iter()
            .map(|h| topology.node(*h).unwrap().addr)
            .collect();
        let config = ControllerConfig::new()
            .with_control_file(
                "00.control",
                "block all\npass all with eq(@src[name], skype) keep state\n",
            )
            .without_state_table();
        let mut controller = IdentxxController::new(config).unwrap();
        for addr in &addrs {
            controller.register_daemon(Daemon::bare(Host::new(format!("h{addr}"), *addr)));
        }
        let flow = controller
            .daemons_mut()
            .get_mut(addrs[0])
            .unwrap()
            .host_mut()
            .open_connection("alice", skype(210), 41000, addrs[1], 80);
        controller.decide(&flow, 0);
        let second = controller.decide(&flow, 10);
        assert!(!second.from_cache);
        assert_eq!(second.queries_issued, 2);
    }

    #[test]
    fn missing_daemon_fails_closed_under_default_deny() {
        let (mut controller, addrs) = skype_controller();
        // A flow from an address with no registered daemon.
        let stranger = FiveTuple::tcp([192, 168, 99, 99], 1234, addrs[0], 80);
        let decision = controller.decide(&stranger, 0);
        assert!(!decision.is_pass());
        assert_eq!(decision.queries_issued, 2);
        assert!(decision.src_response.is_none());
    }

    #[test]
    fn interceptor_answers_for_legacy_hosts() {
        let (mut controller, addrs) = skype_controller();
        // The destination host has no daemon: unregister it.
        controller.daemons_mut().unregister(addrs[4]);
        // But an interceptor answers on its behalf claiming skype.
        controller.add_interceptor(Box::new(crate::intercept::StaticInterceptor::new(
            "legacy",
            vec![addrs[4]],
            vec![("name".to_string(), "skype".to_string())],
        )));
        let flow = controller
            .daemons_mut()
            .get_mut(addrs[3])
            .unwrap()
            .host_mut()
            .open_connection("alice", skype(210), 41000, addrs[4], 80);
        let decision = controller.decide(&flow, 0);
        assert!(decision.is_pass());
        // Only the source daemon was actually queried.
        assert_eq!(decision.queries_issued, 1);
    }

    #[test]
    fn augmenter_sections_are_visible_to_policy() {
        let (topology, _sw, _ctrl, hosts) = Topology::star(4, LinkProps::default());
        let addrs: Vec<Ipv4Addr> = hosts
            .iter()
            .map(|h| topology.node(*h).unwrap().addr)
            .collect();
        let config = ControllerConfig::new().with_control_file(
            "00.control",
            "block all\npass all with eq(@dst[branch-accepts], 80)\n",
        );
        let mut controller = IdentxxController::new(config).unwrap();
        for addr in &addrs {
            controller.register_daemon(Daemon::bare(Host::new(format!("h{addr}"), *addr)));
        }
        controller.add_augmenter(Box::new(crate::intercept::PrefixAugmenter::new(
            "branch",
            Ipv4Addr::new(10, 0, 0, 0),
            16,
            vec![("branch-accepts".to_string(), "80".to_string())],
        )));
        let flow = FiveTuple::tcp(addrs[0], 40000, addrs[1], 80);
        let decision = controller.decide(&flow, 0);
        assert!(decision.is_pass());
        assert_eq!(
            decision.dst_response.unwrap().latest("branch-accepts"),
            Some("80")
        );
    }

    #[test]
    fn policy_update_clears_cache_and_changes_decisions() {
        let (mut controller, addrs) = skype_controller();
        let flow = start_skype(&mut controller, addrs[3], addrs[4], 210);
        assert!(controller.decide(&flow, 0).is_pass());
        // The administrator revokes the skype delegation file entirely.
        assert!(controller.remove_control_file("50-skype.control").unwrap());
        let decision = controller.decide(&flow, 10);
        assert!(!decision.is_pass());
        assert!(
            !decision.from_cache,
            "cache must be cleared on policy change"
        );
        // Updating a file also recompiles.
        controller
            .update_control_file("50-skype.control", "pass all keep state\n")
            .unwrap();
        assert!(controller.decide(&flow, 20).is_pass());
        // A malformed update is rejected and does not change the policy.
        assert!(controller
            .update_control_file("50-skype.control", "pass from\n")
            .is_err());
    }

    #[test]
    fn revocation_produces_delete_mods_and_clears_state() {
        let (mut controller, addrs) = skype_controller();
        let flow = start_skype(&mut controller, addrs[3], addrs[4], 210);
        assert!(controller.decide(&flow, 0).is_pass());
        assert_eq!(controller.state_table().len(), 1);
        let mods = controller.revoke_where(|r| r.src_app.as_deref() == Some("skype"));
        assert!(!mods.is_empty());
        assert!(mods
            .iter()
            .all(|m| m.command == identxx_openflow::FlowModCommand::Delete));
        assert_eq!(controller.state_table().len(), 0);
        // Revoking something that never matched produces nothing.
        assert!(controller
            .revoke_where(|r| r.src_app.as_deref() == Some("nonexistent"))
            .is_empty());
    }

    #[test]
    fn compromised_controller_allows_everything() {
        let (mut controller, addrs) = skype_controller();
        controller.set_compromised(true);
        assert!(controller.is_compromised());
        let flow = FiveTuple::tcp(addrs[1], 1, addrs[0], 445);
        let decision = controller.decide(&flow, 0);
        assert!(decision.is_pass());
        assert_eq!(decision.queries_issued, 0);
    }

    #[test]
    fn packet_in_interface_matches_decide() {
        let (mut controller, addrs) = skype_controller();
        let flow = start_skype(&mut controller, addrs[3], addrs[4], 210);
        let header = identxx_openflow::PacketHeader::from_flow(&flow, 1);
        let pin = PacketIn {
            switch: identxx_openflow::SwitchId(0),
            header,
            size: 1500,
        };
        let directive = controller.packet_in(&pin, 0);
        assert!(directive.forward_packet);
        assert!(!directive.flow_mods.is_empty());
        assert_eq!(OpenFlowController::name(&controller), "ident++");
    }

    #[test]
    fn decide_batch_matches_sequential_decisions() {
        let (mut batch_ctl, addrs) = skype_controller();
        let (mut seq_ctl, _) = skype_controller();
        let f1 = start_skype(&mut batch_ctl, addrs[3], addrs[4], 210);
        let _ = start_skype(&mut seq_ctl, addrs[3], addrs[4], 210);
        let f2 = start_skype(&mut batch_ctl, addrs[5], addrs[6], 150);
        let _ = start_skype(&mut seq_ctl, addrs[5], addrs[6], 150);
        let stranger = FiveTuple::tcp([192, 168, 9, 9], 1234, addrs[0], 80);
        let flows = vec![f1, f2, stranger];

        for now in [0u64, 10] {
            let batch = batch_ctl.decide_batch(&flows, now);
            let sequential: Vec<FlowDecision> =
                flows.iter().map(|f| seq_ctl.decide(f, now)).collect();
            for (b, s) in batch.iter().zip(&sequential) {
                assert_eq!(b.verdict.decision, s.verdict.decision);
                assert_eq!(b.verdict.matched_line, s.verdict.matched_line);
                assert_eq!(b.from_cache, s.from_cache);
                assert_eq!(b.queries_issued, s.queries_issued);
                assert_eq!(b.flow_mods, s.flow_mods);
            }
            assert_eq!(batch_ctl.backend_stats(), seq_ctl.backend_stats());
            assert_eq!(batch_ctl.audit().records(), seq_ctl.audit().records());
        }
        // The second round was served from the state table for the pass.
        assert!(batch_ctl.audit().cache_hit_ratio() > 0.0);
    }

    #[test]
    fn intra_batch_cache_aliases_match_sequential_decisions() {
        // A flow and its reverse in the SAME batch: sequentially the reverse
        // hits the state entry the forward flow just wrote (canonical keys
        // cover both directions) and inherits Pass; the batch must reach the
        // same decisions even though both flows were queried up front.
        let scripted = || {
            Box::new(
                crate::backend::RecordingBackend::new()
                    .with_answer(
                        Ipv4Addr::new(10, 0, 0, 1),
                        vec![("name".to_string(), "firefox".to_string())],
                    )
                    .with_answer(
                        Ipv4Addr::new(10, 0, 0, 2),
                        vec![("name".to_string(), "unknownd".to_string())],
                    ),
            )
        };
        let config = || {
            ControllerConfig::new().with_control_file(
                "00.control",
                "block all\npass all with eq(@src[name], firefox) keep state\n",
            )
        };
        let mut batched = IdentxxController::new(config())
            .unwrap()
            .with_backend(scripted());
        let mut sequential = IdentxxController::new(config())
            .unwrap()
            .with_backend(scripted());

        let forward = FiveTuple::tcp([10, 0, 0, 1], 41_000, [10, 0, 0, 2], 80);
        let flows = [forward, forward.reversed()];
        let batch = batched.decide_batch(&flows, 0);
        let seq: Vec<FlowDecision> = flows.iter().map(|f| sequential.decide(f, 0)).collect();
        for (b, s) in batch.iter().zip(&seq) {
            assert_eq!(b.verdict.decision, s.verdict.decision);
            assert_eq!(b.from_cache, s.from_cache);
        }
        assert!(batch[0].is_pass() && !batch[0].from_cache);
        assert!(
            batch[1].is_pass() && batch[1].from_cache,
            "the reverse flow must be served from the entry its forward \
             flow wrote, exactly as sequential deciding would"
        );
        // The one documented divergence is accounting: the batch had already
        // queried the reverse flow before the alias hit.
        assert_eq!(sequential.backend_stats().queries_sent, 2);
        assert_eq!(batched.backend_stats().queries_sent, 4);
    }

    #[test]
    fn fail_closed_denies_half_answered_flows_and_recovers_uncached() {
        // The source end answers "firefox" — enough for the pass rule — but
        // the destination daemon is unreachable. Fail-closed mode must deny
        // anyway, leave a policy note, and *not* cache the deny, so the flow
        // passes the moment the destination answers again.
        let config = || {
            ControllerConfig::new()
                .with_control_file(
                    "00.control",
                    "block all\npass all with eq(@src[name], firefox) keep state\n",
                )
                .with_fail_closed_on_unanswered()
        };
        let half_answered = Box::new(crate::backend::RecordingBackend::new().with_answer(
            Ipv4Addr::new(10, 0, 0, 1),
            vec![("name".to_string(), "firefox".to_string())],
        ));
        let mut controller = IdentxxController::new(config())
            .unwrap()
            .with_backend(half_answered);
        let flow = FiveTuple::tcp([10, 0, 0, 1], 41_000, [10, 0, 0, 2], 80);
        let denied = controller.decide(&flow, 0);
        assert!(!denied.is_pass());
        assert_eq!(denied.verdict.matched_line, None);
        assert_eq!(denied.queries_issued, 2);
        assert!(denied.src_response.is_some() && denied.dst_response.is_none());
        assert!(controller
            .audit()
            .policy_notes()
            .iter()
            .any(|n| n.category == "fail-closed"));
        assert_eq!(controller.audit().records().len(), 1);
        assert_eq!(controller.audit().records()[0].decision, Decision::Block);
        // Not cached: the state table holds nothing for this flow.
        assert_eq!(controller.state_table().len(), 0);
        // The fault clears (the destination answers again): the very next
        // decision follows the policy, no stale deny in the way.
        controller.set_backend(Box::new(
            crate::backend::RecordingBackend::new()
                .with_answer(
                    Ipv4Addr::new(10, 0, 0, 1),
                    vec![("name".to_string(), "firefox".to_string())],
                )
                .with_answer(
                    Ipv4Addr::new(10, 0, 0, 2),
                    vec![("name".to_string(), "httpd".to_string())],
                ),
        ));
        let recovered = controller.decide(&flow, 10);
        assert!(recovered.is_pass() && !recovered.from_cache);
        let repeat = controller.decide(&flow, 20);
        assert!(repeat.is_pass() && repeat.from_cache);
    }

    #[test]
    fn fail_closed_applies_to_batched_rounds_too() {
        let backend = || {
            Box::new(
                crate::backend::RecordingBackend::new()
                    .with_answer(
                        Ipv4Addr::new(10, 0, 0, 1),
                        vec![("name".to_string(), "firefox".to_string())],
                    )
                    .with_answer(
                        Ipv4Addr::new(10, 0, 0, 2),
                        vec![("name".to_string(), "httpd".to_string())],
                    ),
            )
        };
        let config = || {
            ControllerConfig::new()
                .with_control_file(
                    "00.control",
                    "block all\npass all with eq(@src[name], firefox) keep state\n",
                )
                .with_fail_closed_on_unanswered()
        };
        let mut batched = IdentxxController::new(config())
            .unwrap()
            .with_backend(backend());
        let mut sequential = IdentxxController::new(config())
            .unwrap()
            .with_backend(backend());
        let answered = FiveTuple::tcp([10, 0, 0, 1], 41_000, [10, 0, 0, 2], 80);
        // 10.0.0.3 is scripted nowhere: its source query goes unanswered.
        let orphaned = FiveTuple::tcp([10, 0, 0, 3], 41_001, [10, 0, 0, 2], 80);
        let flows = [answered, orphaned];
        let batch = batched.decide_batch(&flows, 0);
        let seq: Vec<FlowDecision> = flows.iter().map(|f| sequential.decide(f, 0)).collect();
        for (b, s) in batch.iter().zip(&seq) {
            assert_eq!(b.verdict.decision, s.verdict.decision);
            assert_eq!(b.verdict.matched_line, s.verdict.matched_line);
            assert_eq!(b.from_cache, s.from_cache);
        }
        assert!(batch[0].is_pass());
        assert!(!batch[1].is_pass());
        assert!(batched
            .audit()
            .policy_notes()
            .iter()
            .any(|n| n.category == "fail-closed"));
    }

    #[test]
    fn compiled_and_interpreted_evaluation_agree() {
        let (mut controller, addrs) = skype_controller();
        let flow = start_skype(&mut controller, addrs[3], addrs[4], 210);
        let decision = controller.decide(&flow, 0);
        assert!(decision.is_pass());
        let compiled = controller.evaluate_only(
            &flow,
            decision.src_response.as_ref(),
            decision.dst_response.as_ref(),
        );
        let interpreted = controller.evaluate_interpreted(
            &flow,
            decision.src_response.as_ref(),
            decision.dst_response.as_ref(),
        );
        assert_eq!(compiled.decision, interpreted.decision);
        assert_eq!(compiled.matched_rule, interpreted.matched_rule);
        assert_eq!(compiled.keep_state, interpreted.keep_state);
        assert!(controller.compiled_policy().compiled_rule_count() >= 1);
    }

    #[test]
    fn forged_daemon_response_can_escalate_but_only_for_that_user() {
        // §5.3: a compromised end-host can send false responses; it gains the
        // network privileges its claims entitle it to, but the controller's
        // audit log still attributes the flow to the claimed identity.
        let (mut controller, addrs) = skype_controller();
        controller
            .daemons_mut()
            .get_mut(addrs[8])
            .unwrap()
            .set_forged_response(Some(vec![
                ("name".to_string(), "skype".to_string()),
                ("version".to_string(), "210".to_string()),
            ]));
        // Destination really runs skype.
        let pid = controller
            .daemons_mut()
            .get_mut(addrs[9])
            .unwrap()
            .host_mut()
            .spawn("bob", skype(210));
        controller
            .daemons_mut()
            .get_mut(addrs[9])
            .unwrap()
            .host_mut()
            .listen(pid, identxx_proto::IpProtocol::Tcp, 80);
        let forged_flow = FiveTuple::tcp(addrs[8], 50000, addrs[9], 80);
        let decision = controller.decide(&forged_flow, 0);
        // The forged claim of "skype" passes the skype policy…
        assert!(decision.is_pass());
        // …but the audit trail records exactly what was claimed, enabling
        // later revocation of everything that host was allowed to do.
        let revoked = controller.revoke_where(|r| r.flow.src_ip == addrs[8]);
        assert!(!revoked.is_empty());
    }

    use identxx_crypto::{sign_bundle_windowed, KeyPair};

    /// The items every delegation bundle in these tests covers.
    const DELEGATED_REQS: &str = "pass all";

    /// A backend scripting both ends of `flow` with a signed delegation
    /// bundle for the given source app (destination runs plain httpd).
    /// An answer carrying a `Secur`-signed bundle over
    /// `(exe_hash, app, DELEGATED_REQS)`, valid in `[not_before, not_after)`.
    /// Signing is deterministic, so equal arguments give the identical
    /// bundle text.
    fn signed_answer(
        signer: &KeyPair,
        not_before: u64,
        not_after: u64,
        app: &str,
        exe_hash: &str,
    ) -> Vec<(String, String)> {
        let bundle = sign_bundle_windowed(
            signer,
            "Secur",
            not_before,
            not_after,
            &[exe_hash, app, DELEGATED_REQS],
        );
        vec![
            ("name".to_string(), app.to_string()),
            ("exe-hash".to_string(), exe_hash.to_string()),
            ("requirements".to_string(), DELEGATED_REQS.to_string()),
            ("req-sig".to_string(), bundle.to_hex()),
        ]
    }

    fn delegation_backend(
        signer: &KeyPair,
        not_before: u64,
        not_after: u64,
        tamper: bool,
    ) -> Box<crate::backend::RecordingBackend> {
        let mut answer = signed_answer(signer, not_before, not_after, "research-app", "f00dfeed");
        if tamper {
            answer[0].1 = "imposter-app".to_string();
        }
        Box::new(
            crate::backend::RecordingBackend::new()
                .with_answer(Ipv4Addr::new(10, 0, 0, 1), answer)
                .with_answer(
                    Ipv4Addr::new(10, 0, 0, 2),
                    vec![("name".to_string(), "httpd".to_string())],
                ),
        )
    }

    fn delegation_config(signer: &KeyPair) -> ControllerConfig {
        ControllerConfig::new()
            .with_control_file(
                "00.control",
                "block all\npass all with verify(@src[req-sig], Secur, @src[exe-hash], \
                 @src[name], @src[requirements])\n",
            )
            .with_trusted_key("Secur", signer.public())
            .without_state_table()
    }

    #[test]
    fn verify_plane_notes_fresh_cached_and_expired_outcomes() {
        let signer = KeyPair::from_seed(b"Secur");
        let mut controller = IdentxxController::new(delegation_config(&signer))
            .unwrap()
            .with_backend(delegation_backend(&signer, 100, 1_000, false));
        let flow = FiveTuple::tcp([10, 0, 0, 1], 41_000, [10, 0, 0, 2], 80);

        // Before the window: rejected, no curve math spent.
        assert!(!controller.decide(&flow, 50).is_pass());
        // Inside the window: fresh verification, then a cache hit.
        assert!(controller.decide(&flow, 100).is_pass());
        assert!(controller.decide(&flow, 500).is_pass());
        // At exactly `not_after` the bundle is expired (half-open window) —
        // the cached valid verdict must not outlive it.
        assert!(!controller.decide(&flow, 1_000).is_pass());

        let stats = controller.verify_stats();
        assert_eq!(stats.not_yet_valid, 1);
        assert_eq!(stats.misses, 1, "one fresh verification for the bundle");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.expired, 1);

        let notes = controller.audit().policy_notes();
        for category in [
            "verify-not-yet-valid",
            "verify-fresh",
            "verify-cached",
            "verify-expired",
        ] {
            assert!(
                notes
                    .iter()
                    .any(|n| n.category == category && n.message.contains("key 'Secur'")),
                "missing {category} note: {notes:?}"
            );
        }
    }

    #[test]
    fn verify_plane_notes_forged_bundles() {
        let signer = KeyPair::from_seed(b"Secur");
        // The host claims a different app name than the bundle signs over.
        let mut controller = IdentxxController::new(delegation_config(&signer))
            .unwrap()
            .with_backend(delegation_backend(&signer, 0, 1_000, true));
        let flow = FiveTuple::tcp([10, 0, 0, 1], 41_000, [10, 0, 0, 2], 80);
        assert!(!controller.decide(&flow, 10).is_pass());
        assert_eq!(controller.verify_stats().forged, 1);
        assert!(controller
            .audit()
            .policy_notes()
            .iter()
            .any(|n| n.category == "verify-forged"));
    }

    #[test]
    fn unparseable_signature_is_distinguished_from_forged() {
        let signer = KeyPair::from_seed(b"Secur");
        let backend = Box::new(
            crate::backend::RecordingBackend::new()
                .with_answer(
                    Ipv4Addr::new(10, 0, 0, 1),
                    vec![
                        ("name".to_string(), "research-app".to_string()),
                        ("exe-hash".to_string(), "f00dfeed".to_string()),
                        ("requirements".to_string(), DELEGATED_REQS.to_string()),
                        ("req-sig".to_string(), "zz-not-even-hex".to_string()),
                    ],
                )
                .with_answer(
                    Ipv4Addr::new(10, 0, 0, 2),
                    vec![("name".to_string(), "httpd".to_string())],
                ),
        );
        let mut controller = IdentxxController::new(delegation_config(&signer))
            .unwrap()
            .with_backend(backend);
        let flow = FiveTuple::tcp([10, 0, 0, 1], 41_000, [10, 0, 0, 2], 80);
        assert!(!controller.decide(&flow, 10).is_pass());
        let stats = controller.verify_stats();
        assert_eq!(stats.unparseable, 1);
        assert_eq!(stats.forged, 0);
        let notes = controller.audit().policy_notes();
        assert!(notes.iter().any(|n| n.category == "verify-unparseable"));
        assert!(notes.iter().all(|n| n.category != "verify-forged"));
    }

    fn verify_notes(controller: &IdentxxController) -> Vec<(String, String)> {
        controller
            .audit()
            .policy_notes()
            .iter()
            .filter(|n| n.category.starts_with("verify-"))
            .map(|n| (n.category.clone(), n.message.clone()))
            .collect()
    }

    #[test]
    fn decide_batch_verifies_each_distinct_bundle_once() {
        let signer = KeyPair::from_seed(b"Secur");
        // Five distinct flows from the same delegated app: the batch's
        // responses all carry the identical bundle. The first evaluation
        // verifies it; the other four hit the cache.
        let answer = signed_answer(&signer, 0, 1_000, "research-app", "f00dfeed");
        let mut backend = crate::backend::RecordingBackend::new().with_answer(
            Ipv4Addr::new(10, 0, 0, 200),
            vec![("name".to_string(), "httpd".to_string())],
        );
        let mut flows = Vec::new();
        for i in 0..5u8 {
            let src = Ipv4Addr::new(10, 0, 0, 10 + i);
            backend = backend.with_answer(src, answer.clone());
            flows.push(FiveTuple::tcp(src, 41_000, [10, 0, 0, 200], 80));
        }
        let mut controller = IdentxxController::new(delegation_config(&signer))
            .unwrap()
            .with_backend(Box::new(backend));
        let decisions = controller.decide_batch(&flows, 10);
        assert!(decisions.iter().all(FlowDecision::is_pass));
        let stats = controller.verify_stats();
        assert_eq!(
            stats.misses, 1,
            "one batch, one distinct bundle, one round of curve math: {stats:?}"
        );
        assert_eq!(
            stats.hits, 4,
            "every later evaluation served from the cache"
        );
        let notes = verify_notes(&controller);
        let count = |category: &str| notes.iter().filter(|(c, _)| c == category).count();
        assert_eq!(count("verify-fresh"), 1);
        assert_eq!(count("verify-cached"), 4);
        assert_eq!(notes.len(), 5);
    }

    #[test]
    fn decide_batch_skips_bundles_the_policy_never_reads() {
        let signer = KeyPair::from_seed(b"Secur");
        // Eight flows from two delegated apps, each to its own destination
        // whose answer carries a validly signed bundle too. The policy
        // verifies only `@src`, so only the two distinct `@src` bundles may
        // cost curve math.
        let apps = [("app-a", "aaaa0001"), ("app-b", "bbbb0002")];
        let mut backend = crate::backend::RecordingBackend::new();
        let mut flows = Vec::new();
        for i in 0..8u8 {
            let (app, exe) = apps[usize::from(i % 2)];
            let src = Ipv4Addr::new(10, 0, 1, i);
            let dst = Ipv4Addr::new(10, 0, 2, i);
            let dst_exe = format!("dddd{i:04}");
            backend = backend
                .with_answer(src, signed_answer(&signer, 0, 1_000, app, exe))
                .with_answer(dst, signed_answer(&signer, 0, 1_000, "httpd", &dst_exe));
            flows.push(FiveTuple::tcp(src, 41_000, dst, 80));
        }
        let mut controller = IdentxxController::new(delegation_config(&signer))
            .unwrap()
            .with_backend(Box::new(backend));
        let decisions = controller.decide_batch(&flows, 10);
        assert!(decisions.iter().all(FlowDecision::is_pass));
        let stats = controller.verify_stats();
        assert_eq!(stats.misses, 2, "only the @src bundles: {stats:?}");
        assert_eq!(stats.hits, 6);
        assert_eq!(controller.verify_cache().len(), 2);
    }

    #[test]
    fn decide_loop_and_decide_batch_verify_alike() {
        let signer = KeyPair::from_seed(b"Secur");
        // Four delegated apps and one imposter (its name differs from the
        // one its bundle signs), spread over 24 sources; every destination
        // also answers with a signed bundle the policy never reads.
        let mut src_answers: Vec<Vec<(String, String)>> = (0..4)
            .map(|a| signed_answer(&signer, 0, 1_000, &format!("app-{a}"), &format!("e{a:07}")))
            .collect();
        let mut imposter = signed_answer(&signer, 0, 1_000, "app-0", "e0000000");
        imposter[0].1 = "imposter".to_string();
        src_answers.push(imposter);
        let dst_answers: Vec<_> = (0..3)
            .map(|d| signed_answer(&signer, 0, 1_000, "httpd", &format!("d{d:07}")))
            .collect();
        let mut flows = Vec::new();
        let mut backend_script = Vec::new();
        for i in 0..24u8 {
            let src = Ipv4Addr::new(10, 0, 1, i);
            let dst = Ipv4Addr::new(10, 0, 2, i % 3);
            backend_script.push((src, src_answers[usize::from(i % 5)].clone()));
            backend_script.push((dst, dst_answers[usize::from(i % 3)].clone()));
            flows.push(FiveTuple::tcp(src, 41_000, dst, 80));
        }
        let controller = || {
            let backend = backend_script.iter().cloned().fold(
                crate::backend::RecordingBackend::new(),
                |b, (host, pairs)| b.with_answer(host, pairs),
            );
            IdentxxController::new(delegation_config(&signer))
                .unwrap()
                .with_backend(Box::new(backend))
        };

        let mut looped = controller();
        let looped_passes: Vec<bool> = flows
            .iter()
            .map(|f| looped.decide(f, 10).is_pass())
            .collect();
        assert_eq!(looped_passes.iter().filter(|p| !**p).count(), 4);
        assert!(looped.verify_stats().forged > 0);
        for size in [1, 16] {
            let mut batched = controller();
            let batched_passes: Vec<bool> = flows
                .chunks(size)
                .flat_map(|chunk| batched.decide_batch(chunk, 10))
                .map(|d| d.is_pass())
                .collect();
            assert_eq!(batched_passes, looped_passes, "batch size {size}");
            assert_eq!(
                batched.verify_stats(),
                looped.verify_stats(),
                "batch size {size}"
            );
            assert_eq!(
                verify_notes(&batched),
                verify_notes(&looped),
                "batch size {size}"
            );
        }
    }

    #[test]
    fn verify_cache_survives_policy_recompiles() {
        let signer = KeyPair::from_seed(b"Secur");
        let mut controller = IdentxxController::new(delegation_config(&signer))
            .unwrap()
            .with_backend(delegation_backend(&signer, 0, 1_000, false));
        let flow = FiveTuple::tcp([10, 0, 0, 1], 41_000, [10, 0, 0, 2], 80);
        assert!(controller.decide(&flow, 10).is_pass());
        assert_eq!(controller.verify_stats().misses, 1);
        // A policy update touches the ruleset, not the bundle's verdict —
        // the re-decided flow hits the verify cache.
        controller
            .update_control_file("10-extra.control", "block from 10.9.9.9 to any\n")
            .unwrap();
        assert!(controller.decide(&flow, 20).is_pass());
        let stats = controller.verify_stats();
        assert_eq!(stats.misses, 1, "recompile must not clear the verify cache");
        assert_eq!(stats.hits, 1);
    }
}
