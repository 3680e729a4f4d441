//! Horizontal sharding of the ident++ controller.
//!
//! One [`IdentxxController`] serializes every flow-setup decision through a
//! single policy/state/audit pipeline. That is faithful to the paper's
//! prototype, but an enterprise controller tier answering millions of users
//! needs the property the paper's *delegation* argument rests on at network
//! scale too: the decision plane must grow horizontally without the shards
//! coordinating on the hot path. [`ShardedController`] provides exactly
//! that —
//!
//! * a [`ShardRouter`]: a consistent-hash ring over
//!   [`CacheGranularity`]-normalized, direction-independent flow keys, so a
//!   flow and its reverse (and every flow that could share a state-table
//!   entry with it) always land on the same shard;
//! * N fully independent [`IdentxxController`] shards, each owning its own
//!   compiled policy, `Box<dyn QueryBackend>`, state table, and audit log —
//!   no state is shared between shards, so
//!   [`ShardedController::decide_stream`] can keep every busy shard's query
//!   rounds in flight at once, as futures joined on the calling thread;
//! * merged read-side views: [`ShardedController::backend_stats`] *sums*
//!   per-shard transport counters (each shard really sent its queries — the
//!   merged view is total work, unlike a latency view where max would be
//!   the right merge), and [`ShardedController::merged_audit`] interleaves
//!   the per-shard audit logs by decision time (ties broken by shard slot
//!   and log position, so the merge is a total order);
//! * **elastic membership**: [`ShardedController::add_shard`],
//!   [`ShardedController::drain_shard`], and
//!   [`ShardedController::remove_shard`] reshape the tier live. Ring points
//!   are hashed from stable shard ids, never slots, so a membership change
//!   hands off exactly the captured key partition — state entries and audit
//!   records move verbatim to their new owner — and decisions remain
//!   identical to a never-resharded tier's (DESIGN.md §9, the E12 drills).
//!
//! Shard-local state is an invariant, not an optimization: because the
//! router key is at least as coarse as every state-table key, a cache entry
//! written by one shard can never be consulted (hit *or* missed) by
//! another, so a sharded controller reaches the same decisions as a single
//! one — only audit interleaving and per-shard query counts differ. See
//! DESIGN.md §6.

use identxx_daemon::Daemon;
use identxx_pf::{CacheGranularity, PfError};
use identxx_proto::FiveTuple;

use identxx_crypto::VerifyCacheStats;

use crate::audit::AuditRecord;
use crate::backend::{BackendStats, QueryBackend};
use crate::config::ControllerConfig;
use crate::controller::{FlowDecision, IdentxxController};
use crate::install::NetworkMap;

/// Virtual nodes per shard on the consistent-hash ring. A shard's share of
/// the hash space concentrates around 1/N with relative spread ∝ 1/√vnodes;
/// 512 keeps the worst shard within a few percent of the mean (the shard
/// tests assert balance), while the ring stays a few thousand `u64`s —
/// routing is one binary search.
const VNODES_PER_SHARD: usize = 512;

/// 64-bit FNV-1a with a splitmix64 finalizer. Stability matters as much as
/// quality: the router must hash identically across processes and releases
/// (a resharded deployment re-keys deliberately, never accidentally), which
/// rules out `std::collections::hash_map::RandomState`; and FNV alone
/// clusters on short near-sequential inputs like (shard, vnode) pairs, which
/// the finalizer's avalanche fixes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer.
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// Consistent-hash router assigning flows to shards.
///
/// The routing key is derived from the flow with the shard-locality rule:
/// **any two flows that could share a state-table entry under the
/// configured [`CacheGranularity`] must produce the same routing key.**
/// Concretely:
///
/// * [`CacheGranularity::ExactFiveTuple`] routes by the canonical
///   (direction-independent) 5-tuple — the cache key itself.
/// * [`CacheGranularity::HostPair`] and
///   [`CacheGranularity::HostPairDstPort`] route by the unordered host pair
///   plus protocol. The dst-port granularity cannot route finer: its
///   primary key is direction-dependent and reverse traffic hits through an
///   exact secondary key, so the finest key that is both
///   direction-independent and alias-closed is the host pair.
///
/// Consistent hashing (a ring of 512 virtual points per shard) rather than
/// `hash % n` so growing the shard tier remaps only the keys captured by
/// the new shard's points (≈ 1/(n+1) of the space), instead of reshuffling
/// almost everything — resharding invalidates that fraction of shard-local
/// caches, not all of them.
///
/// Ring points are hashed from each member's **stable id**, never its slot:
/// [`ShardRouter::with_added`] and [`ShardRouter::with_removed`] therefore
/// leave every surviving member's points exactly where they were, which is
/// what makes live resharding a bounded handoff instead of a reshuffle. A
/// fresh `ShardRouter::new(n, …)` assigns ids `0..n`, so routers built the
/// old way keep routing exactly as before.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    granularity: CacheGranularity,
    /// Stable member ids, in slot order (a slot is an index into this list).
    members: Vec<u64>,
    /// `(ring position, slot)`, sorted by position.
    ring: Vec<(u64, usize)>,
}

impl ShardRouter {
    /// Builds a router over `shards` shards (stable ids `0..shards`) for a
    /// given cache granularity.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize, granularity: CacheGranularity) -> ShardRouter {
        assert!(shards > 0, "a controller tier needs at least one shard");
        Self::from_members((0..shards as u64).collect(), granularity)
    }

    /// Builds a router over an explicit member-id list (slot order).
    fn from_members(members: Vec<u64>, granularity: CacheGranularity) -> ShardRouter {
        let mut ring = Vec::with_capacity(members.len() * VNODES_PER_SHARD);
        for (slot, &id) in members.iter().enumerate() {
            for vnode in 0..VNODES_PER_SHARD {
                let mut point = [0u8; 16];
                point[..8].copy_from_slice(&id.to_be_bytes());
                point[8..].copy_from_slice(&(vnode as u64).to_be_bytes());
                ring.push((fnv1a(&point), slot));
            }
        }
        ring.sort_unstable();
        // On the (astronomically unlikely) collision of two points, keep the
        // lower slot — deterministically, thanks to the sort above.
        ring.dedup_by_key(|(point, _)| *point);
        ShardRouter {
            granularity,
            members,
            ring,
        }
    }

    /// A router with one more member, carrying the given stable id. Every
    /// key either stays on its old member or moves to the new one — never
    /// between survivors (≈ 1/(n+1) of the space moves).
    ///
    /// # Panics
    ///
    /// Panics when `id` is already a member.
    pub fn with_added(&self, id: u64) -> ShardRouter {
        assert!(
            !self.members.contains(&id),
            "shard id {id} is already a ring member"
        );
        let mut members = self.members.clone();
        members.push(id);
        Self::from_members(members, self.granularity)
    }

    /// A router without the member at `slot`. Only the departing member's
    /// keys move (to the survivors that now own its ring arcs); every other
    /// key keeps its member.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range or names the last member.
    pub fn with_removed(&self, slot: usize) -> ShardRouter {
        assert!(slot < self.members.len(), "no member at slot {slot}");
        assert!(
            self.members.len() > 1,
            "a controller tier needs at least one shard"
        );
        let mut members = self.members.clone();
        members.remove(slot);
        Self::from_members(members, self.granularity)
    }

    /// Number of shards the router spreads over.
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// The members' stable ids, in slot order.
    pub fn shard_ids(&self) -> &[u64] {
        &self.members
    }

    /// The granularity the routing key is normalized under.
    pub fn granularity(&self) -> CacheGranularity {
        self.granularity
    }

    /// The direction-independent routing key for a flow (see the type-level
    /// rules). `routing_key(flow) == routing_key(flow.reversed())` for every
    /// flow and granularity.
    pub fn routing_key(&self, flow: &FiveTuple) -> FiveTuple {
        match self.granularity {
            CacheGranularity::ExactFiveTuple => flow.canonical(),
            CacheGranularity::HostPair | CacheGranularity::HostPairDstPort => {
                CacheGranularity::HostPair.key(flow)
            }
        }
    }

    /// The shard **slot** a flow belongs to (an index into
    /// [`ShardRouter::shard_ids`]).
    pub fn route(&self, flow: &FiveTuple) -> usize {
        let key = self.routing_key(flow);
        let mut bytes = [0u8; 13];
        bytes[..4].copy_from_slice(&key.src_ip.0.to_be_bytes());
        bytes[4..8].copy_from_slice(&key.dst_ip.0.to_be_bytes());
        bytes[8..10].copy_from_slice(&key.src_port.to_be_bytes());
        bytes[10..12].copy_from_slice(&key.dst_port.to_be_bytes());
        bytes[12] = key.protocol.number();
        let hash = fnv1a(&bytes);
        // First ring point at or after the key's position, wrapping.
        let at = self.ring.partition_point(|(point, _)| *point < hash);
        let (_, slot) = self.ring[at % self.ring.len()];
        slot
    }

    /// The **stable id** of the shard a flow belongs to. Unlike the slot,
    /// the id survives membership changes, which is what reshard handoff
    /// routes by.
    pub fn route_id(&self, flow: &FiveTuple) -> u64 {
        self.members[self.route(flow)]
    }
}

/// N independent [`IdentxxController`] shards behind a [`ShardRouter`].
///
/// Every shard compiles the same [`ControllerConfig`] and owns its own query
/// backend, state table, and audit log; the router keeps each flow (and
/// everything that could alias it in the cache) on one shard. Decisions are
/// therefore identical to a single controller's — `tests/sharding.rs` pins
/// this. The tier is single-threaded: [`ShardedController::decide_stream`]
/// turns each busy shard's share into one future of query rounds and joins
/// them on the calling thread. Network rounds overlap on the runtime's
/// reactor, each under its own deadline; in-process rounds are ready on
/// their first poll and run back to back, with no cross-thread handoff.
pub struct ShardedController {
    shards: Vec<IdentxxController>,
    /// Stable id per shard, parallel to `shards`. Ids are never reused, so
    /// a shard added after a removal gets fresh ring points.
    ids: Vec<u64>,
    /// Routes over the **active** ids; a drained shard's id is absent even
    /// while its controller still sits in `shards` awaiting removal.
    router: ShardRouter,
    next_id: u64,
    /// Bumped on every membership change (add / drain / remove): the
    /// routing epoch drills assert against.
    epoch: u64,
    /// Transport counters of removed shards, folded in so tier totals stay
    /// monotone across removals.
    retired_stats: BackendStats,
    /// Verify-plane counters of removed shards, same monotonicity story.
    retired_verify_stats: VerifyCacheStats,
}

/// Adds one shard's verify-plane counters into an accumulator (counters are
/// per-shard work, so the tier view sums, exactly like [`BackendStats`]).
fn fold_verify_stats(acc: &mut VerifyCacheStats, stats: VerifyCacheStats) {
    acc.hits += stats.hits;
    acc.misses += stats.misses;
    acc.evictions += stats.evictions;
    acc.valid += stats.valid;
    acc.expired += stats.expired;
    acc.not_yet_valid += stats.not_yet_valid;
    acc.forged += stats.forged;
    acc.unparseable += stats.unparseable;
}

impl ShardedController {
    /// Builds `shard_count` shards from one configuration, each compiling
    /// the policy independently and starting with the default in-process
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero.
    pub fn new(config: ControllerConfig, shard_count: usize) -> Result<ShardedController, PfError> {
        assert!(
            shard_count > 0,
            "a controller tier needs at least one shard"
        );
        let router = ShardRouter::new(shard_count, config.cache_granularity);
        let shards = (0..shard_count)
            .map(|_| IdentxxController::new(config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedController {
            shards,
            ids: (0..shard_count as u64).collect(),
            router,
            next_id: shard_count as u64,
            epoch: 0,
            retired_stats: BackendStats::default(),
            retired_verify_stats: VerifyCacheStats::default(),
        })
    }

    /// Attaches a network map to every shard (builder style); any shard can
    /// install entries along any path.
    pub fn with_network(mut self, network: NetworkMap) -> Self {
        self.shards = self
            .shards
            .into_iter()
            .map(|shard| shard.with_network(network.clone()))
            .collect();
        self
    }

    /// Gives each shard its own query backend (builder style): the factory
    /// is called once per shard, in shard order. This is the seam the
    /// deployment shape flows through — e.g. every shard gets its own
    /// [`crate::backend::NetworkBackend`] with its own connection pool, so
    /// shards never contend on a client.
    pub fn with_backends(
        mut self,
        mut factory: impl FnMut(usize) -> Box<dyn QueryBackend>,
    ) -> Self {
        for (index, shard) in self.shards.iter_mut().enumerate() {
            shard.set_backend(factory(index));
        }
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shard index a flow routes to (an index into
    /// [`ShardedController::shards`], valid until the next membership
    /// change).
    pub fn shard_for(&self, flow: &FiveTuple) -> usize {
        self.slot_of(self.router.route_id(flow))
    }

    /// The stable id of the shard at a slot.
    pub fn shard_id(&self, slot: usize) -> u64 {
        self.ids[slot]
    }

    /// Whether the shard at a slot has been drained (owns no keys; awaiting
    /// removal).
    pub fn is_drained(&self, slot: usize) -> bool {
        !self.router.shard_ids().contains(&self.ids[slot])
    }

    /// The routing epoch: bumped on every membership change, so a drill can
    /// assert which routing generation a round of decisions ran under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Maps a stable shard id to its current slot in `shards`.
    fn slot_of(&self, id: u64) -> usize {
        self.ids
            .iter()
            .position(|&member| member == id)
            .expect("every routable id has a controller slot")
    }

    /// A shard, by index.
    pub fn shard(&self, index: usize) -> &IdentxxController {
        &self.shards[index]
    }

    /// Mutable access to a shard, by index.
    pub fn shard_mut(&mut self, index: usize) -> &mut IdentxxController {
        &mut self.shards[index]
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[IdentxxController] {
        &self.shards
    }

    /// Registers an end-host daemon with **every** shard's in-process
    /// backend (cloned per shard): any flow involving the host routes to
    /// exactly one shard, but which one depends on the peer, so each shard
    /// must be able to query it. When the shards share one daemon directory
    /// (`SharedDirectoryBackend`), the daemon is registered once through the
    /// shared handle and every shard sees it immediately — the arrival half
    /// of population churn.
    ///
    /// # Panics
    ///
    /// Panics when a shard runs a non-in-process backend (register endpoints
    /// on the shard's `NetworkBackend` instead, via
    /// [`ShardedController::shard_mut`]).
    pub fn register_daemon(&mut self, daemon: Daemon) {
        if let Some(directory) = self.shards[0].shared_daemons() {
            directory
                .lock()
                .expect("shared daemon directory poisoned")
                .register(daemon);
            return;
        }
        for shard in &mut self.shards {
            shard.register_daemon(daemon.clone());
        }
    }

    /// Removes an end-host daemon from the tier's query plane — the
    /// departure half of population churn. Over a shared directory the
    /// removal happens once and is visible to every shard; over per-shard
    /// in-process backends each shard's clone is dropped. Returns whether
    /// any backend held the daemon. Flows that still name the departed host
    /// go unanswered, which is exactly the silent-host shape the fail-closed
    /// configuration (`ControllerConfig::with_fail_closed_on_unanswered`)
    /// exists for.
    ///
    /// # Panics
    ///
    /// Panics when a shard runs a non-in-process backend.
    pub fn unregister_daemon(&mut self, addr: identxx_proto::Ipv4Addr) -> bool {
        if let Some(directory) = self.shards[0].shared_daemons() {
            return directory
                .lock()
                .expect("shared daemon directory poisoned")
                .unregister(addr)
                .is_some();
        }
        let mut removed = false;
        for shard in &mut self.shards {
            removed |= shard.unregister_daemon(addr);
        }
        removed
    }

    /// Marks every shard compromised (§5.1) or restores them.
    pub fn set_compromised(&mut self, compromised: bool) {
        for shard in &mut self.shards {
            shard.set_compromised(compromised);
        }
    }

    /// Replaces (or adds) one `.control` file on every shard and recompiles;
    /// shard state tables are cleared exactly as on a single controller.
    /// The update is not transactional across shards: a decision racing the
    /// rollout may still see the old policy on a not-yet-updated shard.
    pub fn update_control_file(
        &mut self,
        name: impl Into<String>,
        contents: impl Into<String>,
    ) -> Result<(), PfError> {
        let name = name.into();
        let contents = contents.into();
        for shard in &mut self.shards {
            shard.update_control_file(name.clone(), contents.clone())?;
        }
        Ok(())
    }

    /// Removes a `.control` file from every shard; `Ok(true)` when it
    /// existed.
    pub fn remove_control_file(&mut self, name: &str) -> Result<bool, PfError> {
        let mut removed = false;
        for shard in &mut self.shards {
            removed |= shard.remove_control_file(name)?;
        }
        Ok(removed)
    }

    /// Grows the tier by one shard, **live**. The new shard compiles the
    /// tier's current policy (including every `.control` update applied so
    /// far), takes the caller-supplied query backend, and joins the
    /// consistent-hash ring under a fresh stable id — capturing ≈ 1/(n+1)
    /// of the key space. Before the router switches, the state-table
    /// entries and audit records of exactly the captured keys are handed
    /// off verbatim from their old owners, so a migrated flow still hits
    /// the cache entry it warmed before the reshard: decisions are
    /// identical to a never-resharded tier's in every observable
    /// (`tests/sharding.rs` and the E12 reshard drill pin this). Returns
    /// the new shard's slot.
    pub fn add_shard(&mut self, backend: Box<dyn QueryBackend>) -> Result<usize, PfError> {
        let id = self.next_id;
        self.next_id += 1;
        let config = self.shards[0].config().clone();
        let mut shard = IdentxxController::new(config)?;
        if let Some(network) = self.shards[0].network() {
            shard = shard.with_network(network.clone());
        }
        shard.set_backend(backend);

        // Hand off the captured partition under the *next* router while the
        // current one still serves: every stored key (state tables index by
        // granularity-normalized tuples, which route exactly like the flows
        // that produced them) and every audit record the grown ring assigns
        // to the new member moves, verbatim.
        let next_router = self.router.with_added(id);
        let mut captured_state = Vec::new();
        let mut captured_audit = Vec::new();
        for peer in &mut self.shards {
            captured_state.extend(
                peer.state_table_mut()
                    .extract_where(|key| next_router.route_id(key) == id),
            );
            captured_audit.extend(
                peer.audit_mut()
                    .extract_records_where(|record| next_router.route_id(&record.flow) == id),
            );
        }
        shard.state_table_mut().absorb(captured_state);
        shard.audit_mut().absorb_records(captured_audit);

        self.shards.push(shard);
        self.ids.push(id);
        self.router = next_router;
        self.epoch += 1;
        Ok(self.shards.len() - 1)
    }

    /// Drains one shard, **live**: its id leaves the ring (no flow routes
    /// to it any more) and its state entries and audit records move to the
    /// survivors that now own its keys — nothing is lost, nothing is
    /// decided twice. The controller itself stays in place (still readable,
    /// still counted in [`ShardedController::backend_stats`]) until
    /// [`ShardedController::remove_shard`] drops it.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range, the shard is already drained, or
    /// it is the last active member (the tier must keep deciding).
    pub fn drain_shard(&mut self, slot: usize) {
        let id = self.ids[slot];
        let member = self
            .router
            .shard_ids()
            .iter()
            .position(|&m| m == id)
            .expect("drain_shard: shard is already drained");
        let next_router = self.router.with_removed(member);

        let state = self.shards[slot].state_table_mut().extract_where(|_| true);
        let audit = self.shards[slot]
            .audit_mut()
            .extract_records_where(|_| true);
        // Group the departing history by its new owner (under the shrunk
        // ring only the drained member's keys move), then absorb per owner.
        let ids = self.ids.clone();
        let owner_slot = |flow: &FiveTuple| {
            let owner = next_router.route_id(flow);
            ids.iter()
                .position(|&member| member == owner)
                .expect("every routable id has a controller slot")
        };
        let mut state_per_owner: Vec<Vec<_>> = vec![Vec::new(); self.shards.len()];
        for (key, entry) in state {
            state_per_owner[owner_slot(&key)].push((key, entry));
        }
        let mut audit_per_owner: Vec<Vec<AuditRecord>> = vec![Vec::new(); self.shards.len()];
        for record in audit {
            audit_per_owner[owner_slot(&record.flow)].push(record);
        }
        for (owner, entries) in state_per_owner.into_iter().enumerate() {
            if !entries.is_empty() {
                self.shards[owner].state_table_mut().absorb(entries);
            }
        }
        for (owner, records) in audit_per_owner.into_iter().enumerate() {
            if !records.is_empty() {
                self.shards[owner].audit_mut().absorb_records(records);
            }
        }

        self.router = next_router;
        self.epoch += 1;
    }

    /// Removes one shard from the tier — draining it first if it still owns
    /// keys — and returns the retired controller (its state table and audit
    /// log are empty, the history having moved to the survivors; its
    /// backend is intact for the caller to shut down). The retired shard's
    /// transport counters fold into an accumulator so
    /// [`ShardedController::backend_stats`] stays monotone across removals.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range or names the last active member.
    pub fn remove_shard(&mut self, slot: usize) -> IdentxxController {
        if !self.is_drained(slot) {
            self.drain_shard(slot);
        }
        let retired = self.shards.remove(slot);
        self.ids.remove(slot);
        let stats = retired.backend_stats();
        self.retired_stats.queries_sent += stats.queries_sent;
        self.retired_stats.responses_received += stats.responses_received;
        self.retired_stats.timeouts += stats.timeouts;
        fold_verify_stats(&mut self.retired_verify_stats, retired.verify_stats());
        self.epoch += 1;
        retired
    }

    /// Routes one flow to its shard and decides it there.
    pub fn decide(&mut self, flow: &FiveTuple, now: u64) -> FlowDecision {
        let shard = self.shard_for(flow);
        self.shards[shard].decide(flow, now)
    }

    /// Decides one batch of flows: each busy shard's share goes through
    /// one batched query round ([`IdentxxController::decide_round`]), and
    /// the rounds are joined on the calling thread, so network rounds
    /// overlap under their own deadlines while in-process rounds run back
    /// to back. Results come back in input order. This is the one-round
    /// [`ShardedController::decide_stream`].
    pub fn decide_batch(&mut self, flows: &[FiveTuple], now: u64) -> Vec<FlowDecision> {
        self.decide_stream(flows, flows.len().max(1), now)
    }

    /// Decides a stream of flows at a given query-round size: the stream is
    /// partitioned over the shards once, every busy shard works through its
    /// share as one future of consecutive rounds of `batch_size` flows, and
    /// the futures are joined on the calling thread, so each shard streams
    /// independently and no thread is spawned. The decisions come back in
    /// input order. This is the controller tier's throughput shape, and
    /// what the E9 sweep measures.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size` is zero.
    pub fn decide_stream(
        &mut self,
        flows: &[FiveTuple],
        batch_size: usize,
        now: u64,
    ) -> Vec<FlowDecision> {
        assert!(batch_size > 0, "a query round needs at least one flow");
        let mut per_shard: Vec<(Vec<usize>, Vec<FiveTuple>)> =
            vec![(Vec::new(), Vec::new()); self.shards.len()];
        for (index, flow) in flows.iter().enumerate() {
            let (indices, share) = &mut per_shard[self.shard_for(flow)];
            indices.push(index);
            share.push(*flow);
        }

        let shares = self
            .shards
            .iter_mut()
            .zip(&per_shard)
            .filter(|(_, (_, share))| !share.is_empty())
            .map(|(shard, (_, share))| async move {
                let mut decided = Vec::with_capacity(share.len());
                for round in share.chunks(batch_size) {
                    decided.extend(shard.decide_round(round, now).await);
                }
                decided
            });
        let decided = tokio::runtime::block_on(tokio::future::join_all(shares));

        let mut decisions: Vec<Option<FlowDecision>> = (0..flows.len()).map(|_| None).collect();
        let busy = per_shard.iter().filter(|(_, share)| !share.is_empty());
        for ((indices, _), share) in busy.zip(decided) {
            for (&index, decision) in indices.iter().zip(share) {
                decisions[index] = Some(decision);
            }
        }
        decisions
            .into_iter()
            .map(|d| d.expect("every flow is decided by its shard"))
            .collect()
    }

    /// Transport counters **summed** over the shards. Sum, not max: every
    /// shard's queries really went out, so the merged view is the tier's
    /// total query work (a latency merge would take the max instead — see
    /// DESIGN.md §6).
    pub fn backend_stats(&self) -> BackendStats {
        let mut merged = self.retired_stats;
        for shard in &self.shards {
            let stats = shard.backend_stats();
            merged.queries_sent += stats.queries_sent;
            merged.responses_received += stats.responses_received;
            merged.timeouts += stats.timeouts;
        }
        merged
    }

    /// Verify-plane counters **summed** over the shards (each shard owns an
    /// independent verify cache, so the tier view is total verification
    /// work), plus the folded counters of removed shards.
    pub fn verify_stats(&self) -> VerifyCacheStats {
        let mut merged = self.retired_verify_stats;
        for shard in &self.shards {
            fold_verify_stats(&mut merged, shard.verify_stats());
        }
        merged
    }

    /// Total audited decisions across the shards.
    pub fn audit_len(&self) -> usize {
        self.shards.iter().map(|s| s.audit().len()).sum()
    }

    /// The per-shard audit logs merged into one decision-time-ordered view.
    /// Ties are broken by `(shard slot, position in that shard's log)` —
    /// pinned by a test in `tests/sharding.rs` — so the merge is a total,
    /// deterministic order even when many shards decide at the same
    /// simulated instant.
    pub fn merged_audit(&self) -> Vec<AuditRecord> {
        let mut all: Vec<(u64, usize, usize, AuditRecord)> = Vec::new();
        for (slot, shard) in self.shards.iter().enumerate() {
            for (seq, record) in shard.audit().records().iter().enumerate() {
                all.push((record.time, slot, seq, record.clone()));
            }
        }
        all.sort_by_key(|&(time, slot, seq, _)| (time, slot, seq));
        all.into_iter().map(|(_, _, _, record)| record).collect()
    }

    /// Fraction of decisions served from shard-local state tables.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.audit_len();
        if total == 0 {
            return 0.0;
        }
        let hits: usize = self
            .shards
            .iter()
            .map(|s| s.audit().records().iter().filter(|r| r.from_cache).count())
            .sum();
        hits as f64 / total as f64
    }

    /// Total ident++ queries accounted across every shard's audit log.
    pub fn total_queries(&self) -> u64 {
        self.shards.iter().map(|s| s.audit().total_queries()).sum()
    }
}

impl std::fmt::Debug for ShardedController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedController")
            .field("shards", &self.shards.len())
            .field("granularity", &self.router.granularity())
            .field("audited", &self.audit_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use identxx_hostmodel::Host;
    use identxx_proto::Ipv4Addr;

    fn flows(n: u32) -> impl Iterator<Item = FiveTuple> {
        (0..n).map(|i| {
            FiveTuple::tcp(
                [10, (i % 7) as u8, (i % 23) as u8, (i % 251) as u8],
                40_000 + (i % 1000) as u16,
                [10, 1, (i % 13) as u8, ((i * 7) % 251) as u8],
                [80u16, 443, 22, 25][(i % 4) as usize],
            )
        })
    }

    #[test]
    fn router_is_reverse_stable_for_every_granularity() {
        for granularity in [
            CacheGranularity::ExactFiveTuple,
            CacheGranularity::HostPair,
            CacheGranularity::HostPairDstPort,
        ] {
            let router = ShardRouter::new(8, granularity);
            for flow in flows(500) {
                assert_eq!(
                    router.route(&flow),
                    router.route(&flow.reversed()),
                    "flow and reverse must share a shard ({granularity:?})"
                );
            }
        }
    }

    #[test]
    fn router_spreads_and_single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(4, CacheGranularity::ExactFiveTuple);
        let mut per_shard = [0usize; 4];
        for flow in flows(2000) {
            per_shard[router.route(&flow)] += 1;
        }
        for (shard, count) in per_shard.iter().enumerate() {
            assert!(
                *count > 200,
                "shard {shard} starves: {per_shard:?} (vnode ring too lumpy)"
            );
        }
        let single = ShardRouter::new(1, CacheGranularity::ExactFiveTuple);
        assert!(flows(100).all(|flow| single.route(&flow) == 0));
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        let before = ShardRouter::new(4, CacheGranularity::HostPair);
        let after = ShardRouter::new(5, CacheGranularity::HostPair);
        let mut moved = 0usize;
        let mut total = 0usize;
        for flow in flows(2000) {
            total += 1;
            let old = before.route(&flow);
            let new = after.route(&flow);
            if old != new {
                moved += 1;
                assert_eq!(
                    new, 4,
                    "a key that moves must move to the shard that was added"
                );
            }
        }
        // Roughly 1/5 of the keys should move; generous bounds keep the test
        // robust to hash lumpiness.
        assert!(moved > total / 20, "suspiciously few keys moved: {moved}");
        assert!(
            moved < total / 2,
            "consistent hashing moved too much: {moved}"
        );
    }

    #[test]
    fn sharded_controller_merges_stats_and_audit() {
        let config = ControllerConfig::new().with_control_file(
            "00.control",
            "block all\npass all with eq(@src[name], firefox) keep state\n",
        );
        let mut sharded = ShardedController::new(config, 4).unwrap();
        assert_eq!(sharded.shard_count(), 4);
        for host in 1..=6u8 {
            sharded.register_daemon(Daemon::bare(Host::new(
                format!("h{host}"),
                Ipv4Addr::new(10, 0, 0, host),
            )));
        }
        let all: Vec<FiveTuple> = (1..=3u8)
            .map(|i| FiveTuple::tcp([10, 0, 0, i], 40_000 + i as u16, [10, 0, 0, i + 3], 80))
            .collect();
        let decisions = sharded.decide_batch(&all, 7);
        assert_eq!(decisions.len(), 3);
        // Bare daemons answer with no process info: default-deny blocks.
        assert!(decisions.iter().all(|d| !d.is_pass()));
        let stats = sharded.backend_stats();
        assert_eq!(stats.queries_sent, 6);
        assert_eq!(stats.responses_received, 6);
        assert_eq!(sharded.audit_len(), 3);
        let merged = sharded.merged_audit();
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().all(|r| r.time == 7));
        assert_eq!(sharded.total_queries(), 6);
        assert_eq!(sharded.cache_hit_ratio(), 0.0);
        // Every decision landed on the shard the router names.
        for flow in &all {
            let shard = sharded.shard_for(flow);
            assert!(sharded
                .shard(shard)
                .audit()
                .records()
                .iter()
                .any(|r| r.flow == *flow));
        }
    }

    #[test]
    fn removing_a_member_does_not_move_surviving_keys() {
        let before = ShardRouter::new(5, CacheGranularity::HostPair);
        let after = before.with_removed(2);
        assert_eq!(after.shard_ids(), &[0, 1, 3, 4]);
        for flow in flows(2000) {
            let old = before.route_id(&flow);
            let new = after.route_id(&flow);
            if old != 2 {
                assert_eq!(old, new, "a surviving member's key must not move");
            } else {
                assert_ne!(new, 2, "the removed member must own nothing");
            }
        }
    }

    /// A tier that grows and shrinks mid-stream decides exactly like one
    /// that never changed, and every cached entry survives the handoff.
    #[test]
    fn add_drain_remove_conserve_state_and_decisions() {
        let config = || {
            ControllerConfig::new()
                .with_control_file("00.control", "block all\npass all keep state\n")
        };
        let mut elastic = ShardedController::new(config(), 3).unwrap();
        let all: Vec<FiveTuple> = flows(60).collect();
        for flow in &all {
            assert!(elastic.decide(flow, 0).is_pass());
        }
        let warmed: usize = elastic.shards().iter().map(|s| s.state_table().len()).sum();
        assert!(warmed > 0);
        let audited = elastic.audit_len();
        let queries_before = elastic.backend_stats().queries_sent;

        // Grow: the new shard takes over ≈ 1/4 of the keys plus their
        // history; nothing is lost and repeats still hit the cache.
        let slot = elastic
            .add_shard(Box::new(crate::backend::InProcessBackend::new()))
            .unwrap();
        assert_eq!(slot, 3);
        assert_eq!(elastic.shard_id(slot), 3);
        assert_eq!(elastic.epoch(), 1);
        let after_add: usize = elastic.shards().iter().map(|s| s.state_table().len()).sum();
        assert_eq!(after_add, warmed, "growing must conserve state entries");
        assert!(
            !elastic.shard(slot).state_table().is_empty(),
            "the new shard should capture part of the key space"
        );
        assert_eq!(elastic.audit_len(), audited);
        for flow in &all {
            let decision = elastic.decide(flow, 1);
            assert!(
                decision.is_pass() && decision.from_cache,
                "a migrated entry must serve its flow on the new owner"
            );
        }
        // Every stored key sits on the shard the router names for it.
        for (slot, shard) in elastic.shards().iter().enumerate() {
            for (key, _) in shard.state_table().entries() {
                assert_eq!(elastic.shard_for(key), slot);
            }
        }

        // Drain: the shard leaves the ring, its history moves to survivors,
        // the controller lingers for reads. (The cache-hit round above
        // audited 60 more records; conservation is asserted against the
        // count at drain time.)
        let audited = elastic.audit_len();
        elastic.drain_shard(1);
        assert!(elastic.is_drained(1));
        assert_eq!(elastic.epoch(), 2);
        assert_eq!(elastic.shard(1).state_table().len(), 0);
        assert!(elastic.shard(1).audit().is_empty());
        let after_drain: usize = elastic.shards().iter().map(|s| s.state_table().len()).sum();
        assert_eq!(after_drain, warmed, "draining must conserve state entries");
        assert_eq!(elastic.audit_len(), audited);
        for flow in &all {
            assert_ne!(
                elastic.shard_for(flow),
                1,
                "no flow routes to a drained shard"
            );
            let decision = elastic.decide(flow, 2);
            assert!(decision.is_pass() && decision.from_cache);
        }

        // Remove: the retired controller comes back empty; tier totals stay
        // monotone because its transport counters fold into the accumulator.
        let queries_with_shard = elastic.backend_stats().queries_sent;
        let audited = elastic.audit_len();
        let retired = elastic.remove_shard(1);
        assert!(retired.state_table().is_empty() && retired.audit().is_empty());
        assert_eq!(elastic.shard_count(), 3);
        assert_eq!(elastic.epoch(), 3);
        assert_eq!(elastic.backend_stats().queries_sent, queries_with_shard);
        assert!(queries_with_shard >= queries_before);
        assert_eq!(elastic.audit_len(), audited);

        // The whole churned tier still decides identically to a fixed one.
        let mut fixed = ShardedController::new(config(), 3).unwrap();
        for flow in &all {
            fixed.decide(flow, 0);
        }
        for flow in &all {
            let churned = elastic.decide(flow, 3);
            let baseline = fixed.decide(flow, 3);
            assert_eq!(churned.verdict.decision, baseline.verdict.decision);
            assert_eq!(churned.from_cache, baseline.from_cache);
        }
    }

    #[test]
    fn shard_ids_are_never_reused() {
        let config = ControllerConfig::new().with_control_file("00.control", "block all\n");
        let mut elastic = ShardedController::new(config, 2).unwrap();
        elastic.remove_shard(0);
        let slot = elastic
            .add_shard(Box::new(crate::backend::InProcessBackend::new()))
            .unwrap();
        assert_eq!(elastic.shard_id(slot), 2, "removed id 0 must not come back");
        assert_eq!(elastic.router().shard_ids(), &[1, 2]);
    }

    #[test]
    fn merged_audit_breaks_time_ties_by_shard_then_sequence() {
        let config = ControllerConfig::new().with_control_file("00.control", "pass all\n");
        let mut sharded = ShardedController::new(config, 4).unwrap();
        let all: Vec<FiveTuple> = flows(40).collect();
        // Everything decides at the same instant: order is entirely up to
        // the tie-break.
        sharded.decide_batch(&all, 7);
        let merged = sharded.merged_audit();
        assert_eq!(merged.len(), 40);
        // Expected order: shard 0's log in sequence, then shard 1's, …
        let expected: Vec<_> = sharded
            .shards()
            .iter()
            .flat_map(|s| s.audit().records().iter().cloned())
            .collect();
        assert_eq!(merged, expected);
    }

    #[test]
    fn policy_updates_reach_every_shard() {
        let config = ControllerConfig::new().with_control_file("00.control", "block all\n");
        let mut sharded = ShardedController::new(config, 3).unwrap();
        sharded
            .update_control_file("50.control", "pass all keep state\n")
            .unwrap();
        let flow = FiveTuple::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 80);
        assert!(sharded.decide(&flow, 0).is_pass());
        assert!(sharded.remove_control_file("50.control").unwrap());
        assert!(!sharded.decide(&flow, 1).is_pass());
        sharded.set_compromised(true);
        assert!(sharded.decide(&flow, 2).is_pass());
    }
}
