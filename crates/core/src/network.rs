//! A complete simulated ident++-protected enterprise network.
//!
//! The facade drives one of two decision tiers behind the same API: a single
//! [`IdentxxController`] (the default, faithful to the paper's prototype) or
//! a [`ShardedController`]. Either way every controller queries **one**
//! daemon directory that the facade also holds, through an
//! [`InProcessBackend`] each — so every scenario that mutates hosts
//! mid-experiment (compromises, new applications) works unchanged when
//! sharded, and any scenario table can run under `IDENTXX_SHARDS`
//! (DESIGN.md §6/§7).

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

use identxx_controller::{
    ControllerConfig, DaemonDirectory, FlowDecision, IdentxxController, InProcessBackend,
    NetworkMap, ShardedController,
};
use identxx_daemon::Daemon;
use identxx_hostmodel::{Executable, Host};
use identxx_netsim::{Duration, EventQueue, LinkProps, NodeId, NodeKind, Topology};
use identxx_openflow::{
    ControllerDirective, FlowMod, ForwardingResult, PacketHeader, Switch, SwitchId,
};
use identxx_pf::{Decision, PfError};
use identxx_proto::{FiveTuple, IpProtocol, Ipv4Addr};

use crate::scenario::{FlowOutcome, FlowSetupReport};

/// Per-hop processing cost charged by a switch in the timed simulation.
const SWITCH_PROCESSING: Duration = Duration::from_micros(5);
/// Daemon processing cost per ident++ query.
const DAEMON_PROCESSING: Duration = Duration::from_micros(50);
/// Fixed controller overhead per decision, on top of per-rule evaluation cost.
const CONTROLLER_OVERHEAD: Duration = Duration::from_micros(20);
/// Per-rule evaluation cost.
const PER_RULE_COST: Duration = Duration::from_micros(1);

/// The decision plane behind the facade: one controller, or a sharded tier.
enum DecisionTier {
    Single(Box<IdentxxController>),
    Sharded(Box<ShardedController>),
}

/// Mutable access to one daemon: a held lock over the network's daemon
/// directory plus the daemon's address. Derefs to [`Daemon`], so call sites
/// read like a plain borrow.
pub struct DaemonMut<'a> {
    directory: MutexGuard<'a, DaemonDirectory>,
    addr: Ipv4Addr,
}

impl Deref for DaemonMut<'_> {
    type Target = Daemon;

    fn deref(&self) -> &Daemon {
        self.directory
            .get(self.addr)
            .expect("checked present at construction")
    }
}

impl DerefMut for DaemonMut<'_> {
    fn deref_mut(&mut self) -> &mut Daemon {
        self.directory
            .get_mut(self.addr)
            .expect("checked present at construction")
    }
}

/// A simulated enterprise: topology, software switches, the ident++
/// decision tier (with a daemon per host), and a data-plane entry point.
pub struct EnterpriseNetwork {
    tier: DecisionTier,
    /// The daemon population every controller of the tier queries.
    directory: Arc<Mutex<DaemonDirectory>>,
    map: NetworkMap,
    switches: BTreeMap<SwitchId, Switch>,
    host_addrs: Vec<Ipv4Addr>,
    clock: u64,
}

impl EnterpriseNetwork {
    /// Builds a network over an arbitrary topology and controller
    /// configuration. Every host node gets a bare daemon registered with the
    /// decision tier; every switch node gets a software switch.
    pub fn from_topology(
        topology: Topology,
        config: ControllerConfig,
    ) -> Result<EnterpriseNetwork, PfError> {
        EnterpriseNetwork::build(topology, config, 1)
    }

    /// [`EnterpriseNetwork::from_topology`] with the decision tier sharded
    /// `shards` ways: every shard queries the network's one daemon
    /// directory, so host mutations (compromises, new applications) are
    /// visible to every shard and decisions stay identical to the
    /// single-controller network. `shards <= 1` builds the single tier.
    pub fn from_topology_sharded(
        topology: Topology,
        config: ControllerConfig,
        shards: usize,
    ) -> Result<EnterpriseNetwork, PfError> {
        EnterpriseNetwork::build(topology, config, shards)
    }

    fn build(
        topology: Topology,
        config: ControllerConfig,
        shards: usize,
    ) -> Result<EnterpriseNetwork, PfError> {
        let map = NetworkMap::new(topology);
        let mut host_addrs = Vec::new();
        let mut directory = DaemonDirectory::new();
        for node in map.topology().nodes_of_kind(NodeKind::Host) {
            let info = map.topology().node(node).unwrap();
            host_addrs.push(info.addr);
            directory.register(Daemon::bare(Host::new(info.name.clone(), info.addr)));
        }
        let directory = Arc::new(Mutex::new(directory));
        let backend = || Box::new(InProcessBackend::new(Arc::clone(&directory)));

        let tier = if shards <= 1 {
            let controller = IdentxxController::new(config)?
                .with_network(map.clone())
                .with_backend(backend());
            DecisionTier::Single(Box::new(controller))
        } else {
            let tier = ShardedController::new(config, shards)?
                .with_network(map.clone())
                .with_backends(|_| backend());
            DecisionTier::Sharded(Box::new(tier))
        };

        let mut switches = BTreeMap::new();
        for node in map.topology().nodes_of_kind(NodeKind::Switch) {
            let id = map.switch_id(node).unwrap();
            let mut switch = Switch::new(id);
            // Teach the switch which port leads to each host MAC so the
            // compromised-switch fallback path has somewhere to forward.
            for host in map.topology().nodes_of_kind(NodeKind::Host) {
                let host_info = map.topology().node(host).unwrap();
                if let Some(path) = map.routing().path(node, host) {
                    if path.len() >= 2 {
                        if let Some(port) = map.port_toward(node, path[1]) {
                            switch.set_mac_port(map.mac_of(host_info.addr), port);
                        }
                    }
                }
            }
            switches.insert(id, switch);
        }

        Ok(EnterpriseNetwork {
            tier,
            directory,
            map,
            switches,
            host_addrs,
            clock: 0,
        })
    }

    /// A star topology (`host_count` hosts on one switch) with a single
    /// `.control` policy file.
    pub fn star(host_count: usize, policy: &str) -> Result<EnterpriseNetwork, PfError> {
        let (topology, _sw, _ctrl, _hosts) = Topology::star(host_count, LinkProps::default());
        let config = ControllerConfig::new().with_control_file("00-policy.control", policy);
        EnterpriseNetwork::from_topology(topology, config)
    }

    /// A star topology with a full controller configuration.
    pub fn star_with_config(
        host_count: usize,
        config: ControllerConfig,
    ) -> Result<EnterpriseNetwork, PfError> {
        let (topology, _sw, _ctrl, _hosts) = Topology::star(host_count, LinkProps::default());
        EnterpriseNetwork::from_topology(topology, config)
    }

    /// A star topology with a full controller configuration and a sharded
    /// decision tier (see [`EnterpriseNetwork::from_topology_sharded`]).
    pub fn star_with_config_sharded(
        host_count: usize,
        config: ControllerConfig,
        shards: usize,
    ) -> Result<EnterpriseNetwork, PfError> {
        let (topology, _sw, _ctrl, _hosts) = Topology::star(host_count, LinkProps::default());
        EnterpriseNetwork::from_topology_sharded(topology, config, shards)
    }

    /// A linear chain of `switch_count` switches with one client and one
    /// server host (used to vary path length in the flow-setup experiment).
    pub fn chain(
        switch_count: usize,
        config: ControllerConfig,
    ) -> Result<EnterpriseNetwork, PfError> {
        let (topology, _c, _client, _server, _switches) =
            Topology::chain(switch_count, LinkProps::default());
        EnterpriseNetwork::from_topology(topology, config)
    }

    /// A two-tier enterprise tree.
    pub fn two_tier(
        edge_switches: usize,
        hosts_per_edge: usize,
        config: ControllerConfig,
    ) -> Result<EnterpriseNetwork, PfError> {
        let (topology, _core, _ctrl, _hosts) =
            Topology::two_tier(edge_switches, hosts_per_edge, LinkProps::default());
        EnterpriseNetwork::from_topology(topology, config)
    }

    /// Addresses of every end-host.
    pub fn host_addrs(&self) -> Vec<Ipv4Addr> {
        self.host_addrs.clone()
    }

    /// The ident++ controller.
    ///
    /// # Panics
    ///
    /// Panics when the network runs the sharded tier — use
    /// [`EnterpriseNetwork::sharded`] and the tier-agnostic stat facades
    /// ([`EnterpriseNetwork::audit_len`],
    /// [`EnterpriseNetwork::cache_hit_ratio`],
    /// [`EnterpriseNetwork::total_queries`]) there.
    pub fn controller(&self) -> &IdentxxController {
        match &self.tier {
            DecisionTier::Single(controller) => controller,
            DecisionTier::Sharded(_) => {
                panic!("controller(): network runs a sharded tier; use sharded()")
            }
        }
    }

    /// Mutable access to the controller (policy updates, interceptors, …).
    ///
    /// # Panics
    ///
    /// Panics when the network runs the sharded tier (see
    /// [`EnterpriseNetwork::controller`]).
    pub fn controller_mut(&mut self) -> &mut IdentxxController {
        match &mut self.tier {
            DecisionTier::Single(controller) => controller,
            DecisionTier::Sharded(_) => {
                panic!("controller_mut(): network runs a sharded tier; use sharded_mut()")
            }
        }
    }

    /// The sharded decision tier, when the network was built with one.
    pub fn sharded(&self) -> Option<&ShardedController> {
        match &self.tier {
            DecisionTier::Single(_) => None,
            DecisionTier::Sharded(tier) => Some(tier),
        }
    }

    /// Mutable access to the sharded decision tier, when present.
    pub fn sharded_mut(&mut self) -> Option<&mut ShardedController> {
        match &mut self.tier {
            DecisionTier::Single(_) => None,
            DecisionTier::Sharded(tier) => Some(tier),
        }
    }

    /// Number of shards in the decision tier (1 for the single controller).
    pub fn shard_count(&self) -> usize {
        match &self.tier {
            DecisionTier::Single(_) => 1,
            DecisionTier::Sharded(tier) => tier.shard_count(),
        }
    }

    /// Total audited decisions, across shards when sharded.
    pub fn audit_len(&self) -> usize {
        match &self.tier {
            DecisionTier::Single(controller) => controller.audit().len(),
            DecisionTier::Sharded(tier) => tier.audit_len(),
        }
    }

    /// Fraction of decisions served from the state table(s).
    pub fn cache_hit_ratio(&self) -> f64 {
        match &self.tier {
            DecisionTier::Single(controller) => controller.audit().cache_hit_ratio(),
            DecisionTier::Sharded(tier) => tier.cache_hit_ratio(),
        }
    }

    /// Total ident++ queries accounted in the audit log(s).
    pub fn total_queries(&self) -> u64 {
        match &self.tier {
            DecisionTier::Single(controller) => controller.audit().total_queries(),
            DecisionTier::Sharded(tier) => tier.total_queries(),
        }
    }

    /// The network map (topology + routing + switch identities).
    pub fn map(&self) -> &NetworkMap {
        &self.map
    }

    /// Mutable access to a daemon by host address, on either tier: a held
    /// lock over the one directory every controller queries, so the
    /// mutation is visible to whichever shard decides the next flow.
    pub fn daemon_mut(&mut self, addr: Ipv4Addr) -> Option<DaemonMut<'_>> {
        let directory = DaemonDirectory::lock(&self.directory);
        directory
            .get(addr)
            .is_some()
            .then_some(DaemonMut { directory, addr })
    }

    /// Mutable access to a switch.
    pub fn switch_mut(&mut self, id: SwitchId) -> Option<&mut Switch> {
        self.switches.get_mut(&id)
    }

    /// The switches.
    pub fn switches(&self) -> &BTreeMap<SwitchId, Switch> {
        &self.switches
    }

    /// The current simulated time in microseconds.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the simulated clock.
    pub fn advance(&mut self, micros: u64) {
        self.clock += micros;
    }

    /// Starts an application on `src` connecting to `dst:dst_port` as `user`,
    /// returning the flow it opened.
    pub fn start_app(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        dst_port: u16,
        user: &str,
        exe: Executable,
    ) -> FiveTuple {
        // Source ports are allocated deterministically per call — keyed on
        // the tier-wide audit length, so a sharded run allocates the same
        // ports as its single-controller twin.
        let src_port = 40_000 + (self.audit_len() as u16 % 20_000);
        let mut daemon = self
            .daemon_mut(src)
            .expect("start_app: source address has no daemon");
        daemon
            .host_mut()
            .open_connection(user, exe, src_port, dst, dst_port)
    }

    /// Runs a service (listening process) on `addr`.
    pub fn run_service(&mut self, addr: Ipv4Addr, user: &str, exe: Executable, port: u16) {
        let mut daemon = self
            .daemon_mut(addr)
            .expect("run_service: address has no daemon");
        let pid = daemon.host_mut().spawn(user, exe);
        daemon.host_mut().listen(pid, IpProtocol::Tcp, port);
    }

    fn apply_flow_mods(&mut self, mods: &[FlowMod], now: u64) {
        for m in mods {
            if let Some(switch) = self.switches.get_mut(&m.switch) {
                switch.apply_flow_mod(m, now);
            }
        }
    }

    /// Delivers the first packet of `flow` through the data plane at time
    /// `now`: switches consult their tables, a table miss raises a packet-in
    /// to the controller, the controller's decision is installed and the
    /// packet is released (or dropped).
    pub fn deliver_first_packet(&mut self, flow: &FiveTuple, now: u64) -> FlowOutcome {
        self.clock = self.clock.max(now);
        let mut outcome = FlowOutcome {
            flow: *flow,
            delivered: false,
            decision: None,
            from_cache: false,
            queries_issued: 0,
            entries_installed: 0,
            switches_traversed: 0,
        };

        let src_node = match self.map.topology().node_by_addr(flow.src_ip) {
            Some(n) => n.id,
            None => return outcome,
        };
        let dst_node = match self.map.topology().node_by_addr(flow.dst_ip) {
            Some(n) => n.id,
            None => return outcome,
        };
        let path: Vec<NodeId> = match self.map.routing().path(src_node, dst_node) {
            Some(p) => p.to_vec(),
            None => return outcome,
        };

        // Walk the packet along the switch path.
        let mut prev = src_node;
        for &node in &path[1..] {
            let kind = self.map.topology().node(node).unwrap().kind;
            match kind {
                NodeKind::Host | NodeKind::Controller => {
                    // Reached the destination host (controllers are never on a
                    // host-to-host shortest path in our topologies).
                    outcome.delivered = node == dst_node;
                    return outcome;
                }
                NodeKind::Switch => {
                    let switch_id = self.map.switch_id(node).unwrap();
                    let in_port = self.map.port_toward(node, prev).unwrap_or(0);
                    let header = PacketHeader::from_flow(flow, in_port);
                    outcome.switches_traversed += 1;
                    let result = {
                        let switch = self.switches.get_mut(&switch_id).unwrap();
                        switch.process(&header, 1500, self.clock)
                    };
                    match result {
                        ForwardingResult::Forwarded(_) | ForwardingResult::Flooded => {}
                        ForwardingResult::Dropped => return outcome,
                        ForwardingResult::SentToController(pin) => {
                            // The packet-in path through either tier: decide
                            // the flow, then wrap the decision exactly as
                            // `OpenFlowController::packet_in` does.
                            let pin_flow = pin.header.five_tuple();
                            let now = self.clock;
                            let decision = self.decide_at(&pin_flow, now);
                            outcome.decision = Some(decision.verdict.decision);
                            outcome.from_cache = decision.from_cache;
                            outcome.queries_issued = decision.queries_issued;
                            let directive = if decision.is_pass() {
                                ControllerDirective::allow(decision.flow_mods)
                            } else {
                                ControllerDirective::deny_with(decision.flow_mods)
                            };
                            outcome.entries_installed += directive.flow_mods.len();
                            self.apply_flow_mods(&directive.flow_mods, self.clock);
                            if !directive.forward_packet {
                                return outcome;
                            }
                            // The packet is released: re-process it at this
                            // switch, which now has an entry (or flood).
                            let switch = self.switches.get_mut(&switch_id).unwrap();
                            if let ForwardingResult::Dropped =
                                switch.process(&header, 1500, self.clock)
                            {
                                return outcome;
                            }
                        }
                    }
                    prev = node;
                }
            }
        }
        outcome.delivered = true;
        outcome
    }

    /// Convenience: run the full decision for a flow directly against the
    /// decision tier (no data-plane walk). Useful for policy-focused
    /// scenarios; on a sharded network the flow is routed to its shard.
    pub fn decide(&mut self, flow: &FiveTuple) -> FlowDecision {
        let now = self.clock;
        self.decide_at(flow, now)
    }

    fn decide_at(&mut self, flow: &FiveTuple, now: u64) -> FlowDecision {
        match &mut self.tier {
            DecisionTier::Single(controller) => controller.decide(flow, now),
            DecisionTier::Sharded(tier) => tier.decide(flow, now),
        }
    }

    /// The event-driven timed reproduction of Fig. 1: measures how long the
    /// first packet of `flow` takes from the client to the server, including
    /// the packet-in, both ident++ query round trips, policy evaluation, and
    /// flow installation, and compares it with the latency of a subsequent
    /// packet that hits the installed entries.
    pub fn simulate_flow_setup(&mut self, flow: &FiveTuple) -> Option<FlowSetupReport> {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Phase {
            PacketAtFirstSwitch,
            PacketInAtController,
            ResponsesCollected,
            EntriesInstalled,
            PacketAtServer,
        }

        let topo = self.map.topology();
        let src_node = topo.node_by_addr(flow.src_ip)?.id;
        let dst_node = topo.node_by_addr(flow.dst_ip)?.id;
        let controller_node = topo
            .nodes_of_kind(NodeKind::Controller)
            .into_iter()
            .next()?;
        let path = self.map.routing().path(src_node, dst_node)?.to_vec();
        if path.len() < 2 {
            return None;
        }
        let first_switch = path[1];
        let path_switches = self.map.path_switch_count(flow);

        // One-way latencies derived from the topology.
        let client_to_first_switch = topo.path_latency(&path[..2])?;
        let full_path = topo.path_latency(&path)? + SWITCH_PROCESSING.times(path_switches as u64);
        let first_switch_to_controller = self
            .map
            .routing()
            .path(first_switch, controller_node)
            .and_then(|p| topo.path_latency(p))?;
        let controller_to_src = self
            .map
            .routing()
            .path(controller_node, src_node)
            .and_then(|p| topo.path_latency(p))?;
        let controller_to_dst = self
            .map
            .routing()
            .path(controller_node, dst_node)
            .and_then(|p| topo.path_latency(p))?;
        let first_switch_to_server =
            topo.path_latency(&path[1..])? + SWITCH_PROCESSING.times(path_switches as u64);

        // The decision tier's actual decision (drives rule-evaluation cost
        // and the number of flow-mods to install). Deciding needs `&mut
        // self`, so the topology borrow is re-acquired afterwards.
        let now = self.clock;
        let decision = self.decide_at(flow, now);
        let topo = self.map.topology();
        let eval_cost =
            CONTROLLER_OVERHEAD + PER_RULE_COST.times(decision.verdict.rules_evaluated as u64);
        let query_rtt_src = controller_to_src.times(2) + DAEMON_PROCESSING;
        let query_rtt_dst = controller_to_dst.times(2) + DAEMON_PROCESSING;
        let query_wait = if decision.from_cache || decision.queries_issued == 0 {
            Duration::ZERO
        } else {
            // Queries to both ends go out in parallel (Fig. 1 step 3).
            Duration::from_micros(query_rtt_src.as_micros().max(query_rtt_dst.as_micros()))
        };
        // Flow-mods are pushed to all path switches in parallel; the furthest
        // switch bounds the wait.
        let mut install_wait = Duration::ZERO;
        for m in &decision.flow_mods {
            if let Some(node) = self.map.switch_node(m.switch) {
                if let Some(latency) = self
                    .map
                    .routing()
                    .path(controller_node, node)
                    .and_then(|p| topo.path_latency(p))
                {
                    if latency > install_wait {
                        install_wait = latency;
                    }
                }
            }
        }
        self.apply_flow_mods(&decision.flow_mods, now);

        // Drive the phases through the event queue so the timing logic is the
        // discrete-event simulation, not ad-hoc arithmetic.
        let mut queue: EventQueue<Phase> = EventQueue::new();
        queue.schedule_after(
            client_to_first_switch + SWITCH_PROCESSING,
            Phase::PacketAtFirstSwitch,
        );
        let mut setup_latency = 0u64;
        let mut decision_kind = decision.verdict.decision;
        queue.run(64, |queue, at, phase| match phase {
            Phase::PacketAtFirstSwitch => {
                queue.schedule_after(first_switch_to_controller, Phase::PacketInAtController);
            }
            Phase::PacketInAtController => {
                queue.schedule_after(query_wait + eval_cost, Phase::ResponsesCollected);
            }
            Phase::ResponsesCollected => {
                queue.schedule_after(install_wait, Phase::EntriesInstalled);
            }
            Phase::EntriesInstalled => {
                if decision_kind == Decision::Pass {
                    queue.schedule_after(first_switch_to_server, Phase::PacketAtServer);
                } else {
                    // Denied flows never reach the server; setup "completes"
                    // when the drop entry is installed.
                    setup_latency = at.as_micros();
                }
            }
            Phase::PacketAtServer => {
                setup_latency = at.as_micros();
            }
        });
        // Keep clippy happy about the unused mutation pattern above.
        let _ = &mut decision_kind;

        let ident_exchanges = decision.queries_issued
            + decision.src_response.iter().count() as u32
            + decision.dst_response.iter().count() as u32;
        let openflow_messages = 1 + decision.flow_mods.len() as u32 + 1; // packet-in + mods + packet-out

        Some(FlowSetupReport {
            flow: *flow,
            decision: decision.verdict.decision,
            path_switches,
            setup_latency_us: setup_latency,
            cached_latency_us: full_path.as_micros(),
            ident_exchanges,
            openflow_messages,
        })
    }
}

impl std::fmt::Debug for EnterpriseNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnterpriseNetwork")
            .field("hosts", &self.host_addrs.len())
            .field("switches", &self.switches.len())
            .field("shards", &self.shard_count())
            .field("clock", &self.clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{firefox_app, skype_app};

    const APP_POLICY: &str =
        "block all\npass all with eq(@src[name], firefox) keep state\npass all with eq(@src[name], skype) with eq(@dst[name], skype) keep state\n";

    #[test]
    fn first_packet_miss_goes_to_controller_and_installs_path() {
        let mut net = EnterpriseNetwork::star(6, APP_POLICY).unwrap();
        let hosts = net.host_addrs();
        let flow = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());
        let outcome = net.deliver_first_packet(&flow, 0);
        assert!(outcome.delivered);
        assert_eq!(outcome.decision, Some(Decision::Pass));
        assert_eq!(outcome.queries_issued, 2);
        assert!(outcome.entries_installed >= 2);
        assert_eq!(outcome.switches_traversed, 1);

        // A second packet of the same flow is forwarded without another
        // packet-in (the switch entry serves it).
        let audited_before = net.controller().audit().len();
        let second = net.deliver_first_packet(&flow, 100);
        assert!(second.delivered);
        assert_eq!(net.controller().audit().len(), audited_before);
    }

    #[test]
    fn blocked_application_never_reaches_the_server() {
        let mut net = EnterpriseNetwork::star(6, APP_POLICY).unwrap();
        let hosts = net.host_addrs();
        let malware = Executable::new("/tmp/malware", "malware", 1, "unknown", "unknown");
        let flow = net.start_app(hosts[2], hosts[3], 80, "guest", malware);
        let outcome = net.deliver_first_packet(&flow, 0);
        assert!(!outcome.delivered);
        assert_eq!(outcome.decision, Some(Decision::Block));
    }

    /// Builds a star network sharded `shards` ways with the app policy.
    fn sharded_star(shards: usize) -> EnterpriseNetwork {
        let config = ControllerConfig::new().with_control_file("00.control", APP_POLICY);
        EnterpriseNetwork::star_with_config_sharded(6, config, shards).unwrap()
    }

    #[test]
    fn sharded_network_decides_identically_to_single() {
        let mut single = EnterpriseNetwork::star(6, APP_POLICY).unwrap();
        let mut sharded = sharded_star(4);
        assert_eq!(single.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 4);
        assert!(sharded.sharded().is_some());

        let hosts = single.host_addrs();
        assert_eq!(hosts, sharded.host_addrs());
        // A mixed workload: firefox (pass), malware (block), skype pair
        // staged on both tiers, plus repeats that must hit the cache.
        let malware = Executable::new("/tmp/malware", "malware", 1, "unknown", "unknown");
        let staged: Vec<(Ipv4Addr, Ipv4Addr, u16, &str, Executable)> = vec![
            (hosts[0], hosts[1], 80, "alice", firefox_app()),
            (hosts[2], hosts[3], 80, "guest", malware),
            (hosts[4], hosts[5], 80, "bob", skype_app(210)),
        ];
        for net in [&mut single, &mut sharded] {
            net.run_service(hosts[5], "bob", skype_app(210), 80);
        }
        let mut flows = Vec::new();
        for (src, dst, port, user, exe) in staged {
            let f1 = single.start_app(src, dst, port, user, exe.clone());
            let f2 = sharded.start_app(src, dst, port, user, exe);
            assert_eq!(f1, f2, "port allocation must match across tiers");
            flows.push(f1);
        }
        for flow in flows.iter().chain(flows.iter()) {
            let a = single.decide(flow);
            let b = sharded.decide(flow);
            assert_eq!(a.verdict.decision, b.verdict.decision);
            assert_eq!(a.from_cache, b.from_cache);
            assert_eq!(a.queries_issued, b.queries_issued);
        }
        assert_eq!(single.audit_len(), sharded.audit_len());
        assert_eq!(single.total_queries(), sharded.total_queries());
        assert!((single.cache_hit_ratio() - sharded.cache_hit_ratio()).abs() < 1e-9);
    }

    #[test]
    fn sharded_network_sees_daemon_mutations_on_every_shard() {
        // The shared-directory point: one mutation through the facade is
        // visible to whichever shard the flow routes to — no N diverging
        // daemon copies.
        let mut net = sharded_star(3);
        let hosts = net.host_addrs();
        let flow = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());
        assert!(net.decide(&flow).is_pass());
        // Compromise the source daemon to forge an unknown application: the
        // next *fresh* flow (different host pair → possibly another shard)
        // must see the forgery.
        net.daemon_mut(hosts[0])
            .unwrap()
            .set_forged_response(Some(vec![("name".to_string(), "unknownd".to_string())]));
        for dst in &hosts[2..] {
            let fresh = net.start_app(hosts[0], *dst, 80, "alice", firefox_app());
            assert!(
                !net.decide(&fresh).is_pass(),
                "forged identity must be visible to the shard deciding {dst}"
            );
        }
    }

    #[test]
    fn sharded_network_delivers_first_packets_through_the_data_plane() {
        let mut net = sharded_star(2);
        let hosts = net.host_addrs();
        let flow = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());
        let outcome = net.deliver_first_packet(&flow, 0);
        assert!(outcome.delivered);
        assert_eq!(outcome.decision, Some(Decision::Pass));
        assert_eq!(outcome.queries_issued, 2);
        // Fig. 1 timing simulation runs on the sharded tier too.
        let report = net.simulate_flow_setup(&flow).unwrap();
        assert_eq!(report.decision, Decision::Pass);
    }

    #[test]
    fn chain_flow_setup_report_scales_with_path_length() {
        let config = ControllerConfig::new().with_control_file(
            "00.control",
            "block all\npass all with eq(@src[name], firefox) keep state\n",
        );
        let mut short = EnterpriseNetwork::chain(1, config.clone()).unwrap();
        let mut long = EnterpriseNetwork::chain(8, config).unwrap();

        let report_for = |net: &mut EnterpriseNetwork| {
            let hosts = net.host_addrs();
            // client is 10.0.0.1, server 10.0.1.1 in the chain topology.
            let client = hosts
                .iter()
                .copied()
                .find(|a| *a == Ipv4Addr::new(10, 0, 0, 1))
                .unwrap();
            let server = hosts
                .iter()
                .copied()
                .find(|a| *a == Ipv4Addr::new(10, 0, 1, 1))
                .unwrap();
            let flow = net.start_app(client, server, 80, "alice", firefox_app());
            net.simulate_flow_setup(&flow).unwrap()
        };
        let short_report = report_for(&mut short);
        let long_report = report_for(&mut long);
        assert_eq!(short_report.decision, Decision::Pass);
        assert_eq!(short_report.path_switches, 1);
        assert_eq!(long_report.path_switches, 8);
        assert!(long_report.setup_latency_us > short_report.setup_latency_us);
        assert!(long_report.cached_latency_us > short_report.cached_latency_us);
        // Setup costs well more than the cached path (it includes queries).
        assert!(short_report.setup_overhead() > 2.0);
        assert_eq!(short_report.ident_exchanges, 4);
        assert!(short_report.openflow_messages >= 3);
    }

    #[test]
    fn cached_flows_skip_the_query_wait() {
        let mut net = EnterpriseNetwork::star(4, APP_POLICY).unwrap();
        let hosts = net.host_addrs();
        let flow = net.start_app(hosts[0], hosts[1], 80, "alice", firefox_app());
        let first = net.simulate_flow_setup(&flow).unwrap();
        let second = net.simulate_flow_setup(&flow).unwrap();
        assert!(second.setup_latency_us < first.setup_latency_us);
        assert_eq!(second.ident_exchanges, 0);
    }

    #[test]
    fn skype_pair_policy_needs_both_ends() {
        let mut net = EnterpriseNetwork::star(6, APP_POLICY).unwrap();
        let hosts = net.host_addrs();
        // Destination runs skype.
        net.run_service(hosts[5], "bob", skype_app(210), 80);
        let flow = net.start_app(hosts[4], hosts[5], 80, "alice", skype_app(210));
        assert!(net.decide(&flow).is_pass());
        // Destination without skype: blocked.
        let flow2 = net.start_app(hosts[4], hosts[3], 80, "alice", skype_app(210));
        assert!(!net.decide(&flow2).is_pass());
    }

    #[test]
    fn unknown_addresses_are_not_delivered() {
        let mut net = EnterpriseNetwork::star(3, APP_POLICY).unwrap();
        let stranger = FiveTuple::tcp([192, 168, 77, 1], 1, [192, 168, 77, 2], 80);
        let outcome = net.deliver_first_packet(&stranger, 0);
        assert!(!outcome.delivered);
        assert!(net.simulate_flow_setup(&stranger).is_none());
    }

    #[test]
    fn two_tier_topology_works_end_to_end() {
        let config = ControllerConfig::new().with_control_file(
            "00.control",
            "block all\npass all with eq(@src[name], firefox) keep state\n",
        );
        let mut net = EnterpriseNetwork::two_tier(3, 4, config).unwrap();
        let hosts = net.host_addrs();
        // Cross-edge flow traverses host→edge→core→edge→host = 3 switches.
        let flow = net.start_app(hosts[0], hosts[11], 80, "alice", firefox_app());
        let outcome = net.deliver_first_packet(&flow, 0);
        assert!(outcome.delivered);
        assert_eq!(outcome.switches_traversed, 3);
    }
}
