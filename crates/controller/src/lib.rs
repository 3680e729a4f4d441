//! # identxx-controller — the ident++ OpenFlow controller
//!
//! "When an OpenFlow switch cannot find a match for a packet in its flow
//! table, it sends the packet to the ident++ controller. When the controller
//! receives the packet, it queries the source and destination ident++ daemons
//! for additional information. The information is then stored in the `@src`
//! and the `@dst` dictionaries. The controller then executes the rules that
//! are stored in its configuration files" (§3.4).
//!
//! The crate provides:
//!
//! * [`config`] — the controller's configuration: `.control` files, trusted
//!   public keys, named group lists, defaults,
//! * [`backend`] — the pluggable query plane ([`QueryBackend`]): in-process
//!   daemons for the simulator (owned, or shared across shards via
//!   [`SharedDirectoryBackend`]), concurrent dual-end TCP queries for
//!   deployments (per-host futures joined under one deadline on the
//!   runtime's reactor — zero threads per round, DESIGN.md §7), a recording
//!   double for tests — plus the batched [`QueryBackend::query_flows`]
//!   round that resolves many flows at one round trip per host
//!   (`QUERY-BATCH` frames on pooled connections), and its future form
//!   [`QueryBackend::query_round`], which the tier joins across shards,
//! * [`shard`] — the horizontally scaled tier: [`ShardedController`] routes
//!   flows over N independent controller shards with a consistent-hash
//!   [`ShardRouter`] keyed on cache-granularity-normalized flow keys, and
//!   merges per-shard stats (sums) and audit logs (time-ordered) for
//!   operators — see `DESIGN.md` §6,
//! * [`querier`] — the directory of in-process daemons behind
//!   [`backend::InProcessBackend`],
//! * [`intercept`] — interception and augmentation of queries/responses by
//!   on-path controllers (answering on behalf of hosts, adding sections),
//! * [`install`] — turning decisions into flow-table entries along the flow's
//!   switch path,
//! * [`audit`] — the audit log that makes delegation supervisable ("log and
//!   audit the delegates' actions, and revoke the delegation if needed", §1),
//! * [`controller`] — [`IdentxxController`] itself, which implements the
//!   OpenFlow controller interface.

pub mod audit;
pub mod backend;
pub mod config;
pub mod controller;
pub mod install;
pub mod intercept;
pub mod querier;
pub mod shard;

pub use audit::{AuditLog, AuditRecord, PolicyNote};
pub use backend::{
    BackendStats, BreakerConfig, FlowRequest, FlowResponses, InProcessBackend, NetworkBackend,
    QueryBackend, RecordingBackend, RoundFuture, SharedDirectoryBackend,
};
pub use config::ControllerConfig;
pub use controller::{FlowDecision, IdentxxController};
pub use install::NetworkMap;
pub use intercept::{Interceptor, QueryTarget, ResponseAugmenter};
pub use querier::DaemonDirectory;
pub use shard::{ShardRouter, ShardedController};
