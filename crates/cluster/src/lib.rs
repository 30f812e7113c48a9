//! The NDJSON wire layer shared by `aeetes serve` and `aeetes fleet`, and
//! fault-tolerant coordination over a replicated fleet of `aeetes serve`
//! processes.
//!
//! The coordinator ([`run_fleet`]) speaks the same NDJSON protocol as a
//! single `aeetes serve` — clients do not change — and in front of N
//! replicas adds:
//!
//! - **load balancing**: extract requests round-robin over the routable
//!   (up, non-draining) replicas;
//! - **failover**: retryable failures (shedding, timeout, connection
//!   reset) retry on a *different* replica with capped exponential
//!   backoff and deterministic jitter ([`Backoff`]);
//! - **exactly-once answers**: every admitted request is answered exactly
//!   once — forwarded response, retry exhaustion, deadline expiry, or the
//!   drain sweep — enforced by the [`PendingTable`] ledger, with
//!   at-most-once extraction per replica as a corollary of its `tried`
//!   list;
//! - **fleet-wide reloads**: a client `reload` ships the dictionary delta
//!   two-phase (prepare everywhere, then activate), so the fleet never
//!   serves a mixed set of generations; replicas that die mid-swap are
//!   resynced from the coordinator's delta log when they rejoin;
//! - **supervision**: spawned replicas are respawned when they die,
//!   remote replicas are re-dialed, and hung replicas are detected by
//!   health-probe timeouts and cut loose;
//! - **durable deltas** ([`FleetOptions::wal`]): activated deltas are
//!   appended to a write-ahead log and fsynced before the client's ack, a
//!   restarted coordinator restores its generation math and resync log
//!   from disk, and a [`Compactor`] folds a grown log into a fresh engine
//!   artifact so both the log and the in-memory delta list stay bounded.
//!
//! The crate is also the lowest one both ends of the protocol reach, so
//! it owns the wire layer they share ([`wire`]: line framing in and out,
//! the error taxonomy) and the delta-log commit and decode steps ([`wal`]).
//! `aeetes serve` and this coordinator frame, write, and classify lines
//! through the same code, so a replica's answer means the same thing to
//! the fleet as to a direct client.

mod backoff;
mod coordinator;
mod pending;
mod replica;
pub mod wal;
pub mod wire;

pub use backoff::Backoff;
pub use coordinator::{run_fleet, Compactor, FleetOptions, FleetSummary};
pub use pending::{FailOutcome, PendingTable};
pub use replica::{Replica, ReplicaSpec};
