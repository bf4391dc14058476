//! # aml-netsim
//!
//! A deterministic discrete-event network simulator with six
//! congestion-control protocols, standing in for the Pantheon emulator the
//! paper used to label its "Scream vs rest" dataset.
//!
//! Design goals follow the smoltcp school: event-driven, simple, robust,
//! allocation-light, and **fully deterministic** — a `(NetworkCondition,
//! seed)` pair always produces the identical packet trace. There is no async
//! runtime anywhere: simulated time is advanced by an event queue (a
//! binary heap plus a FIFO lane for ACKs, which are scheduled in time
//! order), which is both faster and reproducible.
//!
//! ## Topology
//!
//! The classic single-bottleneck dumbbell:
//!
//! ```text
//! sender(s) ──▶ [DropTail/RED queue] ──▶ (rate R, delay D/2, loss p) ──▶ receiver
//!     ▲                                                                    │
//!     └─────────────────── ACK path (delay D/2, clean) ◀───────────────────┘
//! ```
//!
//! All `n_flows` flows run the same protocol and share the bottleneck
//! (the paper's feature is "number of concurrent flows"). Data packets are
//! FIFO through the queue; the in-order delivery property makes loss
//! detection exact: an ACK for sequence `n` proves every older outstanding
//! sequence was lost.
//!
//! The link is analytic, not event-driven. The bottleneck serves one
//! packet at a time at rate `R`, so an admitted packet's service start is
//! `max(arrival, previous departure)` and its departure is that plus its
//! serialization time. The queue ([`queue`], [`red`]) only keeps the
//! service starts still in the future, to decide drops. Delivery is
//! inferred at ACK time: the ACK is scheduled at `departure + D` when the
//! packet is admitted, and when it pops the packet reached the receiver
//! `D/2` earlier. Each sent packet costs at most one event.
//!
//! ## Protocols ([`cc`])
//!
//! | protocol | family | reacts to |
//! |---|---|---|
//! | [`cc::scream::Scream`] | self-clocked rate adaptation (RFC 8298 spirit) | queuing delay target |
//! | [`cc::reno::Reno`] | AIMD window | loss |
//! | [`cc::cubic::Cubic`] | cubic window | loss |
//! | [`cc::vegas::Vegas`] | delay-based window | RTT inflation |
//! | [`cc::bbr::Bbr`] | model-based rate | delivery rate + min RTT |
//! | [`cc::copa::Copa`] | delay-target rate | queuing delay |
//!
//! ## Labeling ([`runner`])
//!
//! A condition is labelled **"use Scream"** when Scream achieves the lowest
//! mean packet delay among protocols that also reach a minimum useful
//! throughput (40% of the link). The disqualification clause is what
//! makes the problem non-trivial — a delay-targeting protocol that
//! collapses under random loss should *not* be chosen, which is exactly the
//! regime the paper's running example probes. Labelling simulates Scream
//! first and stops at the first rival that beats it, so a label costs two
//! to six simulations.

pub mod cc;
pub mod datagen;
pub mod event;
pub mod flow;
pub mod queue;
pub mod red;
pub mod runner;
pub mod scenario;
pub mod sim;
pub mod time;

pub use cc::{CcKind, CongestionControl};
pub use runner::{label_condition, ProtocolResult};
pub use scenario::{ConditionDomain, NetworkCondition};
pub use sim::{FlowStats, SimConfig, Simulation};
pub use time::{Duration, SimTime};

/// Errors from the simulation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A network-condition parameter is outside its physical range.
    InvalidCondition(String),
    /// A simulator configuration value is invalid.
    InvalidConfig(String),
    /// Dataset layer failure during data generation.
    Data(aml_dataset::DataError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidCondition(m) => write!(f, "invalid network condition: {m}"),
            SimError::InvalidConfig(m) => write!(f, "invalid simulator config: {m}"),
            SimError::Data(e) => write!(f, "dataset error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<aml_dataset::DataError> for SimError {
    fn from(e: aml_dataset::DataError) -> Self {
        SimError::Data(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
