//! *Real* deployments of the paper's Algorithm 1, in two tiers.
//!
//! The simulation crate (`iabc-sim`) executes the paper's model
//! deterministically in a single loop; this crate runs the same protocol as
//! deployed processes exchanging messages over authenticated point-to-point
//! links (the paper's §2.1 network model). Byzantine nodes run a
//! [`LocalByzantine`] strategy: true to the fault model (§2.2) they may
//! send *different* lies on different edges, but unlike the simulator's
//! omniscient adversaries they only know what they legitimately received —
//! the strongest behaviours that are *implementable* in a deployment.
//!
//! # Two tiers, one protocol
//!
//! **Threaded — the fidelity reference.** [`run_threaded`] spawns one OS
//! thread per node and one crossbeam channel per directed edge. The
//! synchronous-round structure emerges from the protocol itself — send one
//! message per out-edge, block until one message per in-edge — with no
//! global barrier or shared clock anywhere. The concurrency is real, which
//! is the point, and also the ceiling: a few thousand nodes is where OS
//! threads stop scaling.
//!
//! **Multiplexed — the scale tier.** [`run_multiplexed`] (and the
//! tick-by-tick [`MultiplexedDeployment`]) keeps every node's state in one
//! flat column (faulty nodes add a strategy and an inbox in a small side
//! table), parks messages in per-edge [`Mailboxes`] slots indexed by the
//! compiled topology's CSR, and runs each tick's send, readiness scan and
//! update on the shared `iabc-exec` pool. Memory is proportional to edges
//! plus states and OS threads are exactly `jobs`, so a million-node sparse
//! network runs on one host. Delivery goes through
//! the [`Transport`] trait — [`LocalTransport`] deposits in-process; the
//! wire framing and credit-based flow control a TCP transport needs are
//! specified on the trait so it can slot in without touching protocol
//! logic.
//!
//! Approximate single-host capacity (sparse degree-10 graphs, default
//! window):
//!
//! | nodes | threaded | multiplexed |
//! |---|---|---|
//! | 10³ | ~10³ threads | `jobs` threads |
//! | 10⁵ | thread exhaustion likely | `jobs` threads, ~10⁶ mailbox cells |
//! | 10⁶ | impossible | `jobs` threads, memory ∝ edges + states |
//!
//! Both tiers execute identical arithmetic: honest nodes sanitize their
//! inbox and apply the shared `trim_kernel`, gathering in-neighbors in
//! ascending sender order. The test suite pins the multiplexed tier
//! bit-for-bit to the threaded runtime *and* to the deterministic engine
//! (same inputs, same adversary ⇒ identical `f64` states, round by round),
//! so everything proved about the engine transfers to both.
//!
//! # Example
//!
//! ```
//! use iabc_graph::{generators, NodeSet};
//! use iabc_runtime::{run_multiplexed, run_threaded, ConstantLiar};
//!
//! let g = generators::complete(7);
//! let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 9.0, 9.0];
//! let faults = NodeSet::from_indices(7, [5, 6]);
//! let threaded = run_threaded(
//!     &g, &inputs, &faults, 2, 50,
//!     |_node| Box::new(ConstantLiar { value: 1e6 }),
//! )?;
//! let multiplexed = run_multiplexed(
//!     &g, &inputs, &faults, 2, 50,
//!     |_node| Box::new(ConstantLiar { value: 1e6 }),
//!     4, // worker threads, regardless of node count
//! )?;
//! assert_eq!(threaded, multiplexed); // bit-for-bit, not just close
//! assert!(threaded.honest_range() < 1e-3);
//! # Ok::<(), iabc_runtime::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod behavior;
mod deploy;
mod error;
mod mailbox;
mod node;
mod scheduler;
mod transport;

pub use behavior::{ConstantLiar, InboxExtremist, LocalByzantine, SplitBrainLiar};
pub use deploy::{run_threaded, DeployReport};
pub use error::RuntimeError;
pub use mailbox::{Mailboxes, DEFAULT_WINDOW};
pub use scheduler::{run_multiplexed, MultiplexConfig, MultiplexedDeployment};
pub use transport::{LocalTransport, Transport};
