//! # softmem-daemon — the Soft Memory Daemon (SMD)
//!
//! The machine-wide half of soft memory (§3.3 of the paper): the SMD
//! tracks each process's soft-memory budget and utilisation, approves
//! budget requests, and — under memory pressure — selects reclamation
//! targets and demands pages back, so that one process's allocation can
//! be satisfied by revoking another's revocable memory instead of
//! killing anyone.
//!
//! Components:
//!
//! * [`Smd`] — the daemon core: accounts, the request/grant/deny state
//!   machine, target selection (descending reclamation weight, capped
//!   target count, bias toward low-disturbance targets, fixed
//!   over-reclamation percentage) and a decision log.
//! * [`policy`] — pluggable reclamation-weight policies, including the
//!   paper's incentive-preserving weight and ablation alternatives.
//! * [`SoftProcess`] — the client runtime: glues one process's
//!   [`Sma`](softmem_core::Sma) to the daemon (registration, budget
//!   growth on allocation, servicing reclamation demands).
//! * [`uds`] — a unix-domain-socket deployment: genuinely separate
//!   processes (own SMAs, own address spaces) registering, requesting
//!   budget and servicing reclamation demands over the socket.
//!
//! In this reproduction "processes" are threads sharing one address
//! space; the protocol, accounting, and every policy decision are
//! identical to the multi-process deployment the paper describes (see
//! DESIGN.md §2 for the substitution argument).
//!
//! # Examples
//!
//! ```
//! use softmem_core::{MachineMemory, Priority};
//! use softmem_daemon::{Smd, SmdConfig, SoftProcess};
//! use softmem_sds::{SoftContainer, SoftQueue};
//!
//! let machine = MachineMemory::new(4096);
//! let smd = Smd::new(SmdConfig::new(&machine, 64)); // 64 pages of soft memory
//! let a = SoftProcess::spawn(&smd, "service-a").unwrap();
//! let b = SoftProcess::spawn(&smd, "batch-b").unwrap();
//!
//! // Process A fills a queue; its budget grows on demand via the SMD.
//! let qa: SoftQueue<[u8; 4096]> = SoftQueue::new(a.sma(), "qa", Priority::new(1));
//! for _ in 0..48 {
//!     qa.push([0u8; 4096]).unwrap();
//! }
//!
//! // Process B now wants more than the 16 unassigned pages: the SMD
//! // reclaims from A instead of failing B's allocation.
//! let qb: SoftQueue<[u8; 4096]> = SoftQueue::new(b.sma(), "qb", Priority::new(1));
//! for _ in 0..32 {
//!     qb.push([1u8; 4096]).unwrap();
//! }
//! assert!(qa.len() < 48, "A gave up pages");
//! assert_eq!(qb.len(), 32, "B's allocations all succeeded");
//! ```

mod account;
mod client;
mod metrics;
pub mod policy;
mod smd;
pub mod uds;

pub use account::{DirectChannel, ProcSnapshot, ProcUsage, ReclaimChannel, ReclaimReply};
pub use client::SoftProcess;
pub use metrics::SmdMetrics;
pub use policy::WeightPolicy;
pub use smd::{Pid, ReclaimDecision, Smd, SmdConfig, SmdHook, SmdStats, TargetOutcome};
pub use uds::{UdsClientConfig, UdsClientMetrics, UdsKillSwitch, UdsProcess, UdsSmdServer};
