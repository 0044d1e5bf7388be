//! # softmem-bench — harnesses reproducing the paper's evaluation
//!
//! One binary per table/figure (see `src/bin/`), plus `tier_pressure`
//! (the cold tier's hit-rate gate) and `telemetry_baseline` (the
//! metric snapshot). This library holds the shared experiment
//! implementations so the binaries and the test suite drive the
//! *same* code:
//!
//! | paper artefact | module | binary |
//! |---|---|---|
//! | Figure 2 (reclamation timeline) | `softmem_sim::pressure` | `fig2_redis_timeline` |
//! | §5 stress cases (1)–(3) | [`stress`] | `table1_stress` |
//! | §5 crash/restart baseline | `softmem_kv::crash` | `table2_crash_vs_reclaim` |
//! | §2 motivation (evictions) | `softmem_sim::cluster` | `motivation_cluster` |
//! | §7 policy ablation | [`policies`] | `ablation_policies` |
//! | §3.1 heap-layout ablation | [`heap_layout`] | `ablation_heap_layout` |
//! | §4 over-reclamation sweep | [`overreclaim`] | `ablation_overreclaim` |

pub mod heap_layout;
pub mod overreclaim;
pub mod policies;
pub mod report;
pub mod stress;
