//! # DStress — automatic synthesis of DRAM reliability stress viruses
//!
//! A full-system reproduction of *DStress: Automatic Synthesis of DRAM
//! Reliability Stress Viruses using Genetic Algorithms* (Mukhanov,
//! Nikolopoulos, Karakonstantis — MICRO 2020) on a simulated experimental
//! platform.
//!
//! DStress searches for the data patterns and memory access patterns that
//! maximize the number of DRAM errors a server's ECC hardware observes,
//! *without any knowledge of the DRAM internal design*. The search engine
//! is a genetic algorithm over virus templates written in a small C-like
//! template language.
//!
//! ## Architecture (paper Fig. 4)
//!
//! 1. **Processing phase** — [`templates`] + `dstress-vpl`: lexical, syntax
//!    and semantic analysis of virus templates; extraction of the searched
//!    parameters.
//! 2. **Synthesis phase** — [`search`] + `dstress-ga`: GA over chromosomes
//!    encoding data / access patterns, with Sokal–Michener / weighted
//!    Jaccard convergence on the top-40 leaderboard and a virus database
//!    for resuming interrupted campaigns.
//! 3. **Evaluation phase** — [`evaluate`] + `dstress-platform` +
//!    `dstress-dram`: each candidate virus runs on a simulated X-Gene 2
//!    server with four DIMMs under relaxed refresh period and supply
//!    voltage at controlled temperature; fitness is the CE / UE count from
//!    the SECDED ECC model.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dstress::{DStress, ExperimentScale, Metric};
//!
//! let mut dstress = DStress::new(ExperimentScale::quick(), 42);
//! let campaign = dstress.search_word64(60.0, Metric::CeAverage, false)?;
//! println!(
//!     "worst 64-bit pattern: {:#018x} ({} CEs/run)",
//!     campaign.result.best.to_words()[0],
//!     campaign.result.best_fitness,
//! );
//! # Ok::<(), dstress::DStressError>(())
//! ```
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation section; see EXPERIMENTS.md for paper-vs-measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod evaluate;
pub mod experiments;
pub mod march;
pub mod microbench;
pub mod patterns;
pub mod report;
pub mod scale;
pub mod search;
pub mod service;
pub mod templates;
pub mod usecases;
pub mod usecases_retention;
pub mod workloads;

pub use dstress_ga::journal::{CampaignJournal, DiskStorage, MemStorage, SharedStorage, Storage};
pub use dstress_ga::pool::{CampaignScheduler, EvalPool};
pub use dstress_ga::supervise::{Hazard, HazardPlan, Incident, IncidentKind, SupervisionPolicy};
pub use dstress_ga::EvalStats;
pub use error::{DStressError, PlatformError};
pub use evaluate::{
    CampaignFitness, EvalOutcome, Metric, ParallelBitFitness, ParallelIntFitness, VirusEvaluator,
};
pub use microbench::Baseline;
pub use scale::ExperimentScale;
pub use search::{Campaign, DStress, EnvKind, BEST_WORD, WORST_WORD};
pub use workloads::Workload;
