//! The DStress Genetic Algorithm search engine (paper §III-E).
//!
//! The GA explores the space of data / memory-access patterns declared by a
//! virus template. Each chromosome encodes one concrete pattern; the fitness
//! of a chromosome is the number of DRAM errors its virus manifests on the
//! experimental server. The engine implements exactly the machinery the
//! paper describes:
//!
//! * **chromosomes** ([`genome`]) — binary vectors for data patterns and
//!   row bitmaps, bounded integer vectors for access-stride coefficients;
//! * **selection** ([`ops::selection`]) — fitness-proportional roulette (the
//!   classic choice), plus tournament and truncation for the ablation
//!   benches;
//! * **mutation / crossover** ([`ops`]) — per-chromosome mutation
//!   probability 0.5 and crossover probability 0.9 with population 40, the
//!   optimum the paper finds with its popcount calibration (§V "Parameters
//!   of the GA search");
//! * **convergence** ([`engine`]) — stop when the mean pairwise
//!   Sokal–Michener (binary) or weighted Jaccard (integer) similarity of
//!   the population exceeds 0.85, or when the generation budget (the
//!   paper's two-week wall-clock cap) is exhausted;
//! * **the virus database** ([`db`]) — every evaluated chromosome and its
//!   error counts are recorded so an interrupted search can resume
//!   (§III-F).
//!
//! # Examples
//!
//! Reproducing the paper's GA-parameter calibration (maximize the number of
//! `1` bits in a 64-bit chromosome):
//!
//! ```
//! use dstress_ga::{BitGenome, FnFitness, GaConfig, GaEngine};
//!
//! let config = GaConfig::paper_defaults();
//! let mut engine = GaEngine::new(config, 42);
//! let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
//! let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
//! assert!(result.best_fitness >= 60.0, "GA should nearly solve popcount");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod engine;
pub mod fitness;
pub mod genome;
pub mod journal;
pub mod ops;
pub mod pool;
pub mod supervise;

pub use db::{VirusDatabase, VirusRecord};
pub use engine::{
    EngineState, EvalStats, GaConfig, GaEngine, GenerationStats, SearchResult, SearchSession,
};
pub use fitness::{EvalFault, FaultKind, Fitness, FnFitness, ParallelFitness};
pub use genome::{BitGenome, Genome, IntGenome};
pub use journal::{
    run_campaigns, CampaignJournal, CampaignRun, DiskStorage, JournaledCampaign, MemStorage,
    SharedStorage, Snapshot, Storage, StoredCheckpoint, StoredIncident,
};
pub use ops::crossover::CrossoverOp;
pub use ops::selection::SelectionScheme;
pub use pool::{CampaignScheduler, EvalPool};
pub use supervise::{Hazard, HazardPlan, Incident, IncidentKind, SupervisionPolicy};
