//! The GA main loop (paper §III-E).
//!
//! Convergence follows the paper's observable: Fig. 8 plots "the 40
//! discovered worst-case patterns which trigger the highest number of CEs"
//! and §V-A.1 says "GA stopped the search process when the similarity
//! function for the 40 worst-case 64-bit patterns exceeded 0.85". The
//! engine therefore maintains a **leaderboard** of the top-N *distinct*
//! chromosomes ever evaluated and stops when the leaderboard's mean pairwise
//! similarity crosses the threshold. A unimodal landscape funnels the
//! leaderboard into one neighbourhood (convergence); a multi-modal or
//! saturating landscape fills it with unrelated high scorers and the search
//! runs out its generation budget — exactly the paper's convergent CE
//! searches vs. non-convergent UE/access searches.

use crate::fitness::ParallelFitness;
use crate::genome::Genome;
use crate::journal::{run_campaigns, CampaignRun};
use crate::ops::selection::SelectionScheme;
use crate::pool::PoolTask;
use crate::supervise::{
    finite_mean, nan_last_cmp, nan_last_max, EvalVerdict, HazardPlan, Incident, IncidentKind,
    PendingIncident, SupervisionPolicy,
};
use dstress_stats::mean_pairwise;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::time::Instant;

/// GA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Population size (paper optimum: 40). Also the leaderboard size.
    pub population_size: usize,
    /// Per-chromosome probability of undergoing mutation (paper optimum:
    /// 0.5).
    pub mutation_prob: f64,
    /// Per-gene perturbation rate applied when a chromosome mutates. `None`
    /// selects `1.5/len`.
    pub gene_rate: Option<f64>,
    /// Per-pair probability of crossover (paper optimum: 0.9); otherwise
    /// the parents are copied unchanged.
    pub crossover_prob: f64,
    /// Members copied verbatim into the next generation, best-first.
    pub elitism: usize,
    /// Parent-selection scheme.
    pub selection: SelectionScheme,
    /// Mean pairwise leaderboard similarity above which the search is
    /// converged (paper: 0.85).
    pub convergence_threshold: f64,
    /// Generation budget — the stand-in for the paper's two-week wall-clock
    /// cap on a search.
    pub max_generations: u32,
    /// Minimize instead of maximize (the paper's best-case data-pattern
    /// search flips the fitness function, §V-A.1).
    pub minimize: bool,
    /// Generations without a new best required (together with the
    /// similarity threshold) to declare convergence. Guards against
    /// stopping while the search is still climbing.
    pub stagnation_window: u32,
}

impl GaConfig {
    /// The paper's calibrated parameters: population 40, mutation 0.5,
    /// crossover 0.9 ("GA finds the 64-bit chromosome … for the minimum
    /// number of generations, which is about 80", §V).
    pub fn paper_defaults() -> Self {
        GaConfig {
            population_size: 40,
            mutation_prob: 0.5,
            gene_rate: None,
            crossover_prob: 0.9,
            elitism: 2,
            selection: SelectionScheme::Tournament { k: 2 },
            convergence_threshold: 0.85,
            max_generations: 400,
            minimize: false,
            stagnation_window: 20,
        }
    }

    /// Validates the hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.population_size < 2 {
            return Err("population must have at least two members".into());
        }
        for (name, p) in [
            ("mutation_prob", self.mutation_prob),
            ("crossover_prob", self.crossover_prob),
            ("convergence_threshold", self.convergence_threshold),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must lie in [0, 1], got {p}"));
            }
        }
        if let Some(r) = self.gene_rate {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("gene_rate must lie in [0, 1], got {r}"));
            }
        }
        if self.max_generations == 0 {
            return Err("max_generations must be positive".into());
        }
        Ok(())
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig::paper_defaults()
    }
}

/// Per-generation progress record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: u32,
    /// Best objective value so far (in the user's orientation — larger is
    /// better for maximization searches, smaller for minimization).
    pub best: f64,
    /// Mean objective value of the generation.
    pub mean: f64,
    /// Mean pairwise similarity of the leaderboard.
    pub similarity: f64,
}

/// Evaluation-side bookkeeping for one search: how much substrate work the
/// fitness evaluations cost and how it was distributed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct EvalStats {
    /// Fitness evaluations actually executed on the substrate.
    pub evaluations: u64,
    /// Population slots served without touching the substrate because the
    /// chromosome had already been scored (elites, converged populations and
    /// within-generation duplicates).
    pub cache_hits: u64,
    /// Evaluation worker threads alive after the latest scored round.
    pub workers: usize,
    /// Chromosomes currently retained in the evaluation cache (bounded by
    /// a fixed cap; see [`EngineState::cache`]). Absent in checkpoints
    /// written before the cache was bounded, defaulting to zero.
    #[serde(default)]
    pub cache_size: usize,
    /// Substrate evaluations served from a compile cache. No evaluator in
    /// this workspace has one, so campaigns report 0. Kept because
    /// perfbench's result digest reads it; goes with the next change to the
    /// benchmark. Absent in older checkpoints.
    #[serde(default)]
    pub compile_hits: u64,
    /// The longest any pool worker sat idle inside a single scored round,
    /// in nanoseconds (round wall-clock minus that worker's busy time) —
    /// the straggler tail. A runtime observable (like the timing vector),
    /// not part of the determinism contract. Absent in pre-pool
    /// checkpoints.
    #[serde(default)]
    pub max_worker_idle_ns: u64,
    /// Substrate tasks each pool worker executed, indexed by worker slot.
    /// Absent in pre-pool checkpoints.
    #[serde(default)]
    pub worker_tasks: Vec<u64>,
    /// Wall-clock seconds spent evaluating each scored round; index 0 is
    /// the initial population, subsequent entries are generations.
    pub generation_eval_seconds: Vec<f64>,
}

impl EvalStats {
    /// Total wall-clock seconds spent in fitness evaluation.
    pub fn eval_seconds(&self) -> f64 {
        self.generation_eval_seconds.iter().sum()
    }

    /// Folds one pool round's observability counters in.
    pub(crate) fn note_pool_round(&mut self, round: &PoolRoundStats) {
        self.max_worker_idle_ns = self.max_worker_idle_ns.max(round.max_worker_idle_ns);
        if self.worker_tasks.len() < round.worker_tasks.len() {
            self.worker_tasks.resize(round.worker_tasks.len(), 0);
        }
        for (total, &n) in self.worker_tasks.iter_mut().zip(&round.worker_tasks) {
            *total += n;
        }
    }

    /// Merges another campaign's stats into this one — the scheduler's
    /// cross-campaign view. The merge is a deterministic function of the
    /// two inputs: counters add, worker-indexed vectors add elementwise
    /// (padded), per-round timings add round-by-round, and the idle
    /// high-water mark takes the max, so folding campaigns in any fixed
    /// order yields the same totals and [`eval_seconds`] stays the summed
    /// wall-clock.
    ///
    /// [`eval_seconds`]: EvalStats::eval_seconds
    pub fn merge(&mut self, other: &EvalStats) {
        self.evaluations += other.evaluations;
        self.cache_hits += other.cache_hits;
        self.workers = self.workers.max(other.workers);
        self.cache_size += other.cache_size;
        self.compile_hits += other.compile_hits;
        self.max_worker_idle_ns = self.max_worker_idle_ns.max(other.max_worker_idle_ns);
        if self.worker_tasks.len() < other.worker_tasks.len() {
            self.worker_tasks.resize(other.worker_tasks.len(), 0);
        }
        for (total, &n) in self.worker_tasks.iter_mut().zip(&other.worker_tasks) {
            *total += n;
        }
        if self.generation_eval_seconds.len() < other.generation_eval_seconds.len() {
            self.generation_eval_seconds
                .resize(other.generation_eval_seconds.len(), 0.0);
        }
        for (total, &s) in self
            .generation_eval_seconds
            .iter_mut()
            .zip(&other.generation_eval_seconds)
        {
            *total += s;
        }
    }
}

/// One pool round's observability counters, handed back from the executor
/// and folded into [`EvalStats`] by the drain. Runtime observables — which
/// worker ran which task, how long anyone waited — so, unlike verdicts and
/// incidents, these are *not* part of the bit-identity contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PoolRoundStats {
    pub(crate) max_worker_idle_ns: u64,
    pub(crate) worker_tasks: Vec<u64>,
}

/// The outcome of a GA search.
#[derive(Debug, Clone)]
pub struct SearchResult<G> {
    /// The best chromosome found.
    pub best: G,
    /// Its objective value (user orientation).
    pub best_fitness: f64,
    /// The leaderboard: the top distinct chromosomes discovered over the
    /// whole search, best-first — the paper's "40 worst-case patterns"
    /// (Fig. 8/9/10/11/12 plot exactly this set).
    pub leaderboard: Vec<(G, f64)>,
    /// Generations executed.
    pub generations: u32,
    /// Whether the similarity criterion was met (vs. hitting the budget —
    /// the paper reports both outcomes: CE searches converge, UE/access
    /// searches run out their two weeks).
    pub converged: bool,
    /// Final mean pairwise leaderboard similarity.
    pub similarity: f64,
    /// Per-generation history.
    pub history: Vec<GenerationStats>,
    /// Evaluation bookkeeping (substrate evaluations, cache hits, workers,
    /// wall-clock).
    pub eval_stats: EvalStats,
    /// Every supervision decision (retry, quarantine, worker loss) the
    /// evaluation runtime made, in stream order. Empty for fault-free
    /// searches.
    pub incidents: Vec<Incident>,
}

impl<G> SearchResult<G> {
    /// Candidates the supervisor quarantined.
    pub fn quarantined(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i.kind, IncidentKind::Quarantine { .. }))
            .count()
    }

    /// Workers lost (and redealt around) during the search.
    pub fn workers_lost(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i.kind, IncidentKind::WorkerLoss))
            .count()
    }
}

/// The top-N distinct chromosomes seen so far.
#[derive(Debug, Clone)]
struct Leaderboard<G> {
    entries: Vec<(G, f64)>,
    capacity: usize,
}

impl<G: Genome + PartialEq> Leaderboard<G> {
    fn new(capacity: usize) -> Self {
        Leaderboard {
            entries: Vec::with_capacity(capacity + 1),
            capacity,
        }
    }

    /// Rebuilds a leaderboard from checkpointed entries (already sorted).
    fn from_entries(entries: Vec<(G, f64)>, capacity: usize) -> Self {
        Leaderboard { entries, capacity }
    }

    /// Offers a scored chromosome (engine orientation: higher is better;
    /// `NaN` — the quarantine score — ranks below everything).
    fn offer(&mut self, genome: &G, score: f64) {
        if let Some(existing) = self.entries.iter_mut().find(|(g, _)| g == genome) {
            if nan_last_cmp(score, existing.1) == std::cmp::Ordering::Greater {
                existing.1 = score;
            }
            self.entries.sort_by(|a, b| nan_last_cmp(b.1, a.1));
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((genome.clone(), score));
        } else if nan_last_cmp(score, self.entries.last().expect("leaderboard non-empty").1)
            == std::cmp::Ordering::Greater
        {
            *self.entries.last_mut().expect("leaderboard non-empty") = (genome.clone(), score);
        } else {
            return;
        }
        self.entries.sort_by(|a, b| nan_last_cmp(b.1, a.1));
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    fn similarity(&self) -> f64 {
        let genomes: Vec<&G> = self.entries.iter().map(|(g, _)| g).collect();
        mean_pairwise(&genomes, |a, b| a.similarity(b))
    }
}

/// The search engine.
///
/// See the crate-level example.
#[derive(Debug)]
pub struct GaEngine {
    config: GaConfig,
    rng: StdRng,
    supervision: SupervisionPolicy,
    hazards: Option<HazardPlan>,
}

impl GaEngine {
    /// Creates an engine with a validated configuration and a seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`GaConfig::validate`]).
    pub fn new(config: GaConfig, seed: u64) -> Self {
        config.validate().expect("invalid GA configuration");
        GaEngine {
            config,
            rng: StdRng::seed_from_u64(seed),
            supervision: SupervisionPolicy::default(),
            hazards: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Sets the retry/quarantine policy evaluation runs under.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`SupervisionPolicy::validate`]).
    pub fn set_supervision(&mut self, policy: SupervisionPolicy) {
        policy.validate().expect("invalid supervision policy");
        self.supervision = policy;
    }

    /// Installs (or clears) a fault-injection plan for evaluation — test
    /// instrumentation, mirroring
    /// [`MemStorage::fail_op`](crate::journal::MemStorage::fail_op).
    pub fn set_hazards(&mut self, hazards: Option<HazardPlan>) {
        self.hazards = hazards;
    }

    /// Runs a search from a randomly initialized population ("the
    /// chromosomes from the first offspring are generated randomly",
    /// §III-E), evaluating each generation's chromosomes on a persistent
    /// pool of `workers` threads (`workers = 1` is the serial search).
    ///
    /// Each worker owns an independent replica of the fitness substrate
    /// (see [`ParallelFitness`]); repeat chromosomes are served from an
    /// evaluation cache instead of re-running the substrate. Because the
    /// fitness contract requires purity, the result is bit-identical for
    /// any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or an evaluation worker panics.
    pub fn run_parallel<G, F, Init>(
        &mut self,
        workers: usize,
        mut init: Init,
        fitness: &mut F,
    ) -> SearchResult<G>
    where
        G: Genome + PartialEq + Eq + Hash + Sync + 'static,
        F: ParallelFitness<G> + 'static,
        Init: FnMut(&mut StdRng) -> G,
    {
        let population: Vec<G> = (0..self.config.population_size)
            .map(|_| init(&mut self.rng))
            .collect();
        self.run_from_parallel(workers, population, fitness)
    }

    /// Runs a search from a caller-supplied population on `workers`
    /// evaluation threads — how an interrupted search resumes from the
    /// virus database (§III-F).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, the population size does not match the
    /// configuration, or an evaluation worker panics.
    pub fn run_from_parallel<G, F>(
        &mut self,
        workers: usize,
        population: Vec<G>,
        fitness: &mut F,
    ) -> SearchResult<G>
    where
        G: Genome + PartialEq + Eq + Hash + Sync + 'static,
        F: ParallelFitness<G> + 'static,
    {
        let rng = StdRng::from_state(self.rng.to_state());
        let mut session = SearchSession::with_rng(self.config, rng, population);
        session.set_supervision(self.supervision);
        session.set_hazards(self.hazards.clone());
        let session = run_campaigns(fitness, workers, vec![CampaignRun::new(session)], None)
            .expect("an unjournaled run does no storage I/O")
            .pop()
            .expect("one session per run");
        // The session consumed part of the engine's RNG stream; keep the
        // engine's position in step so later campaigns draw fresh numbers.
        self.rng = StdRng::from_state(session.rng_state());
        session.finish()
    }
}

// Best/mean ignore quarantined (`NaN`) members; an all-quarantined round
// reports `NaN`, which round-trips through JSON checkpoints (`-inf` would
// not). For finite scores this is exactly the old fold-based arithmetic.
fn round_stats(generation: u32, scores: &[f64], sign: f64, similarity: f64) -> GenerationStats {
    let best_engine = nan_last_max(scores);
    let mean_engine = finite_mean(scores);
    GenerationStats {
        generation,
        best: sign * best_engine,
        mean: sign * mean_engine,
        similarity,
    }
}

/// One generation of breeding: elitism, then selection + crossover +
/// mutation until the population is refilled.
fn breed_next<G: Genome>(
    config: &GaConfig,
    population: &[G],
    scores: &[f64],
    rng: &mut StdRng,
) -> Vec<G> {
    // Elitism: carry the best members over unchanged. Quarantined (`NaN`)
    // members rank below every finite score, so they are never elite.
    let mut order: Vec<usize> = (0..population.len()).collect();
    order.sort_by(|&a, &b| nan_last_cmp(scores[b], scores[a]));
    let mut next: Vec<G> = order
        .iter()
        .take(config.elitism.min(population.len()))
        .map(|&i| population[i].clone())
        .collect();

    // Offspring via selection + crossover + mutation.
    while next.len() < config.population_size {
        let a = config.selection.pick(scores, rng);
        let b = config.selection.pick(scores, rng);
        let (mut c, mut d) = if rng.gen::<f64>() < config.crossover_prob {
            population[a].crossover(&population[b], rng)
        } else {
            (population[a].clone(), population[b].clone())
        };
        for child in [&mut c, &mut d] {
            if rng.gen::<f64>() < config.mutation_prob {
                let rate = config.gene_rate.unwrap_or(1.5 / child.len().max(1) as f64);
                child.mutate(rng, rate);
            }
        }
        next.push(c);
        if next.len() < config.population_size {
            next.push(d);
        }
    }
    next
}

/// Retention bound of the evaluation cache: the most recently used
/// chromosomes kept, everything older evicted. Generous next to a
/// population (the paper's is 40) — elites and within-search repeats stay
/// resident — while keeping every [`EngineState`] checkpoint a fixed size
/// instead of growing with the full evaluation history of a long campaign.
const EVAL_CACHE_CAP: usize = 1024;

/// The bounded evaluation cache: chromosome → raw user-orientation fitness
/// (quarantined chromosomes carry `NaN`), with deterministic
/// least-recently-used retention.
///
/// Recency is defined purely by the search's own canonical orders — lookups
/// promote in population-slot order during the cache pre-pass, inserts
/// land in dealing order — never by worker identity or thread timing, so
/// the cache contents (and therefore every future hit, miss and eviction)
/// are bit-identical for any worker count. Checkpoints serialize the queue
/// oldest-first and [`EvalCache::from_entries`] rebuilds it verbatim, so a
/// resumed search evicts exactly as the uninterrupted one would.
#[derive(Debug, Clone)]
struct EvalCache<G> {
    map: HashMap<G, f64>,
    /// Recency queue: front = least recently used.
    queue: VecDeque<G>,
    cap: usize,
}

impl<G: Genome + Eq + Hash> EvalCache<G> {
    fn new() -> Self {
        Self::with_cap(EVAL_CACHE_CAP)
    }

    fn with_cap(cap: usize) -> Self {
        EvalCache {
            map: HashMap::new(),
            queue: VecDeque::new(),
            cap,
        }
    }

    /// Rebuilds a cache from checkpoint entries in queue (oldest-first)
    /// order. Entries beyond the cap — a checkpoint written under a larger
    /// cap — evict oldest-first, exactly as live inserts would.
    fn from_entries(entries: Vec<(G, f64)>) -> Self {
        let mut cache = EvalCache::new();
        for (genome, value) in entries {
            cache.insert(genome, value);
        }
        cache
    }

    /// Looks up a chromosome, promoting it to most-recently-used on a hit.
    fn lookup(&mut self, genome: &G) -> Option<f64> {
        let &value = self.map.get(genome)?;
        let at = self
            .queue
            .iter()
            .position(|g| g == genome)
            .expect("every cached chromosome is in the recency queue");
        let g = self.queue.remove(at).expect("position is in range");
        self.queue.push_back(g);
        Some(value)
    }

    /// Inserts (or refreshes) a chromosome as most-recently-used, evicting
    /// the least recently used entry beyond the cap.
    fn insert(&mut self, genome: G, value: f64) {
        if self.map.insert(genome.clone(), value).is_some() {
            let at = self
                .queue
                .iter()
                .position(|g| g == &genome)
                .expect("every cached chromosome is in the recency queue");
            self.queue.remove(at);
        }
        self.queue.push_back(genome);
        if self.queue.len() > self.cap {
            let evicted = self.queue.pop_front().expect("cache is over capacity");
            self.map.remove(&evicted);
        }
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    /// The cache contents in queue (oldest-first) order — the canonical
    /// checkpoint form.
    fn entries(&self) -> Vec<(G, f64)> {
        self.queue
            .iter()
            .map(|g| (g.clone(), self.map[g]))
            .collect()
    }
}

/// The cache pre-pass of one scoring round: repeats resolved, distinct new
/// chromosomes collected in dealing order with the population slots each
/// fills, and the round's base evaluation index pinned. Shared verbatim by
/// every session the campaign scheduler steps, alone or with others, so
/// the canonical numbering cannot depend on its co-tenants.
#[derive(Debug)]
pub(crate) struct RoundPlan<G> {
    /// Scores with cache hits pre-filled; pending slots still zero.
    pub(crate) scores: Vec<f64>,
    /// Each distinct new chromosome with the population slots it fills,
    /// in dealing order.
    pub(crate) pending: Vec<(G, Vec<usize>)>,
    /// Search-global evaluation index of `pending[0]`: cache hits never
    /// consume indices, so the numbering is the same for every worker
    /// count and every resume.
    pub(crate) base_index: u64,
}

impl<G: Genome> RoundPlan<G> {
    /// The plan's pending candidates as owned pool tasks, dealing order.
    pub(crate) fn pool_tasks(&self) -> Vec<PoolTask<G>> {
        self.pending
            .iter()
            .enumerate()
            .map(|(j, (genome, _))| PoolTask {
                slot: j,
                eval_index: self.base_index + j as u64,
                genome: genome.clone(),
            })
            .collect()
    }
}

/// What the pool brought back from one round: a verdict per pending
/// candidate in dealing order, the round's supervision incidents already
/// canonically sorted by [`PendingIncident::sort_key`], the worker count
/// surviving the round, and the round's observability counters.
#[derive(Debug)]
pub(crate) struct RoundExecution {
    pub(crate) verdicts: Vec<EvalVerdict>,
    pub(crate) incidents: Vec<PendingIncident>,
    pub(crate) alive_workers: usize,
    pub(crate) pool: PoolRoundStats,
}

/// One opened step of a [`SearchSession`]: the round plan plus the timing
/// anchor, produced by [`SearchSession::begin_round`] and consumed by
/// [`SearchSession::finish_round`] after an executor ran the plan.
#[derive(Debug)]
pub(crate) struct PreparedRound<G> {
    pub(crate) plan: RoundPlan<G>,
    started: Instant,
}

/// Resolves repeats against the cache and numbers the distinct new
/// chromosomes (see [`RoundPlan`]). Updates `evaluations`, `cache_hits`
/// and `cache_size` exactly as the fused loop did.
fn plan_round<G>(population: &[G], cache: &mut EvalCache<G>, stats: &mut EvalStats) -> RoundPlan<G>
where
    G: Genome + PartialEq + Eq + Hash,
{
    let mut scores = vec![0.0f64; population.len()];
    // Resolve repeats first: chromosomes scored in an earlier round come
    // from the cache, and a chromosome occurring several times in this
    // round is evaluated once. `pending` holds each distinct new chromosome
    // with the population slots it fills.
    let mut pending: Vec<(G, Vec<usize>)> = Vec::new();
    let mut pending_index: HashMap<&G, usize> = HashMap::new();
    for (i, g) in population.iter().enumerate() {
        if let Some(hit) = cache.lookup(g) {
            scores[i] = hit;
            stats.cache_hits += 1;
        } else if let Some(&p) = pending_index.get(g) {
            pending[p].1.push(i);
            stats.cache_hits += 1;
        } else {
            pending_index.insert(g, pending.len());
            pending.push((g.clone(), vec![i]));
        }
    }
    let base_index = stats.evaluations;
    stats.evaluations += pending.len() as u64;
    stats.cache_size = cache.len();
    RoundPlan {
        scores,
        pending,
        base_index,
    }
}

/// Drains an executed round back into the search in canonical dealing
/// order: verdicts fill scores, newly evaluated chromosomes are pushed
/// onto `newly` (raw user-orientation values) so a journal can persist
/// exactly the substrate work that happened, and quarantined chromosomes
/// are cached as `NaN` (the incident stream carries the decision instead).
/// Because the drain order is the plan's dealing order — never worker
/// identity or completion order — `newly`, the cache recency queue and
/// every score are bit-identical for any worker count and any steal
/// interleaving.
fn drain_round<G>(
    plan: RoundPlan<G>,
    execution: Option<RoundExecution>,
    cache: &mut EvalCache<G>,
    newly: &mut Vec<(G, f64)>,
    stats: &mut EvalStats,
) -> (Vec<f64>, Vec<PendingIncident>)
where
    G: Genome + PartialEq + Eq + Hash,
{
    let RoundPlan {
        mut scores,
        pending,
        ..
    } = plan;
    // An all-cached round never reached an executor: nothing to drain, and
    // (as before the pool) the surviving-worker count is left untouched.
    let Some(execution) = execution else {
        debug_assert!(pending.is_empty(), "unexecuted rounds must be empty");
        return (scores, Vec::new());
    };
    stats.workers = execution.alive_workers;
    stats.note_pool_round(&execution.pool);
    debug_assert_eq!(execution.verdicts.len(), pending.len());
    for (verdict, (genome, slots)) in execution.verdicts.into_iter().zip(&pending) {
        let value = match verdict {
            EvalVerdict::Scored(value) => {
                newly.push((genome.clone(), value));
                value
            }
            // Quarantined: cached as NaN so the chromosome is never
            // re-evaluated, ranked worst by the NaN-last total order, and
            // kept out of the journal's virus records.
            EvalVerdict::Quarantined => f64::NAN,
        };
        cache.insert(genome.clone(), value);
        for &i in slots {
            scores[i] = value;
        }
    }
    stats.cache_size = cache.len();
    (scores, execution.incidents)
}

/// A stepwise, checkpointable GA search: the engine loop unrolled so
/// callers can persist the complete engine state between generations and
/// continue an interrupted search **bit-identically** (§III-F).
///
/// Sessions are stepped by a [`CampaignScheduler`]: the first step scores
/// the initial population; each further step runs exactly one generation.
/// [`checkpoint`] captures everything the next step depends on — population, scores, leaderboard, history, RNG stream
/// position, evaluation cache and counters — and [`resume`] reconstructs
/// the session so the remaining steps draw the same random numbers and the
/// same cached fitness values as an uninterrupted run.
///
/// [`CampaignScheduler`]: crate::CampaignScheduler
/// [`checkpoint`]: SearchSession::checkpoint
/// [`resume`]: SearchSession::resume
#[derive(Debug)]
pub struct SearchSession<G> {
    config: GaConfig,
    rng: StdRng,
    population: Vec<G>,
    /// Engine-orientation scores of the current population.
    scores: Vec<f64>,
    leaderboard: Leaderboard<G>,
    history: Vec<GenerationStats>,
    eval_stats: EvalStats,
    /// Raw user-orientation fitness of recently evaluated chromosomes
    /// (bounded LRU; see [`EvalCache`]).
    cache: EvalCache<G>,
    /// Chromosomes evaluated on the substrate since the last
    /// [`take_newly_evaluated`](SearchSession::take_newly_evaluated).
    newly: Vec<(G, f64)>,
    /// Every supervision incident so far (checkpointed: the sequence
    /// numbering must continue across a resume).
    incidents: Vec<Incident>,
    /// Incidents since the last
    /// [`take_new_incidents`](SearchSession::take_new_incidents).
    fresh_incidents: Vec<Incident>,
    /// Retry/quarantine policy for supervised evaluation.
    policy: SupervisionPolicy,
    /// Injected faults (tests); `None` in production.
    hazards: Option<HazardPlan>,
    /// Completed generations.
    generation: u32,
    /// Whether the initial population has been scored.
    initialized: bool,
    converged: bool,
    similarity: f64,
    best_so_far: f64,
    stagnant: u32,
    done: bool,
}

impl<G: Genome + PartialEq + Eq + Hash + Sync> SearchSession<G> {
    /// Starts a fresh session: seeds the RNG and draws the initial
    /// population (nothing is evaluated until the first step).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn start(config: GaConfig, seed: u64, mut init: impl FnMut(&mut StdRng) -> G) -> Self {
        config.validate().expect("invalid GA configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let population: Vec<G> = (0..config.population_size)
            .map(|_| init(&mut rng))
            .collect();
        SearchSession::with_rng(config, rng, population)
    }

    /// Starts a session from an explicit RNG and population (how the engine
    /// facade hands over its stream).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the population size does
    /// not match it.
    pub fn with_rng(config: GaConfig, rng: StdRng, population: Vec<G>) -> Self {
        config.validate().expect("invalid GA configuration");
        assert_eq!(
            population.len(),
            config.population_size,
            "initial population size mismatch"
        );
        SearchSession {
            leaderboard: Leaderboard::new(config.population_size),
            config,
            rng,
            population,
            scores: Vec::new(),
            history: Vec::new(),
            eval_stats: EvalStats {
                workers: 1,
                ..EvalStats::default()
            },
            cache: EvalCache::new(),
            newly: Vec::new(),
            incidents: Vec::new(),
            fresh_incidents: Vec::new(),
            policy: SupervisionPolicy::default(),
            hazards: None,
            generation: 0,
            initialized: false,
            converged: false,
            similarity: 0.0,
            best_so_far: 0.0,
            stagnant: 0,
            done: false,
        }
    }

    /// Reconstructs a session from a checkpoint. The checkpoint pins the
    /// configuration, so the continuation is bit-identical to the search
    /// that produced it.
    ///
    /// # Panics
    ///
    /// Panics if the checkpointed configuration is invalid.
    pub fn resume(state: EngineState<G>) -> Self {
        state.config.validate().expect("invalid GA configuration");
        SearchSession {
            leaderboard: Leaderboard::from_entries(state.leaderboard, state.config.population_size),
            config: state.config,
            rng: StdRng::from_state(state.rng),
            population: state.population,
            scores: state.scores,
            history: state.history,
            eval_stats: state.eval_stats,
            cache: EvalCache::from_entries(state.cache),
            newly: Vec::new(),
            incidents: state.incidents,
            fresh_incidents: Vec::new(),
            policy: SupervisionPolicy::default(),
            hazards: None,
            generation: state.generation,
            initialized: state.initialized,
            converged: state.converged,
            similarity: state.similarity,
            best_so_far: state.best_so_far,
            stagnant: state.stagnant,
            done: state.done,
        }
    }

    /// Whether the search has finished (converged or out of budget).
    pub fn done(&self) -> bool {
        self.done
    }

    /// Completed generations.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The session's configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.to_state()
    }

    /// Sets the retry/quarantine policy for all subsequent steps.
    ///
    /// The policy is deliberately not checkpointed: a resumed campaign must
    /// re-apply the same policy (the CLI derives it from the same flags) or
    /// accept different supervision decisions in the replay window.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid.
    pub fn set_supervision(&mut self, policy: SupervisionPolicy) {
        policy.validate().expect("invalid supervision policy");
        self.policy = policy;
    }

    /// Installs (or clears) a fault-injection plan (test instrumentation).
    pub fn set_hazards(&mut self, hazards: Option<HazardPlan>) {
        self.hazards = hazards;
    }

    /// Every supervision incident so far, in stream order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Chromosomes evaluated on the substrate since the last call, with
    /// their raw (user-orientation) fitness values, in evaluation order.
    pub fn take_newly_evaluated(&mut self) -> Vec<(G, f64)> {
        std::mem::take(&mut self.newly)
    }

    /// Supervision incidents since the last call, in stream order — the
    /// journal acks these next to the evaluated-virus records.
    pub fn take_new_incidents(&mut self) -> Vec<Incident> {
        std::mem::take(&mut self.fresh_incidents)
    }

    /// Captures the complete engine state between steps.
    pub fn checkpoint(&self) -> EngineState<G> {
        EngineState {
            config: self.config,
            rng: self.rng.to_state(),
            population: self.population.clone(),
            scores: self.scores.clone(),
            leaderboard: self.leaderboard.entries.clone(),
            history: self.history.clone(),
            eval_stats: self.eval_stats.clone(),
            cache: self.cache.entries(),
            incidents: self.incidents.clone(),
            generation: self.generation,
            initialized: self.initialized,
            converged: self.converged,
            similarity: self.similarity,
            best_so_far: self.best_so_far,
            stagnant: self.stagnant,
            done: self.done,
        }
    }

    /// Runs one step on `pool`, exactly as a scheduler tick with this
    /// session alone would: the unit tests' way to drive a session one
    /// step at a time on a pool they keep. A no-op once
    /// [`done`](SearchSession::done).
    #[cfg(test)]
    pub fn step<F>(&mut self, pool: &crate::pool::EvalPool<G, F>)
    where
        G: Send + 'static,
        F: ParallelFitness<G> + 'static,
    {
        if self.done {
            return;
        }
        self.note_workers(pool.workers());
        let Some(round) = self.begin_round() else {
            return;
        };
        let execution = if round.plan.pending.is_empty() {
            None
        } else {
            let submission = crate::pool::RoundSubmission {
                tasks: round.plan.pool_tasks(),
                policy: self.policy,
                hazards: self.hazards.clone(),
            };
            let mut executions = pool.execute(vec![submission]);
            debug_assert_eq!(executions.len(), 1);
            executions.pop()
        };
        self.finish_round(round, execution);
    }

    /// Opens one step: breeds the next population (when past the initial
    /// round) and runs the cache pre-pass, yielding the round's plan.
    /// `None` once the search is done. The caller must pass the plan to the
    /// pool iff it has pending candidates, then
    /// hand the outcome to [`finish_round`](SearchSession::finish_round) —
    /// the seam that lets the campaign scheduler interleave many sessions'
    /// rounds into one pool batch.
    pub(crate) fn begin_round(&mut self) -> Option<PreparedRound<G>> {
        if self.done {
            return None;
        }
        let sign = if self.config.minimize { -1.0 } else { 1.0 };
        if self.initialized {
            self.history.push(round_stats(
                self.generation,
                &self.scores,
                sign,
                self.similarity,
            ));
            self.population =
                breed_next(&self.config, &self.population, &self.scores, &mut self.rng);
        }
        let started = Instant::now();
        let plan = plan_round(&self.population, &mut self.cache, &mut self.eval_stats);
        Some(PreparedRound { plan, started })
    }

    /// Closes one step: drains the executed round (in canonical dealing
    /// order), sequences its incidents, and advances the convergence
    /// state. `execution` is `None` exactly when the round had no pending
    /// candidates.
    pub(crate) fn finish_round(
        &mut self,
        round: PreparedRound<G>,
        execution: Option<RoundExecution>,
    ) {
        let sign = if self.config.minimize { -1.0 } else { 1.0 };
        let was_initialized = self.initialized;
        let (raw, pending_incidents) = drain_round(
            round.plan,
            execution,
            &mut self.cache,
            &mut self.newly,
            &mut self.eval_stats,
        );
        // Sequence the round's (already canonically ordered) incidents
        // behind everything recorded so far; a resume restores the counter
        // from the checkpoint, so the numbering survives interruptions.
        for pending in pending_incidents {
            let incident = Incident {
                seq: self.incidents.len() as u64,
                eval_index: pending.eval_index,
                kind: pending.kind,
            };
            self.incidents.push(incident.clone());
            self.fresh_incidents.push(incident);
        }
        self.eval_stats
            .generation_eval_seconds
            .push(round.started.elapsed().as_secs_f64());
        self.scores = raw.into_iter().map(|v| sign * v).collect();
        for (g, s) in self.population.iter().zip(&self.scores) {
            self.leaderboard.offer(g, *s);
        }
        self.similarity = self.leaderboard.similarity();
        if !was_initialized {
            self.best_so_far = nan_last_max(&self.scores);
            self.stagnant = 0;
            self.initialized = true;
            return;
        }
        let generation = self.generation;
        let generation_best = nan_last_max(&self.scores);
        if nan_last_cmp(generation_best, self.best_so_far) == std::cmp::Ordering::Greater {
            self.best_so_far = generation_best;
            self.stagnant = 0;
        } else {
            self.stagnant += 1;
        }
        self.generation += 1;
        if self.leaderboard.is_full()
            && self.similarity >= self.config.convergence_threshold
            && self.stagnant >= self.config.stagnation_window
        {
            self.converged = true;
            self.history.push(round_stats(
                generation + 1,
                &self.scores,
                sign,
                self.similarity,
            ));
            self.done = true;
        } else if self.generation >= self.config.max_generations {
            self.done = true;
        }
    }

    /// Records the worker count of the pool this session is about to step
    /// on.
    pub(crate) fn note_workers(&mut self, workers: usize) {
        self.eval_stats.workers = workers;
    }

    /// The session's supervision policy (for the scheduler's submissions).
    pub(crate) fn supervision_policy(&self) -> SupervisionPolicy {
        self.policy
    }

    /// The session's hazard plan, shared (for the scheduler's submissions).
    pub(crate) fn hazard_plan(&self) -> Option<HazardPlan> {
        self.hazards.clone()
    }

    /// The evaluation bookkeeping so far (counters, timings, pool
    /// observability) — what [`SearchResult::eval_stats`] will carry.
    pub fn eval_stats(&self) -> &EvalStats {
        &self.eval_stats
    }

    /// The current leaderboard, best-first, in **user orientation** (the
    /// sign flip for `minimize` searches already applied) — what a live
    /// progress stream reports between steps.
    pub fn leaderboard(&self) -> Vec<(G, f64)> {
        let sign = if self.config.minimize { -1.0 } else { 1.0 };
        self.leaderboard
            .entries
            .iter()
            .map(|(g, s)| (g.clone(), sign * s))
            .collect()
    }

    /// Whether the similarity criterion has been met so far.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Consumes the session into a [`SearchResult`].
    ///
    /// # Panics
    ///
    /// Panics if nothing was ever evaluated (no step taken).
    pub fn finish(self) -> SearchResult<G> {
        let sign = if self.config.minimize { -1.0 } else { 1.0 };
        let leaderboard: Vec<(G, f64)> = self
            .leaderboard
            .entries
            .into_iter()
            .map(|(g, s)| (g, sign * s))
            .collect();
        let (best, best_fitness) = leaderboard[0].clone();
        SearchResult {
            best,
            best_fitness,
            leaderboard,
            generations: self.generation,
            converged: self.converged,
            similarity: self.similarity,
            history: self.history,
            eval_stats: self.eval_stats,
            incidents: self.incidents,
        }
    }
}

/// The serializable between-steps state of a [`SearchSession`]: everything
/// the next generation depends on, including the raw RNG stream position
/// and the evaluation-cache contents. Persisting this per generation is
/// what makes a resumed search bit-identical to an uninterrupted one.
#[derive(Debug, Clone)]
pub struct EngineState<G> {
    /// The search configuration (pinned: a resume ignores any other).
    pub config: GaConfig,
    /// Raw xoshiro256** RNG state.
    pub rng: [u64; 4],
    /// The current population.
    pub population: Vec<G>,
    /// Engine-orientation scores of the current population.
    pub scores: Vec<f64>,
    /// Leaderboard entries, best-first (engine orientation).
    pub leaderboard: Vec<(G, f64)>,
    /// Per-generation history so far.
    pub history: Vec<GenerationStats>,
    /// Evaluation counters and timing so far.
    pub eval_stats: EvalStats,
    /// The evaluation cache in least-recently-used-first order
    /// (quarantined chromosomes carry `NaN`, which round-trips through the
    /// JSON checkpoint as `null`). Bounded: old entries are evicted, so
    /// this no longer grows with the full evaluation history.
    pub cache: Vec<(G, f64)>,
    /// Every supervision incident so far, in stream order.
    pub incidents: Vec<Incident>,
    /// Completed generations.
    pub generation: u32,
    /// Whether the initial population has been scored.
    pub initialized: bool,
    /// Whether the similarity criterion was met.
    pub converged: bool,
    /// Current mean pairwise leaderboard similarity.
    pub similarity: f64,
    /// Best engine-orientation score seen so far.
    pub best_so_far: f64,
    /// Generations without a new best.
    pub stagnant: u32,
    /// Whether the search has finished.
    pub done: bool,
}

impl<G: Serialize> EngineState<G> {
    /// Serializes to compact JSON (one line — journal-embeddable).
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }
}

impl<G: Deserialize> EngineState<G> {
    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

// The derive macro does not handle generic types, so the state serializes
// by hand — a plain field map, like the derive would emit.
impl<G: Serialize> Serialize for EngineState<G> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("config".into(), self.config.serialize()),
            ("rng".into(), self.rng.serialize()),
            ("population".into(), self.population.serialize()),
            ("scores".into(), self.scores.serialize()),
            ("leaderboard".into(), self.leaderboard.serialize()),
            ("history".into(), self.history.serialize()),
            ("eval_stats".into(), self.eval_stats.serialize()),
            ("cache".into(), self.cache.serialize()),
            ("incidents".into(), self.incidents.serialize()),
            ("generation".into(), self.generation.serialize()),
            ("initialized".into(), self.initialized.serialize()),
            ("converged".into(), self.converged.serialize()),
            ("similarity".into(), self.similarity.serialize()),
            ("best_so_far".into(), self.best_so_far.serialize()),
            ("stagnant".into(), self.stagnant.serialize()),
            ("done".into(), self.done.serialize()),
        ])
    }
}

impl<G: Deserialize> Deserialize for EngineState<G> {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let map = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected EngineState map"))?;
        fn req<'a>(
            map: &'a [(String, Value)],
            key: &'static str,
        ) -> Result<&'a Value, serde::Error> {
            serde::__find(map, key)
                .ok_or_else(|| serde::Error::custom(format!("missing EngineState field `{key}`")))
        }
        Ok(EngineState {
            config: Deserialize::deserialize(req(map, "config")?)?,
            rng: Deserialize::deserialize(req(map, "rng")?)?,
            population: Deserialize::deserialize(req(map, "population")?)?,
            scores: Deserialize::deserialize(req(map, "scores")?)?,
            leaderboard: Deserialize::deserialize(req(map, "leaderboard")?)?,
            history: Deserialize::deserialize(req(map, "history")?)?,
            eval_stats: Deserialize::deserialize(req(map, "eval_stats")?)?,
            cache: Deserialize::deserialize(req(map, "cache")?)?,
            // Absent in pre-supervision checkpoints: default to no
            // incidents rather than rejecting the state.
            incidents: match serde::__find(map, "incidents") {
                Some(value) => Deserialize::deserialize(value)?,
                None => Vec::new(),
            },
            generation: Deserialize::deserialize(req(map, "generation")?)?,
            initialized: Deserialize::deserialize(req(map, "initialized")?)?,
            converged: Deserialize::deserialize(req(map, "converged")?)?,
            similarity: Deserialize::deserialize(req(map, "similarity")?)?,
            best_so_far: Deserialize::deserialize(req(map, "best_so_far")?)?,
            stagnant: Deserialize::deserialize(req(map, "stagnant")?)?,
            done: Deserialize::deserialize(req(map, "done")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{Fitness, FnFitness};
    use crate::genome::{BitGenome, IntGenome};
    use crate::pool::EvalPool;

    #[test]
    fn config_validation() {
        assert!(GaConfig::paper_defaults().validate().is_ok());
        let mut c = GaConfig::paper_defaults();
        c.population_size = 1;
        assert!(c.validate().is_err());
        let mut c = GaConfig::paper_defaults();
        c.mutation_prob = 1.5;
        assert!(c.validate().is_err());
        let mut c = GaConfig::paper_defaults();
        c.max_generations = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn popcount_calibration_reaches_optimum_in_tens_of_generations() {
        // The paper's §V calibration: with mutation 0.5 / crossover 0.9 /
        // population 40 the GA solves 64-bit popcount in ~80 generations.
        let mut engine = GaEngine::new(GaConfig::paper_defaults(), 11);
        let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
        let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
        assert!(
            result.best_fitness >= 63.0,
            "best = {}",
            result.best_fitness
        );
        assert!(result.converged, "popcount search should converge");
        assert!(
            (20..=250).contains(&result.generations),
            "generations = {}",
            result.generations
        );
    }

    #[test]
    fn history_best_is_monotone_with_elitism() {
        let mut engine = GaEngine::new(GaConfig::paper_defaults(), 3);
        let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
        let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
        for w in result.history.windows(2) {
            assert!(w[1].best >= w[0].best - 1e-9, "best dropped: {w:?}");
        }
    }

    #[test]
    fn minimization_mode_minimizes() {
        let mut config = GaConfig::paper_defaults();
        config.minimize = true;
        let mut engine = GaEngine::new(config, 5);
        let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
        let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
        assert!(result.best_fitness <= 1.0, "best = {}", result.best_fitness);
        // Leaderboard is sorted best-first in the *minimization* sense.
        for w in result.leaderboard.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn flat_fitness_never_converges() {
        // A constant fitness keeps the leaderboard at its first 40 distinct
        // random entries: similarity stays ~0.5 and the budget expires —
        // the paper's non-convergent UE/access searches behave like this.
        let mut config = GaConfig::paper_defaults();
        config.max_generations = 60;
        let mut engine = GaEngine::new(config, 9);
        let mut fitness = FnFitness::new(|_: &BitGenome| 1.0);
        let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 256), &mut fitness);
        assert!(!result.converged);
        assert_eq!(result.generations, 60);
        assert!(result.similarity < 0.65, "similarity {}", result.similarity);
    }

    #[test]
    fn noisy_plateau_resists_convergence() {
        // A saturating landscape with evaluation noise: every genome with
        // at least half its bits set scores on the same plateau, and noise
        // reorders them. The leaderboard keeps collecting *unrelated*
        // plateau members, capping its similarity — the mechanism behind
        // the paper's non-convergent access-pattern searches (Fig. 11,
        // SMF ≈ 0.5: disturbance saturates, VRT adds noise).
        // The noise is a hash of the chromosome, as the evaluator's VRT
        // nonce is: pure, so the evaluation cache stays transparent.
        let mut config = GaConfig::paper_defaults();
        config.max_generations = 120;
        let mut engine = GaEngine::new(config, 21);
        let mut fitness = FnFitness::new(|g: &BitGenome| {
            let plateau = (g.count_ones() as f64).min(32.0);
            let hash = g.to_words()[0].wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            plateau * 10.0 + 30.0 * hash as f64 / (1u64 << 53) as f64
        });
        let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
        assert!(!result.converged, "plateau search must not converge");
        assert!(result.similarity < 0.8, "similarity {}", result.similarity);
    }

    #[test]
    fn leaderboard_is_distinct_and_sorted() {
        let mut engine = GaEngine::new(GaConfig::paper_defaults(), 13);
        let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
        let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
        assert_eq!(result.leaderboard.len(), 40);
        for w in result.leaderboard.windows(2) {
            assert!(w[0].1 >= w[1].1, "leaderboard must be sorted best-first");
        }
        for i in 0..result.leaderboard.len() {
            for j in (i + 1)..result.leaderboard.len() {
                assert_ne!(
                    result.leaderboard[i].0, result.leaderboard[j].0,
                    "leaderboard entries must be distinct"
                );
            }
        }
        assert_eq!(result.best_fitness, result.leaderboard[0].1);
    }

    #[test]
    fn int_genome_search_works() {
        // Maximize the sum of 16 genes in [0, 20].
        let mut engine = GaEngine::new(GaConfig::paper_defaults(), 17);
        let mut fitness = FnFitness::new(|g: &IntGenome| g.values().iter().sum::<u64>() as f64);
        let result = engine.run_parallel(1, |rng| IntGenome::random(rng, 16, 0, 20), &mut fitness);
        assert!(
            result.best_fitness >= 0.9 * 320.0,
            "best = {}",
            result.best_fitness
        );
    }

    #[test]
    fn run_from_resumes_a_seeded_population() {
        // Seeding the population near the optimum lets the leaderboard fill
        // with near-optimal variants quickly.
        let mut config = GaConfig::paper_defaults();
        let mut engine = GaEngine::new(config, 19);
        let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
        let seeded = vec![BitGenome::from_words(&[u64::MAX], 64); 40];
        let seeded_result = engine.run_from_parallel(1, seeded, &mut fitness);
        assert_eq!(seeded_result.best_fitness, 64.0);
        config.max_generations = seeded_result.generations;
        // A fresh random search given the same (small) budget does worse on
        // its first generations.
        let mut fresh_engine = GaEngine::new(config, 19);
        let fresh = fresh_engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
        assert!(seeded_result.generations <= fresh.generations);
    }

    #[test]
    #[should_panic(expected = "population size mismatch")]
    fn run_from_validates_population_size() {
        let mut engine = GaEngine::new(GaConfig::paper_defaults(), 1);
        let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
        engine.run_from_parallel(1, vec![BitGenome::zeros(8); 3], &mut fitness);
    }

    /// A pure, replicable fitness that counts how many substrate
    /// evaluations actually ran across all replicas.
    struct CountingPopcount {
        executed: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl CountingPopcount {
        fn new() -> Self {
            CountingPopcount {
                executed: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            }
        }

        fn executed(&self) -> u64 {
            self.executed.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Fitness<BitGenome> for CountingPopcount {
        fn evaluate(&mut self, genome: &BitGenome) -> f64 {
            self.executed
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            genome.count_ones() as f64
        }
    }

    impl ParallelFitness<BitGenome> for CountingPopcount {
        fn replicate(&self) -> Self {
            CountingPopcount {
                executed: self.executed.clone(),
            }
        }
    }

    /// The serial reference loop the pool is pinned against: every member
    /// of every round is scored by a direct `evaluate` call in population
    /// order — no pool, no evaluation cache, no supervision. It shares only
    /// breeding and round statistics with [`SearchSession`], so a drift in
    /// the session's planning, dealing or draining fails the differential
    /// tests below.
    fn serial_oracle<G, F>(
        config: GaConfig,
        seed: u64,
        mut init: impl FnMut(&mut StdRng) -> G,
        fitness: &mut F,
    ) -> SearchResult<G>
    where
        G: Genome + PartialEq,
        F: Fitness<G>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut population: Vec<G> = (0..config.population_size)
            .map(|_| init(&mut rng))
            .collect();
        let sign = if config.minimize { -1.0 } else { 1.0 };
        let mut eval_stats = EvalStats {
            workers: 1,
            ..EvalStats::default()
        };
        let mut leaderboard = Leaderboard::new(config.population_size);
        let mut score_round =
            |pop: &[G], leaderboard: &mut Leaderboard<G>, stats: &mut EvalStats| -> Vec<f64> {
                let started = Instant::now();
                let scores: Vec<f64> = pop.iter().map(|g| sign * fitness.evaluate(g)).collect();
                stats.evaluations += pop.len() as u64;
                stats
                    .generation_eval_seconds
                    .push(started.elapsed().as_secs_f64());
                for (g, s) in pop.iter().zip(&scores) {
                    leaderboard.offer(g, *s);
                }
                scores
            };
        let mut scores = score_round(&population, &mut leaderboard, &mut eval_stats);
        let mut history = Vec::new();
        let mut generations = 0;
        let mut converged = false;
        let mut similarity = leaderboard.similarity();
        let mut best_so_far = nan_last_max(&scores);
        let mut stagnant_generations = 0u32;
        for generation in 0..config.max_generations {
            generations = generation + 1;
            history.push(round_stats(generation, &scores, sign, similarity));
            population = breed_next(&config, &population, &scores, &mut rng);
            scores = score_round(&population, &mut leaderboard, &mut eval_stats);
            similarity = leaderboard.similarity();
            let generation_best = nan_last_max(&scores);
            if nan_last_cmp(generation_best, best_so_far) == std::cmp::Ordering::Greater {
                best_so_far = generation_best;
                stagnant_generations = 0;
            } else {
                stagnant_generations += 1;
            }
            if leaderboard.is_full()
                && similarity >= config.convergence_threshold
                && stagnant_generations >= config.stagnation_window
            {
                converged = true;
                history.push(round_stats(generation + 1, &scores, sign, similarity));
                break;
            }
        }
        let leaderboard: Vec<(G, f64)> = leaderboard
            .entries
            .into_iter()
            .map(|(g, s)| (g, sign * s))
            .collect();
        let (best, best_fitness) = leaderboard[0].clone();
        SearchResult {
            best,
            best_fitness,
            leaderboard,
            generations,
            converged,
            similarity,
            history,
            eval_stats,
            incidents: Vec::new(),
        }
    }

    #[test]
    fn parallel_search_is_bit_identical_to_serial() {
        // The same seed produces the same SearchResult (leaderboard,
        // history, everything but timing and cache counters) through the
        // serial oracle and through the pool at any worker count.
        let serial = serial_oracle(
            GaConfig::paper_defaults(),
            29,
            |rng| BitGenome::random(rng, 64),
            &mut CountingPopcount::new(),
        );

        for workers in [1usize, 4] {
            let mut engine = GaEngine::new(GaConfig::paper_defaults(), 29);
            let mut fitness = CountingPopcount::new();
            let parallel =
                engine.run_parallel(workers, |rng| BitGenome::random(rng, 64), &mut fitness);
            assert_eq!(parallel.best, serial.best, "workers={workers}");
            assert_eq!(parallel.best_fitness, serial.best_fitness);
            assert_eq!(parallel.leaderboard, serial.leaderboard);
            assert_eq!(parallel.generations, serial.generations);
            assert_eq!(parallel.converged, serial.converged);
            assert_eq!(parallel.similarity, serial.similarity);
            assert_eq!(parallel.history, serial.history);
            assert_eq!(parallel.eval_stats.workers, workers);
        }
    }

    fn small_config() -> GaConfig {
        let mut config = GaConfig::paper_defaults();
        config.population_size = 10;
        config.max_generations = 6;
        config.stagnation_window = 3;
        config
    }

    /// A full campaign on a fresh pool at the given worker count.
    fn pooled_run(seed: u64, workers: usize) -> SearchResult<BitGenome> {
        let mut session = SearchSession::start(small_config(), seed, |rng: &mut StdRng| {
            BitGenome::random(rng, 24)
        });
        let pool = EvalPool::new(&CountingPopcount::new(), workers);
        while !session.done() {
            session.step(&pool);
        }
        pool.shutdown();
        session.finish()
    }

    /// The worker counts the pool sweep runs at. CI pins 1 and 4 via
    /// `DSTRESS_WORKERS`; the sweep widens without a recompile.
    fn worker_counts() -> Vec<usize> {
        let mut counts = vec![1, 2, 8];
        if let Some(extra) = std::env::var("DSTRESS_WORKERS")
            .ok()
            .and_then(|w| w.parse::<usize>().ok())
        {
            counts.push(extra.max(1));
        }
        counts
    }

    /// Trajectory equality: the search path (winner, leaderboard, history,
    /// incidents). The serial oracle evaluates without a dedup cache, so
    /// its evaluation counters lawfully differ from the pool's;
    /// [`assert_search_identical`] adds them back for pool-vs-pool
    /// comparisons.
    fn assert_trajectory_identical(
        run: &SearchResult<BitGenome>,
        reference: &SearchResult<BitGenome>,
        tag: &str,
    ) {
        let bits = |r: &SearchResult<BitGenome>| -> Vec<(Vec<u64>, u64)> {
            r.leaderboard
                .iter()
                .map(|(g, f)| (g.to_words(), f.to_bits()))
                .collect()
        };
        assert_eq!(run.best, reference.best, "{tag}: best");
        assert_eq!(
            run.best_fitness.to_bits(),
            reference.best_fitness.to_bits(),
            "{tag}: best fitness"
        );
        assert_eq!(bits(run), bits(reference), "{tag}: leaderboard");
        assert_eq!(run.history, reference.history, "{tag}: history");
        assert_eq!(run.generations, reference.generations, "{tag}: generations");
        assert_eq!(run.incidents, reference.incidents, "{tag}: incidents");
    }

    fn assert_search_identical(
        run: &SearchResult<BitGenome>,
        reference: &SearchResult<BitGenome>,
        tag: &str,
    ) {
        assert_trajectory_identical(run, reference, tag);
        assert_eq!(
            run.eval_stats.evaluations, reference.eval_stats.evaluations,
            "{tag}: evaluations"
        );
        assert_eq!(
            run.eval_stats.cache_hits, reference.eval_stats.cache_hits,
            "{tag}: cache hits"
        );
    }

    #[test]
    fn pool_matches_the_serial_oracle_for_any_worker_count() {
        let oracle = serial_oracle(
            small_config(),
            41,
            |rng| BitGenome::random(rng, 24),
            &mut CountingPopcount::new(),
        );
        let reference = pooled_run(41, 1);
        assert_trajectory_identical(&reference, &oracle, "workers=1 vs serial oracle");
        for workers in worker_counts() {
            let pooled = pooled_run(41, workers);
            assert_search_identical(&pooled, &reference, &format!("workers={workers}"));
        }
    }

    #[test]
    fn parallel_worker_counts_agree_on_eval_stats() {
        let run = |workers| {
            let mut engine = GaEngine::new(GaConfig::paper_defaults(), 31);
            let mut fitness = CountingPopcount::new();
            let result =
                engine.run_parallel(workers, |rng| BitGenome::random(rng, 64), &mut fitness);
            (result, fitness.executed())
        };
        let (one, one_executed) = run(1);
        let (four, four_executed) = run(4);
        // The cache makes the substrate work identical, not just the
        // scores: every distinct chromosome runs exactly once either way.
        assert_eq!(one.eval_stats.evaluations, four.eval_stats.evaluations);
        assert_eq!(one.eval_stats.cache_hits, four.eval_stats.cache_hits);
        assert_eq!(one.eval_stats.cache_size, four.eval_stats.cache_size);
        assert_eq!(one.eval_stats.evaluations, one_executed);
        assert_eq!(four.eval_stats.evaluations, four_executed);
        assert_eq!(
            one.eval_stats.generation_eval_seconds.len(),
            four.eval_stats.generation_eval_seconds.len()
        );
    }

    #[test]
    fn eval_cache_hits_repeats_and_misses_mutants() {
        let mut config = GaConfig::paper_defaults();
        config.population_size = 8;
        config.max_generations = 1;
        let mut engine = GaEngine::new(config, 3);
        let mut fitness = CountingPopcount::new();
        let a = BitGenome::from_words(&[0x00FF], 64);
        let mut b = a.clone();
        b.set_bit(63, true); // a mutated copy must miss the cache
        let mut population = vec![a; 4];
        population.extend(std::iter::repeat_n(b, 4));
        let result = engine.run_from_parallel(2, population, &mut fitness);
        // Initial round: 8 slots but only 2 distinct chromosomes.
        assert!(
            result.eval_stats.cache_hits >= 6,
            "stats: {:?}",
            result.eval_stats
        );
        // Cache transparency: counted evaluations are exactly the substrate
        // runs that happened, everything else was served from the cache.
        assert_eq!(result.eval_stats.evaluations, fitness.executed());
        assert_eq!(
            result.eval_stats.evaluations + result.eval_stats.cache_hits,
            2 * 8,
            "every population slot is either evaluated or a cache hit"
        );
        assert_eq!(result.eval_stats.workers, 2);
        // Under the cap nothing evicts, so the cache holds exactly every
        // distinct chromosome the substrate ever ran.
        assert_eq!(
            result.eval_stats.cache_size as u64,
            result.eval_stats.evaluations
        );
        // One initial round + one generation were timed.
        assert_eq!(result.eval_stats.generation_eval_seconds.len(), 2);
        assert!(result.eval_stats.eval_seconds() >= 0.0);
    }

    #[test]
    fn serial_path_reports_eval_stats_without_cache() {
        // The oracle must stay an uncached reference: every population slot
        // of every round is a substrate evaluation.
        let mut fitness = CountingPopcount::new();
        let result = serial_oracle(
            GaConfig::paper_defaults(),
            7,
            |rng| BitGenome::random(rng, 64),
            &mut fitness,
        );
        assert_eq!(result.eval_stats.workers, 1);
        assert_eq!(result.eval_stats.cache_hits, 0);
        assert_eq!(result.eval_stats.cache_size, 0);
        assert_eq!(result.eval_stats.evaluations, fitness.executed());
        assert_eq!(
            result.eval_stats.generation_eval_seconds.len() as u32,
            result.generations + 1
        );
    }

    #[test]
    fn eval_cache_evicts_oldest_and_promotes_on_hit() {
        let g = |w: u64| BitGenome::from_words(&[w], 64);
        let mut cache = EvalCache::with_cap(3);
        cache.insert(g(1), 1.0);
        cache.insert(g(2), 2.0);
        cache.insert(g(3), 3.0);
        // A hit promotes: 1 becomes most recently used.
        assert_eq!(cache.lookup(&g(1)), Some(1.0));
        // Beyond the cap the least recently used entry (now 2) goes.
        cache.insert(g(4), 4.0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup(&g(2)), None);
        assert_eq!(
            cache.entries(),
            vec![(g(3), 3.0), (g(1), 1.0), (g(4), 4.0)],
            "entries are queue order, oldest first"
        );
        // Re-inserting an existing chromosome refreshes instead of growing.
        cache.insert(g(3), 3.5);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup(&g(3)), Some(3.5));
    }

    #[test]
    fn eval_cache_round_trips_checkpoint_entries() {
        let g = |w: u64| BitGenome::from_words(&[w], 64);
        let mut cache = EvalCache::with_cap(4);
        for w in 0..4 {
            cache.insert(g(w), w as f64);
        }
        assert_eq!(cache.lookup(&g(0)), Some(0.0)); // scramble the order
        let entries = cache.entries();
        let rebuilt = EvalCache::from_entries(entries.clone());
        assert_eq!(rebuilt.entries(), entries, "resume preserves recency");
    }

    #[test]
    fn eval_cache_stays_bounded_across_a_long_search() {
        // More distinct chromosomes than the cap: the cache (and therefore
        // every checkpoint) stays at the cap instead of growing with the
        // evaluation history.
        let mut cache = EvalCache::new();
        for w in 0..(EVAL_CACHE_CAP as u64 + 100) {
            cache.insert(BitGenome::from_words(&[w], 64), w as f64);
        }
        assert_eq!(cache.len(), EVAL_CACHE_CAP);
        assert_eq!(
            cache.lookup(&BitGenome::from_words(&[0], 64)),
            None,
            "the oldest entries were evicted"
        );
        assert_eq!(
            cache.lookup(&BitGenome::from_words(&[EVAL_CACHE_CAP as u64 + 99], 64)),
            Some(EVAL_CACHE_CAP as f64 + 99.0),
            "the newest entries survive"
        );
    }

    #[test]
    fn checkpoints_without_cache_size_default_to_zero() {
        // Checkpoints written before the cache was bounded have no
        // `cache_size` field in their `eval_stats`; they must still load.
        let mut config = GaConfig::paper_defaults();
        config.population_size = 6;
        config.max_generations = 2;
        let mut session =
            SearchSession::start(config, 5, |rng: &mut StdRng| BitGenome::random(rng, 32));
        let pool = EvalPool::new(&CountingPopcount::new(), 1);
        session.step(&pool);
        let json = session.checkpoint().to_json().unwrap();
        assert!(json.contains("\"cache_size\""));
        let needle = "\"cache_size\":";
        let at = json.find(needle).unwrap();
        let rest = &json[at + needle.len()..];
        let end = rest.find(',').unwrap();
        let legacy = format!("{}{}", &json[..at], &rest[end + 1..]);
        let state = EngineState::<BitGenome>::from_json(&legacy).unwrap();
        assert_eq!(state.eval_stats.cache_size, 0);
        // Checkpoints written while the pool still counted steals and
        // replica cache hits carry three keys the stats no longer have;
        // unknown keys are ignored, so they load too.
        let needle = "\"eval_stats\":{";
        assert!(json.contains(needle));
        let counted = json.replacen(
            needle,
            "\"eval_stats\":{\"steals\":3,\"replica_warm_hits\":2,\"replica_cold_misses\":5,",
            1,
        );
        // And the rest of the state resumes bit-identically.
        let resume = |json: &str| {
            let state = EngineState::<BitGenome>::from_json(json).unwrap();
            let mut resumed = SearchSession::resume(state);
            while !resumed.done() {
                resumed.step(&pool);
            }
            resumed.finish()
        };
        let reference = resume(&json);
        for old in [legacy, counted] {
            let result = resume(&old);
            assert_eq!(result.best, reference.best);
            assert_eq!(
                result.best_fitness.to_bits(),
                reference.best_fitness.to_bits()
            );
            assert_eq!(result.leaderboard, reference.leaderboard);
            assert_eq!(result.history, reference.history);
            assert_eq!(result.generations, reference.generations);
            assert_eq!(
                result.eval_stats.evaluations,
                reference.eval_stats.evaluations
            );
            assert_eq!(
                result.eval_stats.cache_hits,
                reference.eval_stats.cache_hits
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one evaluation worker")]
    fn zero_workers_panics() {
        let mut engine = GaEngine::new(GaConfig::paper_defaults(), 1);
        let mut fitness = CountingPopcount::new();
        engine.run_parallel(0, |rng| BitGenome::random(rng, 64), &mut fitness);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut engine = GaEngine::new(GaConfig::paper_defaults(), seed);
            let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
            engine
                .run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness)
                .best_fitness
        };
        assert_eq!(run(23), run(23));
    }

    #[test]
    fn session_resume_from_json_checkpoint_is_bit_identical() {
        // Kill the session at *every* step boundary, serialize the
        // checkpoint to JSON (exactly what the journal persists), drop the
        // live session, and continue from the JSON alone — even with a
        // different worker count. Everything except wall-clock timing must
        // match the uninterrupted run.
        let mut config = GaConfig::paper_defaults();
        config.population_size = 12;
        config.max_generations = 12;
        config.stagnation_window = 4;
        let init = |rng: &mut StdRng| BitGenome::random(rng, 32);
        let clean = {
            let mut session = SearchSession::start(config, 77, init);
            let pool = EvalPool::new(&CountingPopcount::new(), 1);
            while !session.done() {
                session.step(&pool);
            }
            session.finish()
        };
        for boundary in 0.. {
            let mut session = SearchSession::start(config, 77, init);
            let pool = EvalPool::new(&CountingPopcount::new(), 1);
            for _ in 0..boundary {
                session.step(&pool);
            }
            let finished_already = session.done();
            let json = session.checkpoint().to_json().unwrap();
            drop(session); // the "crash"
            let state = EngineState::<BitGenome>::from_json(&json).unwrap();
            let mut resumed = SearchSession::resume(state);
            let pool = EvalPool::new(&CountingPopcount::new(), 2);
            while !resumed.done() {
                resumed.step(&pool);
            }
            let result = resumed.finish();
            assert_eq!(result.best, clean.best, "boundary={boundary}");
            assert_eq!(result.best_fitness, clean.best_fitness);
            assert_eq!(result.leaderboard, clean.leaderboard);
            assert_eq!(result.generations, clean.generations);
            assert_eq!(result.converged, clean.converged);
            assert_eq!(result.similarity, clean.similarity);
            assert_eq!(result.history, clean.history);
            // Counters resume from the checkpoint, so totals match too.
            assert_eq!(result.eval_stats.evaluations, clean.eval_stats.evaluations);
            assert_eq!(result.eval_stats.cache_hits, clean.eval_stats.cache_hits);
            if finished_already {
                break;
            }
        }
    }

    use crate::supervise::{Hazard, HazardPlan};

    /// A hazard plan exercising every fault class: a caught panic, a
    /// transient fault that succeeds on retry, a transient run that
    /// exhausts its retries, a step-budget blowout, and a worker death.
    fn full_hazard_plan() -> HazardPlan {
        let plan = HazardPlan::new();
        plan.schedule(2, Hazard::Panic);
        plan.schedule(5, Hazard::Transient); // retried, then scores normally
        for attempt in 0..4 {
            plan.schedule_attempt(9, attempt, Hazard::Transient); // exhausts retries
        }
        plan.schedule(11, Hazard::BudgetBlowout);
        plan.schedule(14, Hazard::KillWorker);
        plan
    }

    fn hazard_run(workers: usize, plan: Option<HazardPlan>) -> SearchResult<BitGenome> {
        let mut config = GaConfig::paper_defaults();
        config.population_size = 12;
        config.max_generations = 10;
        let mut engine = GaEngine::new(config, 53);
        engine.set_hazards(plan);
        let mut fitness = CountingPopcount::new();
        engine.run_parallel(workers, |rng| BitGenome::random(rng, 32), &mut fitness)
    }

    #[test]
    fn supervised_search_survives_hazards_bit_identically_across_workers() {
        let reference = hazard_run(1, Some(full_hazard_plan()));
        assert_eq!(
            reference.quarantined(),
            3,
            "panic, exhausted transient and budget blowout all quarantine"
        );
        assert_eq!(reference.workers_lost(), 1);
        assert!(
            !reference.incidents.is_empty() && reference.best_fitness.is_finite(),
            "the campaign completes with a real winner despite the hazards"
        );
        for workers in [2usize, 4] {
            let run = hazard_run(workers, Some(full_hazard_plan()));
            assert_eq!(run.best, reference.best, "workers={workers}");
            assert_eq!(run.best_fitness, reference.best_fitness);
            assert_eq!(run.leaderboard, reference.leaderboard);
            assert_eq!(run.history, reference.history);
            assert_eq!(run.generations, reference.generations);
            assert_eq!(run.incidents, reference.incidents);
            assert_eq!(run.eval_stats.evaluations, reference.eval_stats.evaluations);
            assert_eq!(run.eval_stats.cache_hits, reference.eval_stats.cache_hits);
        }
    }

    #[test]
    fn transient_retries_and_worker_loss_leave_the_search_outcome_unchanged() {
        // Recoverable hazards (a retried transient, a dead worker) must not
        // perturb the search at all: same scores, same winner, same record
        // stream as a hazard-free run — only the incident log differs.
        let clean = hazard_run(3, None);
        let plan = HazardPlan::new();
        plan.schedule(4, Hazard::Transient);
        plan.schedule(7, Hazard::KillWorker);
        plan.schedule(16, Hazard::KillWorker);
        let hazarded = hazard_run(3, Some(plan));
        assert_eq!(hazarded.best, clean.best);
        assert_eq!(hazarded.best_fitness, clean.best_fitness);
        assert_eq!(hazarded.leaderboard, clean.leaderboard);
        assert_eq!(hazarded.history, clean.history);
        assert_eq!(
            hazarded.eval_stats.evaluations,
            clean.eval_stats.evaluations
        );
        assert!(clean.incidents.is_empty());
        assert_eq!(hazarded.workers_lost(), 2);
        assert_eq!(hazarded.quarantined(), 0);
        // The pool shrank but survivors finished the search.
        assert_eq!(hazarded.eval_stats.workers, 1);
    }

    #[test]
    fn losing_the_last_worker_revives_the_pool() {
        let plan = HazardPlan::new();
        plan.schedule(3, Hazard::KillWorker);
        plan.schedule(8, Hazard::KillWorker);
        let run = hazard_run(1, Some(plan));
        assert_eq!(run.workers_lost(), 2, "the lone worker died twice");
        assert!(run.best_fitness.is_finite());
        assert_eq!(run.eval_stats.workers, 1);
    }

    #[test]
    fn incident_sequence_numbers_are_dense_and_ordered() {
        let run = hazard_run(2, Some(full_hazard_plan()));
        for (i, incident) in run.incidents.iter().enumerate() {
            assert_eq!(incident.seq, i as u64);
        }
        // Within the stream, evaluation indices never decrease.
        for w in run.incidents.windows(2) {
            assert!(w[0].eval_index <= w[1].eval_index);
        }
    }

    #[test]
    fn quarantined_chromosomes_never_reach_the_leaderboard_top() {
        // Quarantine every early evaluation: the engine keeps searching and
        // the winner is a finite-scored chromosome.
        let plan = HazardPlan::new();
        for index in 0..6 {
            plan.schedule(index, Hazard::Permanent);
        }
        let run = hazard_run(2, Some(plan));
        assert_eq!(run.quarantined(), 6);
        assert!(run.best_fitness.is_finite());
        // NaN-last order: every finite entry sorts above the NaN ones.
        let first_nan = run
            .leaderboard
            .iter()
            .position(|(_, v)| v.is_nan())
            .unwrap_or(run.leaderboard.len());
        assert!(run.leaderboard[..first_nan]
            .iter()
            .all(|(_, v)| v.is_finite()));
        assert!(run.leaderboard[first_nan..].iter().all(|(_, v)| v.is_nan()));
    }

    #[test]
    fn supervised_session_resume_replays_incidents_bit_identically() {
        // The hazard sweep's crash/resume twin: kill the session at every
        // boundary, resume from JSON (which must round-trip the NaN scores
        // of quarantined chromosomes), hand the resumed session a fresh
        // copy of the plan, and require the incident stream and the final
        // result to match the uninterrupted run.
        let mut config = GaConfig::paper_defaults();
        config.population_size = 12;
        config.max_generations = 8;
        config.stagnation_window = 3;
        let init = |rng: &mut StdRng| BitGenome::random(rng, 32);
        let make_plan = || {
            let plan = HazardPlan::new();
            plan.schedule(3, Hazard::Panic);
            plan.schedule(6, Hazard::Transient);
            plan.schedule(10, Hazard::KillWorker);
            plan.schedule(13, Hazard::BudgetBlowout);
            plan
        };
        let clean = {
            let mut session = SearchSession::start(config, 91, init);
            session.set_hazards(Some(make_plan()));
            let pool = EvalPool::new(&CountingPopcount::new(), 2);
            while !session.done() {
                session.step(&pool);
            }
            session.finish()
        };
        assert!(clean.quarantined() >= 2);
        for boundary in 0.. {
            let mut session = SearchSession::start(config, 91, init);
            session.set_hazards(Some(make_plan()));
            let pool = EvalPool::new(&CountingPopcount::new(), 2);
            for _ in 0..boundary {
                session.step(&pool);
            }
            let finished_already = session.done();
            let json = session.checkpoint().to_json().unwrap();
            drop(session); // the crash
            let state = EngineState::<BitGenome>::from_json(&json).unwrap();
            let mut resumed = SearchSession::resume(state);
            // A fresh plan: hazards at already-cached indices never re-fire
            // (the cache serves them), the rest fire exactly as scheduled.
            resumed.set_hazards(Some(make_plan()));
            let pool = EvalPool::new(&CountingPopcount::new(), 1);
            while !resumed.done() {
                resumed.step(&pool);
            }
            let result = resumed.finish();
            assert_eq!(result.best, clean.best, "boundary={boundary}");
            assert_eq!(result.incidents, clean.incidents);
            assert_eq!(result.history, clean.history);
            assert_eq!(result.generations, clean.generations);
            assert_eq!(result.eval_stats.evaluations, clean.eval_stats.evaluations);
            if finished_already {
                break;
            }
        }
    }

    #[test]
    fn engine_state_round_trips_nan_cache_entries() {
        let mut config = GaConfig::paper_defaults();
        config.population_size = 4;
        config.max_generations = 2;
        let plan = HazardPlan::new();
        plan.schedule(0, Hazard::Permanent);
        let mut session = SearchSession::start(config, 7, |rng| BitGenome::random(rng, 16));
        session.set_hazards(Some(plan));
        let pool = EvalPool::new(&CountingPopcount::new(), 1);
        session.step(&pool);
        let state = session.checkpoint();
        let nan_cached = state.cache.iter().filter(|(_, v)| v.is_nan()).count();
        assert_eq!(nan_cached, 1, "the quarantined chromosome is cached NaN");
        let json = state.to_json().unwrap();
        let back = EngineState::<BitGenome>::from_json(&json).unwrap();
        assert_eq!(
            back.cache.iter().filter(|(_, v)| v.is_nan()).count(),
            nan_cached,
            "NaN survives the JSON round-trip (as null)"
        );
        assert_eq!(back.incidents, session.incidents());
    }

    #[test]
    fn session_reports_newly_evaluated_chromosomes() {
        let mut config = GaConfig::paper_defaults();
        config.population_size = 8;
        config.max_generations = 3;
        let mut session = SearchSession::start(config, 41, |rng| BitGenome::random(rng, 16));
        let pool = EvalPool::new(&CountingPopcount::new(), 1);
        let mut seen = 0u64;
        while !session.done() {
            session.step(&pool);
            let newly = session.take_newly_evaluated();
            for (g, v) in &newly {
                assert_eq!(*v, g.count_ones() as f64);
            }
            seen += newly.len() as u64;
            // Draining is idempotent until the next step.
            assert!(session.take_newly_evaluated().is_empty());
        }
        let result = session.finish();
        assert_eq!(
            seen, result.eval_stats.evaluations,
            "every substrate evaluation must be reported exactly once"
        );
    }
}
