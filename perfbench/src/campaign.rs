//! The three campaign workloads: one GA search at one worker, driven
//! through the program's `DStress` campaign calls (untraced) or rebuilt
//! from the same public parts around the trace instruments (traced).

use crate::trace::{Codec, Fnv, Paired, StageEval, Stages};
use dstress::patterns::{BitCodec, IntCodec};
use dstress::search::EnvKind;
use dstress::{
    templates, DStress, DStressError, ExperimentScale, Metric, ParallelBitFitness,
    ParallelIntFitness, WORST_WORD,
};
use dstress_dram::geometry::RowKey;
use dstress_ga::{
    BitGenome, EvalPool, GaConfig, GaEngine, Genome, IntGenome, ParallelFitness, SearchResult,
};
use rand::rngs::StdRng;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// DIMM2's temperature in every campaign (paper Figs. 8a, 10 and 12).
pub const TEMP_C: f64 = 60.0;

/// A campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 64-bit data-pattern CE search (Fig. 8a).
    Word64,
    /// The stride-access integer-genome search on profiled victims (Fig. 12).
    Stride,
    /// The 128 KB chunk-span search on profiled victims (Fig. 10).
    Chunks,
}

impl Kind {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Word64 => "word64",
            Kind::Stride => "stride",
            Kind::Chunks => "chunks",
        }
    }

    /// Generation cap. word64 converges in 55–80 generations at paper
    /// scale depending on the seed, so it stops at 50 and every seed does
    /// the same number of generations. stride and chunks never converge and
    /// are cut far short of the 150-generation cap: that keeps their cost
    /// profile per generation, and a population still close to random costs
    /// about the same at every seed.
    fn generations(self) -> u32 {
        match self {
            Kind::Word64 => 50,
            Kind::Stride => 3,
            Kind::Chunks => 3,
        }
    }

    /// Identical campaign calls an untraced paper-scale run of `seconds`
    /// makes: a fixed count for a given `--seconds`, from the time one
    /// repetition (its set-ups and its campaign) takes on the 2-core host
    /// the benchmark was tuned on, so that a slower or faster program runs
    /// the same repetitions.
    pub fn repetitions(self, seconds: f64) -> usize {
        let nominal_s = match self {
            Kind::Word64 => 5.0,
            Kind::Stride => 2.5,
            Kind::Chunks => 3.0,
        };
        ((seconds / nominal_s).round() as usize).clamp(2, 12)
    }

    /// The scale the workload runs at, generation cap applied.
    pub fn scale(self, paper: bool) -> ExperimentScale {
        let mut scale = if paper {
            ExperimentScale::paper()
        } else {
            ExperimentScale::quick()
        };
        scale.ga.max_generations = scale.ga.max_generations.min(self.generations());
        scale
    }

    fn needs_victims(self) -> bool {
        self != Kind::Word64
    }

    fn env(self, victims: &[RowKey]) -> EnvKind {
        let victims = victims.to_vec();
        match self {
            Kind::Word64 => EnvKind::Word64,
            Kind::Stride => EnvKind::StrideAccess {
                victims,
                fill: WORST_WORD,
            },
            Kind::Chunks => EnvKind::Chunks { victims },
        }
    }

    fn metric(self, victims: &[RowKey]) -> Metric {
        match self {
            Kind::Word64 => Metric::CeAverage,
            _ => Metric::CeInRows(victims.to_vec()),
        }
    }
}

/// What must repeat exactly for one campaign at one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a of the best genome's words.
    pub best: u64,
    /// The best fitness's bits.
    pub fitness: u64,
    /// Generations run.
    pub generations: u32,
    /// Substrate evaluations (`EvalStats::evaluations`).
    pub evaluations: u64,
    /// Evaluations served by the evaluator's compile cache.
    pub compile_hits: u64,
}

/// One finished campaign call.
pub struct Outcome {
    /// Wall-clock of the campaign call.
    pub wall: Duration,
    /// The result's digest.
    pub digest: Digest,
    /// The best genome's first word (word64's winner).
    pub best_word: u64,
    /// Population slots served from the GA's evaluation cache.
    pub cache_hits: u64,
    /// `EvalStats::max_worker_idle_ns`.
    pub max_worker_idle_ns: u64,
    /// Wall-clock of every scoring round (`EvalStats::generation_eval_seconds`).
    pub rounds: Vec<f64>,
    /// Evaluations that failed.
    pub failed_evaluations: u64,
}

/// Genome words for hashing.
pub(crate) trait Words {
    fn words(&self) -> Vec<u64>;
}

impl Words for BitGenome {
    fn words(&self) -> Vec<u64> {
        self.to_words()
    }
}

impl Words for IntGenome {
    fn words(&self) -> Vec<u64> {
        self.values().to_vec()
    }
}

pub(crate) fn digest<G: Words>(result: &SearchResult<G>, compile_hits: u64) -> Digest {
    let mut hash = Fnv::new();
    result.best.words().iter().for_each(|w| hash.word(*w));
    Digest {
        best: hash.finish(),
        fitness: result.best_fitness.to_bits(),
        generations: result.generations,
        evaluations: result.eval_stats.evaluations,
        compile_hits,
    }
}

fn outcome<G: Words>(wall: Duration, result: &SearchResult<G>, failed: u64) -> Outcome {
    let stats = &result.eval_stats;
    Outcome {
        wall,
        digest: digest(result, stats.compile_hits),
        best_word: result.best.words().first().copied().unwrap_or(0),
        cache_hits: stats.cache_hits,
        max_worker_idle_ns: stats.max_worker_idle_ns,
        rounds: stats.generation_eval_seconds.clone(),
        failed_evaluations: failed,
    }
}

/// One cold set-up: from `DStress::new` to a built evaluator and pool,
/// ready for the first evaluation. Returns its duration and the victims.
///
/// # Errors
///
/// Propagates platform, profiling and template failures.
pub fn cold_setup(
    kind: Kind,
    scale: ExperimentScale,
    seed: u64,
) -> Result<(Duration, Vec<RowKey>), DStressError> {
    let started = Instant::now();
    let mut dstress = DStress::new(scale, seed);
    let victims = if kind.needs_victims() {
        dstress.profile_victims(TEMP_C, WORST_WORD)?
    } else {
        Vec::new()
    };
    let evaluator = dstress.evaluator(&kind.env(&victims), TEMP_C, kind.metric(&victims))?;
    let ready = match kind {
        Kind::Word64 | Kind::Chunks => pool_ready::<BitGenome, _>(
            started,
            ParallelBitFitness {
                evaluator,
                codec: bit_codec(kind, &scale),
            },
        ),
        Kind::Stride => pool_ready::<IntGenome, _>(
            started,
            ParallelIntFitness {
                evaluator,
                codec: int_codec(),
            },
        ),
    };
    Ok((ready, victims))
}

/// Builds the one-worker pool a campaign evaluates on and returns the time
/// since `started` at which it was ready; the pool is then retired.
fn pool_ready<G, F>(started: Instant, fitness: F) -> Duration
where
    G: Genome + PartialEq + Eq + Hash + Send + Sync + 'static,
    F: ParallelFitness<G> + 'static,
{
    let pool = EvalPool::<G, F>::new(&fitness, 1);
    let ready = started.elapsed();
    pool.shutdown();
    ready
}

/// One untraced campaign call on a fresh framework.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn run(
    kind: Kind,
    scale: ExperimentScale,
    seed: u64,
    victims: &[RowKey],
) -> Result<Outcome, DStressError> {
    let mut dstress = DStress::new(scale, seed);
    let started = Instant::now();
    Ok(match kind {
        Kind::Word64 => {
            let c = dstress.search_word64(TEMP_C, Metric::CeAverage, false)?;
            outcome(started.elapsed(), &c.result, c.failed_evaluations)
        }
        Kind::Stride => {
            let c = dstress.search_stride_access(TEMP_C, victims.to_vec(), WORST_WORD)?;
            outcome(started.elapsed(), &c.result, c.failed_evaluations)
        }
        Kind::Chunks => {
            let c = dstress.search_chunks(TEMP_C, victims.to_vec())?;
            outcome(started.elapsed(), &c.result, c.failed_evaluations)
        }
    })
}

/// What a traced campaign measured.
pub struct Traced {
    /// The campaign's digest.
    pub digest: Digest,
    /// Compile-cache hits of the stage substrate.
    pub staged_compile_hits: u64,
    /// Evaluations whose two substrates disagreed.
    pub mismatches: u64,
    /// Time inside `VirusEvaluator`.
    pub eval_busy: Duration,
    /// Evaluations timed through `VirusEvaluator`.
    pub evals: u64,
    /// Generations run.
    pub generations: u32,
    /// Campaign wall-clock minus scoring rounds: breed, select and
    /// similarity, plus starting and retiring the pool once.
    pub ga_self: Duration,
    /// Per-stage totals of the stage substrate.
    pub stages: Stages,
    /// Wall-clock of the campaign as the stage substrate alone would run
    /// it: its build, the pool, the steps and the pool's retirement, less
    /// the time spent in `VirusEvaluator`.
    pub staged_wall: Duration,
}

impl Traced {
    /// Sums the measurements of two traced campaigns (the digest is the
    /// first one's).
    pub fn merge(mut self, other: Traced) -> Traced {
        self.mismatches += other.mismatches;
        self.eval_busy += other.eval_busy;
        self.evals += other.evals;
        self.generations += other.generations;
        self.ga_self += other.ga_self;
        self.stages.add(&other.stages);
        self.staged_wall += other.staged_wall;
        self
    }
}

/// Runs the campaign once with every candidate evaluated twice, in turn
/// first and second: through the program's evaluator behind a timing
/// wrapper, whose score drives the search, and through the stage substrate,
/// whose score must be the same bit for bit. Interleaving the two per
/// evaluation exposes them to the same host conditions.
///
/// # Errors
///
/// Propagates evaluator construction failures.
pub fn traced(
    kind: Kind,
    scale: ExperimentScale,
    seed: u64,
    victims: &[RowKey],
) -> Result<Traced, DStressError> {
    let dstress = DStress::new(scale, seed);
    let env = kind.env(victims);
    let metric = kind.metric(victims);
    let evaluator = dstress.evaluator(&env, TEMP_C, metric.clone())?;
    let started = Instant::now();
    let server = dstress.server_at(TEMP_C)?;
    let template = templates::process(env.template_source(), &scale)?;
    let bindings = env.bindings(&scale)?;
    let build = started.elapsed();
    let runs = scale.runs_per_virus;
    let mut config = scale.ga;
    let seed = DStress::campaign_seed(seed, 1);
    let supervision = dstress.supervision();
    Ok(match kind {
        Kind::Word64 | Kind::Chunks => {
            let codec = bit_codec(kind, &scale);
            let bits = codec.genome_bits();
            config.minimize = false;
            if bits > 1024 {
                // `DStress::run_bit_campaign`'s large-chromosome settings.
                config.gene_rate = Some(4.0 / bits as f64);
                config.stagnation_window = config.stagnation_window.max(40);
            }
            let row_words = scale.row_words() as usize;
            let init = move |rng: &mut StdRng| {
                let mut genome = BitGenome::random(rng, bits);
                if kind == Kind::Chunks {
                    // The victim row sits 32 chunks into the span and starts
                    // from the known worst word (`Seeding::WordSlice`).
                    for bit in 32 * row_words * 64..33 * row_words * 64 {
                        genome.set_bit(bit, (WORST_WORD >> (bit % 64)) & 1 == 1);
                    }
                }
                genome
            };
            let staged = StageEval::new(server, template, bindings, metric, runs, codec.clone());
            let fitness = Paired::new(ParallelBitFitness { evaluator, codec }, staged);
            run_paired(config, seed, supervision, init, fitness, build)
        }
        Kind::Stride => {
            let init = |rng: &mut StdRng| IntGenome::random(rng, 32, 0, 20);
            let staged = StageEval::new(server, template, bindings, metric, runs, int_codec());
            let fitness = Paired::new(
                ParallelIntFitness {
                    evaluator,
                    codec: int_codec(),
                },
                staged,
            );
            run_paired(config, seed, supervision, init, fitness, build)
        }
    })
}

/// Compile-cache hits of the program's fitness adapters.
pub(crate) trait CompileHits {
    fn compile_hits(&self) -> u64;
}

impl CompileHits for ParallelBitFitness {
    fn compile_hits(&self) -> u64 {
        self.evaluator.compile_hits
    }
}

impl CompileHits for ParallelIntFitness {
    fn compile_hits(&self) -> u64 {
        self.evaluator.compile_hits
    }
}

fn run_paired<G, F, C>(
    config: GaConfig,
    seed: u64,
    supervision: dstress_ga::SupervisionPolicy,
    init: impl FnMut(&mut StdRng) -> G,
    mut fitness: Paired<F, C>,
    staged_build: Duration,
) -> Traced
where
    G: Genome + Words + PartialEq + Eq + Hash + Send + Sync + 'static,
    F: ParallelFitness<G> + CompileHits + 'static,
    C: Codec<G>,
{
    // The path `DStress::run_bit_campaign` / `run_int_campaign` take.
    let mut engine = GaEngine::new(config, seed);
    engine.set_supervision(supervision);
    let started = Instant::now();
    let result = engine.run_parallel(1, init, &mut fitness);
    let wall = started.elapsed();
    let rounds = Duration::from_secs_f64(result.eval_stats.eval_seconds());
    Traced {
        digest: digest(&result, fitness.timed.inner().compile_hits()),
        staged_compile_hits: fitness.staged.stages.compile_hits,
        mismatches: fitness.mismatches,
        eval_busy: fitness.timed.busy,
        evals: fitness.timed.evals,
        generations: result.generations,
        ga_self: wall.saturating_sub(rounds),
        stages: fitness.staged.stages,
        staged_wall: (staged_build + wall).saturating_sub(fitness.timed.busy),
    }
}

fn bit_codec(kind: Kind, scale: &ExperimentScale) -> BitCodec {
    match kind {
        Kind::Chunks => BitCodec::WordArrays {
            segments: vec![("CHUNK_PATTERN".into(), 64 * scale.row_words() as usize)],
        },
        _ => BitCodec::Word64 {
            param: "PATTERN".into(),
        },
    }
}

fn int_codec() -> IntCodec {
    IntCodec {
        param: "COEFFS".into(),
    }
}
