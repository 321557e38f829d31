//! The traced run's instruments, built only from the layers' public items.
//!
//! Two fitness substrates stand in for `ParallelBitFitness` /
//! `ParallelIntFitness` inside an otherwise unchanged GA campaign:
//!
//! * [`Timed`] wraps the program's own fitness (and so `VirusEvaluator`)
//!   and times every substrate evaluation: `core.eval_us`.
//! * [`StageEval`] re-drives one evaluation stage by stage through the
//!   `vpl` and `platform` calls `VirusEvaluator::evaluate_bindings` makes,
//!   timing each: `vpl.bind_us`, `vpl.compile_us`, `vpl.vm_us`,
//!   `platform.prepare_us` and `platform.kernel_us`. Its scores must equal
//!   the program's bit for bit.
//!
//! [`Paired`] runs both on every candidate of one campaign, so their times
//! are taken under the same host conditions.

use dstress::patterns::{BitCodec, IntCodec};
use dstress::Metric;
use dstress_ga::{BitGenome, EvalFault, Fitness, Genome, IntGenome, ParallelFitness};
use dstress_platform::{RunOutcome, XGene2Server};
use dstress_vpl::{
    compile_opt, BoundValue, CompiledProgram, ExecLimits, OptLevel, ProcessedTemplate, Vm, VplError,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The DIMM the viruses target (DIMM2, the heated one).
const TARGET_MCU: usize = 2;

/// Retention bound of `VirusEvaluator`'s compile cache, mirrored so the
/// stage substrate compiles exactly when the program does.
const COMPILE_CACHE_CAP: usize = 1024;

/// Turns a genome into template bindings (the program's two codecs).
pub trait Codec<G>: Clone + Send + 'static {
    /// The chromosome's bindings.
    fn bindings(&self, genome: &G) -> HashMap<String, BoundValue>;
}

impl Codec<BitGenome> for BitCodec {
    fn bindings(&self, genome: &BitGenome) -> HashMap<String, BoundValue> {
        BitCodec::bindings(self, genome)
    }
}

impl Codec<IntGenome> for IntCodec {
    fn bindings(&self, genome: &IntGenome) -> HashMap<String, BoundValue> {
        IntCodec::bindings(self, genome)
    }
}

/// Times every substrate evaluation of the wrapped fitness.
pub struct Timed<F> {
    inner: F,
    /// Total time inside the wrapped substrate.
    pub busy: Duration,
    /// Substrate evaluations timed.
    pub evals: u64,
}

impl<F> Timed<F> {
    /// Wraps a fitness.
    pub fn new(inner: F) -> Self {
        Timed {
            inner,
            busy: Duration::ZERO,
            evals: 0,
        }
    }

    /// The wrapped fitness.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    fn time<R>(&mut self, f: impl FnOnce(&mut F) -> R) -> R {
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.busy += started.elapsed();
        self.evals += 1;
        out
    }
}

impl<G: Genome, F: ParallelFitness<G>> Fitness<G> for Timed<F> {
    fn evaluate(&mut self, genome: &G) -> f64 {
        self.time(|f| f.evaluate(genome))
    }

    fn try_evaluate(&mut self, genome: &G) -> Result<f64, EvalFault> {
        self.time(|f| f.try_evaluate(genome))
    }
}

impl<G: Genome, F: ParallelFitness<G>> ParallelFitness<G> for Timed<F> {
    fn replicate(&self) -> Self {
        Timed::new(self.inner.replicate())
    }

    fn absorb(&mut self, replica: Self) {
        self.inner.absorb(replica.inner);
        self.busy += replica.busy;
        self.evals += replica.evals;
    }

    fn cache_counters(&self) -> (u64, u64) {
        self.inner.cache_counters()
    }
}

/// Time per evaluation stage, summed over a campaign.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    /// Substrate evaluations.
    pub evals: u64,
    /// Evaluations whose program came from the compile cache.
    pub compile_hits: u64,
    /// Evaluations that failed.
    pub failed: u64,
    /// Recorded trace operations (`RecordedRun::len`).
    pub trace_ops: u64,
    /// `ProcessedTemplate::instantiate` over the merged bindings.
    pub bind: Duration,
    /// `compile_opt` at the default level.
    pub compile: Duration,
    /// `Vm::run` into a recording `Session`, plus `Session::finish`.
    pub vm: Duration,
    /// `XGene2Server::prepare_run`.
    pub prepare: Duration,
    /// `XGene2Server::evaluate_prepared_runs`.
    pub kernel: Duration,
}

impl Stages {
    /// Adds another campaign's totals.
    pub fn add(&mut self, other: &Stages) {
        self.evals += other.evals;
        self.compile_hits += other.compile_hits;
        self.failed += other.failed;
        self.trace_ops += other.trace_ops;
        self.bind += other.bind;
        self.compile += other.compile;
        self.vm += other.vm;
        self.prepare += other.prepare;
        self.kernel += other.kernel;
    }

    /// Sum of the five stage times.
    pub fn total(&self) -> Duration {
        self.bind + self.compile + self.vm + self.prepare + self.kernel
    }
}

/// One evaluation's failure, at the stage it happened.
enum StageError {
    Vpl(VplError),
    Plan(String),
}

impl From<VplError> for StageError {
    fn from(e: VplError) -> Self {
        StageError::Vpl(e)
    }
}

impl From<dstress_dram::PlanError> for StageError {
    fn from(e: dstress_dram::PlanError) -> Self {
        StageError::Plan(e.to_string())
    }
}

/// The evaluation substrate re-driven stage by stage.
pub struct StageEval<C> {
    server: XGene2Server,
    template: ProcessedTemplate,
    env: HashMap<String, BoundValue>,
    metric: Metric,
    runs: u32,
    codec: C,
    cache: HashMap<Vec<(String, BoundValue)>, Arc<CompiledProgram>>,
    recency: VecDeque<Vec<(String, BoundValue)>>,
    /// What this replica measured.
    pub stages: Stages,
}

impl<C> StageEval<C> {
    /// A substrate over the server, template and environment bindings a
    /// `VirusEvaluator` would be built from.
    pub fn new(
        server: XGene2Server,
        template: ProcessedTemplate,
        env: HashMap<String, BoundValue>,
        metric: Metric,
        runs: u32,
        codec: C,
    ) -> Self {
        StageEval {
            server,
            template,
            env,
            metric,
            runs,
            codec,
            cache: HashMap::new(),
            recency: VecDeque::new(),
            stages: Stages::default(),
        }
    }

    /// `VirusEvaluator`'s compile cache: bounded LRU keyed by the sorted
    /// chromosome.
    fn cached(&mut self, key: &[(String, BoundValue)]) -> Option<Arc<CompiledProgram>> {
        let hit = Arc::clone(self.cache.get(key)?);
        let pos = self
            .recency
            .iter()
            .position(|k| k.as_slice() == key)
            .expect("every cached program is in the recency queue");
        let promoted = self.recency.remove(pos).expect("position is in range");
        self.recency.push_back(promoted);
        Some(hit)
    }

    fn insert(&mut self, key: Vec<(String, BoundValue)>, program: Arc<CompiledProgram>) {
        self.recency.push_back(key.clone());
        self.cache.insert(key, program);
        if self.cache.len() > COMPILE_CACHE_CAP {
            let evicted = self.recency.pop_front().expect("cache is over capacity");
            self.cache.remove(&evicted);
        }
    }

    fn evaluate_bindings(
        &mut self,
        chromosome: HashMap<String, BoundValue>,
    ) -> Result<f64, StageError> {
        let mut key: Vec<(String, BoundValue)> = chromosome.into_iter().collect();
        key.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut merged = self.env.clone();
        merged.extend(key.iter().cloned());
        let nonce = bindings_nonce(&merged);
        let compiled = match self.cached(&key) {
            Some(hit) => {
                self.stages.compile_hits += 1;
                hit
            }
            None => {
                let started = Instant::now();
                let program = self.template.instantiate(&merged)?;
                let bound = Instant::now();
                let compiled = Arc::new(compile_opt(&program, &OptLevel::default().config())?);
                self.stages.bind += bound - started;
                self.stages.compile += bound.elapsed();
                self.insert(key, Arc::clone(&compiled));
                compiled
            }
        };
        self.server.reset_memory();
        let started = Instant::now();
        let mut session = self.server.session(TARGET_MCU);
        Vm::new(ExecLimits::default()).run(&compiled, &mut session)?;
        let run = session.finish();
        let recorded = Instant::now();
        let prepared = self.server.prepare_run(&run)?;
        let planned = Instant::now();
        let outcomes = self
            .server
            .evaluate_prepared_runs(&prepared, self.runs, nonce)?;
        self.stages.vm += recorded - started;
        self.stages.prepare += planned - recorded;
        self.stages.kernel += planned.elapsed();
        self.stages.trace_ops += run.len() as u64;
        Ok(score(&self.metric, &outcomes))
    }

    /// Evaluates one genome stage by stage.
    pub fn evaluate_genome<G>(&mut self, genome: &G) -> Result<f64, EvalFault>
    where
        C: Codec<G>,
    {
        self.stages.evals += 1;
        let bindings = self.codec.bindings(genome);
        self.evaluate_bindings(bindings).map_err(|err| {
            self.stages.failed += 1;
            match err {
                StageError::Vpl(e) if e.is_execution_limit() => {
                    EvalFault::budget_exhausted(e.to_string())
                }
                StageError::Vpl(e) => EvalFault::permanent(e.to_string()),
                StageError::Plan(e) => EvalFault::permanent(e),
            }
        })
    }
}

impl<G: Genome, C: Codec<G>> Fitness<G> for StageEval<C> {
    fn evaluate(&mut self, genome: &G) -> f64 {
        self.evaluate_genome(genome).unwrap_or(0.0)
    }

    fn try_evaluate(&mut self, genome: &G) -> Result<f64, EvalFault> {
        self.evaluate_genome(genome)
    }
}

impl<G: Genome, C: Codec<G>> ParallelFitness<G> for StageEval<C> {
    fn replicate(&self) -> Self {
        StageEval::new(
            self.server.clone(),
            self.template.clone(),
            self.env.clone(),
            self.metric.clone(),
            self.runs,
            self.codec.clone(),
        )
    }

    fn absorb(&mut self, replica: Self) {
        self.stages.add(&replica.stages);
    }
}

/// The fitness `VirusEvaluator` derives from a virus's repeat runs.
fn score(metric: &Metric, outcomes: &[RunOutcome]) -> f64 {
    let runs = outcomes.len().max(1) as f64;
    match metric {
        Metric::CeAverage => outcomes.iter().map(|o| o.totals.ce).sum::<u64>() as f64 / runs,
        Metric::CeInRows(rows) => {
            let in_rows: u64 = outcomes
                .iter()
                .flat_map(|o| &o.row_errors)
                .filter(|r| r.mcu == TARGET_MCU && rows.contains(&r.row))
                .map(|r| r.ce)
                .sum();
            in_rows as f64 / runs
        }
        Metric::UeRuns => outcomes.iter().filter(|o| o.stopped_on_ue).count() as f64,
    }
}

/// The evaluation's base VRT nonce: FNV-1a over the key-sorted bindings,
/// the documented derivation of `VirusEvaluator`.
fn bindings_nonce(bindings: &HashMap<String, BoundValue>) -> u64 {
    let mut hash = Fnv::new();
    for (key, value) in bindings.iter().collect::<BTreeMap<_, _>>() {
        hash.bytes(key.as_bytes());
        match value {
            BoundValue::Scalar(v) => {
                hash.word(0);
                hash.word(*v);
            }
            BoundValue::Array(vs) => {
                hash.word(1);
                hash.word(vs.len() as u64);
                vs.iter().for_each(|v| hash.word(*v));
            }
        }
    }
    hash.finish()
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Hashes a word's little-endian bytes.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Both substrates side by side: every evaluation runs through the timed
/// program fitness and the stage substrate, alternating which goes first,
/// and the program's score is returned.
pub struct Paired<F, C> {
    /// The program's fitness, timed.
    pub timed: Timed<F>,
    /// The stage substrate.
    pub staged: StageEval<C>,
    /// Evaluations whose two scores differed.
    pub mismatches: u64,
    staged_first: bool,
}

impl<F, C> Paired<F, C> {
    /// Pairs the program's fitness with a stage substrate.
    pub fn new(program: F, staged: StageEval<C>) -> Self {
        Paired {
            timed: Timed::new(program),
            staged,
            mismatches: 0,
            staged_first: false,
        }
    }
}

impl<G: Genome, F: ParallelFitness<G>, C: Codec<G>> Fitness<G> for Paired<F, C> {
    fn evaluate(&mut self, genome: &G) -> f64 {
        self.try_evaluate(genome).unwrap_or(0.0)
    }

    fn try_evaluate(&mut self, genome: &G) -> Result<f64, EvalFault> {
        self.staged_first = !self.staged_first;
        let (program, staged) = if self.staged_first {
            let staged = self.staged.evaluate_genome(genome);
            (self.timed.try_evaluate(genome), staged)
        } else {
            let program = self.timed.try_evaluate(genome);
            (program, self.staged.evaluate_genome(genome))
        };
        let bits = |r: &Result<f64, EvalFault>| r.as_ref().ok().map(|v| v.to_bits());
        if bits(&program) != bits(&staged) {
            self.mismatches += 1;
        }
        program
    }
}

impl<G: Genome, F: ParallelFitness<G>, C: Codec<G>> ParallelFitness<G> for Paired<F, C> {
    fn replicate(&self) -> Self {
        Paired {
            timed: ParallelFitness::<G>::replicate(&self.timed),
            staged: ParallelFitness::<G>::replicate(&self.staged),
            mismatches: 0,
            staged_first: false,
        }
    }

    fn absorb(&mut self, replica: Self) {
        ParallelFitness::<G>::absorb(&mut self.timed, replica.timed);
        ParallelFitness::<G>::absorb(&mut self.staged, replica.staged);
        self.mismatches += replica.mismatches;
    }

    fn cache_counters(&self) -> (u64, u64) {
        ParallelFitness::<G>::cache_counters(&self.timed)
    }
}
