//! The evaluation phase (paper §III-F): instantiate a candidate virus, run
//! it on the experimental server, and count the DRAM errors it manifests.

use crate::error::DStressError;
use crate::patterns::{BitCodec, IntCodec};
use crate::search::GenomeCodec;
use dstress_dram::geometry::RowKey;
use dstress_ga::{EvalFault, Fitness, ParallelFitness};
use dstress_platform::{RunOutcome, RunsTotal, XGene2Server};
use dstress_vpl::{compile, BoundValue, ExecLimits, Interpreter, ProcessedTemplate, Vm};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

const NONCE_PRIME: u64 = 0x0000_0100_0000_01B3;
const NONCE_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn nonce_eat(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(NONCE_PRIME);
    }
}

fn nonce_eat_pair(hash: &mut u64, key: &str, value: &BoundValue) {
    for byte in key.bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(NONCE_PRIME);
    }
    match value {
        BoundValue::Scalar(v) => {
            nonce_eat(hash, 0);
            nonce_eat(hash, *v);
        }
        BoundValue::Array(vs) => {
            nonce_eat(hash, 1);
            nonce_eat(hash, vs.len() as u64);
            for v in vs {
                nonce_eat(hash, *v);
            }
        }
    }
}

/// Derives the base VRT nonce for one evaluation from the fully-bound
/// chromosome (FNV-1a over the sorted bindings).
///
/// Making the nonce a pure function of the bindings — instead of an
/// evaluation-order counter — makes every evaluation a pure function of the
/// candidate virus: the same chromosome manifests the same errors no matter
/// which worker evaluates it, in which order, or whether the score comes
/// from the engine's evaluation cache. Distinct chromosomes still draw
/// distinct noise, so VRT keeps differentiating candidates run-to-run
/// across the `runs` repeats (which offset the base nonce).
///
/// The hot path ([`VirusEvaluator::evaluate_bindings`]) computes the same
/// hash without materializing or sorting the merged binding map — see
/// `merged_nonce` — so this reference form only backs tests and one-off
/// callers.
fn bindings_nonce(bindings: &HashMap<String, BoundValue>) -> u64 {
    let mut hash = NONCE_SEED;
    let mut keys: Vec<&String> = bindings.keys().collect();
    keys.sort();
    for key in keys {
        nonce_eat_pair(&mut hash, key, &bindings[key]);
    }
    hash
}

/// Computes [`bindings_nonce`] of `env ∪ chromosome` (chromosome wins on a
/// shared key) from a pre-sorted environment view, sorting only the
/// chromosome's few GA-parameter keys per evaluation instead of cloning and
/// re-sorting the whole union.
fn merged_nonce(
    sorted_env: &[(String, BoundValue)],
    chromosome: &HashMap<String, BoundValue>,
) -> u64 {
    let mut chrom: Vec<(&str, &BoundValue)> =
        chromosome.iter().map(|(k, v)| (k.as_str(), v)).collect();
    chrom.sort_unstable_by_key(|&(k, _)| k);
    let mut hash = NONCE_SEED;
    let mut e = 0;
    let mut c = 0;
    while e < sorted_env.len() || c < chrom.len() {
        let pick_env = match (sorted_env.get(e), chrom.get(c)) {
            (Some((ek, _)), Some(&(ck, _))) => {
                if ek.as_str() == ck {
                    // Chromosome overrides the environment binding.
                    e += 1;
                    false
                } else {
                    ek.as_str() < ck
                }
            }
            (Some(_), None) => true,
            (None, _) => false,
        };
        if pick_env {
            let (k, v) = &sorted_env[e];
            nonce_eat_pair(&mut hash, k, v);
            e += 1;
        } else {
            let (k, v) = chrom[c];
            nonce_eat_pair(&mut hash, k, v);
            c += 1;
        }
    }
    hash
}

/// The quantity a search maximizes (§III-C: CEs or UEs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Mean correctable errors per run, across the whole server.
    CeAverage,
    /// Mean correctable errors per run within a set of rows on the target
    /// MCU — the victim-focused fitness of the neighbour-row experiments
    /// ("increase the probability to obtain a CE in these rows", §III-B).
    CeInRows(Vec<RowKey>),
    /// Number of runs (out of `runs`) in which ECC raised at least one
    /// uncorrectable error — the Fig. 8d fitness ("the number of
    /// experimental runs when UEs have been obtained").
    UeRuns,
}

/// What one virus evaluation produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// The fitness value under the evaluator's metric.
    pub fitness: f64,
    /// Total CEs summed over all runs.
    pub total_ce: u64,
    /// Total UEs summed over all runs.
    pub total_ue: u64,
    /// Runs in which a UE stopped the virus.
    pub ue_runs: u32,
    /// Recorded DRAM access-trace length of the virus body.
    pub trace_len: usize,
}

/// Evaluates candidate viruses for one search campaign.
///
/// Owns the server for the duration of the campaign; each evaluation resets
/// memory and counters, instantiates the template with the chromosome's
/// bindings plus the campaign's environment bindings, compiles the program
/// once ([`compile`]) and executes it through the [`Vm`] (monomorphized
/// over the recording session), then replays the recorded trace for `runs`
/// independent evaluation runs (the paper's 10-run averaging). The GA
/// engine's evaluation cache serves repeated chromosomes, so the evaluator
/// keeps no compile cache of its own. The
/// tree-walking interpreter path survives as
/// [`VirusEvaluator::evaluate_bindings_reference`], the oracle the
/// differential suite holds the production path against.
#[derive(Debug)]
pub struct VirusEvaluator {
    server: XGene2Server,
    template: ProcessedTemplate,
    env: HashMap<String, BoundValue>,
    /// The environment bindings sorted by key once at construction, so the
    /// per-evaluation nonce never re-sorts or re-allocates them.
    sorted_env: Vec<(String, BoundValue)>,
    metric: Metric,
    runs: u32,
    target_mcu: usize,
    limits: ExecLimits,
    /// Outcome of the most recent evaluation (for database recording).
    pub last: Option<EvalOutcome>,
    /// Evaluations that failed (template runtime errors); such candidates
    /// score 0.
    pub failed_evaluations: u64,
    /// Always 0: the evaluator has no compile cache. Kept because
    /// perfbench reads it; goes with the next change to the benchmark.
    pub compile_hits: u64,
}

impl VirusEvaluator {
    /// Creates an evaluator.
    pub fn new(
        server: XGene2Server,
        template: ProcessedTemplate,
        env: HashMap<String, BoundValue>,
        metric: Metric,
        runs: u32,
        target_mcu: usize,
    ) -> Self {
        let mut sorted_env: Vec<(String, BoundValue)> =
            env.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        sorted_env.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        VirusEvaluator {
            server,
            template,
            env,
            sorted_env,
            metric,
            runs,
            target_mcu,
            limits: ExecLimits::default(),
            last: None,
            failed_evaluations: 0,
            compile_hits: 0,
        }
    }

    /// Creates an independent replica of this evaluator for a parallel
    /// evaluation worker: its own copy of the server (DIMMs, thermal state,
    /// ECC counters), template and environment. Evaluation outcomes depend
    /// only on the chromosome (the VRT nonce is chromosome-derived), so a
    /// replica scores every candidate exactly as the original would.
    /// Bookkeeping (`last`, `failed_evaluations`) starts fresh.
    pub fn replicate(&self) -> VirusEvaluator {
        VirusEvaluator {
            server: self.server.clone(),
            template: self.template.clone(),
            env: self.env.clone(),
            sorted_env: self.sorted_env.clone(),
            metric: self.metric.clone(),
            runs: self.runs,
            target_mcu: self.target_mcu,
            limits: self.limits,
            last: None,
            failed_evaluations: 0,
            compile_hits: 0,
        }
    }

    /// The server (e.g. to inspect counters after a campaign).
    pub fn server(&self) -> &XGene2Server {
        &self.server
    }

    /// Mutable server access between campaigns (parameter sweeps).
    pub fn server_mut(&mut self) -> &mut XGene2Server {
        &mut self.server
    }

    /// Releases the server.
    pub fn into_server(self) -> XGene2Server {
        self.server
    }

    /// Replaces the campaign metric.
    pub fn set_metric(&mut self, metric: Metric) {
        self.metric = metric;
    }

    /// Sets the VM step budget — the supervised runtime's deterministic
    /// watchdog. A candidate that exceeds it fails with the VM's
    /// `ExecutionLimit`, which [`Self::try_fitness_of`] classifies as a
    /// non-retryable budget blowout.
    pub fn set_step_budget(&mut self, max_steps: u64) {
        self.limits = ExecLimits::with_max_steps(max_steps);
    }

    /// The configured VM step budget.
    pub fn step_budget(&self) -> u64 {
        self.limits.max_steps
    }

    /// Evaluates a fully-bound candidate virus.
    ///
    /// # Errors
    ///
    /// Propagates template instantiation and execution failures.
    pub fn evaluate_bindings(
        &mut self,
        chromosome: HashMap<String, BoundValue>,
    ) -> Result<EvalOutcome, DStressError> {
        let base_nonce = merged_nonce(&self.sorted_env, &chromosome);
        let mut bindings = self.env.clone();
        bindings.extend(chromosome);
        let compiled = compile(&self.template.instantiate(&bindings)?)?;
        self.server.reset_memory();
        let mut session = self.server.session(self.target_mcu);
        Vm::new(self.limits).run(&compiled, &mut session)?;
        let run = session.finish();
        let trace_len = run.len();
        let total = self
            .server
            .evaluate_runs_total(run, self.runs, base_nonce)?;
        let outcome = self.summarize(&total, trace_len);
        self.last = Some(outcome.clone());
        Ok(outcome)
    }

    /// Reference evaluation through the tree-walking [`Interpreter`], the
    /// hash-the-merged-map nonce and the per-cell retention loop, one run
    /// at a time ([`XGene2Server::evaluate_run_reference`]) — none of the
    /// hot path's machinery (bytecode VM, bulk fill, run plans, lane-batched
    /// window kernel). Semantically identical to
    /// [`Self::evaluate_bindings`] — the differential suites assert the two
    /// produce the same [`EvalOutcome`] bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates template instantiation and execution failures.
    pub fn evaluate_bindings_reference(
        &mut self,
        chromosome: HashMap<String, BoundValue>,
    ) -> Result<EvalOutcome, DStressError> {
        let mut bindings = self.env.clone();
        bindings.extend(chromosome);
        let program = self.template.instantiate(&bindings)?;
        self.server.reset_memory();
        let mut session = self.server.session(self.target_mcu);
        Interpreter::new(self.limits).run(&program, &mut session)?;
        let run = session.finish();
        let base_nonce = bindings_nonce(&bindings);
        let outcomes: Vec<RunOutcome> = (0..u64::from(self.runs))
            .map(|r| {
                self.server
                    .evaluate_run_reference(&run, base_nonce.wrapping_add(r))
            })
            .collect();
        let outcome = self.summarize(&RunsTotal::sum(&outcomes), run.len());
        self.last = Some(outcome.clone());
        Ok(outcome)
    }

    fn summarize(&self, total: &RunsTotal, trace_len: usize) -> EvalOutcome {
        let runs = total.runs.max(1) as f64;
        let fitness = match &self.metric {
            Metric::CeAverage => total.totals.ce as f64 / runs,
            Metric::CeInRows(rows) => {
                let in_rows: u64 = total
                    .row_errors
                    .iter()
                    .filter(|r| r.mcu == self.target_mcu && rows.contains(&r.row))
                    .map(|r| r.ce)
                    .sum();
                in_rows as f64 / runs
            }
            Metric::UeRuns => total.ue_runs as f64,
        };
        EvalOutcome {
            fitness,
            total_ce: total.totals.ce,
            total_ue: total.totals.ue,
            ue_runs: total.ue_runs,
            trace_len,
        }
    }

    /// Evaluates and returns the fitness only, scoring failed candidates 0
    /// (a virus that crashes stresses nothing).
    pub fn fitness_of(&mut self, chromosome: HashMap<String, BoundValue>) -> f64 {
        match self.evaluate_bindings(chromosome) {
            Ok(outcome) => outcome.fitness,
            Err(_) => {
                self.failed_evaluations += 1;
                0.0
            }
        }
    }

    /// Fallible scoring for the supervised evaluation path: instead of
    /// smuggling failures into a 0.0 score (as [`Self::fitness_of`] does),
    /// failures surface as classified [`EvalFault`]s the
    /// GA supervisor can act on. The step-budget watchdog firing maps to
    /// [`dstress_ga::FaultKind::BudgetExhausted`]; every other template or
    /// execution failure is deterministic for a given chromosome, hence
    /// permanent. Failed evaluations still count in `failed_evaluations`.
    ///
    /// # Errors
    ///
    /// The classified [`EvalFault`].
    pub fn try_fitness_of(
        &mut self,
        chromosome: HashMap<String, BoundValue>,
    ) -> Result<f64, EvalFault> {
        match self.evaluate_bindings(chromosome) {
            Ok(outcome) => Ok(outcome.fitness),
            Err(err) => {
                self.failed_evaluations += 1;
                match &err {
                    DStressError::Vpl(vpl) if vpl.is_execution_limit() => {
                        Err(EvalFault::budget_exhausted(err.to_string()))
                    }
                    _ => Err(EvalFault::permanent(err.to_string())),
                }
            }
        }
    }
}

/// Owning [`ParallelFitness`] adapter for a campaign's chromosome codec:
/// each evaluation worker gets a replica that owns its own evaluator,
/// server included, so workers never contend for the substrate.
#[derive(Debug)]
pub struct CampaignFitness<C> {
    /// The campaign evaluator this fitness owns.
    pub evaluator: VirusEvaluator,
    /// The chromosome codec.
    pub codec: C,
}

/// The fitness adapter of bit-genome campaigns.
pub type ParallelBitFitness = CampaignFitness<BitCodec>;

/// The fitness adapter of integer-genome campaigns.
pub type ParallelIntFitness = CampaignFitness<IntCodec>;

impl<C: GenomeCodec> Fitness<C::Genome> for CampaignFitness<C> {
    fn evaluate(&mut self, genome: &C::Genome) -> f64 {
        self.evaluator.fitness_of(self.codec.bindings(genome))
    }

    fn try_evaluate(&mut self, genome: &C::Genome) -> Result<f64, EvalFault> {
        self.evaluator.try_fitness_of(self.codec.bindings(genome))
    }
}

impl<C: GenomeCodec> ParallelFitness<C::Genome> for CampaignFitness<C> {
    fn replicate(&self) -> Self {
        CampaignFitness {
            evaluator: self.evaluator.replicate(),
            codec: self.codec.clone(),
        }
    }

    fn absorb(&mut self, replica: Self) {
        self.evaluator.failed_evaluations += replica.evaluator.failed_evaluations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;
    use crate::templates;
    use dstress_ga::BitGenome;

    /// A word64 evaluator on a quick-scale server heated to 60 °C.
    fn evaluator(metric: Metric) -> VirusEvaluator {
        let scale = ExperimentScale::quick();
        let mut server = XGene2Server::new(scale.server);
        server.relax_second_domain();
        server.set_dimm_temperature(2, 60.0).unwrap();
        let template = templates::process(templates::WORD64, &scale).unwrap();
        let mem_words = scale.dimm_words();
        let env: HashMap<String, BoundValue> = [
            ("MEM_BYTES".to_string(), BoundValue::Scalar(mem_words * 8)),
            ("MEM_WORDS".to_string(), BoundValue::Scalar(mem_words)),
        ]
        .into_iter()
        .collect();
        VirusEvaluator::new(server, template, env, metric, 3, 2)
    }

    #[test]
    fn worst_word_outscores_best_word() {
        let mut eval = evaluator(Metric::CeAverage);
        let worst = eval
            .evaluate_bindings(
                [(
                    "PATTERN".to_string(),
                    BoundValue::Scalar(0x3333_3333_3333_3333),
                )]
                .into(),
            )
            .unwrap();
        let best = eval
            .evaluate_bindings(
                [(
                    "PATTERN".to_string(),
                    BoundValue::Scalar(0xCCCC_CCCC_CCCC_CCCC),
                )]
                .into(),
            )
            .unwrap();
        assert!(
            worst.fitness > 2.0 * best.fitness.max(1.0),
            "worst {} vs best {}",
            worst.fitness,
            best.fitness
        );
        assert!(worst.total_ce > 0);
        assert!(worst.trace_len > 0);
    }

    #[test]
    fn plan_errors_classify_as_permanent_faults() {
        // Satellite check: a PlanError surfacing through DStressError must
        // become a permanent (non-retryable) fault, never a retried panic.
        let err: DStressError = dstress_dram::PlanError::Stale {
            built: 3,
            current: 7,
        }
        .into();
        assert!(err.to_string().contains("stale RunPlan"));
        match &err {
            DStressError::Plan(dstress_dram::PlanError::Stale {
                built: 3,
                current: 7,
            }) => {}
            other => panic!("wrong variant: {other:?}"),
        }
        // try_fitness_of's classification arm: any non-ExecutionLimit error
        // is permanent. Reproduce the arm's logic on the Plan variant.
        let fault = match &err {
            DStressError::Vpl(vpl) if vpl.is_execution_limit() => unreachable!(),
            _ => EvalFault::permanent(err.to_string()),
        };
        assert_eq!(fault.kind, dstress_ga::FaultKind::Permanent);
    }

    #[test]
    fn fitness_adapter_matches_direct_evaluation() {
        let mut eval = evaluator(Metric::CeAverage);
        let g = BitGenome::from_words(&[0x3333_3333_3333_3333], 64);
        let direct = eval
            .evaluate_bindings(
                [(
                    "PATTERN".to_string(),
                    BoundValue::Scalar(0x3333_3333_3333_3333),
                )]
                .into(),
            )
            .unwrap()
            .fitness;
        let mut fit = ParallelBitFitness {
            evaluator: eval,
            codec: BitCodec::Word64 {
                param: "PATTERN".into(),
            },
        };
        let adapted = fit.evaluate(&g);
        // The VRT nonce is chromosome-derived, so the adapter reproduces
        // the direct evaluation exactly.
        assert!(adapted > 0.0);
        assert_eq!(adapted.to_bits(), direct.to_bits());
    }

    #[test]
    fn evaluation_is_a_pure_function_of_the_chromosome() {
        let mut eval = evaluator(Metric::CeAverage);
        let worst: HashMap<String, BoundValue> = [(
            "PATTERN".to_string(),
            BoundValue::Scalar(0x3333_3333_3333_3333),
        )]
        .into();
        // Re-evaluating the same chromosome reproduces the outcome exactly:
        // the VRT nonce is chromosome-derived, not order-derived.
        let a = eval.evaluate_bindings(worst.clone()).unwrap();
        let b = eval.evaluate_bindings(worst.clone()).unwrap();
        assert_eq!(a, b, "same chromosome must manifest the same errors");
        // A replica produces the same outcome as the original.
        let mut replica = eval.replicate();
        let c = replica.evaluate_bindings(worst).unwrap();
        assert_eq!(a, c, "replica must score identically");
        assert_eq!(replica.failed_evaluations, 0);
        // Distinct chromosomes draw distinct VRT noise.
        let other = eval
            .evaluate_bindings(
                [(
                    "PATTERN".to_string(),
                    BoundValue::Scalar(0x3333_3333_3333_7333),
                )]
                .into(),
            )
            .unwrap();
        assert_ne!(a, other, "different chromosomes should differ");
    }

    #[test]
    fn merged_nonce_matches_reference_hash() {
        // The hoisted merge-iteration nonce must be bit-identical to
        // hashing the sorted union — including on key collisions, where the
        // chromosome value wins (exactly what `HashMap::extend` does).
        let env: HashMap<String, BoundValue> = [
            ("MEM_WORDS".to_string(), BoundValue::Scalar(4096)),
            ("MEM_BYTES".to_string(), BoundValue::Scalar(32768)),
            ("ZED".to_string(), BoundValue::Scalar(1)),
        ]
        .into();
        let mut sorted_env: Vec<(String, BoundValue)> =
            env.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        sorted_env.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for chromosome in [
            HashMap::from([
                ("PATTERN".to_string(), BoundValue::Scalar(0x3333)),
                ("ARR".to_string(), BoundValue::Array(vec![1, 2, 3])),
            ]),
            // Collides with an env key.
            HashMap::from([
                ("ZED".to_string(), BoundValue::Scalar(99)),
                ("AAA".to_string(), BoundValue::Scalar(7)),
            ]),
            HashMap::new(),
        ] {
            let mut union = env.clone();
            union.extend(chromosome.clone());
            assert_eq!(
                merged_nonce(&sorted_env, &chromosome),
                bindings_nonce(&union),
                "nonce diverged for chromosome {chromosome:?}"
            );
        }
    }

    #[test]
    fn vm_path_matches_interpreter_reference_path() {
        // End-to-end oracle check at the evaluator level: bytecode VM
        // execution and the tree-walking reference must produce the same
        // EvalOutcome (same trace => same replay => same errors).
        let mut eval = evaluator(Metric::CeAverage);
        let chromosome: HashMap<String, BoundValue> = [(
            "PATTERN".to_string(),
            BoundValue::Scalar(0x3333_3333_3333_3333),
        )]
        .into();
        let vm = eval.evaluate_bindings(chromosome.clone()).unwrap();
        let reference = eval.evaluate_bindings_reference(chromosome).unwrap();
        assert_eq!(vm, reference);
    }

    #[test]
    fn parallel_adapter_replicates_and_absorbs_failures() {
        let mut fit = ParallelBitFitness {
            evaluator: evaluator(Metric::CeAverage),
            codec: BitCodec::Word64 {
                param: "PATTERN".into(),
            },
        };
        let g = BitGenome::from_words(&[0x3333_3333_3333_3333], 64);
        let direct = fit.evaluate(&g);
        let mut replica = fit.replicate();
        assert_eq!(
            replica.evaluate(&g),
            direct,
            "replica must score identically"
        );
        replica.evaluator.failed_evaluations = 3;
        fit.absorb(replica);
        assert_eq!(fit.evaluator.failed_evaluations, 3);
    }

    #[test]
    fn missing_binding_is_an_error_and_scores_zero() {
        let mut eval = evaluator(Metric::CeAverage);
        assert!(eval.evaluate_bindings(HashMap::new()).is_err());
        assert_eq!(eval.fitness_of(HashMap::new()), 0.0);
        assert_eq!(eval.failed_evaluations, 1);
    }

    #[test]
    fn try_fitness_classifies_template_failures_as_permanent() {
        use dstress_ga::FaultKind;
        let mut eval = evaluator(Metric::CeAverage);
        let fault = eval.try_fitness_of(HashMap::new()).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Permanent);
        assert!(!fault.is_retryable());
        assert_eq!(eval.failed_evaluations, 1);
        // A well-formed chromosome still scores through the fallible path.
        let score = eval
            .try_fitness_of(
                [(
                    "PATTERN".to_string(),
                    BoundValue::Scalar(0x3333_3333_3333_3333),
                )]
                .into(),
            )
            .unwrap();
        assert!(score > 0.0);
    }

    #[test]
    fn step_budget_blowout_is_a_budget_fault() {
        use dstress_ga::FaultKind;
        let mut eval = evaluator(Metric::CeAverage);
        // A budget no real virus fits in: the watchdog fires
        // deterministically, and the fault is classified non-retryable.
        eval.set_step_budget(10);
        assert_eq!(eval.step_budget(), 10);
        let chromosome: HashMap<String, BoundValue> = [(
            "PATTERN".to_string(),
            BoundValue::Scalar(0x3333_3333_3333_3333),
        )]
        .into();
        let fault = eval.try_fitness_of(chromosome.clone()).unwrap_err();
        assert_eq!(fault.kind, FaultKind::BudgetExhausted);
        assert!(fault.message.contains("10-step budget"));
        let again = eval.try_fitness_of(chromosome).unwrap_err();
        assert_eq!(fault, again, "the watchdog is deterministic");
        assert_eq!(eval.failed_evaluations, 2);
    }

    #[test]
    fn parallel_adapter_try_evaluate_routes_through_the_evaluator() {
        let mut fit = ParallelBitFitness {
            evaluator: evaluator(Metric::CeAverage),
            codec: BitCodec::Word64 {
                param: "PATTERN".into(),
            },
        };
        let g = BitGenome::from_words(&[0x3333_3333_3333_3333], 64);
        let direct = fit.evaluate(&g);
        assert_eq!(fit.try_evaluate(&g), Ok(direct));
        fit.evaluator.set_step_budget(10);
        let fault = fit.try_evaluate(&g).unwrap_err();
        assert_eq!(fault.kind, dstress_ga::FaultKind::BudgetExhausted);
    }

    #[test]
    fn ue_metric_counts_runs() {
        let mut eval = evaluator(Metric::UeRuns);
        eval.server_mut().set_dimm_temperature(2, 70.0).unwrap();
        let outcome = eval
            .evaluate_bindings(
                [(
                    "PATTERN".to_string(),
                    BoundValue::Scalar(0x3333_3333_3333_3333),
                )]
                .into(),
            )
            .unwrap();
        assert!(outcome.ue_runs > 0, "70C must raise UEs");
        assert_eq!(outcome.fitness, outcome.ue_runs as f64);
    }

    #[test]
    fn ce_in_rows_metric_filters() {
        let mut eval = evaluator(Metric::CeAverage);
        let all = eval
            .evaluate_bindings(
                [(
                    "PATTERN".to_string(),
                    BoundValue::Scalar(0x3333_3333_3333_3333),
                )]
                .into(),
            )
            .unwrap()
            .fitness;
        // Focus on a single row: strictly less than the whole-DIMM count.
        eval.set_metric(Metric::CeInRows(vec![RowKey::new(0, 0, 0)]));
        let one_row = eval
            .evaluate_bindings(
                [(
                    "PATTERN".to_string(),
                    BoundValue::Scalar(0x3333_3333_3333_3333),
                )]
                .into(),
            )
            .unwrap()
            .fitness;
        assert!(
            one_row <= all,
            "one-row count {one_row} vs whole-DIMM {all}"
        );
    }
}
