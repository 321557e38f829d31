//! Search campaigns: the synthesis phase wired to the evaluation phase
//! (paper Fig. 4).

use crate::error::{DStressError, PlatformError};
use crate::evaluate::{CampaignFitness, Metric, VirusEvaluator};
use crate::patterns::{BitCodec, IntCodec};
use crate::scale::ExperimentScale;
use crate::templates;
use dstress_dram::geometry::RowKey;
use dstress_ga::journal::{run_campaigns, CampaignJournal, CampaignRun, MemStorage, Storage};
use dstress_ga::{
    BitGenome, GaConfig, Genome, HazardPlan, IntGenome, SearchResult, SearchSession,
    SupervisionPolicy, VirusDatabase, VirusRecord,
};
use dstress_platform::{RowErrors, XGene2Server};
use dstress_vpl::BoundValue;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;

/// The 64-bit word the TTAA cell layout is most stressed by — repeating
/// `1100` in bit order, the paper's headline discovery (§V-A.1). The GA is
/// expected to *find* this; experiments verify it does.
pub const WORST_WORD: u64 = 0x3333_3333_3333_3333;

/// The opposite phase: discharges nearly every cell (the best-case pattern
/// of Fig. 8c).
pub const BEST_WORD: u64 = 0xCCCC_CCCC_CCCC_CCCC;

/// The environment a virus template runs in: which template it is and the
/// campaign-fixed inputs it needs (victim rows, fill word…). Bindings are
/// recomputed from the scale so the same artifact can be re-run under
/// different operating parameters (the Fig. 14 margin sweeps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EnvKind {
    /// The 64-bit data-pattern virus (whole-memory fill).
    Word64,
    /// The row-triple ("24 KB") data-pattern virus around victim rows.
    RowTriple {
        /// The error-prone rows the patterns centre on.
        victims: Vec<RowKey>,
    },
    /// The chunk-span ("512 KB") data-pattern virus around victim rows.
    Chunks {
        /// The error-prone rows the spans cover.
        victims: Vec<RowKey>,
    },
    /// Access template 1 (neighbour-row bitmap), memory pre-filled with
    /// `fill`.
    RowAccess {
        /// The error-prone rows whose neighbours are hammered.
        victims: Vec<RowKey>,
        /// The data pattern the memory is filled with first.
        fill: u64,
    },
    /// Access template 2 (per-row strides), memory pre-filled with `fill`.
    StrideAccess {
        /// The error-prone rows whose neighbours are accessed.
        victims: Vec<RowKey>,
        /// The data pattern the memory is filled with first.
        fill: u64,
    },
    /// A classic micro-benchmark fill cycling 64 words.
    CycleFill {
        /// The 64-word cycle written across memory.
        cycle: Vec<u64>,
    },
}

impl EnvKind {
    /// The template source this environment belongs to.
    pub fn template_source(&self) -> &'static str {
        match self {
            EnvKind::Word64 => templates::WORD64,
            EnvKind::RowTriple { .. } => templates::ROW_TRIPLE,
            EnvKind::Chunks { .. } => templates::CHUNKS,
            EnvKind::RowAccess { .. } => templates::ROW_ACCESS,
            EnvKind::StrideAccess { .. } => templates::STRIDE_ACCESS,
            EnvKind::CycleFill { .. } => templates::CYCLE_FILL,
        }
    }

    /// Rows the template's `global_data` occupies before the big buffer.
    fn globals_rows(&self, scale: &ExperimentScale) -> u64 {
        let row_words = scale.row_words();
        let rows_for = |words: u64| words.div_ceil(row_words);
        match self {
            EnvKind::Word64 => 0,
            EnvKind::RowTriple { victims } => {
                3 * rows_for(row_words) + rows_for(victims.len() as u64)
            }
            EnvKind::Chunks { victims } => {
                rows_for(64 * row_words) + rows_for(victims.len() as u64)
            }
            EnvKind::RowAccess { victims, .. } => {
                rows_for(64) + rows_for(victims.len() as u64 * 64)
            }
            EnvKind::StrideAccess { victims, .. } => {
                rows_for(32) + rows_for(victims.len() as u64 * 16)
            }
            EnvKind::CycleFill { .. } => rows_for(64),
        }
    }

    /// The victim rows, if this environment has any.
    pub fn victims(&self) -> &[RowKey] {
        match self {
            EnvKind::RowTriple { victims }
            | EnvKind::Chunks { victims }
            | EnvKind::RowAccess { victims, .. }
            | EnvKind::StrideAccess { victims, .. } => victims,
            _ => &[],
        }
    }

    /// Builds the environment bindings for a scale.
    ///
    /// # Errors
    ///
    /// Returns [`DStressError::Config`] when a victim row cannot host the
    /// template's neighbourhood inside the buffer.
    pub fn bindings(
        &self,
        scale: &ExperimentScale,
    ) -> Result<HashMap<String, BoundValue>, DStressError> {
        let row_words = scale.row_words();
        let globals_rows = self.globals_rows(scale);
        let buf_base_words = globals_rows * row_words;
        let total_words = scale.dimm_words();
        let mem_words = total_words - buf_base_words;
        let mut env: HashMap<String, BoundValue> = [
            ("MEM_BYTES".to_string(), BoundValue::Scalar(mem_words * 8)),
            ("MEM_WORDS".to_string(), BoundValue::Scalar(mem_words)),
            ("ROW_WORDS".to_string(), BoundValue::Scalar(row_words)),
        ]
        .into_iter()
        .collect();

        let chunk_of = |row: &RowKey| -> u64 {
            let geo = &scale.server.dimm.geometry;
            (row.rank as u64 * geo.rows_per_bank as u64 + row.row as u64) * geo.banks as u64
                + row.bank as u64
        };
        let offset_of = |chunk: u64| -> Result<u64, DStressError> {
            let words = chunk * row_words;
            if words < buf_base_words {
                return Err(DStressError::Config(format!(
                    "chunk {chunk} lies inside the template's global data"
                )));
            }
            Ok(words - buf_base_words)
        };
        let total_chunks = total_words / row_words;

        match self {
            EnvKind::Word64 => {}
            EnvKind::RowTriple { victims } => {
                let stride_chunks = scale.server.dimm.geometry.banks as u64;
                let mut offs = Vec::with_capacity(victims.len());
                for v in victims {
                    let c = chunk_of(v);
                    if c < stride_chunks + globals_rows || c + stride_chunks >= total_chunks {
                        return Err(DStressError::Config(format!(
                            "victim {v} has no same-bank neighbours inside the buffer"
                        )));
                    }
                    offs.push(offset_of(c)?);
                }
                env.insert("VICTIM_OFFS".into(), BoundValue::Array(offs));
                env.insert("NV".into(), BoundValue::Scalar(victims.len() as u64));
                env.insert(
                    "BANK_STRIDE".into(),
                    BoundValue::Scalar(scale.bank_stride_words()),
                );
                env.insert("FILL".into(), BoundValue::Scalar(0));
            }
            EnvKind::Chunks { victims } => {
                let mut starts = Vec::with_capacity(victims.len());
                for v in victims {
                    let c = chunk_of(v);
                    let start = c.saturating_sub(32).max(globals_rows);
                    if start + 64 > total_chunks {
                        return Err(DStressError::Config(format!(
                            "victim {v} has no 64-chunk span inside the buffer"
                        )));
                    }
                    starts.push(offset_of(start)?);
                }
                env.insert("CHUNK_STARTS".into(), BoundValue::Array(starts));
                env.insert("NV".into(), BoundValue::Scalar(victims.len() as u64));
                env.insert("SPAN_WORDS".into(), BoundValue::Scalar(64 * row_words));
                env.insert("FILL".into(), BoundValue::Scalar(0));
            }
            EnvKind::RowAccess { victims, fill } => {
                let mut neigh = Vec::with_capacity(victims.len() * 64);
                for v in victims {
                    let c = chunk_of(v);
                    if c < 32 + globals_rows || c + 32 >= total_chunks {
                        return Err(DStressError::Config(format!(
                            "victim {v} has no +-32-chunk neighbourhood inside the buffer"
                        )));
                    }
                    // r = 0..32 -> predecessors c-32 .. c-1;
                    // r = 32..64 -> successors c+1 .. c+32.
                    for r in 0..64u64 {
                        let chunk = if r < 32 { c - 32 + r } else { c + (r - 31) };
                        neigh.push(offset_of(chunk)?);
                    }
                }
                env.insert("NEIGH_OFFS".into(), BoundValue::Array(neigh));
                env.insert("NV".into(), BoundValue::Scalar(victims.len() as u64));
                env.insert("FILL".into(), BoundValue::Scalar(*fill));
                env.insert("REPS".into(), BoundValue::Scalar(64));
            }
            EnvKind::StrideAccess { victims, fill } => {
                let mut neigh = Vec::with_capacity(victims.len() * 16);
                for v in victims {
                    let c = chunk_of(v);
                    if c < 8 + globals_rows || c + 8 >= total_chunks {
                        return Err(DStressError::Config(format!(
                            "victim {v} has no +-8-chunk neighbourhood inside the buffer"
                        )));
                    }
                    for r in 0..16u64 {
                        let chunk = if r < 8 { c - 8 + r } else { c + (r - 7) };
                        neigh.push(offset_of(chunk)?);
                    }
                }
                env.insert("NEIGH16_OFFS".into(), BoundValue::Array(neigh));
                env.insert("NV".into(), BoundValue::Scalar(victims.len() as u64));
                env.insert("FILL".into(), BoundValue::Scalar(*fill));
                env.insert("X_ITERS".into(), BoundValue::Scalar(scale.stride_iters));
            }
            EnvKind::CycleFill { cycle } => {
                if cycle.len() != 64 {
                    return Err(DStressError::Config(format!(
                        "cycle fill needs exactly 64 words, got {}",
                        cycle.len()
                    )));
                }
                env.insert("CYCLE".into(), BoundValue::Array(cycle.clone()));
            }
        }
        Ok(env)
    }
}

/// Picks victim (error-prone) rows for the neighbour-row experiments from a
/// profiling run's per-row error tallies, enforcing the buffer-margin
/// constraints of every template and a minimum spacing so neighbourhoods do
/// not overlap.
pub fn pick_victims(
    row_errors: &[RowErrors],
    scale: &ExperimentScale,
    target_mcu: usize,
    wanted: usize,
) -> Vec<RowKey> {
    let geo = &scale.server.dimm.geometry;
    let total_chunks = scale.dimm_words() / scale.row_words();
    // The chunk-span template has the largest global-data prefix (65 rows).
    let min_chunk = 65 + 32;
    let chunk_of = |row: &RowKey| -> u64 {
        (row.rank as u64 * geo.rows_per_bank as u64 + row.row as u64) * geo.banks as u64
            + row.bank as u64
    };
    let mut victims: Vec<RowKey> = Vec::new();
    for e in row_errors {
        if e.mcu != target_mcu {
            continue;
        }
        let c = chunk_of(&e.row);
        if c < min_chunk || c + 33 > total_chunks {
            continue;
        }
        if victims.iter().any(|v| chunk_of(v).abs_diff(c) < 80) {
            continue;
        }
        victims.push(e.row);
        if victims.len() == wanted {
            break;
        }
    }
    victims
}

/// How a bit-genome campaign's initial population is drawn (paper §III-E:
/// "the chromosomes from the first offspring are generated randomly";
/// §III-F: continuation searches start from the discovered worst-case
/// viruses in the database).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seeding {
    /// Fully random initial population.
    Random,
    /// A slice of the chromosome (64-bit words `[start, start+len)`) is
    /// seeded with a known word in every member; the rest stays random.
    /// The neighbour-row pattern searches use this to start from the
    /// already-discovered worst 64-bit pattern *in the victim rows* while
    /// exploring the surrounding rows freely.
    WordSlice {
        /// The known word.
        word: u64,
        /// First seeded word index.
        start: usize,
        /// Seeded length in words.
        len: usize,
    },
}

/// How an integer-genome campaign's initial population is drawn: `genes`
/// values, each uniform in `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntRange {
    /// Genes per chromosome.
    pub genes: usize,
    /// Smallest gene value.
    pub lo: u64,
    /// Largest gene value.
    pub hi: u64,
}

/// A campaign's genome kind: how a chromosome binds to the template's
/// parameters, how the initial population is drawn, and which genes a
/// database record stores.
pub trait GenomeCodec: Clone + std::fmt::Debug + Send + 'static {
    /// The chromosome the GA evolves.
    type Genome: Genome + PartialEq + Eq + Hash + Sync + Serialize + Deserialize + 'static;
    /// How the initial population is drawn: [`Seeding`] for bit genomes,
    /// [`IntRange`] for integer genomes.
    type Init: std::fmt::Debug;

    /// Converts a chromosome into template bindings.
    fn bindings(&self, genome: &Self::Genome) -> HashMap<String, BoundValue>;

    /// Genes per chromosome.
    fn genome_len(&self, init: &Self::Init) -> usize;

    /// Draws one chromosome of the initial population.
    fn draw(&self, init: &Self::Init, rng: &mut StdRng) -> Self::Genome;

    /// The genes a [`VirusRecord`] stores.
    fn genes(genome: &Self::Genome) -> Vec<u64>;
}

impl GenomeCodec for BitCodec {
    type Genome = BitGenome;
    type Init = Seeding;

    fn bindings(&self, genome: &BitGenome) -> HashMap<String, BoundValue> {
        BitCodec::bindings(self, genome)
    }

    fn genome_len(&self, _: &Seeding) -> usize {
        self.genome_bits()
    }

    fn draw(&self, init: &Seeding, rng: &mut StdRng) -> BitGenome {
        let bits = self.genome_bits();
        let mut g = BitGenome::random(rng, bits);
        if let Seeding::WordSlice { word, start, len } = *init {
            for idx in start * 64..((start + len) * 64).min(bits) {
                g.set_bit(idx, (word >> (idx % 64)) & 1 == 1);
            }
        }
        g
    }

    fn genes(genome: &BitGenome) -> Vec<u64> {
        genome.to_words()
    }
}

impl GenomeCodec for IntCodec {
    type Genome = IntGenome;
    type Init = IntRange;

    fn bindings(&self, genome: &IntGenome) -> HashMap<String, BoundValue> {
        IntCodec::bindings(self, genome)
    }

    fn genome_len(&self, init: &IntRange) -> usize {
        init.genes
    }

    fn draw(&self, init: &IntRange, rng: &mut StdRng) -> IntGenome {
        IntGenome::random(rng, init.genes, init.lo, init.hi)
    }

    fn genes(genome: &IntGenome) -> Vec<u64> {
        genome.values().to_vec()
    }
}

/// One search campaign, described once: its name, the environment and
/// temperature its viruses run in, what it optimizes in which direction,
/// and its genome kind. Every driver — the figure experiments, the CLI,
/// `dstressd` — opens a campaign from this description, and
/// [`DStress::run`] runs it.
#[derive(Debug)]
pub struct Campaign<C: GenomeCodec> {
    /// Campaign identifier (database key).
    pub name: String,
    /// The environment the viruses run in.
    pub env: EnvKind,
    /// DIMM2's temperature.
    pub temp_c: f64,
    /// What the search scores.
    pub metric: Metric,
    /// Whether the search minimizes the metric.
    pub minimize: bool,
    /// The chromosome codec.
    pub codec: C,
    /// How the initial population is drawn.
    pub init: C::Init,
}

impl Campaign<BitCodec> {
    /// The 64-bit data-pattern search (Fig. 8a/b: maximize CEs; Fig. 8c:
    /// minimize; Fig. 8d: maximize UE runs).
    pub fn word64(temp_c: f64, metric: Metric, minimize: bool) -> Self {
        Campaign {
            name: DStress::word64_campaign_name(temp_c, &metric, minimize),
            env: EnvKind::Word64,
            temp_c,
            metric,
            minimize,
            codec: BitCodec::Word64 {
                param: "PATTERN".into(),
            },
            init: Seeding::Random,
        }
    }

    /// The row-triple ("24 KB") data-pattern search (Fig. 9).
    pub fn row_triple(scale: &ExperimentScale, temp_c: f64, victims: Vec<RowKey>) -> Self {
        let row_words = scale.row_words() as usize;
        let codec = BitCodec::WordArrays {
            segments: vec![
                ("PREV_PATTERN".into(), row_words),
                ("VICTIM_PATTERN".into(), row_words),
                ("NEXT_PATTERN".into(), row_words),
            ],
        };
        // Victim slice starts from the known worst word (§III-F);
        // neighbour rows explore freely.
        let init = Seeding::WordSlice {
            word: WORST_WORD,
            start: row_words,
            len: row_words,
        };
        Campaign::victim_ces(
            "row-triple",
            temp_c,
            EnvKind::RowTriple { victims },
            codec,
            init,
        )
    }

    /// The chunk-span ("512 KB") data-pattern search (Fig. 10).
    pub fn chunks(scale: &ExperimentScale, temp_c: f64, victims: Vec<RowKey>) -> Self {
        let row_words = scale.row_words() as usize;
        let codec = BitCodec::WordArrays {
            segments: vec![("CHUNK_PATTERN".into(), 64 * row_words)],
        };
        // The victim row sits 32 chunks into the span.
        let init = Seeding::WordSlice {
            word: WORST_WORD,
            start: 32 * row_words,
            len: row_words,
        };
        Campaign::victim_ces("chunks", temp_c, EnvKind::Chunks { victims }, codec, init)
    }

    /// Access-pattern search, template 1 (Fig. 11): which neighbour rows
    /// to stream, memory pre-filled with `fill`.
    pub fn row_access(temp_c: f64, victims: Vec<RowKey>, fill: u64) -> Self {
        let codec = BitCodec::BitFlags {
            param: "SEL".into(),
        };
        let env = EnvKind::RowAccess { victims, fill };
        Campaign::victim_ces("row-access", temp_c, env, codec, Seeding::Random)
    }
}

impl Campaign<IntCodec> {
    /// Access-pattern search, template 2 (Fig. 12): per-row stride
    /// coefficients `aᵢ·x + bᵢ` with `aᵢ, bᵢ ∈ [0, 20]`, memory pre-filled
    /// with `fill`.
    pub fn stride_access(temp_c: f64, victims: Vec<RowKey>, fill: u64) -> Self {
        let codec = IntCodec {
            param: "COEFFS".into(),
        };
        let init = IntRange {
            genes: 32,
            lo: 0,
            hi: 20,
        };
        let env = EnvKind::StrideAccess { victims, fill };
        Campaign::victim_ces("stride-access", temp_c, env, codec, init)
    }
}

impl<C: GenomeCodec> Campaign<C> {
    /// A search maximizing the CEs in `env`'s victim rows, named after
    /// its figure family.
    fn victim_ces(family: &str, temp_c: f64, env: EnvKind, codec: C, init: C::Init) -> Self {
        Campaign {
            name: format!("{family}-ce-{}C", temp_c as i64),
            metric: Metric::CeInRows(env.victims().to_vec()),
            env,
            temp_c,
            minimize: false,
            codec,
            init,
        }
    }

    /// The GA configuration: `base` searching in this campaign's
    /// direction, with more reach for large chromosomes.
    fn ga_config(&self, base: GaConfig) -> GaConfig {
        let mut config = base;
        config.minimize = self.minimize;
        let genes = self.codec.genome_len(&self.init);
        if genes > 1024 {
            // Large pattern chromosomes: only a sparse subset of bits moves
            // the fitness (the weak cells and their coupled neighbours), so
            // give mutation more reach and the stagnation check more
            // patience — the paper's large-pattern searches ran for two
            // weeks where the 64-bit ones took one.
            config.gene_rate = Some(4.0 / genes as f64);
            config.stagnation_window = config.stagnation_window.max(40);
        }
        config
    }

    /// A fresh search of this campaign from engine seed `seed`, its initial
    /// population drawn from the seed's stream.
    pub fn start(&self, base: GaConfig, seed: u64) -> SearchSession<C::Genome> {
        SearchSession::start(self.ga_config(base), seed, |rng| {
            self.codec.draw(&self.init, rng)
        })
    }

    /// The name of run `run` of `runs` concurrent runs: the campaign name,
    /// suffixed `-c{run}` when there is more than one run so database keys
    /// stay distinct.
    pub fn run_name(&self, run: usize, runs: usize) -> String {
        if runs > 1 {
            format!("{}-c{run}", self.name)
        } else {
            self.name.clone()
        }
    }

    /// The database record of one evaluated virus of campaign `name`.
    pub(crate) fn record(name: &str, genome: &C::Genome, fitness: f64) -> VirusRecord {
        VirusRecord {
            campaign: name.to_string(),
            genes: C::genes(genome),
            gene_len: genome.len(),
            fitness,
            ce: fitness.max(0.0) as u64,
            ue: 0,
            sequence: 0,
        }
    }
}

/// A finished search campaign.
#[derive(Debug, Clone)]
pub struct FinishedCampaign<G> {
    /// Campaign identifier (database key).
    pub name: String,
    /// The GA outcome.
    pub result: SearchResult<G>,
    /// The environment the viruses ran in.
    pub env: EnvKind,
    /// Evaluations that failed at runtime.
    pub failed_evaluations: u64,
}

/// A finished search campaign over bit genomes.
pub type BitCampaign = FinishedCampaign<BitGenome>;

/// The DStress framework facade: processing + synthesis + evaluation phases
/// over a simulated experimental server (paper Fig. 4).
#[derive(Debug)]
pub struct DStress {
    /// The campaign scale.
    pub scale: ExperimentScale,
    /// The virus database (§III-F).
    pub db: VirusDatabase,
    seed: u64,
    campaign_seq: u64,
    workers: usize,
    supervision: SupervisionPolicy,
    hazards: Option<HazardPlan>,
    step_budget: Option<u64>,
}

impl DStress {
    /// Creates a framework instance (single evaluation worker).
    pub fn new(scale: ExperimentScale, seed: u64) -> Self {
        DStress {
            scale,
            db: VirusDatabase::new(),
            seed,
            campaign_seq: 0,
            workers: 1,
            supervision: SupervisionPolicy::default(),
            hazards: None,
            step_budget: None,
        }
    }

    /// Sets the number of evaluation worker threads campaigns use. Each
    /// worker owns an independent replica of the evaluation substrate, and
    /// results are bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn set_workers(&mut self, workers: usize) {
        assert!(workers >= 1, "at least one evaluation worker is required");
        self.workers = workers;
    }

    /// The configured evaluation worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the supervision policy (retry / quarantine limits) campaigns
    /// run under.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (`quarantine_after` of zero).
    pub fn set_supervision(&mut self, policy: SupervisionPolicy) {
        policy.validate().expect("invalid supervision policy");
        self.supervision = policy;
    }

    /// The supervision policy campaigns run under.
    pub fn supervision(&self) -> SupervisionPolicy {
        self.supervision
    }

    /// Injects a hazard plan into subsequent campaigns (`None` clears it).
    /// Test-harness machinery: hazards fire at scheduled evaluation
    /// indices, mirroring `MemStorage`'s op-counted storage faults.
    pub fn set_hazard_plan(&mut self, hazards: Option<HazardPlan>) {
        self.hazards = hazards;
    }

    /// Overrides the VM step budget evaluators run with (`None` restores
    /// the default). The budget is the supervised runtime's deterministic
    /// watchdog against non-terminating candidates.
    pub fn set_step_budget(&mut self, max_steps: Option<u64>) {
        self.step_budget = max_steps;
    }

    /// Boots the experimental server: the paper's §IV memory configuration
    /// (second domain relaxed) with DIMM2 heated to `temp_c`.
    ///
    /// # Errors
    ///
    /// [`DStressError::Platform`] when the thermal rig rejects the channel
    /// or runs to its timeout without holding the setpoint
    /// ([`PlatformError::ThermalUnsettled`], carrying the full settling
    /// report) — a campaign must not start on an unstable thermal platform.
    pub fn server_at(&self, temp_c: f64) -> Result<XGene2Server, DStressError> {
        let mut server = XGene2Server::new(self.scale.server);
        server.relax_second_domain();
        let report = server
            .set_dimm_temperature(2, temp_c)
            .map_err(PlatformError::from)?;
        if !report.settled {
            return Err(PlatformError::ThermalUnsettled {
                mcu: 2,
                setpoint_c: temp_c,
                report,
            }
            .into());
        }
        Ok(server)
    }

    /// Builds an evaluator for an environment.
    ///
    /// # Errors
    ///
    /// Propagates template processing, environment-binding and platform
    /// setup failures.
    pub fn evaluator(
        &self,
        env: &EnvKind,
        temp_c: f64,
        metric: Metric,
    ) -> Result<VirusEvaluator, DStressError> {
        let template = templates::process(env.template_source(), &self.scale)?;
        let bindings = env.bindings(&self.scale)?;
        let mut evaluator = VirusEvaluator::new(
            self.server_at(temp_c)?,
            template,
            bindings,
            metric,
            self.scale.runs_per_virus,
            2,
        );
        if let Some(max_steps) = self.step_budget {
            evaluator.set_step_budget(max_steps);
        }
        Ok(evaluator)
    }

    /// Builds a campaign's fitness: an evaluator for its environment,
    /// temperature and metric, paired with its codec.
    ///
    /// # Errors
    ///
    /// Propagates evaluator construction failures.
    pub fn fitness<C: GenomeCodec>(
        &self,
        campaign: &Campaign<C>,
    ) -> Result<CampaignFitness<C>, DStressError> {
        Ok(CampaignFitness {
            evaluator: self.evaluator(&campaign.env, campaign.temp_c, campaign.metric.clone())?,
            codec: campaign.codec.clone(),
        })
    }

    /// The engine seed of the `seq`-th campaign (1-based) started on a
    /// framework seeded with `framework_seed` — the derivation every
    /// campaign run shares. Exposed so external drivers (the `dstressd`
    /// service, differential tests) can reproduce a solo campaign's seed
    /// exactly.
    pub fn campaign_seed(framework_seed: u64, seq: u64) -> u64 {
        framework_seed.wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_campaign_seed(&mut self) -> u64 {
        self.campaign_seq += 1;
        DStress::campaign_seed(self.seed, self.campaign_seq)
    }

    /// Runs `journals.len()` independent runs of `campaign` concurrently
    /// over one persistent pool of this framework's workers — the one
    /// campaign driver behind the figure experiments, the CLI and the
    /// crash-safe searches.
    ///
    /// Run `i` draws the framework's next campaign seed, so it matches the
    /// `i`-th solo run on a fresh framework, and is named `{name}-c{i}`
    /// when there is more than one run. A run given a journal
    /// write-ahead journals every evaluated virus and a checkpoint per
    /// generation, and continues from the journal's checkpoint when that
    /// names the run; a resumed run is bit-identical to an uninterrupted
    /// one. `step_budget` bounds the steps (generations) each run takes
    /// here: a run it interrupts comes back `None`, its checkpoint
    /// journaled. A finished run's leaderboard is recorded in
    /// [`db`](DStress::db); its compile and failure counters are those of
    /// the shared substrate.
    ///
    /// # Errors
    ///
    /// Propagates evaluator construction and journal I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `journals` is empty.
    pub fn run<C: GenomeCodec, S: Storage>(
        &mut self,
        campaign: &Campaign<C>,
        journals: Vec<Option<&mut CampaignJournal<S>>>,
        step_budget: Option<u64>,
    ) -> Result<Vec<Option<FinishedCampaign<C::Genome>>>, DStressError> {
        assert!(!journals.is_empty(), "at least one run is required");
        let mut fitness = self.fitness(campaign)?;
        let count = journals.len();
        let mut names = Vec::with_capacity(count);
        let mut runs = Vec::with_capacity(count);
        for (i, journal) in journals.into_iter().enumerate() {
            let name = campaign.run_name(i, count);
            let seed = self.next_campaign_seed();
            let start = || campaign.start(self.scale.ga, seed);
            let mut run = match journal {
                Some(journal) => {
                    let record_name = name.clone();
                    CampaignRun::journaled(journal, &name, start, move |genome, value| {
                        Campaign::<C>::record(&record_name, genome, value)
                    })?
                }
                None => CampaignRun::new(start()),
            };
            run.session.set_supervision(self.supervision);
            run.session.set_hazards(self.hazards.clone());
            runs.push(run);
            names.push(name);
        }
        let sessions = run_campaigns(&mut fitness, self.workers, runs, step_budget)?;
        let failed = fitness.evaluator.failed_evaluations;
        let finished = sessions.into_iter().zip(names).map(|(session, name)| {
            if !session.done() {
                return None;
            }
            let result = session.finish();
            for (genome, value) in &result.leaderboard {
                self.db.record(Campaign::<C>::record(&name, genome, *value));
            }
            Some(FinishedCampaign {
                name,
                result,
                env: campaign.env.clone(),
                failed_evaluations: failed,
            })
        });
        Ok(finished.collect())
    }

    /// One unjournaled, unbounded [`run`](DStress::run) of `campaign`.
    fn run_alone<C: GenomeCodec>(
        &mut self,
        campaign: &Campaign<C>,
    ) -> Result<FinishedCampaign<C::Genome>, DStressError> {
        let runs = self.run::<C, MemStorage>(campaign, vec![None], None)?;
        Ok(finished_alone(runs))
    }

    /// The 64-bit data-pattern search (Fig. 8a/b: maximize CEs; Fig. 8c:
    /// minimize; Fig. 8d: maximize UE runs).
    ///
    /// # Errors
    ///
    /// Propagates campaign failures.
    pub fn search_word64(
        &mut self,
        temp_c: f64,
        metric: Metric,
        minimize: bool,
    ) -> Result<BitCampaign, DStressError> {
        self.run_alone(&Campaign::word64(temp_c, metric, minimize))
    }

    /// The campaign name [`search_word64`](DStress::search_word64) and its
    /// journaled variant use for the given metric/direction/temperature.
    pub fn word64_campaign_name(temp_c: f64, metric: &Metric, minimize: bool) -> String {
        format!(
            "word64-{}-{}C",
            match (metric, minimize) {
                (Metric::UeRuns, _) => "ue",
                (_, true) => "ce-min",
                (_, false) => "ce-max",
            },
            temp_c as i64
        )
    }

    /// The crash-safe 64-bit data-pattern search: like
    /// [`search_word64`](DStress::search_word64) but with every evaluated
    /// virus write-ahead journaled through `journal` and a checkpoint per
    /// generation, so an interrupted campaign resumes **bit-identically**.
    /// If `journal` holds a checkpoint for this campaign, the search
    /// continues from it instead of starting over.
    ///
    /// # Errors
    ///
    /// Propagates evaluator construction and journal I/O failures.
    pub fn search_word64_journaled<S: Storage>(
        &mut self,
        journal: &mut CampaignJournal<S>,
        temp_c: f64,
        metric: Metric,
        minimize: bool,
    ) -> Result<BitCampaign, DStressError> {
        let campaign = Campaign::word64(temp_c, metric, minimize);
        let runs = self.run(&campaign, vec![Some(journal)], None)?;
        Ok(finished_alone(runs))
    }

    /// Profiles error-prone rows: runs the given 64-bit fill word and
    /// aggregates per-row CE counts over several runs (the paper collected
    /// error addresses from all prior experiments, §V-A.2).
    ///
    /// # Errors
    ///
    /// Propagates template and platform failures; fails if no rows erred.
    pub fn profile_victims(&mut self, temp_c: f64, fill: u64) -> Result<Vec<RowKey>, DStressError> {
        let mut evaluator = self.evaluator(&EnvKind::Word64, temp_c, Metric::CeAverage)?;
        let run = evaluator.record([("PATTERN".into(), BoundValue::Scalar(fill))].into())?;
        let total =
            evaluator
                .server_mut()
                .evaluate_runs_total(run, self.scale.runs_per_virus, 0xF00D)?;
        let mut rows: Vec<RowErrors> = total
            .row_errors
            .into_iter()
            .filter(|e| e.mcu == 2)
            .collect();
        if rows.is_empty() {
            return Err(DStressError::Experiment(
                "no error-prone rows manifested during profiling".into(),
            ));
        }
        rows.sort_by(|a, b| b.ce.cmp(&a.ce).then(a.row.cmp(&b.row)));
        let victims = pick_victims(&rows, &self.scale, 2, self.scale.victims);
        if victims.is_empty() {
            return Err(DStressError::Experiment(
                "no victim rows satisfy the neighbourhood margins".into(),
            ));
        }
        Ok(victims)
    }

    /// The row-triple ("24 KB") data-pattern search (Fig. 9).
    ///
    /// # Errors
    ///
    /// Propagates campaign failures.
    pub fn search_row_triple(
        &mut self,
        temp_c: f64,
        victims: Vec<RowKey>,
    ) -> Result<BitCampaign, DStressError> {
        self.run_alone(&Campaign::row_triple(&self.scale, temp_c, victims))
    }

    /// The chunk-span ("512 KB") data-pattern search (Fig. 10).
    ///
    /// # Errors
    ///
    /// Propagates campaign failures.
    pub fn search_chunks(
        &mut self,
        temp_c: f64,
        victims: Vec<RowKey>,
    ) -> Result<BitCampaign, DStressError> {
        self.run_alone(&Campaign::chunks(&self.scale, temp_c, victims))
    }

    /// Access-pattern search, template 1 (Fig. 11): which neighbour rows to
    /// stream, memory pre-filled with the worst 64-bit pattern.
    ///
    /// # Errors
    ///
    /// Propagates campaign failures.
    pub fn search_row_access(
        &mut self,
        temp_c: f64,
        victims: Vec<RowKey>,
        fill: u64,
    ) -> Result<BitCampaign, DStressError> {
        self.run_alone(&Campaign::row_access(temp_c, victims, fill))
    }

    /// Access-pattern search, template 2 (Fig. 12): per-row stride
    /// coefficients `aᵢ·x + bᵢ` with `aᵢ, bᵢ ∈ [0, 20]`.
    ///
    /// # Errors
    ///
    /// Propagates campaign failures.
    pub fn search_stride_access(
        &mut self,
        temp_c: f64,
        victims: Vec<RowKey>,
        fill: u64,
    ) -> Result<FinishedCampaign<IntGenome>, DStressError> {
        self.run_alone(&Campaign::stride_access(temp_c, victims, fill))
    }

    /// Measures a single concrete virus (no search): used for baselines and
    /// cross-experiment comparisons.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn measure(
        &self,
        env: &EnvKind,
        chromosome: HashMap<String, BoundValue>,
        temp_c: f64,
        metric: Metric,
    ) -> Result<crate::evaluate::EvalOutcome, DStressError> {
        let mut evaluator = self.evaluator(env, temp_c, metric)?;
        evaluator.evaluate_bindings(chromosome)
    }
}

/// The one run of an unbounded single-run [`DStress::run`].
fn finished_alone<G>(runs: Vec<Option<FinishedCampaign<G>>>) -> FinishedCampaign<G> {
    runs.into_iter()
        .next()
        .flatten()
        .expect("an unbounded run always finishes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ExperimentScale {
        ExperimentScale::quick()
    }

    #[test]
    fn word64_env_has_no_globals() {
        let s = scale();
        let env = EnvKind::Word64.bindings(&s).unwrap();
        assert_eq!(env["MEM_WORDS"], BoundValue::Scalar(s.dimm_words()));
    }

    #[test]
    fn row_triple_env_accounts_for_globals() {
        let s = scale();
        let victims = vec![RowKey::new(0, 0, 13)];
        let kind = EnvKind::RowTriple { victims };
        let env = kind.bindings(&s).unwrap();
        // 3 pattern rows + 1 victims row before the buffer.
        let expected_words = s.dimm_words() - 4 * s.row_words();
        assert_eq!(env["MEM_WORDS"], BoundValue::Scalar(expected_words));
        match &env["VICTIM_OFFS"] {
            BoundValue::Array(offs) => {
                // Victim (rank0, bank0, row13): chunk 13*8 = 104; offset
                // = 104 rows - 4 globals rows, in words.
                assert_eq!(offs[0], (104 - 4) * s.row_words());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn row_triple_rejects_edge_victims() {
        let s = scale();
        let kind = EnvKind::RowTriple {
            victims: vec![RowKey::new(0, 0, 0)],
        };
        assert!(matches!(kind.bindings(&s), Err(DStressError::Config(_))));
    }

    #[test]
    fn row_access_neighbourhood_layout() {
        let s = scale();
        let victim = RowKey::new(0, 0, 13); // chunk 104
        let kind = EnvKind::RowAccess {
            victims: vec![victim],
            fill: WORST_WORD,
        };
        let env = kind.bindings(&s).unwrap();
        let globals_rows = 2;
        match &env["NEIGH_OFFS"] {
            BoundValue::Array(offs) => {
                assert_eq!(offs.len(), 64);
                // r=31 is the immediate predecessor chunk 103.
                assert_eq!(offs[31], (103 - globals_rows) * s.row_words());
                // r=32 is the immediate successor chunk 105.
                assert_eq!(offs[32], (105 - globals_rows) * s.row_words());
                // r=0 is chunk 104-32 = 72.
                assert_eq!(offs[0], (72 - globals_rows) * s.row_words());
                // r=63 is chunk 104+32 = 136.
                assert_eq!(offs[63], (136 - globals_rows) * s.row_words());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cycle_fill_validates_length() {
        let s = scale();
        assert!(EnvKind::CycleFill { cycle: vec![0; 63] }
            .bindings(&s)
            .is_err());
        assert!(EnvKind::CycleFill { cycle: vec![0; 64] }
            .bindings(&s)
            .is_ok());
    }

    #[test]
    fn pick_victims_respects_margins_and_spacing() {
        let s = scale();
        // Synthesize row errors over many rows of mcu 2.
        let mut rows = Vec::new();
        for bank in 0..8u8 {
            for row in 0..16u32 {
                rows.push(RowErrors {
                    mcu: 2,
                    row: RowKey::new(1, bank, row),
                    ce: (bank as u64 + 1) * (row as u64 + 1),
                    ue: 0,
                });
            }
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.ce));
        let victims = pick_victims(&rows, &s, 2, 4);
        assert!(!victims.is_empty());
        let chunk_of = |r: &RowKey| (r.rank as u64 * 16 + r.row as u64) * 8 + r.bank as u64;
        for v in &victims {
            let c = chunk_of(v);
            assert!(c >= 97, "victim chunk {c} violates the global-data margin");
            assert!(c + 33 <= 256);
        }
        for (i, a) in victims.iter().enumerate() {
            for b in &victims[i + 1..] {
                assert!(chunk_of(a).abs_diff(chunk_of(b)) >= 80);
            }
        }
        // Rows from other MCUs are ignored.
        let foreign = vec![RowErrors {
            mcu: 1,
            row: RowKey::new(1, 4, 8),
            ce: 999,
            ue: 0,
        }];
        assert!(pick_victims(&foreign, &s, 2, 2).is_empty());
    }

    #[test]
    fn word64_quick_search_finds_a_strong_pattern() {
        // An end-to-end miniature of the Fig. 8a campaign: the GA must beat
        // the all-zeros baseline clearly within a tiny budget.
        let mut dstress = DStress::new(scale(), 7);
        let campaign = dstress
            .search_word64(60.0, Metric::CeAverage, false)
            .unwrap();
        let baseline = dstress
            .measure(
                &EnvKind::Word64,
                [("PATTERN".to_string(), BoundValue::Scalar(0u64))].into(),
                60.0,
                Metric::CeAverage,
            )
            .unwrap();
        assert!(
            campaign.result.best_fitness > baseline.fitness,
            "GA best {} vs all-zeros {}",
            campaign.result.best_fitness,
            baseline.fitness
        );
        assert_eq!(campaign.failed_evaluations, 0);
        // The leaderboard was recorded in the database.
        assert!(dstress.db.best(&campaign.name).is_some());
    }
}

#[cfg(test)]
mod env_tests {
    use super::*;
    use crate::scale::ExperimentScale;

    fn scale() -> ExperimentScale {
        ExperimentScale::quick()
    }

    #[test]
    fn chunks_env_spans_64_chunks_inside_the_buffer() {
        let s = scale();
        // Victim at chunk 104 (rank0, bank0, row13).
        let kind = EnvKind::Chunks {
            victims: vec![RowKey::new(0, 0, 13)],
        };
        let env = kind.bindings(&s).unwrap();
        assert_eq!(env["SPAN_WORDS"], BoundValue::Scalar(64 * s.row_words()));
        match &env["CHUNK_STARTS"] {
            BoundValue::Array(starts) => {
                assert_eq!(starts.len(), 1);
                // globals = 65 rows; span start = max(104-32, 65) = 72.
                assert_eq!(starts[0], (72 - 65) * s.row_words());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stride_env_lists_16_neighbours_per_victim() {
        let s = scale();
        let kind = EnvKind::StrideAccess {
            victims: vec![RowKey::new(0, 0, 13), RowKey::new(1, 0, 5)],
            fill: WORST_WORD,
        };
        let env = kind.bindings(&s).unwrap();
        assert_eq!(env["X_ITERS"], BoundValue::Scalar(s.stride_iters));
        assert_eq!(env["FILL"], BoundValue::Scalar(WORST_WORD));
        match &env["NEIGH16_OFFS"] {
            BoundValue::Array(offs) => {
                assert_eq!(offs.len(), 32);
                // First victim chunk 104, globals 2 rows: r=7 is chunk 103.
                assert_eq!(offs[7], (103 - 2) * s.row_words());
                // r=8 is chunk 105.
                assert_eq!(offs[8], (105 - 2) * s.row_words());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn victims_accessor_reflects_the_environment() {
        let v = vec![RowKey::new(0, 1, 9)];
        assert_eq!(EnvKind::Word64.victims(), &[] as &[RowKey]);
        assert_eq!(
            EnvKind::RowTriple { victims: v.clone() }.victims(),
            v.as_slice()
        );
        assert_eq!(
            EnvKind::RowAccess {
                victims: v.clone(),
                fill: 0
            }
            .victims(),
            v.as_slice()
        );
        assert_eq!(
            EnvKind::CycleFill { cycle: vec![0; 64] }.victims(),
            &[] as &[RowKey]
        );
    }

    #[test]
    fn template_sources_match_kinds() {
        assert!(EnvKind::Word64.template_source().contains("PATTERN"));
        assert!(EnvKind::Chunks { victims: vec![] }
            .template_source()
            .contains("CHUNK_PATTERN"));
        assert!(EnvKind::StrideAccess {
            victims: vec![],
            fill: 0
        }
        .template_source()
        .contains("COEFFS"));
    }

    #[test]
    fn server_at_heats_only_dimm2() {
        let dstress = DStress::new(scale(), 1);
        let server = dstress.server_at(65.0).unwrap();
        assert!((server.dimm_temperature(2) - 65.0).abs() < 0.5);
        assert!((server.dimm_temperature(0) - scale().server.ambient_c).abs() < 0.5);
        assert_eq!(server.trefp(2), dstress_dram::env::MAX_TREFP_S);
        assert_eq!(server.trefp(0), dstress_dram::env::NOMINAL_TREFP_S);
    }

    #[test]
    fn server_at_rejects_an_unreachable_setpoint_with_the_settle_report() {
        // The heater tops out ~145 °C over a 45 °C ambient; 250 °C can
        // never settle, and campaign setup must fail with the evidence
        // instead of silently starting on an unstable platform.
        let dstress = DStress::new(scale(), 1);
        let err = dstress.server_at(250.0).unwrap_err();
        match err {
            DStressError::Platform(PlatformError::ThermalUnsettled {
                mcu,
                setpoint_c,
                report,
            }) => {
                assert_eq!(mcu, 2);
                assert_eq!(setpoint_c, 250.0);
                assert!(!report.settled);
                assert!(report.final_temp_c < 250.0);
            }
            other => panic!("expected ThermalUnsettled, got {other:?}"),
        }
        // The evaluator constructor propagates the same failure.
        let err = dstress
            .evaluator(&EnvKind::Word64, 250.0, Metric::CeAverage)
            .unwrap_err();
        assert!(matches!(
            err,
            DStressError::Platform(PlatformError::ThermalUnsettled { .. })
        ));
    }

    #[test]
    fn chunks_span_rejects_victims_too_close_to_the_end() {
        let s = scale();
        // Last chunk index is 255; a victim at chunk 255 has no room for a
        // 64-chunk span starting at 223 (255-32) since 223+64 > 256.
        let kind = EnvKind::Chunks {
            victims: vec![RowKey::new(1, 7, 15)],
        };
        assert!(matches!(kind.bindings(&s), Err(DStressError::Config(_))));
    }
}
