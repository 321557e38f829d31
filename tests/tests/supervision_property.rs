//! Property tests for the supervised evaluation runtime: under *any*
//! hazard schedule the supervisor's decisions (retries, quarantines,
//! worker-loss redeals) are a pure function of the evaluation-index stream
//! — identical for 1, 2 and 8 workers — and a journaled campaign killed at
//! an arbitrary generation boundary resumes replaying the same incidents.

use dstress_ga::{
    run_campaigns, BitGenome, CampaignJournal, CampaignRun, Fitness, GaConfig, GaEngine, Genome,
    Hazard, HazardPlan, IncidentKind, MemStorage, ParallelFitness, SearchResult, SearchSession,
    SupervisionPolicy, VirusRecord,
};
use proptest::prelude::*;
use rand::rngs::StdRng;

/// A pure, replicable popcount fitness.
struct Popcount;

impl Fitness<BitGenome> for Popcount {
    fn evaluate(&mut self, genome: &BitGenome) -> f64 {
        genome.count_ones() as f64
    }
}

impl ParallelFitness<BitGenome> for Popcount {
    fn replicate(&self) -> Self {
        Popcount
    }
}

fn ga_config() -> GaConfig {
    let mut config = GaConfig::paper_defaults();
    config.population_size = 10;
    config.max_generations = 6;
    config.stagnation_window = 3;
    config
}

/// One generated hazard: `(evaluation index, attempt, kind)`.
type SpecHazard = (u64, u32, u8);

fn hazards() -> impl Strategy<Value = (Vec<SpecHazard>, Vec<u64>)> {
    let one = (0u64..30, 0u32..3, 0u8..4);
    (
        proptest::collection::vec(one, 0..5),
        proptest::collection::vec(0u64..30, 0..3),
    )
}

/// Builds a fresh fire-once plan from the generated spec. Every run needs
/// its own plan (hazards are consumed), built identically.
fn plan_from(spec: &[SpecHazard], kills: &[u64]) -> HazardPlan {
    let plan = HazardPlan::new();
    for &(index, attempt, kind) in spec {
        let hazard = match kind {
            0 => Hazard::Transient,
            1 => Hazard::Permanent,
            2 => Hazard::BudgetBlowout,
            _ => Hazard::Panic,
        };
        plan.schedule_attempt(index, attempt, hazard);
    }
    for &index in kills {
        plan.schedule(index, Hazard::KillWorker);
    }
    plan
}

fn popcount_record(genome: &BitGenome, value: f64) -> VirusRecord {
    VirusRecord {
        campaign: "prop".into(),
        genes: genome.to_words(),
        gene_len: genome.len(),
        fitness: value,
        ce: value.max(0.0) as u64,
        ue: 0,
        sequence: 0,
    }
}

fn supervised_run(workers: usize, plan: HazardPlan) -> SearchResult<BitGenome> {
    let mut engine = GaEngine::new(ga_config(), 97);
    engine.set_supervision(SupervisionPolicy::default());
    engine.set_hazards(Some(plan));
    engine.run_parallel(workers, |rng| BitGenome::random(rng, 24), &mut Popcount)
}

/// Leaderboard comparison that survives `NaN` scores of quarantined
/// candidates (`NaN != NaN` under `==`).
fn board_bits(result: &SearchResult<BitGenome>) -> Vec<(Vec<u64>, u64)> {
    result
        .leaderboard
        .iter()
        .map(|(g, f)| (g.to_words(), f.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance criterion of the supervised runtime: whatever the
    /// hazard schedule, retry/quarantine decisions and the search outcome
    /// are bit-identical for 1, 2 and 8 workers.
    #[test]
    fn supervision_decisions_are_worker_count_invariant(spec_and_kills in hazards()) {
        let (spec, kills) = spec_and_kills;
        let reference = supervised_run(1, plan_from(&spec, &kills));
        // Incident sequence numbers are dense in stream order whatever the
        // schedule shape.
        for (n, incident) in reference.incidents.iter().enumerate() {
            prop_assert_eq!(incident.seq, n as u64);
        }
        for workers in [2usize, 8] {
            let run = supervised_run(workers, plan_from(&spec, &kills));
            prop_assert_eq!(&run.incidents, &reference.incidents, "workers={}", workers);
            prop_assert_eq!(&run.best, &reference.best, "workers={}", workers);
            prop_assert_eq!(
                run.best_fitness.to_bits(),
                reference.best_fitness.to_bits(),
                "workers={}", workers
            );
            prop_assert_eq!(board_bits(&run), board_bits(&reference), "workers={}", workers);
            prop_assert_eq!(run.generations, reference.generations, "workers={}", workers);
            prop_assert_eq!(
                run.eval_stats.evaluations,
                reference.eval_stats.evaluations,
                "workers={}", workers
            );
        }
    }

    /// Quarantine never leaks into selection of the survivors: a candidate
    /// the supervisor quarantined keeps its NaN score to the end and sits
    /// below every finite leaderboard entry.
    #[test]
    fn quarantined_candidates_rank_below_all_survivors(spec_and_kills in hazards()) {
        let (spec, kills) = spec_and_kills;
        let result = supervised_run(2, plan_from(&spec, &kills));
        let first_nan = result
            .leaderboard
            .iter()
            .position(|(_, f)| f.is_nan())
            .unwrap_or(result.leaderboard.len());
        for (i, (_, fitness)) in result.leaderboard.iter().enumerate() {
            prop_assert_eq!(
                fitness.is_nan(),
                i >= first_nan,
                "NaN scores must form the leaderboard's tail"
            );
        }
        let quarantines = result
            .incidents
            .iter()
            .filter(|i| matches!(i.kind, IncidentKind::Quarantine { .. }))
            .count();
        prop_assert!(
            result.leaderboard.len() - first_nan <= quarantines,
            "only quarantined candidates may carry NaN"
        );
    }

    /// Kill-and-resume round-trip: a journaled campaign interrupted at an
    /// arbitrary generation boundary under an arbitrary hazard schedule
    /// resumes (with a fresh, identically-built plan) into the same
    /// incident stream, record stream and outcome as the uninterrupted run.
    #[test]
    fn journaled_campaign_resumes_identically_after_any_kill(
        spec_and_kills in hazards(),
        boundary in 0u32..6,
    ) {
        let (spec, kills) = spec_and_kills;
        let drive = |journal: &mut CampaignJournal<MemStorage>, max_steps: Option<u32>, plan| {
            let start = || SearchSession::start(ga_config(), 31, |rng: &mut StdRng| {
                BitGenome::random(rng, 24)
            });
            let mut run = CampaignRun::journaled(journal, "prop", start, popcount_record)
                .expect("journal I/O");
            run.session.set_hazards(Some(plan));
            let session = run_campaigns(&mut Popcount, 2, vec![run], max_steps.map(u64::from))
                .expect("journal I/O")
                .pop()
                .expect("one session per run");
            session.done().then(|| session.finish())
        };
        let mut clean = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        let reference = drive(&mut clean, None, plan_from(&spec, &kills))
            .expect("clean run finishes");

        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        drive(&mut journal, Some(boundary), plan_from(&spec, &kills));
        let mut storage = journal.into_storage();
        storage.crash();
        let mut journal = CampaignJournal::open(storage, "db.json").unwrap();
        let resumed = drive(&mut journal, None, plan_from(&spec, &kills))
            .expect("resumed run finishes");

        prop_assert_eq!(&resumed.incidents, &reference.incidents);
        prop_assert_eq!(&resumed.best, &reference.best);
        prop_assert_eq!(board_bits(&resumed), board_bits(&reference));
        let replay: Vec<_> = journal.campaign_incidents("prop").cloned().collect();
        let acked: Vec<_> = clean.campaign_incidents("prop").cloned().collect();
        prop_assert_eq!(replay, acked, "acked incidents replay bit-identically");
        prop_assert_eq!(journal.db().records(), clean.db().records());
    }
}
