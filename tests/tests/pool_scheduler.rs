//! Differential tests for the persistent work-stealing evaluation pool and
//! the multi-campaign fair-share scheduler: for *any* worker count, steal
//! interleaving and hazard schedule, the pool's results are bit-identical
//! to one worker's (the engine's unit tests pin one worker against the
//! serial reference loop); a journaled campaign kill-and-resumes
//! identically under the pool; and a campaign multiplexed with others over
//! one shared pool produces the same journal as running it alone.

use dstress::search::Campaign;
use dstress::{DStress, ExperimentScale, MemStorage, Metric};
use dstress_ga::{
    run_campaigns, BitGenome, CampaignJournal, CampaignRun, CampaignScheduler, EvalPool, Fitness,
    GaConfig, Genome, Hazard, HazardPlan, JournaledCampaign, ParallelFitness, SearchResult,
    SearchSession, VirusRecord,
};
use proptest::prelude::*;
use rand::rngs::StdRng;

/// A pure, replicable popcount fitness.
#[derive(Clone)]
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

/// A full campaign on the persistent pool at the given worker count.
fn pooled_run(seed: u64, workers: usize, plan: Option<HazardPlan>) -> SearchResult<BitGenome> {
    let mut session = SearchSession::start(ga_config(), seed, |rng: &mut StdRng| {
        BitGenome::random(rng, 24)
    });
    session.set_hazards(plan);
    let pool = EvalPool::new(&Popcount, workers);
    while !session.done() {
        session.step(&pool);
    }
    pool.shutdown();
    session.finish()
}

/// Leaderboard comparison that survives the `NaN` scores of quarantined
/// candidates.
fn board_bits(result: &SearchResult<BitGenome>) -> Vec<(Vec<u64>, u64)> {
    result
        .leaderboard
        .iter()
        .map(|(g, f)| (g.to_words(), f.to_bits()))
        .collect()
}

/// Search equality: the search path (winner, leaderboard, history,
/// incidents) and the evaluation counters.
fn assert_search_identical(
    run: &SearchResult<BitGenome>,
    reference: &SearchResult<BitGenome>,
    tag: &str,
) {
    assert_eq!(run.best, reference.best, "{tag}: best");
    assert_eq!(
        run.best_fitness.to_bits(),
        reference.best_fitness.to_bits(),
        "{tag}: best fitness"
    );
    assert_eq!(board_bits(run), board_bits(reference), "{tag}: leaderboard");
    assert_eq!(run.history, reference.history, "{tag}: history");
    assert_eq!(run.generations, reference.generations, "{tag}: generations");
    assert_eq!(run.incidents, reference.incidents, "{tag}: incidents");
    assert_eq!(
        run.eval_stats.evaluations, reference.eval_stats.evaluations,
        "{tag}: evaluations"
    );
    assert_eq!(
        run.eval_stats.cache_hits, reference.eval_stats.cache_hits,
        "{tag}: cache hits"
    );
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

/// Builds a fresh fire-once plan from the generated spec — every run needs
/// its own, built identically (a cloned plan shares consumed hazards).
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

fn popcount_record(campaign: &str) -> impl Fn(&BitGenome, f64) -> VirusRecord + '_ {
    move |genome, value| VirusRecord {
        campaign: campaign.into(),
        genes: genome.to_words(),
        gene_len: genome.len(),
        fitness: value,
        ce: value.max(0.0) as u64,
        ue: 0,
        sequence: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The pool's acceptance criterion: under any hazard schedule — which
    /// also perturbs task costs and thus the steal interleaving — every
    /// worker count produces the same trajectory as one worker.
    #[test]
    fn pooled_trajectories_are_worker_count_invariant(spec_and_kills in hazards()) {
        let (spec, kills) = spec_and_kills;
        let reference = pooled_run(97, 1, Some(plan_from(&spec, &kills)));
        for (n, incident) in reference.incidents.iter().enumerate() {
            prop_assert_eq!(incident.seq, n as u64, "dense incident sequence");
        }
        for workers in worker_counts() {
            let run = pooled_run(97, workers, Some(plan_from(&spec, &kills)));
            assert_search_identical(&run, &reference, &format!("workers={workers}"));
        }
    }

    /// Kill-and-resume under the pool: a journaled campaign interrupted at
    /// an arbitrary generation boundary resumes — on a *fresh* pool with a
    /// fresh, identically-built hazard plan — into the same incident
    /// stream, record stream and outcome as the uninterrupted run.
    #[test]
    fn journaled_campaign_resumes_identically_under_the_pool(
        spec_and_kills in hazards(),
        boundary in 0u32..6,
    ) {
        let (spec, kills) = spec_and_kills;
        let drive = |journal: &mut CampaignJournal<MemStorage>, max_steps: Option<u32>, plan| {
            let start = || SearchSession::start(ga_config(), 59, |rng: &mut StdRng| {
                BitGenome::random(rng, 24)
            });
            let mut run = CampaignRun::journaled(journal, "pool", start, popcount_record("pool"))
                .expect("journal I/O");
            run.session.set_hazards(Some(plan));
            let session = run_campaigns(&mut Popcount, 3, vec![run], max_steps.map(u64::from))
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
        let replay: Vec<_> = journal.campaign_incidents("pool").cloned().collect();
        let acked: Vec<_> = clean.campaign_incidents("pool").cloned().collect();
        prop_assert_eq!(replay, acked, "acked incidents replay bit-identically");
        prop_assert_eq!(journal.db().records(), clean.db().records());
    }
}

/// Drives a scheduler holding the given sessions to completion, journaling
/// every campaign into its own `MemStorage` journal between ticks through
/// the shared [`JournaledCampaign`] routine — a hand-written twin of
/// `run_campaigns`.
fn run_scheduled_journaled(
    sessions: Vec<SearchSession<BitGenome>>,
    names: &[&str],
    workers: usize,
) -> (
    Vec<SearchResult<BitGenome>>,
    Vec<CampaignJournal<MemStorage>>,
) {
    let mut scheduler = CampaignScheduler::new(EvalPool::new(&Popcount, workers));
    let mut journals = Vec::new();
    let mut logs = Vec::new();
    for (session, name) in sessions.into_iter().zip(names) {
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        let (log, session) = JournaledCampaign::open(&journal, name, || session).unwrap();
        log.checkpoint(&mut journal, &session).unwrap();
        scheduler.add(session, None);
        journals.push(journal);
        logs.push(Some(log));
    }
    while !scheduler.tick().is_empty() {
        for (id, name) in names.iter().enumerate() {
            let Some(log) = logs[id].as_mut() else {
                continue;
            };
            let done = log
                .commit_step(
                    &mut journals[id],
                    scheduler.session_mut(id),
                    popcount_record(name),
                    |_, _| {},
                )
                .unwrap();
            if done {
                logs[id] = None;
            }
        }
    }
    let (sessions, _replicas) = scheduler.finish();
    (
        sessions.into_iter().map(SearchSession::finish).collect(),
        journals,
    )
}

#[test]
fn multiplexed_campaign_journals_are_bit_identical_to_running_alone() {
    // Two campaigns fair-share one pool; each journal must match the
    // journal of the same campaign running the pool alone.
    let seeds = [71u64, 72];
    let names = ["alpha", "beta"];
    let session_for = |seed: u64| {
        SearchSession::start(ga_config(), seed, |rng: &mut StdRng| {
            BitGenome::random(rng, 24)
        })
    };
    let (together, shared_journals) =
        run_scheduled_journaled(seeds.iter().map(|&s| session_for(s)).collect(), &names, 3);
    for ((&seed, name), (result, journal)) in seeds
        .iter()
        .zip(names)
        .zip(together.iter().zip(&shared_journals))
    {
        let (solo_results, solo_journals) =
            run_scheduled_journaled(vec![session_for(seed)], &[name], 3);
        assert_search_identical(result, &solo_results[0], &format!("campaign {name}"));
        assert_eq!(
            journal.db().records(),
            solo_journals[0].db().records(),
            "campaign {name}: journaled records"
        );
        let shared: Vec<_> = journal.campaign_incidents(name).cloned().collect();
        let solo: Vec<_> = solo_journals[0].campaign_incidents(name).cloned().collect();
        assert_eq!(shared, solo, "campaign {name}: journaled incidents");
        // Solo again as a plain pooled session — the scheduler adds
        // nothing to a lone campaign.
        let direct = pooled_run(seed, 3, None);
        assert_search_identical(result, &direct, &format!("campaign {name} vs direct"));
    }
}

#[test]
fn concurrent_word64_campaigns_match_their_solo_twins() {
    // The real substrate end-to-end: N concurrent word64 searches on the
    // quick scale must each reproduce the solo campaign with the same
    // campaign seed (campaign i of the batch draws the i-th seed of the
    // engine stream, exactly like i prior solo searches).
    let scale = ExperimentScale::quick;
    let mut multi = DStress::new(scale(), 7);
    multi.set_workers(4);
    let results: Vec<_> = multi
        .run::<_, MemStorage>(
            &Campaign::word64(60.0, Metric::CeAverage, false),
            vec![None, None],
            None,
        )
        .expect("concurrent campaigns run")
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(results.len(), 2);

    let mut solo = DStress::new(scale(), 7);
    solo.set_workers(2);
    let first = solo.search_word64(60.0, Metric::CeAverage, false).unwrap();
    let second = solo.search_word64(60.0, Metric::CeAverage, false).unwrap();
    for (concurrent, alone) in results.iter().zip([first, second]) {
        assert_search_identical(
            &concurrent.result,
            &alone.result,
            &format!("campaign {}", concurrent.name),
        );
        assert_eq!(
            concurrent.result.eval_stats.compile_hits, alone.result.eval_stats.compile_hits,
            "absorbed compile counters agree with the solo run"
        );
    }
}

#[test]
fn absorbed_compile_counters_are_worker_count_invariant() {
    // The satellite bugfix regression: with replicas absorbed at campaign
    // end (on every exit path), the master evaluator's compile statistics
    // are exact — the same totals whether one replica did all the work or
    // four replicas split it.
    let run = |workers: usize| {
        let mut dstress = DStress::new(ExperimentScale::quick(), 11);
        dstress.set_workers(workers);
        let campaign = dstress
            .search_word64(60.0, Metric::CeAverage, false)
            .expect("campaign runs");
        (
            campaign.result.eval_stats.compile_hits,
            campaign.result.eval_stats.evaluations,
            campaign.failed_evaluations,
        )
    };
    let reference = run(1);
    for workers in [2usize, 4] {
        assert_eq!(run(workers), reference, "workers={workers}");
    }
}
