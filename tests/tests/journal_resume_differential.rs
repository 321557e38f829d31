//! Differential crash/resume tests for the campaign journal: a search
//! killed at **any** generation boundary and resumed from the journal must
//! produce a bit-identical `SearchResult` (best chromosome, fitness,
//! leaderboard, history, convergence flag) and the same record stream as an
//! uninterrupted run. Only wall-clock timing (`generation_eval_seconds`)
//! may differ.

use dstress::search::Campaign;
use dstress::{CampaignJournal, DStress, ExperimentScale, MemStorage, Metric, WORST_WORD};
use dstress_ga::{
    run_campaigns, BitGenome, CampaignRun, Fitness, GaConfig, Genome, ParallelFitness,
    SearchResult, SearchSession, VirusDatabase, VirusRecord,
};
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
    config.population_size = 12;
    config.max_generations = 10;
    config.stagnation_window = 4;
    config
}

fn popcount_record(genome: &BitGenome, value: f64) -> VirusRecord {
    VirusRecord {
        campaign: "pop".into(),
        genes: genome.to_words(),
        gene_len: genome.len(),
        fitness: value,
        ce: value.max(0.0) as u64,
        ue: 0,
        sequence: 0,
    }
}

fn drive_popcount(
    journal: &mut CampaignJournal<MemStorage>,
    max_steps: Option<u32>,
    workers: usize,
) -> Option<SearchResult<BitGenome>> {
    let start = || {
        SearchSession::start(ga_config(), 7, |rng: &mut StdRng| {
            BitGenome::random(rng, 24)
        })
    };
    let run = CampaignRun::journaled(journal, "pop", start, popcount_record).expect("journal I/O");
    let session = run_campaigns(&mut Popcount, workers, vec![run], max_steps.map(u64::from))
        .expect("journal I/O")
        .pop()
        .expect("one session per run");
    session.done().then(|| session.finish())
}

/// Everything except wall-clock timing must match.
fn assert_results_identical<G: PartialEq + std::fmt::Debug>(
    a: &SearchResult<G>,
    b: &SearchResult<G>,
    ctx: &str,
) {
    assert_eq!(a.best, b.best, "{ctx}");
    assert_eq!(a.best_fitness, b.best_fitness, "{ctx}");
    assert_eq!(a.leaderboard, b.leaderboard, "{ctx}");
    assert_eq!(a.generations, b.generations, "{ctx}");
    assert_eq!(a.converged, b.converged, "{ctx}");
    assert_eq!(a.similarity, b.similarity, "{ctx}");
    assert_eq!(a.history, b.history, "{ctx}");
    assert_eq!(a.eval_stats.evaluations, b.eval_stats.evaluations, "{ctx}");
    assert_eq!(a.eval_stats.cache_hits, b.eval_stats.cache_hits, "{ctx}");
}

#[test]
fn ga_search_killed_at_every_generation_boundary_resumes_bit_identically() {
    let mut clean = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
    let reference = drive_popcount(&mut clean, None, 2).expect("clean run finishes");
    for boundary in 0u32.. {
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        let partial = drive_popcount(&mut journal, Some(boundary), 2);
        let interrupted = partial.is_none();
        // The kill: every unsynced byte is lost, then the process restarts
        // and recovers from the durable state alone.
        let mut storage = journal.into_storage();
        storage.crash();
        let mut journal = CampaignJournal::open(storage, "db.json").unwrap();
        // Resuming with a *different* worker count must not change anything
        // — not even the order records enter the journal.
        let resumed = drive_popcount(&mut journal, None, 3).expect("resumed run finishes");
        assert_results_identical(&resumed, &reference, &format!("boundary={boundary}"));
        assert_eq!(
            journal.db().records(),
            clean.db().records(),
            "boundary={boundary}: record streams must match exactly"
        );
        assert!(journal.checkpoint().is_none(), "boundary={boundary}");
        if !interrupted {
            break; // the budget outlived the search: every boundary covered
        }
    }
}

#[test]
fn word64_killed_at_every_generation_boundary_resumes_bit_identically() {
    // The acceptance criterion end-to-end: the real word64 campaign over
    // the simulated server, interrupted at each generation boundary via the
    // step budget, crashed, and resumed through `--resume`'s code path.
    let search = |journal: &mut CampaignJournal<MemStorage>, max_steps: Option<u32>| {
        let mut dstress = DStress::new(ExperimentScale::quick(), 42);
        let campaign = Campaign::word64(60.0, Metric::CeAverage, false);
        dstress
            .run(&campaign, vec![Some(journal)], max_steps.map(u64::from))
            .expect("journaled search")
            .pop()
            .flatten()
    };
    let mut clean = CampaignJournal::open(MemStorage::new(), "viruses.json").unwrap();
    let reference = search(&mut clean, None).expect("clean run finishes");
    for boundary in 0u32.. {
        let mut journal = CampaignJournal::open(MemStorage::new(), "viruses.json").unwrap();
        let interrupted = search(&mut journal, Some(boundary)).is_none();
        let mut storage = journal.into_storage();
        storage.crash();
        let mut journal = CampaignJournal::open(storage, "viruses.json").unwrap();
        if interrupted {
            assert!(
                journal.checkpoint().is_some(),
                "boundary={boundary}: the checkpoint must survive the crash"
            );
        }
        let resumed = search(&mut journal, None).expect("resumed run finishes");
        assert_eq!(resumed.name, reference.name);
        assert_results_identical(
            &resumed.result,
            &reference.result,
            &format!("boundary={boundary}"),
        );
        assert_eq!(resumed.failed_evaluations, 0);
        assert_eq!(
            journal.db().records(),
            clean.db().records(),
            "boundary={boundary}"
        );
        if !interrupted {
            break;
        }
    }
}

#[test]
fn fresh_journaled_search_matches_the_plain_search() {
    // With no checkpoint to resume, the journaled campaign must be
    // bit-identical to the non-journaled one: same seed derivation, same
    // RNG stream, same engine loop.
    let mut plain = DStress::new(ExperimentScale::quick(), 42);
    let reference = plain
        .search_word64(60.0, Metric::CeAverage, false)
        .expect("plain search");
    let mut journaled = DStress::new(ExperimentScale::quick(), 42);
    let mut journal = CampaignJournal::open(MemStorage::new(), "viruses.json").unwrap();
    let campaign = journaled
        .search_word64_journaled(&mut journal, 60.0, Metric::CeAverage, false)
        .expect("journaled search");
    assert_eq!(campaign.name, reference.name);
    assert_results_identical(&campaign.result, &reference.result, "fresh journaled");
    // The journal recorded every distinct evaluated chromosome — at least
    // the whole leaderboard — under the campaign's name.
    let recorded = journal.db().campaign(&campaign.name).count() as u64;
    assert_eq!(recorded, campaign.result.eval_stats.evaluations);
    let best = journal.db().best(&campaign.name).expect("recorded best");
    assert_eq!(best.fitness, campaign.result.best_fitness);
    assert_eq!(best.genes, campaign.result.best.to_words());
}

#[test]
fn pre_journal_databases_load_through_both_paths() {
    // A `viruses.json` written before the journal existed is a bare
    // database: both `VirusDatabase::load` and the journal must accept it.
    let mut legacy = VirusDatabase::new();
    legacy.record(VirusRecord {
        campaign: "word64-ce-max-60C".into(),
        genes: vec![0x3333_3333_3333_3333],
        gene_len: 64,
        fitness: 812.0,
        ce: 8120,
        ue: 0,
        sequence: 0,
    });
    let json = legacy.to_json().unwrap();

    let dir = std::env::temp_dir().join("dstress-journal-compat-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("viruses.json");
    std::fs::write(&path, &json).unwrap();
    assert_eq!(VirusDatabase::load(&path).unwrap(), legacy);
    let journal = CampaignJournal::open(dstress::DiskStorage::new(), &path).unwrap();
    assert_eq!(*journal.db(), legacy);
    assert!(journal.checkpoint().is_none());
    std::fs::remove_file(&path).ok();

    // And once the journal compacts, `VirusDatabase::load` still reads the
    // new snapshot format back (the CLI's non-journaled commands keep
    // working against a journaled file).
    let mut storage = MemStorage::new();
    storage.install("viruses.json", json.into_bytes());
    let mut journal = CampaignJournal::open(storage, "viruses.json").unwrap();
    journal.compact().unwrap();
    let snapshot = journal
        .into_storage()
        .contents(std::path::Path::new("viruses.json"))
        .unwrap()
        .to_vec();
    let reread = VirusDatabase::from_json(std::str::from_utf8(&snapshot).unwrap());
    assert!(
        reread.is_err(),
        "the snapshot wraps the db; the wrapper must be used"
    );
    let via_load_path = dir.join("snapshot.json");
    std::fs::write(&via_load_path, &snapshot).unwrap();
    assert_eq!(VirusDatabase::load(&via_load_path).unwrap(), legacy);
    std::fs::remove_file(&via_load_path).ok();
}

#[test]
fn integer_genome_campaign_resumes_from_its_journal_bit_identically() {
    // The Fig. 12 stride-access search (an `IntGenome` campaign) journaled
    // through the same driver as word64: interrupted by the step budget,
    // crashed and resumed, it must write the snapshot an uninterrupted
    // journaled run writes, and find what the unjournaled run finds.
    let victims = DStress::new(ExperimentScale::quick(), 42)
        .profile_victims(60.0, WORST_WORD)
        .expect("profiling finds victims");
    let campaign = Campaign::stride_access(60.0, victims, WORST_WORD);
    let search = |journal: Option<&mut CampaignJournal<MemStorage>>, step_budget| {
        DStress::new(ExperimentScale::quick(), 42)
            .run(&campaign, vec![journal], step_budget)
            .expect("stride-access search")
            .pop()
            .flatten()
    };
    let snapshot = |journal: CampaignJournal<MemStorage>| {
        journal
            .into_storage()
            .contents(std::path::Path::new("stride.json"))
            .expect("the finished search compacts into a snapshot")
            .to_vec()
    };
    let plain = search(None, None).expect("unjournaled run finishes");
    let mut clean = CampaignJournal::open(MemStorage::new(), "stride.json").unwrap();
    let reference = search(Some(&mut clean), None).expect("journaled run finishes");
    assert_results_identical(&reference.result, &plain.result, "journaled vs plain");

    let mut journal = CampaignJournal::open(MemStorage::new(), "stride.json").unwrap();
    assert!(
        search(Some(&mut journal), Some(3)).is_none(),
        "the step budget interrupts the search"
    );
    let mut storage = journal.into_storage();
    storage.crash();
    let mut journal = CampaignJournal::open(storage, "stride.json").unwrap();
    assert!(journal.checkpoint().is_some(), "the checkpoint survives");
    let resumed = search(Some(&mut journal), None).expect("resumed run finishes");
    assert_eq!(resumed.name, plain.name);
    assert_results_identical(&resumed.result, &plain.result, "resumed vs plain");
    assert_eq!(resumed.failed_evaluations, 0);
    assert_eq!(snapshot(journal), snapshot(clean));
}
