//! Fault injection over the campaign journal: fail every single storage
//! operation (append, fsync, snapshot write, rename, remove) of a full
//! journaled campaign, crash, recover, and resume — no schedule may lose an
//! acknowledged record or change the search outcome. Plus a property test
//! for torn journal tails: recovery keeps exactly the acked prefix.

use dstress_ga::{
    run_campaigns, BitGenome, CampaignJournal, CampaignRun, Fitness, GaConfig, Genome, MemStorage,
    ParallelFitness, SearchResult, SearchSession, VirusRecord,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use std::path::Path;

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

fn drive(
    journal: &mut CampaignJournal<MemStorage>,
) -> std::io::Result<Option<SearchResult<BitGenome>>> {
    let start = || {
        SearchSession::start(ga_config(), 11, |rng: &mut StdRng| {
            BitGenome::random(rng, 24)
        })
    };
    let run = CampaignRun::journaled(journal, "pop", start, popcount_record)?;
    let session = run_campaigns(&mut Popcount, 1, vec![run], None)?
        .pop()
        .expect("one session per run");
    Ok(session.done().then(|| session.finish()))
}

#[test]
fn no_single_fault_schedule_loses_an_acknowledged_record() {
    // Reference: a clean campaign, and the number of storage operations it
    // performs — the space of injection points.
    let mut clean = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
    let reference = drive(&mut clean).unwrap().expect("clean run finishes");
    let total_ops = clean.storage_mut().ops();
    assert!(total_ops > 20, "the campaign must exercise the journal");

    for fail_at in 0..total_ops {
        // Fresh campaign with exactly one failing operation.
        let mut storage = MemStorage::new();
        storage.fail_op(fail_at);
        let mut journal = CampaignJournal::open(storage, "db.json").unwrap();
        let outcome = drive(&mut journal);
        assert!(
            outcome.is_err(),
            "schedule {fail_at}: the injected fault must surface"
        );
        // Power loss after the failure: unsynced bytes vanish. Then the
        // process restarts, recovers, and resumes the campaign.
        let mut storage = journal.into_storage();
        storage.clear_faults();
        storage.crash();
        let mut journal = CampaignJournal::open(storage, "db.json")
            .unwrap_or_else(|e| panic!("schedule {fail_at}: recovery failed: {e}"));
        let resumed = drive(&mut journal)
            .unwrap_or_else(|e| panic!("schedule {fail_at}: resume failed: {e}"))
            .expect("resumed run finishes");
        // The search outcome and the full record stream — values *and*
        // sequence numbers — are those of the uninterrupted run.
        assert_eq!(resumed.best, reference.best, "schedule {fail_at}");
        assert_eq!(resumed.best_fitness, reference.best_fitness);
        assert_eq!(resumed.leaderboard, reference.leaderboard);
        assert_eq!(resumed.history, reference.history);
        assert_eq!(
            journal.db().records(),
            clean.db().records(),
            "schedule {fail_at}: acknowledged records must survive exactly once"
        );
        assert!(journal.checkpoint().is_none());
    }
}

fn test_record(i: u64) -> VirusRecord {
    VirusRecord {
        campaign: "torn".into(),
        genes: vec![i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)],
        gene_len: 128,
        fitness: i as f64 * 1.5,
        ce: i,
        ue: 0,
        sequence: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ack `n` records, then crash while a further append is in flight,
    /// leaving an arbitrary prefix of its bytes on the medium. Recovery
    /// must keep every acked record (the unsynced line may round up to one
    /// extra record only if it happened to land completely), and
    /// compaction + reopen must roundtrip the recovered state.
    #[test]
    fn torn_tail_recovery_keeps_every_acked_record(n in 1usize..12, cut in 0usize..256) {
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        for i in 0..n {
            journal.append_record(test_record(i as u64)).unwrap();
        }
        let acked = journal.db().clone();
        // The (n+1)-th append reaches the file but its fsync never runs.
        journal.storage_mut().fail_op(1);
        prop_assert!(journal.append_record(test_record(n as u64)).is_err());
        let mut storage = journal.into_storage();
        storage.clear_faults();
        storage.crash_with_tail(cut);

        let recovered = CampaignJournal::open(storage, "db.json").unwrap();
        let records = recovered.db().records().to_vec();
        prop_assert!(
            records.len() == n || records.len() == n + 1,
            "recovered {} of {n} acked records",
            records.len()
        );
        prop_assert_eq!(&records[..n], acked.records());

        // Recovery already compacted any torn tail; a second recovery from
        // a fresh crash sees the identical state.
        let mut storage = recovered.into_storage();
        storage.crash();
        let again = CampaignJournal::open(storage, "db.json").unwrap();
        prop_assert_eq!(again.db().records(), records.as_slice());
        // Appends keep working on the recovered journal.
        let mut journal = again;
        journal.append_record(test_record(99)).unwrap();
        let path = Path::new("db.json");
        prop_assert_eq!(journal.path(), path);
    }
}
