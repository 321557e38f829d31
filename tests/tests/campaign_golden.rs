//! Golden pin for every figure campaign: at quick scale with a fixed seed,
//! each of the paper's search campaigns (Fig. 8 word64 ce-max / ce-min /
//! ue, Fig. 9 row triple, Fig. 10 chunks, Fig. 11 row access, Fig. 12
//! stride access) must reproduce the same outcome and the same database
//! records, bit for bit. Any refactor of the campaign drivers that changes
//! which candidates are drawn, evaluated or recorded shows up here.
//!
//! Results are bit-identical for any evaluation worker count, so the same
//! pins hold whatever `DSTRESS_WORKERS` selects (default 1).

use dstress::{DStress, ExperimentScale, Metric, WORST_WORD};
use dstress_dram::geometry::RowKey;
use dstress_ga::{SearchResult, VirusDatabase};

const SEED: u64 = 5;
const TEMP_C: f64 = 60.0;

/// The evaluation worker count; CI pins 1 and 4 via `DSTRESS_WORKERS`.
fn workers() -> usize {
    std::env::var("DSTRESS_WORKERS")
        .ok()
        .and_then(|w| w.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn words(&mut self, words: &[u64]) {
        self.u64(words.len() as u64);
        for &w in words {
            self.u64(w);
        }
    }
}

fn fnv_words(words: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.words(words);
    h.0
}

/// Every database record: campaign, genes, gene length, fitness bits, CE
/// and UE counts, in record order.
fn db_digest(db: &VirusDatabase) -> (usize, u64) {
    let mut h = Fnv::new();
    for r in db.records() {
        h.bytes(r.campaign.as_bytes());
        h.words(&r.genes);
        h.u64(r.gene_len as u64);
        h.u64(r.fitness.to_bits());
        h.u64(r.ce);
        h.u64(r.ue);
    }
    (db.records().len(), h.0)
}

/// One campaign's pinned fingerprint.
fn fingerprint<G>(
    name: &str,
    best_genes: &[u64],
    result: &SearchResult<G>,
    failed: u64,
    db: &VirusDatabase,
) -> String {
    let (records, records_fnv) = db_digest(db);
    format!(
        "{name} best={:016x} fitness={:016x} gens={} evals={} compile_hits={} failed={} \
         records={records} records_fnv={records_fnv:016x}",
        fnv_words(best_genes),
        result.best_fitness.to_bits(),
        result.generations,
        result.eval_stats.evaluations,
        result.eval_stats.compile_hits,
        failed,
    )
}

fn framework() -> DStress {
    let mut dstress = DStress::new(ExperimentScale::quick(), SEED);
    dstress.set_workers(workers());
    dstress
}

fn victims() -> Vec<RowKey> {
    framework()
        .profile_victims(TEMP_C, WORST_WORD)
        .expect("profiling finds victims")
}

fn word64(metric: Metric, minimize: bool) -> String {
    let mut dstress = framework();
    let c = dstress
        .search_word64(TEMP_C, metric, minimize)
        .expect("word64 campaign");
    fingerprint(
        &c.name,
        &c.result.best.to_words(),
        &c.result,
        c.failed_evaluations,
        &dstress.db,
    )
}

fn assert_pinned(actual: &str, expected: &str) {
    assert_eq!(actual, expected, "campaign fingerprint drifted");
}

#[test]
fn word64_ce_max_is_pinned() {
    assert_pinned(
        &word64(Metric::CeAverage, false),
        "word64-ce-max-60C best=e2c940127e5d85dd fitness=408542aaaaaaaaab gens=12 evals=92 \
         compile_hits=0 failed=0 records=12 records_fnv=1036c0f378918270",
    );
}

#[test]
fn word64_ce_min_is_pinned() {
    assert_pinned(
        &word64(Metric::CeAverage, true),
        "word64-ce-min-60C best=e0ccab74fb127b68 fitness=4071daaaaaaaaaab gens=12 evals=79 \
         compile_hits=0 failed=0 records=12 records_fnv=ee51b1f4d35700a6",
    );
}

#[test]
fn word64_ue_is_pinned() {
    assert_pinned(
        &word64(Metric::UeRuns, false),
        "word64-ue-60C best=7e6dce16cef39c69 fitness=0000000000000000 gens=12 evals=103 \
         compile_hits=0 failed=0 records=12 records_fnv=61b1c9b490b3a7e2",
    );
}

#[test]
fn row_triple_is_pinned() {
    let mut dstress = framework();
    let c = dstress
        .search_row_triple(TEMP_C, victims())
        .expect("row-triple campaign");
    assert_pinned(
        &fingerprint(
            &c.name,
            &c.result.best.to_words(),
            &c.result,
            c.failed_evaluations,
            &dstress.db,
        ),
        "row-triple-ce-60C best=18e15a6530cccade fitness=4038000000000000 gens=12 evals=112 \
         compile_hits=0 failed=0 records=12 records_fnv=859c21a91ff6dbd7",
    );
}

#[test]
fn chunks_is_pinned() {
    let mut dstress = framework();
    let c = dstress
        .search_chunks(TEMP_C, victims())
        .expect("chunks campaign");
    assert_pinned(
        &fingerprint(
            &c.name,
            &c.result.best.to_words(),
            &c.result,
            c.failed_evaluations,
            &dstress.db,
        ),
        "chunks-ce-60C best=44d7a993832e2e81 fitness=4038000000000000 gens=12 evals=111 \
         compile_hits=0 failed=0 records=12 records_fnv=0b1f0f2cde39c77c",
    );
}

#[test]
fn row_access_is_pinned() {
    let mut dstress = framework();
    let c = dstress
        .search_row_access(TEMP_C, victims(), WORST_WORD)
        .expect("row-access campaign");
    assert_pinned(
        &fingerprint(
            &c.name,
            &c.result.best.to_words(),
            &c.result,
            c.failed_evaluations,
            &dstress.db,
        ),
        "row-access-ce-60C best=90fb5394b22ceeee fitness=403a555555555555 gens=12 evals=92 \
         compile_hits=0 failed=0 records=12 records_fnv=c2ecdb5e19ab5a70",
    );
}

#[test]
fn stride_access_is_pinned() {
    let mut dstress = framework();
    let c = dstress
        .search_stride_access(TEMP_C, victims(), WORST_WORD)
        .expect("stride-access campaign");
    assert_pinned(
        &fingerprint(
            &c.name,
            c.result.best.values(),
            &c.result,
            c.failed_evaluations,
            &dstress.db,
        ),
        "stride-access-ce-60C best=6396d768dc990478 fitness=4038000000000000 gens=12 evals=108 \
         compile_hits=0 failed=0 records=12 records_fnv=530e917dea233001",
    );
}
