//! Differential coverage for the prepared run-plan window kernel.
//!
//! The `RunPlan` fast path (DESIGN.md "Run-plan window kernel") is an
//! algebraic factoring of the reference per-cell retention loop, not an
//! approximation: for any contents, operating environment, activation
//! profile, and VRT nonce, each lane's flip masks rebuilt from the kernel's
//! lane masks, merged with the plan's static events, must form a
//! *bit-identical* `WordEvent` stream. These tests pin the one production
//! kernel and the one fold on top of it against the one oracle, from two
//! layers:
//!
//! * property tests at the DIMM layer, randomising everything the plan
//!   partitions over (contents, temperature, voltage, refresh period,
//!   hammering profile, nonce) plus the lane count and a dead lane, against
//!   `Dimm::advance_window_profiled`;
//! * determinism tests at the server layer, checking that
//!   `evaluate_prepared_runs` over a shared [`PreparedRun`] equals both
//!   `evaluate_run` and the reference path for every nonce;
//! * property tests pinning the per-run outcomes of `evaluate_prepared_runs`
//!   against `evaluate_run_reference` run by run, and the summed
//!   `evaluate_runs_total` against the sum of those reference runs, on
//!   sampled populations and on hand-placed ones with multi-cell VRT words
//!   and static base masks.

use dstress_dram::geometry::RowKey;
use dstress_dram::weak::WeakWord;
use dstress_dram::{
    ActivationCounts, Dimm, DimmConfig, Location, OperatingEnv, RunPlan, WeakCell,
    WeakCellPopulation, WordEvent, MAX_LANES,
};
use dstress_ecc::CounterSnapshot;
use dstress_platform::session::MemoryBus;
use dstress_platform::{RecordedRun, RowErrors, RunOutcome, RunsTotal, ServerConfig, XGene2Server};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashSet};

/// A DIMM config with a weak-cell population small enough for hundreds of
/// property cases but still containing singles, pairs, and VRT cells.
fn small_dimm_config() -> DimmConfig {
    let mut config = DimmConfig::default();
    config.weak.singles_per_rank = 400;
    config.weak.pairs_per_rank = 16;
    config
}

/// One lane's full event stream: its VRT-word flip masks rebuilt from the
/// kernel's lane masks, merged with the static events in location order
/// (the order the reference loop emits in).
fn lane_stream(plan: &RunPlan, masks: &[u64], lane: usize) -> Vec<WordEvent> {
    let mut events: Vec<WordEvent> = plan
        .vrt_word_sites()
        .iter()
        .map(|word| WordEvent {
            loc: word.loc,
            written: word.written,
            flip_mask: plan.lane_flip_mask(word, masks, lane),
        })
        .filter(|e| e.flip_mask != 0)
        .chain(plan.static_events().iter().copied())
        .collect();
    events.sort_by_key(|e| e.loc);
    events
}

/// Evaluates one window of `plan` in a single lane and returns its full
/// event stream.
fn one_lane_window(dimm: &Dimm, plan: &RunPlan, nonce: u64) -> Vec<WordEvent> {
    let mut masks = vec![0; plan.vrt_cells()];
    dimm.advance_window_planned_lanes(plan, &[nonce], 1, &mut masks)
        .expect("fresh plan");
    lane_stream(plan, &masks, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every live lane's events, rebuilt from the kernel's lane masks and
    /// merged with the static events, match the reference loop at that
    /// lane's window nonce, for random contents, operating envs, activation
    /// profiles, nonces and lane counts (one lane, a full lane word, and in
    /// between); a dead lane's bit is set in no mask.
    #[test]
    fn planned_events_match_reference_loop(
        seed in any::<u64>(),
        temp_c in 45.0f64..70.0,
        vdd_v in 1.35f64..1.55,
        trefp_s in 0.3f64..2.3,
        writes in proptest::collection::vec(
            (0u8..2, 0u8..8, 0u32..64, 0u32..1024, any::<u64>()),
            0..40,
        ),
        activations in proptest::collection::vec(
            (0u8..2, 0u8..8, 0u32..64, 1u64..60_000),
            0..12,
        ),
        nonce in any::<u64>(),
        lanes in prop_oneof![Just(1usize), Just(MAX_LANES), 2usize..MAX_LANES],
        // A lane index at or past `lanes` leaves every lane live.
        dead in 0usize..=MAX_LANES,
    ) {
        let mut dimm = Dimm::new(small_dimm_config(), seed);
        for &(rank, bank, row, col, value) in &writes {
            dimm.write_word(Location::new(rank, bank, row, col), value);
        }
        let mut acts = ActivationCounts::new();
        for &(rank, bank, row, count) in &activations {
            acts.add(RowKey::new(rank, bank, row), count);
        }
        let env = OperatingEnv { temp_c, vdd_v, trefp_s };
        let disturbance = dimm.disturbance_profile(&acts);
        let plan = dimm.prepare_run(&env, &disturbance).expect("prepare");
        let live = (0..lanes).filter(|&l| l != dead).fold(0u64, |m, l| m | 1 << l);
        let mut masks = vec![0; plan.vrt_cells()];
        for window in 0..4u64 {
            let nonces: Vec<u64> = (0..lanes as u64)
                .map(|l| nonce.wrapping_add(l.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(window))
                .collect();
            dimm.advance_window_planned_lanes(&plan, &nonces, live, &mut masks)
                .expect("fresh plan");
            for (l, &lane_nonce) in nonces.iter().enumerate() {
                if live & 1 << l == 0 {
                    prop_assert!(masks.iter().all(|m| m >> l & 1 == 0), "dead lane {} flipped", l);
                    continue;
                }
                let reference = dimm.advance_window_profiled(&env, &disturbance, lane_nonce);
                prop_assert_eq!(&lane_stream(&plan, &masks, l), &reference);
            }
        }
    }

    /// Re-preparing after a contents change tracks the reference loop: the
    /// plan is a pure function of (contents, env, disturbance), so a fresh
    /// plan over mutated contents must agree with the reference again.
    #[test]
    fn replanning_after_writes_matches_reference(
        seed in any::<u64>(),
        first in any::<u64>(),
        second in any::<u64>(),
        col in 0u32..1024,
        nonce in any::<u64>(),
    ) {
        let mut dimm = Dimm::new(small_dimm_config(), seed);
        let env = OperatingEnv::relaxed(60.0);
        let no_acts = dimm.disturbance_profile(&ActivationCounts::new());
        dimm.write_word(Location::new(0, 0, 0, col), first);
        let plan = dimm.prepare_run(&env, &no_acts).expect("prepare");
        prop_assert_eq!(
            &one_lane_window(&dimm, &plan, nonce),
            &dimm.advance_window_profiled(&env, &no_acts, nonce)
        );
        // Mutate contents, rebuild, and the equivalence must hold again.
        dimm.write_word(Location::new(0, 0, 0, col), second);
        let replan = dimm.prepare_run(&env, &no_acts).expect("prepare");
        prop_assert_eq!(
            &one_lane_window(&dimm, &replan, nonce),
            &dimm.advance_window_profiled(&env, &no_acts, nonce)
        );
    }
}

/// The device seed of the plan-sequence pins.
const SEQUENCE_SEED: u64 = 5;

/// Writes every row of the DIMM for contents round `round`: each row gets
/// one of six patterns, rotated word by word, so charge states, bitline
/// neighbours and adjacent rows all vary, and a round rewrites every row.
fn fill_sequence_contents(dimm: &mut Dimm, round: u64) {
    const PATTERNS: [u64; 6] = [
        0x3333_3333_3333_3333,
        0xCCCC_CCCC_CCCC_CCCC,
        0,
        u64::MAX,
        0x5555_5555_5555_5555,
        0x0F0F_F0F0_00FF_FF00,
    ];
    let geo = dimm.geometry();
    let mut words = vec![0u64; geo.words_per_row()];
    for rank in 0..geo.ranks {
        for bank in 0..geo.banks {
            for row in 0..geo.rows_per_bank {
                let pick = (u64::from(rank) * 7 + u64::from(bank) * 3 + u64::from(row) + round) % 6;
                for (col, word) in words.iter_mut().enumerate() {
                    *word = PATTERNS[pick as usize].rotate_left((col as u32 + row) % 64);
                }
                dimm.write_row(RowKey::new(rank, bank, row), &words);
            }
        }
    }
}

/// A sequence of plan builds on one DIMM — operating points at 45, 60 and
/// 65 C and back to 60 C, two refresh periods, two supply voltages, no
/// activations, a saturating hammer, and hand-built disturbance slices at
/// and above the model's maximum factor, with contents rewritten along the
/// way — builds exactly the plan a fresh DIMM with the same contents
/// builds, and each plan's one-lane windows match the reference loop. A
/// clone taken mid-sequence plans identically, and moving the clone to
/// another operating point leaves the original's plans unchanged.
#[test]
fn plan_sequence_matches_fresh_dimms_and_the_reference_loop() {
    let config = small_dimm_config();
    let mut dimm = Dimm::new(config, SEQUENCE_SEED);
    let max = config.disturbance.max_factor;
    let words = dimm.population().words().len();
    let quiet = dimm.disturbance_profile(&ActivationCounts::new());
    let geo = dimm.geometry();
    let mut acts = ActivationCounts::new();
    for rank in 0..geo.ranks {
        for bank in 0..geo.banks {
            for row in (0..geo.rows_per_bank).step_by(2) {
                acts.add(RowKey::new(rank, bank, row), 60_000);
            }
        }
    }
    let hammer = dimm.disturbance_profile(&acts);
    let flat = vec![max; words];
    let peaks: Vec<f64> = (0..words)
        .map(|w| if w % 5 == 0 { 2.0 * max } else { max })
        .collect();
    let at = |temp_c: f64, vdd_v: f64, trefp_s: f64| OperatingEnv {
        temp_c,
        vdd_v,
        trefp_s,
    };
    // (contents round, operating point, disturbance slice); rounds run
    // 0, 1, 2, … in order. A smaller
    // refresh period, and a slice below the peaks, come right before a
    // larger one at the same temperature and voltage.
    let steps: Vec<(u64, OperatingEnv, &[f64])> = vec![
        (0, at(45.0, 1.428, 2.283), &quiet),
        (0, at(60.0, 1.428, 2.283), &quiet),
        (1, at(60.0, 1.428, 2.283), &hammer),
        (1, at(60.0, 1.428, 2.283), &flat),
        (1, at(60.0, 1.428, 2.283), &peaks),
        (2, at(60.0, 1.428, 1.2), &quiet),
        (2, at(60.0, 1.428, 2.283), &quiet),
        (2, at(60.0, 1.5, 2.283), &hammer),
        (3, at(60.0, 1.428, 2.283), &hammer),
        (3, at(65.0, 1.428, 2.283), &flat),
        (3, at(65.0, 1.428, 2.283), &peaks),
        (4, at(65.0, 1.5, 1.2), &hammer),
        (4, at(60.0, 1.428, 2.283), &quiet),
        (4, at(60.0, 1.428, 2.283), &peaks),
    ];
    let mut round = None;
    let mut replica: Option<Dimm> = None;
    let mut flipping_steps = 0;
    for (i, &(contents, env, disturbance)) in steps.iter().enumerate() {
        if round != Some(contents) {
            fill_sequence_contents(&mut dimm, contents);
            if let Some(replica) = replica.as_mut() {
                fill_sequence_contents(replica, contents);
            }
            round = Some(contents);
        }
        let plan = dimm.prepare_run(&env, disturbance).expect("prepare");
        // The fresh DIMM replays every round so far, so its contents
        // generation (which the plan records) matches too.
        let mut fresh = Dimm::new(config, SEQUENCE_SEED);
        for past in 0..=contents {
            fill_sequence_contents(&mut fresh, past);
        }
        assert_eq!(
            plan,
            fresh.prepare_run(&env, disturbance).expect("prepare"),
            "step {i}: plan differs from a fresh DIMM's"
        );
        for nonce in [0, 1, 2, 3, 977 * i as u64] {
            assert_eq!(
                one_lane_window(&dimm, &plan, nonce),
                dimm.advance_window_profiled(&env, disturbance, nonce),
                "step {i}, nonce {nonce}"
            );
        }
        if plan.static_words() + plan.vrt_words() > 0 {
            flipping_steps += 1;
        }
        if let Some(replica) = replica.as_mut() {
            assert_eq!(
                replica.prepare_run(&env, disturbance).expect("prepare"),
                plan,
                "step {i}: the clone plans differently"
            );
        }
        if i == 4 {
            // Clone mid-sequence, then move only the clone to another
            // operating point.
            let mut clone = dimm.clone();
            assert_eq!(clone.prepare_run(&env, disturbance).expect("prepare"), plan);
            let (_, other_env, other) = steps[0];
            clone.prepare_run(&other_env, other).expect("prepare");
            assert_eq!(
                dimm.prepare_run(&env, disturbance).expect("prepare"),
                plan,
                "the clone's operating point leaked into the original"
            );
            replica = Some(clone);
        }
    }
    assert!(
        flipping_steps >= steps.len() - 2,
        "only {flipping_steps} steps flip any cell"
    );
}

/// Configurations outside the monotone case the plan build's live-cell
/// screen relies on — a negative intra-row coupling, a negative pair
/// disturbance multiplier, and a hand-built disturbance slice with negative
/// entries (some below −1, which make a charged cell's retention negative)
/// — still plan exactly: each plan's one-lane windows match the reference
/// loop at 60 and 65 C. So does a negative VRT multiplier under a negative
/// refresh period with a discharged multiplier below one, where a degraded
/// charged cell's retention is negative and a larger divisor moves it up
/// past the refresh period.
#[test]
fn plans_outside_the_monotone_case_match_the_reference_loop() {
    let base = small_dimm_config();
    let mut negative_intra = base;
    negative_intra.physics.intra_row_coupling = -0.2;
    let mut negative_pair = base;
    negative_pair.physics.pair_disturbance_mult = -0.5;
    let mut negative_vrt = base;
    negative_vrt.physics.vrt_degraded_mult = -1.0;
    negative_vrt.physics.discharged_retention_mult = 0.5;
    let relaxed = [60.0, 65.0].map(OperatingEnv::relaxed);
    let negative_trefp = [80.0, 85.0].map(|t| OperatingEnv::relaxed(t).with_trefp(-0.5));
    for (name, config, negative_slice, envs) in [
        (
            "negative intra-row coupling",
            negative_intra,
            false,
            relaxed,
        ),
        ("negative pair multiplier", negative_pair, false, relaxed),
        ("negative disturbance entries", base, true, relaxed),
        (
            "negative VRT multiplier",
            negative_vrt,
            false,
            negative_trefp,
        ),
    ] {
        let mut dimm = Dimm::new(config, SEQUENCE_SEED);
        fill_sequence_contents(&mut dimm, 0);
        let words = dimm.population().words().len();
        let disturbance: Vec<f64> = if negative_slice {
            let max = config.disturbance.max_factor;
            let entries = [-3.0, -0.5, max, 0.0, -1.5];
            (0..words).map(|w| entries[w % entries.len()]).collect()
        } else {
            dimm.disturbance_profile(&ActivationCounts::new())
        };
        let mut flips = 0;
        for env in envs {
            let plan = dimm.prepare_run(&env, &disturbance).expect("prepare");
            flips += plan.static_words() + plan.vrt_words();
            for nonce in 0..6 {
                assert_eq!(
                    one_lane_window(&dimm, &plan, nonce),
                    dimm.advance_window_profiled(&env, &disturbance, nonce),
                    "{name} at {env:?}, nonce {nonce}"
                );
            }
        }
        assert!(flips > 0, "{name}: no cell flips");
    }
}

/// Builds a stressed server plus a recorded run that manifests errors:
/// relaxed refresh/voltage on the second domain, hot DIMMs, a worst-case
/// fill, and a few read passes for activation pressure.
fn stressed_server_and_run() -> (XGene2Server, RecordedRun) {
    let mut server = XGene2Server::new(ServerConfig::small());
    server.relax_second_domain();
    server.set_dimm_temperature(2, 60.0).unwrap();
    server.set_dimm_temperature(3, 60.0).unwrap();
    let mut session = server.session(2);
    let base = session.alloc(16 * 1024).expect("alloc");
    let values: Vec<u64> = (0..2048)
        .map(|i| {
            if i % 2 == 0 {
                0x3333_3333_3333_3333
            } else {
                0xCCCC_CCCC_CCCC_CCCC
            }
        })
        .collect();
    session.fill(base, &values).expect("fill");
    for _ in 0..3 {
        for w in 0..2048u64 {
            session.read_u64(base + w * 8).expect("read");
        }
    }
    let run = session.finish();
    (server, run)
}

/// `evaluate_prepared_runs` over one shared `PreparedRun` equals
/// `evaluate_run` (which re-prepares per call) *and* the reference
/// evaluator for every nonce, one run per call and all runs in one batch —
/// the plan carries no per-nonce state.
#[test]
fn evaluate_prepared_runs_equals_evaluate_run_for_all_nonces() {
    let (mut fast, run) = stressed_server_and_run();
    let mut per_call = fast.clone();
    let mut reference = fast.clone();
    let mut batch = fast.clone();
    let prepared = fast.prepare_run(&run).expect("prepare");
    let mut expected = Vec::new();
    for nonce in 0..32u64 {
        let outcome = fast
            .evaluate_prepared_runs(&prepared, 1, nonce)
            .expect("evaluate")
            .remove(0);
        assert_eq!(
            outcome,
            per_call.evaluate_run(&run, nonce).expect("evaluate"),
            "nonce {nonce}"
        );
        assert_eq!(
            outcome,
            reference.evaluate_run_reference(&run, nonce),
            "nonce {nonce}"
        );
        expected.push(outcome);
    }
    assert!(
        expected.iter().map(|o| o.totals.ce).sum::<u64>() > 0,
        "stress setup must manifest errors"
    );
    let prepared = batch.prepare_run(&run).expect("prepare");
    assert_eq!(
        batch
            .evaluate_prepared_runs(&prepared, 32, 0)
            .expect("evaluate"),
        expected
    );
    assert_eq!(fast.counters(), reference.counters());
    assert_eq!(batch.counters(), reference.counters());
}

/// `evaluate_prepared_runs` (plan built once, nonce incremented per repeat)
/// equals a loop of independent `evaluate_run` calls — plan reuse is
/// invisible to the paper's 10-run averaging workflow.
#[test]
fn evaluate_runs_equals_independent_evaluations() {
    let (mut batched, run) = stressed_server_and_run();
    let mut looped = batched.clone();
    let prepared = batched.prepare_run(&run).expect("prepare");
    let outcomes = batched
        .evaluate_prepared_runs(&prepared, 10, 7)
        .expect("runs");
    assert_eq!(outcomes.len(), 10);
    for (r, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome,
            &looped.evaluate_run(&run, 7 + r as u64).expect("run"),
            "run {r}"
        );
    }
}

/// A cloned server replays the same outcomes — evaluation is a pure
/// function of (server state, run, nonce), which is what lets parallel GA
/// workers each own a replica.
#[test]
fn cloned_server_replays_identical_outcomes() {
    let (mut original, run) = stressed_server_and_run();
    let mut replica = original.clone();
    for nonce in [0u64, 1, 99, u64::MAX] {
        assert_eq!(
            original.evaluate_run(&run, nonce).expect("evaluate"),
            replica.evaluate_run(&run, nonce).expect("evaluate")
        );
    }
}

/// Adds two cells beside the first cell of each word in `sites`, with the
/// same retention and VRT behaviour, so those words carry several
/// VRT-contingent cells — which the sampler never places — and windows
/// produce 1-, 2- and 3-bit VRT masks.
fn stack_cells(population: &WeakCellPopulation, sites: &HashSet<Location>) -> WeakCellPopulation {
    let mut next_index = population
        .words()
        .iter()
        .flat_map(|w| &w.cells)
        .map(|c| c.vrt_index + 1)
        .max()
        .unwrap_or(0);
    let words = population
        .words()
        .iter()
        .map(|word| {
            let mut word = word.clone();
            if sites.contains(&word.loc) {
                let cell = word.cells[0];
                for k in 1..=2 {
                    let bit = (cell.bit + 7 * k) % 64;
                    if word.cells.iter().all(|c| c.bit != bit) {
                        word.cells.push(WeakCell {
                            bit,
                            vrt_index: next_index,
                            ..cell
                        });
                        next_index += 1;
                    }
                }
            }
            word
        })
        .collect();
    WeakCellPopulation::from_words(words)
}

/// Fills the whole target DIMM (MCU 2) with `word` and records the run.
fn fill_target(server: &mut XGene2Server, word: u64) -> RecordedRun {
    server.reset_memory();
    let bytes = server.config().dimm.geometry.capacity_bytes();
    let mut session = server.session(2);
    let base = session.alloc(bytes).expect("alloc");
    session
        .fill(base, &vec![word; (bytes / 8) as usize])
        .expect("fill");
    session.finish()
}

/// A server on `config` whose target DIMM (MCU 2) is filled with `word` at
/// `temp_c` on the relaxed domain. SDC-prone triples
/// give static 3-bit masks; stacking cells on the first `stacked` words
/// with a VRT-contingent cell gives multi-bit VRT masks, and so
/// uncorrectable errors and silent corruption that change from window to
/// window. The stacked DIMM replaces the sampled one before the server
/// prepares any run, so no cached plan outlives it.
fn batch_fixture(
    config: ServerConfig,
    stacked: usize,
    temp_c: f64,
    word: u64,
) -> (XGene2Server, RecordedRun) {
    let mut server = XGene2Server::new(config);
    server.relax_second_domain();
    server.set_dimm_temperature(2, temp_c).unwrap();
    let run = fill_target(&mut server, word);
    if stacked == 0 {
        return (server, run);
    }
    let env = server.operating_env(2);
    let dimm = server.dimm_mut(2);
    let disturbance = dimm.disturbance_profile(&ActivationCounts::new());
    let plan = dimm.prepare_run(&env, &disturbance).expect("prepare");
    let sites: HashSet<Location> = plan
        .vrt_word_sites()
        .iter()
        .map(|word| word.loc)
        .take(stacked)
        .collect();
    let population = stack_cells(dimm.population(), &sites);
    *dimm = Dimm::with_population(config.dimm_config_for(2), config.dimm_seeds[2], population);
    let run = fill_target(&mut server, word);
    (server, run)
}

/// `ServerConfig::small` with a seeded population of the given size.
fn small_config(
    seed: u64,
    singles: usize,
    pairs: usize,
    triples: usize,
    windows_per_run: u32,
) -> ServerConfig {
    let mut config = ServerConfig::small();
    config.dimm.weak.singles_per_rank = singles;
    config.dimm.weak.pairs_per_rank = pairs;
    config.dimm.weak.triples_per_rank = triples;
    config.dimm_seeds = std::array::from_fn(|i| seed.wrapping_add(i as u64));
    config.windows_per_run = windows_per_run;
    config
}

/// Asserts the batched path agrees with `evaluate_run_reference`, run by
/// run, on every outcome field (row order included) and on the persistent
/// EDAC counters, and that each run's rows come in outcome order:
/// descending CE, then UE, row, MCU.
fn assert_batched_matches_reference(
    mut server: XGene2Server,
    run: &RecordedRun,
    runs: u32,
    base_nonce: u64,
) -> Vec<RunOutcome> {
    let mut oracle = server.clone();
    let prepared = server.prepare_run(run).expect("prepare");
    let batched = server
        .evaluate_prepared_runs(&prepared, runs, base_nonce)
        .expect("batched");
    let reference: Vec<RunOutcome> = (0..runs as u64)
        .map(|r| oracle.evaluate_run_reference(run, base_nonce.wrapping_add(r)))
        .collect();
    assert_eq!(batched, reference);
    assert_eq!(server.counters(), oracle.counters());
    let key = |r: &RowErrors| (Reverse(r.ce), Reverse(r.ue), r.row, r.mcu);
    for outcome in &batched {
        let rows = &outcome.row_errors;
        assert!(rows.windows(2).all(|w| key(&w[0]) < key(&w[1])));
    }
    batched
}

/// The fixture reaches every accounting case the property test relies on:
/// VRT words with several contingent cells, multi-bit VRT masks, silent
/// corruption and runs stopped on an uncorrectable error.
#[test]
fn batch_fixture_covers_multi_bit_vrt_words_sdc_and_ue_stops() {
    let config = small_config(7, 600, 20, 8, 6);
    let (mut server, run) = batch_fixture(config, 2, 60.0, 0x3333_3333_3333_3333);
    let env = server.operating_env(2);
    let dimm = server.dimm_mut(2);
    let disturbance = dimm.disturbance_profile(&ActivationCounts::new());
    let plan = dimm.prepare_run(&env, &disturbance).expect("prepare");
    assert!(
        plan.vrt_cells() > plan.vrt_words(),
        "some VRT word must carry several contingent cells"
    );
    let outcomes = assert_batched_matches_reference(server, &run, 20, 0);
    assert!(outcomes.iter().any(|o| o.totals.silent() > 0), "no SDC");
    // Uncorrectable errors come from the VRT draws alone, so runs stop at
    // different windows.
    let stops: HashSet<u32> = outcomes
        .iter()
        .filter(|o| o.stopped_on_ue)
        .map(|o| o.windows_completed)
        .collect();
    assert!(stops.len() > 1, "UE stops at windows {stops:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `evaluate_prepared_runs` equals `evaluate_run_reference` run by run (the
    /// sequential oracle) — outcomes, row order and persistent counters —
    /// across populations, the CE regime (below about 62 C) and the
    /// stop-on-UE regime, lane counts past one lane word and zero to six
    /// windows.
    #[test]
    fn batched_runs_match_sequential_oracle(
        seed in any::<u64>(),
        singles in 50usize..600,
        pairs in 0usize..24,
        triples in 0usize..8,
        stacked in 0usize..=3,
        windows_per_run in 0u32..=6,
        runs in 1u32..=MAX_LANES as u32 + 3,
        temp_c in prop_oneof![56.0f64..61.0, 66.0f64..72.0],
        word in prop_oneof![
            Just(0x3333_3333_3333_3333u64),
            Just(0xCCCC_CCCC_CCCC_CCCCu64),
            any::<u64>(),
        ],
        base_nonce in any::<u64>(),
    ) {
        let config = small_config(seed, singles, pairs, triples, windows_per_run);
        let (server, run) = batch_fixture(config, stacked, temp_c, word);
        assert_batched_matches_reference(server, &run, runs, base_nonce);
    }
}

/// The sum of per-run reference outcomes, computed here rather than by
/// `RunsTotal::sum`, so a fault there cannot hide a fault in the fold: the
/// totals and per-domain counts, the UE-stopped runs, the summed windows
/// and the per-row sums in (MCU, row) order.
fn summed_reference(outcomes: &[RunOutcome]) -> RunsTotal {
    let mut per_domain = outcomes[0].per_domain.clone();
    for domain in &mut per_domain {
        domain.counts = CounterSnapshot::default();
    }
    let mut rows: BTreeMap<(usize, RowKey), (u64, u64)> = BTreeMap::new();
    for outcome in outcomes {
        for (sum, domain) in per_domain.iter_mut().zip(&outcome.per_domain) {
            assert_eq!((sum.mcu, sum.rank), (domain.mcu, domain.rank));
            sum.counts = sum.counts + domain.counts;
        }
        for r in &outcome.row_errors {
            let entry = rows.entry((r.mcu, r.row)).or_default();
            *entry = (entry.0 + r.ce, entry.1 + r.ue);
        }
    }
    let row_errors: Vec<RowErrors> = rows
        .into_iter()
        .map(|((mcu, row), (ce, ue))| RowErrors { mcu, row, ce, ue })
        .collect();
    RunsTotal {
        runs: outcomes.len() as u32,
        totals: outcomes
            .iter()
            .fold(CounterSnapshot::default(), |acc, o| acc + o.totals),
        per_domain,
        ue_runs: outcomes.iter().filter(|o| o.stopped_on_ue).count() as u32,
        windows: outcomes
            .iter()
            .map(|o| u64::from(o.windows_completed))
            .sum(),
        row_errors,
    }
}

/// Asserts `evaluate_runs_total` equals the sum of `evaluate_run_reference`
/// over the same nonces, field by field, and leaves the same persistent
/// EDAC counters; returns the per-run reference outcomes.
fn assert_total_matches_reference(
    mut server: XGene2Server,
    run: &RecordedRun,
    runs: u32,
    base_nonce: u64,
) -> Vec<RunOutcome> {
    let mut oracle = server.clone();
    let total = server
        .evaluate_runs_total(run.clone(), runs, base_nonce)
        .expect("total");
    let reference: Vec<RunOutcome> = (0..runs as u64)
        .map(|r| oracle.evaluate_run_reference(run, base_nonce.wrapping_add(r)))
        .collect();
    let expected = summed_reference(&reference);
    assert_eq!(total.totals, expected.totals, "totals");
    assert_eq!(total.per_domain, expected.per_domain, "per-domain counts");
    assert_eq!(
        (total.ue_runs, total.windows),
        (expected.ue_runs, expected.windows),
        "UE runs and summed windows"
    );
    assert_eq!(total.row_errors, expected.row_errors, "per-row sums");
    assert_eq!(total, expected);
    assert_eq!(RunsTotal::sum(&reference), expected, "RunsTotal::sum");
    assert_eq!(
        server.counters(),
        oracle.counters(),
        "persistent EDAC counters"
    );
    reference
}

/// A hand-placed weak-cell population of `words` words at distinct
/// locations, in four classes by index: one VRT cell whose retention spans
/// five decades across the words (statically failing, contingent or safe);
/// one VRT cell beside a statically failing cell on bit 0 (a base mask, so
/// a contingent flip is an uncorrectable error); three VRT cells; three VRT
/// cells beside a base mask. The last three classes start three decades
/// higher, so a 2-bit static error (a UE in every window) is rare and runs
/// stop at different windows.
fn hand_placed_population(words: u32, col_seed: u32) -> WeakCellPopulation {
    let words = (0..words)
        .map(|i| {
            let loc = Location::new(
                (i / 4 % 2) as u8,
                (i / 8 % 8) as u8,
                i / 64 % 64,
                i % 4 * 256 + col_seed % 256,
            );
            let (vrt_cells, base, lowest, highest) = match i % 4 {
                1 => (1, true, 1.3, 2.3),
                2 => (3, false, 1.3, 2.3),
                3 => (3, true, 1.3, 2.3),
                _ => (1, false, -2.0, 3.0),
            };
            let decade = lowest + (highest - lowest) * f64::from(i) / f64::from(words);
            let base = base.then_some(WeakCell {
                bit: 0,
                base_retention_s: 1e-3,
                is_vrt: false,
                vrt_index: 0,
            });
            let cells = base
                .into_iter()
                .chain((0..vrt_cells).map(|k| WeakCell {
                    bit: 1 + 10 * k as u8,
                    base_retention_s: 10f64.powf(decade) * (1.0 + 0.05 * f64::from(k)),
                    is_vrt: true,
                    vrt_index: 3 * i + k,
                }))
                .collect();
            WeakWord { loc, cells }
        })
        .collect();
    WeakCellPopulation::from_words(words)
}

/// A server whose target DIMM (MCU 2) carries [`hand_placed_population`],
/// filled with `word` at `temp_c` on the relaxed domain.
fn hand_placed_fixture(
    words: u32,
    col_seed: u32,
    temp_c: f64,
    word: u64,
) -> (XGene2Server, RecordedRun) {
    let config = ServerConfig::small();
    let mut server = XGene2Server::new(config);
    server.relax_second_domain();
    server.set_dimm_temperature(2, temp_c).unwrap();
    *server.dimm_mut(2) = Dimm::with_population(
        config.dimm_config_for(2),
        config.dimm_seeds[2],
        hand_placed_population(words, col_seed),
    );
    let run = fill_target(&mut server, word);
    (server, run)
}

/// The hand-placed fixture reaches what its property test relies on: VRT
/// words with one and with several contingent cells, with and without a
/// base mask, and runs that stop on an uncorrectable error at different
/// windows.
#[test]
fn hand_placed_fixture_covers_multi_cell_words_base_masks_and_ue_stops() {
    let (mut server, run) = hand_placed_fixture(32, 5, 64.0, !0);
    let env = server.operating_env(2);
    let dimm = server.dimm_mut(2);
    let disturbance = dimm.disturbance_profile(&ActivationCounts::new());
    let plan = dimm.prepare_run(&env, &disturbance).expect("prepare");
    let sites = plan.vrt_word_sites();
    let kinds = |multi: bool, base: bool| {
        sites
            .iter()
            .filter(|w| (w.cells().len() > 1) == multi && (w.base_mask != 0) == base)
            .count()
    };
    for (multi, base) in [(false, false), (false, true), (true, false), (true, true)] {
        assert!(
            kinds(multi, base) > 0,
            "no VRT word with multi={multi}, base={base}"
        );
    }
    let outcomes = assert_total_matches_reference(server, &run, MAX_LANES as u32 + 3, 0);
    let stops: HashSet<u32> = outcomes
        .iter()
        .filter(|o| o.stopped_on_ue)
        .map(|o| o.windows_completed)
        .collect();
    assert!(stops.len() > 1, "UE stops at windows {stops:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `evaluate_runs_total` equals the sum of `evaluate_run_reference`
    /// over the same nonces — totals, per-domain counts, UE runs, summed
    /// windows, per-row sums in outcome order and persistent counters —
    /// across sampled populations (with stacked multi-cell VRT words), the
    /// CE regime (below about 62 C) and the stop-on-UE regime, 1 to 67
    /// runs (past one lane word) and zero to six windows.
    #[test]
    fn summed_total_matches_reference_sum(
        seed in any::<u64>(),
        singles in 50usize..600,
        pairs in 0usize..24,
        triples in 0usize..8,
        stacked in 0usize..=3,
        windows_per_run in 0u32..=6,
        runs in 1u32..=MAX_LANES as u32 + 3,
        temp_c in prop_oneof![56.0f64..61.0, 66.0f64..72.0],
        word in prop_oneof![
            Just(0x3333_3333_3333_3333u64),
            Just(0xCCCC_CCCC_CCCC_CCCCu64),
            any::<u64>(),
        ],
        base_nonce in any::<u64>(),
    ) {
        let config = small_config(seed, singles, pairs, triples, windows_per_run);
        let (server, run) = batch_fixture(config, stacked, temp_c, word);
        assert_total_matches_reference(server, &run, runs, base_nonce);
    }

    /// The same sum on hand-placed populations whose VRT words carry
    /// several contingent cells and static base masks.
    #[test]
    fn hand_placed_total_matches_reference_sum(
        words in 16u32..200,
        col_seed in 0u32..1024,
        runs in 1u32..=MAX_LANES as u32 + 3,
        temp_c in prop_oneof![45.0f64..60.0, 60.0f64..72.0],
        word in prop_oneof![Just(0u64), Just(!0u64), any::<u64>()],
        base_nonce in any::<u64>(),
    ) {
        let (server, run) = hand_placed_fixture(words, col_seed, temp_c, word);
        assert_total_matches_reference(server, &run, runs, base_nonce);
    }
}
