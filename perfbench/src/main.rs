//! The DStress campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <word64|stride|chunks|daemon> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload at the inputs its seed selects, checks the results
//! against the recorded digests, prints every metric as
//! `<workload>/<metric> = <value> <unit>` with diagnostics, and ends with
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--scale quick` runs the miniature scale the
//! smoke tests use; `--record` prints the digest-table entries of the run
//! instead of checking them. See `perfbench/README.md` for the metrics.

mod campaign;
mod daemon;
mod digests;
mod sys;
mod trace;

use campaign::{Digest, Kind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

/// word64's winner must tile `1100` in at least this share of its bits, in
/// the best of the four phases (the Fig. 8a check of `experiments::fig08`).
const MIN_1100_MATCH: f64 = 0.95;

/// Bounds outside which `core.stage_coverage` is flagged.
const COVERAGE: (f64, f64) = (0.95, 1.05);

/// Daemon tenants per second of `--seconds`: a fixed count per run, so
/// the daemon's memory (every tenant's journal stays in the in-memory
/// storage) does not depend on how fast the run went.
const TENANTS_PER_SECOND: f64 = 20.0;

/// Identical closed loops a daemon run makes, each on a fresh daemon with
/// the same tenant sequence: tenant latencies are filtered slot by slot
/// across them, like the campaign workloads' scoring rounds.
const LOOPS: usize = 2;

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    paper: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        paper: true,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                args.paper = match value()?.as_str() {
                    "paper" => true,
                    "quick" => false,
                    other => return Err(format!("--scale takes paper or quick, not {other}")),
                }
            }
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match args.workload.as_str() {
        "word64" | "stride" | "chunks" | "daemon" => Ok(args),
        "" => Err("--workload is required".into()),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Everything one run prints.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Counts one checked operation, failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failures.push(what.into());
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let index = args.seed % digests::SEEDS;
    let commit = sys::commit();
    let nproc = sys::nproc();
    println!(
        "perfbench workload={} seed={} inputs={index} scale={} trace={} seconds={} nproc={nproc} commit={commit}",
        args.workload,
        args.seed,
        if args.paper { "paper" } else { "quick" },
        u8::from(args.trace),
        args.seconds,
    );
    let wait_before = sys::run_queue_wait();
    let gauge_before = sys::memory_gauge_ns();
    let mut report = Report::default();
    match args.workload.as_str() {
        "word64" => campaign_workload(Kind::Word64, &args, index, &mut report),
        "stride" => campaign_workload(Kind::Stride, &args, index, &mut report),
        "chunks" => campaign_workload(Kind::Chunks, &args, index, &mut report),
        _ => daemon_workload(&args, index, &mut report),
    }
    if report.attempted == 0 {
        report.fail("nothing was attempted");
    }
    for (name, value, unit) in &report.metrics {
        println!("{}/{name} = {value} {unit}", args.workload);
        if !value.is_finite() {
            report
                .failures
                .push(format!("{name} is not a finite number"));
        }
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    let failed = report.failures.len() as u64;
    println!(
        "{}/error_rate = {} ({failed} of {} operations failed)",
        args.workload,
        failed as f64 / report.attempted as f64,
        report.attempted
    );
    println!(
        "diagnostics: run_queue_wait_s={} memory_gauge_ns=[{gauge_before} {}] loadavg=[{}] nproc={nproc} commit={commit}",
        secs(sys::run_queue_wait().saturating_sub(wait_before)),
        sys::memory_gauge_ns(),
        sys::load_average(),
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.attempted,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Phase-insensitive share of bits matching the `1100` tiling.
fn match_1100(word: u64) -> f64 {
    (0..4)
        .map(|shift| {
            let canon = dstress::WORST_WORD.rotate_left(shift);
            f64::from(64 - (word ^ canon).count_ones()) / 64.0
        })
        .fold(0.0, f64::max)
}

/// Cold set-ups one campaign workload times, spread evenly over its
/// repetitions (at least this many: every repetition gets the same share).
const CAMPAIGN_SETUPS: usize = 40;

/// Cold daemon set-ups in each batch: one batch at the start and one after
/// each pass of solo runs.
const DAEMON_SETUPS_EACH: usize = 16;

/// Passes of solo reference runs over the daemon's tenant specs before,
/// between and after the closed loops.
const SOLO_PASSES_EACH: usize = 5;

fn campaign_workload(kind: Kind, args: &Args, index: u64, report: &mut Report) {
    let scale = kind.scale(args.paper);
    let seed = 1 + index;
    let expected = digests::campaign(kind.name(), args.paper, index);
    if expected.is_none() && !args.record {
        report.fail(format!(
            "no recorded digest for {} inputs {index}",
            kind.name()
        ));
    }
    // The same campaign runs a fixed number of times (once when traced),
    // so how fast the program is never changes the filter below. A batch
    // of cold set-ups runs before each campaign, the same number each
    // time; setup_s is filtered like the scoring rounds, set-up slot by
    // slot. Each set-up also profiles the victims the next campaign runs
    // on.
    let repetitions = if args.trace {
        1
    } else {
        kind.repetitions(args.seconds)
    };
    let setups_each = if args.paper && !args.trace {
        CAMPAIGN_SETUPS.div_ceil(repetitions)
    } else {
        1
    };
    let mut setup_batches: Vec<Vec<f64>> = Vec::new();
    let mut victims = Vec::new();
    let mut outcomes: Vec<campaign::Outcome> = Vec::new();
    let mut cpus = Vec::new();
    for _ in 0..repetitions {
        let mut batch = Vec::new();
        for _ in 0..setups_each {
            match campaign::cold_setup(kind, scale, seed) {
                Ok((took, v)) => {
                    batch.push(secs(took));
                    victims = v;
                }
                Err(e) => return report.fail(format!("set-up: {e}")),
            }
        }
        setup_batches.push(batch);
        let cpu_start = sys::cpu_seconds();
        match campaign::run(kind, scale, seed, &victims) {
            Ok(outcome) => {
                cpus.push(sys::cpu_seconds() - cpu_start);
                outcomes.push(outcome);
            }
            Err(e) => return report.fail(format!("campaign: {e}")),
        }
    }
    let Some(first) = outcomes.first() else {
        return;
    };
    for (i, o) in outcomes.iter().enumerate() {
        let repeat_ok = o.digest == first.digest;
        let table_ok = expected.is_none_or(|e| e.digest == o.digest);
        report.check(repeat_ok && table_ok && o.failed_evaluations == 0, || {
            format!(
                "campaign {i}: {:?} (first {:?}, recorded {:?}), {} failed evaluations",
                o.digest,
                first.digest,
                expected.map(|e| e.digest),
                o.failed_evaluations
            )
        });
        if kind == Kind::Word64 && args.paper {
            let share = match_1100(o.best_word);
            report.check(share >= MIN_1100_MATCH, || {
                format!(
                    "winner {:#018x} tiles 1100 in only {share} of its bits",
                    o.best_word
                )
            });
        }
    }
    if kind == Kind::Word64 {
        report.note(format!(
            "winner {:#018x}, 1100 match {}",
            first.best_word,
            match_1100(first.best_word)
        ));
    }
    if !args.trace {
        let (rounds, rest) = fastest(&outcomes);
        let campaign_s = rounds.iter().sum::<f64>() + rest;
        let walls: Vec<f64> = outcomes.iter().map(|o| secs(o.wall)).collect();
        let fastest_setups = sys::fastest_per_slot(&setup_batches);
        report.metric("setup_s", sys::median(&fastest_setups), "s");
        report.metric("campaign_s", campaign_s, "s");
        report.metric(
            "cpu_s",
            cpus.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        );
        report.metric(
            "evals_per_s",
            first.digest.evaluations as f64 / campaign_s,
            "1/s",
        );
        report.metric("complete_s", sys::median(&rounds), "s");
        let (pct, tail) = sys::tail(&rounds, TAIL_BEYOND)
            .unwrap_or((100.0, rounds.iter().copied().fold(f64::NAN, f64::max)));
        report.metric("complete_tail_s", tail, "s");
        report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
        report.note(format!(
            "{} batches of {} cold set-ups; {} identical campaigns of {} generations / {} evaluations, walls {walls:?}, \
             on-CPU {cpus:?}; complete_* are the fastest scoring rounds: median and p{pct:.1} of {} rounds",
            setup_batches.len(),
            setups_each,
            outcomes.len(),
            first.digest.generations,
            first.digest.evaluations,
            rounds.len()
        ));
        if args.record {
            report.note("--record needs --trace 1 (the digest includes trace_ops)");
        }
        return;
    }
    let traced = match campaign::traced(kind, scale, seed, &victims) {
        Ok(t) => t,
        Err(e) => return report.fail(format!("traced campaign: {e}")),
    };
    check_traced(
        report,
        &first.digest,
        &traced,
        expected.map(|e| e.trace_ops),
    );
    if args.record {
        report.note(format!(
            "record: Campaign {{ workload: \"{}\", paper: {}, index: {index}, digest: d({:#x}, {:#x}, {}, {}, {}), trace_ops: {} }},",
            kind.name(),
            args.paper,
            first.digest.best,
            first.digest.fitness,
            first.digest.generations,
            first.digest.evaluations,
            first.digest.compile_hits,
            traced.stages.trace_ops
        ));
    }
    layer_metrics(report, &traced, &outcomes[..1]);
    report.metric(
        "pool.worker_idle_ms",
        first.max_worker_idle_ns as f64 / 1e6,
        "ms",
    );
    // Campaign workloads neither journal nor talk to the daemon.
    for (name, unit) in [
        ("journal.append_us", "us"),
        ("journal.sync_us", "us"),
        ("journal.bytes", "bytes"),
        ("journal.syncs", "count"),
        ("service.submit_ms", "ms"),
        ("service.status_ms", "ms"),
        ("service.events", "count"),
        ("service.lagged", "count"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

/// The fastest of identical campaigns, generation by generation: each
/// scoring round's shortest wall-clock across the repetitions, and the
/// shortest remainder (evaluator build and the GA's own work). Host
/// interference only ever slows a round down, so this filters it out.
/// A repetition with another round count has already failed the digest
/// check; its rounds are compared slot by slot all the same.
fn fastest(outcomes: &[campaign::Outcome]) -> (Vec<f64>, f64) {
    let rounds: Vec<Vec<f64>> = outcomes.iter().map(|o| o.rounds.clone()).collect();
    let rest = outcomes
        .iter()
        .map(|o| secs(o.wall) - o.rounds.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    (sys::fastest_per_slot(&rounds), rest)
}

/// The traced campaign must reproduce the untraced one exactly, and its
/// stage substrate must have scored every candidate as the program did.
fn check_traced(
    report: &mut Report,
    untraced: &Digest,
    traced: &campaign::Traced,
    trace_ops: Option<u64>,
) {
    let s = &traced.stages;
    report.check(traced.digest == *untraced, || {
        format!(
            "traced campaign {:?} differs from {untraced:?}",
            traced.digest
        )
    });
    report.check(
        traced.mismatches == 0
            && s.failed == 0
            && s.evals == untraced.evaluations
            && traced.evals == untraced.evaluations
            && traced.staged_compile_hits == untraced.compile_hits,
        || {
            format!(
                "stage substrate: {} mismatched scores, {} failed, {}/{} evaluations and {} compile hits for {untraced:?}",
                traced.mismatches, s.failed, s.evals, traced.evals, traced.staged_compile_hits
            )
        },
    );
    if let Some(recorded) = trace_ops {
        report.check(s.trace_ops == recorded, || {
            format!(
                "trace ops {} differ from the recorded {recorded}",
                s.trace_ops
            )
        });
    }
}

/// The `vpl`, `platform`, `core`, `ga` and `trace` metrics: `traced` sums
/// the traced campaigns, `untraced` holds the same campaigns run untraced.
fn layer_metrics(report: &mut Report, traced: &campaign::Traced, untraced: &[campaign::Outcome]) {
    let s = &traced.stages;
    let evals = s.evals.max(1) as f64;
    let per_eval = |d: Duration| d.as_secs_f64() * 1e6 / evals;
    let n = untraced.len() as f64;
    let sum = |f: &dyn Fn(&campaign::Outcome) -> f64| untraced.iter().map(f).sum::<f64>();
    let eval_us = traced.eval_busy.as_secs_f64() * 1e6 / traced.evals.max(1) as f64;
    let coverage = per_eval(s.total()) / eval_us;
    report.metric("vpl.vm_us", per_eval(s.vm), "us");
    report.metric("vpl.bind_us", per_eval(s.bind), "us");
    report.metric("vpl.compile_us", per_eval(s.compile), "us");
    report.metric(
        "vpl.compile_hits",
        sum(&|c| c.digest.compile_hits as f64) / n,
        "count",
    );
    report.metric("platform.trace_ops", s.trace_ops as f64 / evals, "count");
    report.metric("platform.prepare_us", per_eval(s.prepare), "us");
    report.metric("platform.kernel_us", per_eval(s.kernel), "us");
    report.metric("core.eval_us", eval_us, "us");
    report.metric("core.stage_coverage", coverage, "ratio");
    report.metric(
        "ga.self_ms_per_gen",
        traced.ga_self.as_secs_f64() * 1e3 / f64::from(traced.generations.max(1)),
        "ms",
    );
    report.metric(
        "ga.evals",
        sum(&|c| c.digest.evaluations as f64) / n,
        "count",
    );
    report.metric(
        "ga.generations",
        sum(&|c| f64::from(c.digest.generations)) / n,
        "count",
    );
    let served = sum(&|c| c.cache_hits as f64);
    let evaluated = sum(&|c| c.digest.evaluations as f64);
    report.metric(
        "ga.cache_served_ratio",
        served / (served + evaluated),
        "ratio",
    );
    report.metric(
        "trace.overhead",
        secs(traced.staged_wall) / sum(&|c| secs(c.wall)),
        "ratio",
    );
    if !(COVERAGE.0..=COVERAGE.1).contains(&coverage) {
        report.note(format!(
            "FLAG core.stage_coverage {coverage} is outside [{}, {}]",
            COVERAGE.0, COVERAGE.1
        ));
    }
}

fn daemon_workload(args: &Args, index: u64, report: &mut Report) {
    let nproc = sys::nproc();
    let workers = nproc.min(2);
    let slots = nproc;
    // Every input set runs the same tenant specs; its seed sets the order
    // they are submitted in, and so which specs run side by side. Each spec
    // fills an eighth of the tenant slots, more than the ten beyond the
    // tail percentile, so complete_tail_s is the latency of the costliest
    // spec: a different spec set per seed would move it with the inputs.
    let mut seeds: Vec<u64> = (1..=digests::TENANT_SPECS).collect();
    let mut rng = StdRng::seed_from_u64(index);
    for i in (1..seeds.len()).rev() {
        seeds.swap(i, rng.gen_range(0..=i));
    }
    // Batches of cold set-ups spread over the run, filtered slot by slot
    // like the campaign workloads' set-ups.
    let setups = if args.trace {
        0
    } else if args.paper {
        DAEMON_SETUPS_EACH
    } else {
        1
    };
    let mut setup_batches: Vec<Vec<f64>> = Vec::new();
    let cold_setups = |batches: &mut Vec<Vec<f64>>| -> Result<(), String> {
        let mut batch = Vec::new();
        for _ in 0..setups {
            let took = daemon::cold_setup(workers).map_err(|e| format!("daemon set-up: {e}"))?;
            batch.push(secs(took));
        }
        batches.push(batch);
        Ok(())
    };
    if let Err(e) = cold_setups(&mut setup_batches) {
        return report.fail(e);
    }
    // The solo references, each spec once per pass, in groups of passes
    // before, between and after the closed loops, so that they are spread
    // over the run: campaign_s is the median over the specs of each spec's
    // fastest run.
    let passes_each = if args.paper { SOLO_PASSES_EACH } else { 1 };
    let mut solos: HashMap<u64, daemon::Solo> = HashMap::new();
    let mut fastest_solo: HashMap<u64, f64> = HashMap::new();
    let mut solo_pass = |report: &mut Report, batches: &mut Vec<Vec<f64>>| -> Result<(), String> {
        for &seed in &seeds {
            match daemon::solo(seed) {
                Ok(solo) => {
                    let recorded = digests::tenant(seed);
                    let first = solos.get(&seed).unwrap_or(&solo);
                    let ok = recorded.map_or(args.record, |r| r.digest == solo.digest)
                        && first.snapshot == solo.snapshot;
                    report.check(ok, || {
                        format!(
                            "solo spec {seed}: {:?} vs recorded {:?}",
                            solo.digest,
                            recorded.map(|r| r.digest)
                        )
                    });
                    let wall = fastest_solo.entry(seed).or_insert(f64::INFINITY);
                    *wall = wall.min(secs(solo.wall));
                    solos.entry(seed).or_insert(solo);
                }
                Err(e) => report.fail(format!("solo spec {seed}: {e}")),
            }
        }
        cold_setups(batches)
    };
    let count = (args.seconds * TENANTS_PER_SECOND / LOOPS as f64)
        .round()
        .max(1.0) as usize;
    let mut runs: Vec<daemon::Loop> = Vec::new();
    for group in 0..=LOOPS {
        for _ in 0..passes_each {
            if let Err(e) = solo_pass(report, &mut setup_batches) {
                return report.fail(e);
            }
        }
        if group == LOOPS {
            break;
        }
        let run = match daemon::closed_loop(workers, slots, &seeds, count) {
            Ok(run) => run,
            Err(e) => return report.fail(format!("daemon: {e}")),
        };
        for failure in &run.failures {
            report.fail(failure.clone());
        }
        report.attempted += run.status_rtts.len() as u64;
        runs.push(run);
    }
    let solo_walls: Vec<f64> = fastest_solo.into_values().collect();
    let tenants_of = || {
        runs.iter()
            .flat_map(|r| r.tenants.iter().map(move |t| (r, t)))
    };
    let mut recorded_tenants: HashMap<u64, String> = HashMap::new();
    for (run, t) in tenants_of() {
        let Some(solo) = solos.get(&t.seed) else {
            continue;
        };
        let ops = run.ops.get(&t.id).copied().unwrap_or_default();
        let snapshot_ok = run.snapshots.get(&t.id) == Some(&solo.snapshot);
        let best_ok = t.best.as_ref() == Some(&solo.best);
        let recorded = digests::tenant(t.seed);
        let counts_ok = recorded.map_or(args.record, |r| {
            (r.syncs, r.events) == (ops.syncs, t.events)
                && (r.digest.generations, r.digest.evaluations) == (t.generations, t.evaluations)
        });
        report.check(snapshot_ok && best_ok && counts_ok, || {
            format!(
                "tenant c{} (spec {}): snapshot equal {snapshot_ok}, best equal {best_ok}, \
                 syncs {} events {} generations {} evaluations {} (recorded {})",
                t.id,
                t.seed,
                ops.syncs,
                t.events,
                t.generations,
                t.evaluations,
                recorded.map_or("none".into(), |r| format!(
                    "{} {} {} {}",
                    r.syncs, r.events, r.digest.generations, r.digest.evaluations
                ))
            )
        });
        if args.record {
            recorded_tenants.entry(t.seed).or_insert_with(|| {
                let d = solo.digest;
                format!(
                    "record: Tenant {{ seed: {}, digest: d({:#x}, {:#x}, {}, {}, {}), syncs: {}, events: {} }},",
                    t.seed, d.best, d.fitness, d.generations, d.evaluations, d.compile_hits, ops.syncs, t.events
                )
            });
        }
    }
    let mut records: Vec<_> = recorded_tenants.into_iter().collect();
    records.sort();
    records.into_iter().for_each(|(_, r)| report.note(r));
    let tenants = tenants_of().count().max(1) as f64;
    // Tenant latencies slot by slot (submission index), the fastest of the
    // loops.
    let latency_series: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| {
            let mut series = vec![f64::INFINITY; count];
            for t in &r.tenants {
                series[t.index] = secs(t.latency);
            }
            series
        })
        .collect();
    let latencies = sys::fastest_per_slot(&latency_series);
    let (pct, tail) = sys::tail(&latencies, TAIL_BEYOND)
        .unwrap_or((100.0, latencies.iter().copied().fold(f64::NAN, f64::max)));
    let wall: f64 = runs.iter().map(|r| secs(r.wall)).sum();
    let status_rtts: Vec<Duration> = runs.iter().flat_map(|r| r.status_rtts.clone()).collect();
    report.note(format!(
        "{LOOPS} loops of {count} tenants over {wall} s with {slots} in flight on {workers} workers; \
         complete_* are over the fastest loop per tenant slot, complete_tail_s is p{pct:.1} of {} slots; \
         {} status polls; {} batches of {setups} cold set-ups; {} solo runs of each spec",
        latencies.len(),
        status_rtts.len(),
        setup_batches.len(),
        passes_each * (LOOPS + 1),
    ));
    if !args.trace {
        let evaluations: u64 = tenants_of().map(|(_, t)| t.evaluations).sum();
        let cpu_s: f64 = runs.iter().map(|r| r.cpu_s).sum();
        let fastest_setups = sys::fastest_per_slot(&setup_batches);
        report.metric("setup_s", sys::median(&fastest_setups), "s");
        report.metric("campaign_s", sys::median(&solo_walls), "s");
        report.metric("cpu_s", cpu_s / tenants, "s");
        report.metric("evals_per_s", evaluations as f64 / wall, "1/s");
        report.metric("complete_s", sys::median(&latencies), "s");
        report.metric("complete_tail_s", tail, "s");
        report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
        return;
    }
    // The tenants' campaign, traced in-process: the vpl / platform / core /
    // ga split of what the daemon's pool computes.
    let kind = Kind::Word64;
    let scale = kind.scale(false);
    let mut untraced = Vec::new();
    let mut total: Option<campaign::Traced> = None;
    for &seed in &seeds {
        let framework_seed = daemon::spec(seed).framework_seed();
        let outcome = match campaign::run(kind, scale, framework_seed, &[]) {
            Ok(o) => o,
            Err(e) => return report.fail(format!("spec {seed}: {e}")),
        };
        let traced = match campaign::traced(kind, scale, framework_seed, &[]) {
            Ok(t) => t,
            Err(e) => return report.fail(format!("traced spec {seed}: {e}")),
        };
        check_traced(report, &outcome.digest, &traced, None);
        untraced.push(outcome);
        total = Some(match total {
            None => traced,
            Some(sum) => sum.merge(traced),
        });
    }
    let Some(total) = total else {
        return;
    };
    layer_metrics(report, &total, &untraced);
    let idle: Vec<f64> = tenants_of()
        .map(|(_, t)| t.max_worker_idle_ns as f64 / 1e6)
        .collect();
    let per_tenant = |f: &dyn Fn(&daemon::FileOps) -> f64| {
        runs.iter().flat_map(|r| r.ops.values()).map(f).sum::<f64>() / tenants
    };
    report.metric("pool.worker_idle_ms", sys::median(&idle), "ms");
    report.metric(
        "journal.append_us",
        per_tenant(&|o| o.append.as_secs_f64() * 1e6),
        "us",
    );
    report.metric(
        "journal.sync_us",
        per_tenant(&|o| o.sync.as_secs_f64() * 1e6),
        "us",
    );
    report.metric("journal.bytes", per_tenant(&|o| o.bytes as f64), "bytes");
    report.metric("journal.syncs", per_tenant(&|o| o.syncs as f64), "count");
    let rtts_ms = |v: Vec<Duration>| v.iter().map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>();
    report.metric(
        "service.submit_ms",
        sys::median(&rtts_ms(tenants_of().map(|(_, t)| t.submit_rtt).collect())),
        "ms",
    );
    report.metric(
        "service.status_ms",
        sys::median(&rtts_ms(status_rtts)),
        "ms",
    );
    report.metric(
        "service.events",
        tenants_of().map(|(_, t)| t.events as f64).sum::<f64>() / tenants,
        "count",
    );
    report.metric(
        "service.lagged",
        tenants_of().map(|(_, t)| t.lagged as f64).sum::<f64>() / tenants,
        "count",
    );
}
