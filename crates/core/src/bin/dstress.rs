//! The `dstress` command-line tool: synthesize, measure and exploit DRAM
//! stress viruses on the simulated experimental platform.
//!
//! ```text
//! dstress search-word64 [--temp C] [--minimize] [--ue] [--scale quick|paper] [--seed N] [--db FILE] [--resume] [--workers N] [--max-retries N] [--quarantine-after N]
//! dstress measure --pattern HEX [--temp C]
//! dstress baselines [--temp C]
//! dstress victims [--temp C]
//! dstress margins [--temp C] [--ce-tolerated]
//! dstress march
//! dstress disasm [--env word64|row_triple|chunks|row_access|stride_access] [--pattern HEX] [--scale quick|paper]
//! dstress info
//! dstress serve --dir DIR [--addr HOST:PORT] [--workers N] [--exit-when-idle]
//! dstress submit --addr HOST:PORT [--temp C] [--ue] [--minimize] [--scale S] [--seed N] [--step-budget N]
//! dstress status --addr HOST:PORT [--campaign N]
//! dstress watch --addr HOST:PORT --campaign N
//! dstress pause|resume|cancel --addr HOST:PORT --campaign N
//! ```

use dstress::search::{BitCampaign, Campaign};
use dstress::service::{
    campaign_db_paths, read_frame, CampaignSpec, DaemonConfig, Dstressd, Event, Request, Response,
    SeqEvent, StatusReport,
};
use dstress::usecases::{find_marginal_trefp, savings_at_margin, SafetyCriterion};
use dstress::{
    Baseline, CampaignJournal, DStress, DiskStorage, EnvKind, ExperimentScale, Metric,
    SupervisionPolicy, WORST_WORD,
};
use dstress_vpl::{compile, disassemble, BoundValue};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Minimal flag parser: `--name value` and boolean `--name`.
struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                flags.insert(name.to_string(), value);
            } else {
                positional.push(arg);
            }
        }
        Ok(Args { positional, flags })
    }

    fn f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }

    fn u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => {
                if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).map_err(|e| format!("--{name}: {e}"))
                } else {
                    v.parse().map_err(|e| format!("--{name}: {e}"))
                }
            }
        }
    }

    fn bool(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }
}

/// Rejects flags the command does not know. A typo like `--tmep 80` would
/// otherwise be silently ignored and the search run at the default
/// temperature.
fn check_flags(args: &Args, allowed: &[&str]) -> Result<(), String> {
    let mut unknown: Vec<&str> = args
        .flags
        .keys()
        .map(String::as_str)
        .filter(|name| !allowed.contains(name))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(name) => Err(format!("unknown flag --{name}")),
        None => Ok(()),
    }
}

fn scale_from(args: &Args) -> Result<ExperimentScale, String> {
    match args.str("scale") {
        None | Some("paper") => Ok(ExperimentScale::paper()),
        Some("quick") => Ok(ExperimentScale::quick()),
        Some(other) => Err(format!("unknown scale `{other}` (quick|paper)")),
    }
}

/// The `dstress disasm` output: the bytecode listing of the `name`
/// template's virus, every searched element set to `pattern` (clamped to
/// its domain) and victim rows profiled at `scale` like a search's.
fn disasm_listing(
    name: &str,
    pattern: u64,
    scale: ExperimentScale,
    seed: u64,
    temp: f64,
) -> Result<String, String> {
    let victims = || {
        DStress::new(scale, seed)
            .profile_victims(temp, WORST_WORD)
            .map_err(|e| e.to_string())
    };
    let env = match name {
        "word64" => EnvKind::Word64,
        "row_triple" => EnvKind::RowTriple {
            victims: victims()?,
        },
        "chunks" => EnvKind::Chunks {
            victims: victims()?,
        },
        "row_access" => EnvKind::RowAccess {
            victims: victims()?,
            fill: WORST_WORD,
        },
        "stride_access" => EnvKind::StrideAccess {
            victims: victims()?,
            fill: WORST_WORD,
        },
        other => {
            return Err(format!(
                "unknown env `{other}` (word64|row_triple|chunks|row_access|stride_access)"
            ))
        }
    };
    let program = dstress::templates::instantiate_uniform(&env, &scale, pattern)
        .map_err(|e| e.to_string())?;
    let compiled = compile(&program).map_err(|e| e.to_string())?;
    Ok(format!(
        "{name} virus, pattern {pattern:#018x}\n\n{}",
        disassemble(&compiled)
    ))
}

/// Builds the evaluation-supervision policy from `--max-retries` and
/// `--quarantine-after`. Malformed values are rejected here so they reach
/// the usage-and-exit-1 path instead of panicking deep in the engine.
fn supervision_from(args: &Args) -> Result<SupervisionPolicy, String> {
    let max_retries = args.u64(
        "max-retries",
        u64::from(SupervisionPolicy::default().max_retries),
    )?;
    let quarantine_after = args.u64(
        "quarantine-after",
        u64::from(SupervisionPolicy::default().quarantine_after),
    )?;
    let policy = SupervisionPolicy {
        max_retries: u32::try_from(max_retries)
            .map_err(|_| format!("--max-retries: {max_retries} does not fit in 32 bits"))?,
        quarantine_after: u32::try_from(quarantine_after).map_err(|_| {
            format!("--quarantine-after: {quarantine_after} does not fit in 32 bits")
        })?,
        ..SupervisionPolicy::default()
    };
    policy
        .validate()
        .map_err(|e| format!("--quarantine-after: {e}"))?;
    Ok(policy)
}

fn usage() -> &'static str {
    "dstress - automatic synthesis of DRAM reliability stress viruses\n\
     \n\
     USAGE:\n\
       dstress <command> [flags]\n\
     \n\
     COMMANDS:\n\
       search-word64   GA search for the worst 64-bit data pattern\n\
                       [--temp C] [--minimize] [--ue] [--scale quick|paper]\n\
                       [--seed N] [--db FILE] [--resume] [--workers N]\n\
                       [--campaigns N] [--max-retries N] [--quarantine-after N]\n\
                       --campaigns N >= 2 runs N independent searches\n\
                       concurrently, fair-share scheduled over one\n\
                       persistent worker pool (results identical to\n\
                       running each alone). Combined with --db FILE,\n\
                       campaign i journals into its own FILE-derived\n\
                       `-ci` sibling and --resume continues every\n\
                       interrupted campaign bit-identically.\n\
                       With --db the campaign is crash-safe: every virus is\n\
                       journaled and --resume continues an interrupted\n\
                       search bit-identically. Faulting evaluations are\n\
                       retried up to --max-retries times (default 3) and\n\
                       the candidate quarantined after --quarantine-after\n\
                       faults (default 4); resume a supervised campaign\n\
                       with the same flags.\n\
       measure         Measure one data pattern  --pattern HEX [--temp C]\n\
       baselines       Measure the classic micro-benchmarks [--temp C]\n\
       victims         Profile the error-prone rows [--temp C]\n\
       margins         Find the safe TREFP margin [--temp C] [--ce-tolerated]\n\
       march           Compare MARCH tests against the synthesized virus\n\
       disasm          Dump a compiled virus's bytecode\n\
                       [--env word64|row_triple|chunks|row_access|stride_access]\n\
                       [--pattern HEX] [--scale quick|paper]  (default\n\
                       word64; the others use victims profiled at --scale)\n\
       info            Show the platform configuration\n\
       serve           Run the dstressd campaign daemon  --dir DIR\n\
                       [--addr HOST:PORT] [--workers N] [--event-capacity N]\n\
                       [--exit-when-idle]  (resumes every unfinished\n\
                       campaign in DIR bit-identically, then serves\n\
                       line-delimited JSON on the printed address)\n\
       submit          Submit a campaign to a daemon  --addr HOST:PORT\n\
                       [--temp C] [--ue] [--minimize] [--scale quick|paper]\n\
                       [--seed N] [--step-budget N]\n\
       status          Show one campaign or all  --addr HOST:PORT\n\
                       [--campaign N]\n\
       watch           Stream a campaign's progress events until it\n\
                       finishes  --addr HOST:PORT --campaign N\n\
                       [--from-seq N]  (reconnects with exponential\n\
                       backoff after a connection drop, resuming from\n\
                       the last event it saw)\n\
       pause           Pause a running campaign   --addr HOST:PORT --campaign N\n\
       resume          Resume a paused campaign   --addr HOST:PORT --campaign N\n\
       cancel          Cancel a campaign          --addr HOST:PORT --campaign N\n"
}

/// Checks a `--db` journal against the campaign `name` these flags
/// select: returns whether it holds an interrupted search to resume.
fn check_journal(
    journal: &CampaignJournal<DiskStorage>,
    path: &Path,
    name: &str,
    resume: bool,
) -> Result<bool, String> {
    match journal.checkpoint() {
        Some(cp) if !resume => Err(format!(
            "{} holds an interrupted search for campaign `{}`; pass --resume to continue it",
            path.display(),
            cp.campaign
        )),
        Some(cp) if cp.campaign != name => Err(format!(
            "--resume: {} holds the interrupted campaign `{}` but these flags select \
             `{name}`; rerun with the original flags",
            path.display(),
            cp.campaign
        )),
        checkpoint => Ok(checkpoint.is_some()),
    }
}

fn print_word64_campaign(campaign: &BitCampaign) {
    println!(
        "best pattern {:#018x}  fitness {:.1}  ({} generations, SMF {:.2}, converged {})",
        campaign.result.best.to_words()[0],
        campaign.result.best_fitness,
        campaign.result.generations,
        campaign.result.similarity,
        campaign.result.converged,
    );
    println!("top of the leaderboard:");
    for (genome, fitness) in campaign.result.leaderboard.iter().take(5) {
        println!("  {:#018x}  {fitness:.1}", genome.to_words()[0]);
    }
    let stats = &campaign.result.eval_stats;
    println!(
        "evaluations: {} run, {} served from cache, {} worker{} ({:.2} s evaluating)",
        stats.evaluations,
        stats.cache_hits,
        stats.workers,
        if stats.workers == 1 { "" } else { "s" },
        stats.eval_seconds(),
    );
    print_pool_stats(stats);
}

/// Pool observability: printed only when the campaign actually ran on the
/// persistent work-stealing pool (the serial engine path leaves the
/// per-worker task counts empty).
fn print_pool_stats(stats: &dstress::EvalStats) {
    if stats.worker_tasks.is_empty() {
        return;
    }
    let tasks: Vec<String> = stats.worker_tasks.iter().map(u64::to_string).collect();
    println!(
        "pool: {} steal{}, max worker idle {:.3} s, tasks per worker [{}]",
        stats.steals,
        if stats.steals == 1 { "" } else { "s" },
        stats.max_worker_idle_ns as f64 / 1e9,
        tasks.join(", "),
    );
}

fn require_addr(args: &Args) -> Result<&str, String> {
    args.str("addr")
        .ok_or_else(|| "this command requires --addr HOST:PORT (printed by `dstress serve`)".into())
}

fn campaign_arg(args: &Args) -> Result<u64, String> {
    if args.str("campaign").is_none() {
        return Err("this command requires --campaign N (see `dstress status`)".into());
    }
    args.u64("campaign", 0)
}

fn send_line<T: serde::Serialize>(stream: &mut TcpStream, value: &T) -> Result<(), String> {
    let mut line = serde_json::to_string(value).map_err(|e| e.to_string())?;
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("sending to daemon: {e}"))
}

fn read_reply<R: std::io::BufRead>(reader: &mut R) -> Result<Response, String> {
    let frame = read_frame(reader).map_err(|e| format!("reading daemon reply: {e:?}"))?;
    serde_json::from_str(&frame).map_err(|e| format!("malformed daemon reply: {e}"))
}

/// One request/response round trip on a fresh connection.
fn service_request(addr: &str, request: &Request) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    send_line(&mut stream, request)?;
    let mut reader = std::io::BufReader::new(stream);
    read_reply(&mut reader)
}

fn print_report(report: &StatusReport) {
    let best = report
        .best
        .as_ref()
        .map(|b| {
            format!(
                "{:#018x} ({:.1})",
                b.genes.first().copied().unwrap_or(0),
                b.fitness
            )
        })
        .unwrap_or_else(|| "-".into());
    println!(
        "campaign {:>3}  {:<20} {:<13} gen {:>4}  best {best}  \
         {} evaluations ({} cached), {} incidents",
        report.campaign,
        report.name,
        report.state,
        report.generation,
        report.evaluations,
        report.cache_hits,
        report.incidents,
    );
    if let Some(error) = &report.error {
        println!("             quarantined: {error} (resume to retry recovery)");
    }
}

fn print_event(event: &Event) {
    match event {
        Event::Generation {
            campaign,
            generation,
            best,
            leaderboard_delta,
            stats,
            incidents,
        } => {
            let best = best
                .as_ref()
                .map(|b| {
                    format!(
                        "{:#018x} ({:.1})",
                        b.genes.first().copied().unwrap_or(0),
                        b.fitness
                    )
                })
                .unwrap_or_else(|| "-".into());
            println!(
                "campaign {campaign} gen {generation}: best {best}, +{} leaderboard entries, \
                 {} evaluations ({} cached), {} incidents this round",
                leaderboard_delta.len(),
                stats.evaluations,
                stats.cache_hits,
                incidents.len(),
            );
        }
        Event::Completed {
            campaign,
            generations,
            converged,
            leaderboard,
        } => {
            println!(
                "campaign {campaign} finished after {generations} generations \
                 (converged: {converged}); final leaderboard:"
            );
            for entry in leaderboard.iter().take(5) {
                println!(
                    "  {:#018x}  {:.1}",
                    entry.genes.first().copied().unwrap_or(0),
                    entry.fitness
                );
            }
        }
        Event::Cancelled { campaign } => println!("campaign {campaign} cancelled"),
        Event::Failed {
            campaign,
            error,
            at_seq,
            resume_backoff_ms,
        } => {
            println!(
                "campaign {campaign} FAILED at seq {at_seq}: {error} \
                 (quarantined; `dstress resume` retries recovery, \
                 suggested backoff {resume_backoff_ms} ms)"
            );
        }
        Event::Lagged { missed } => {
            println!("(fell behind the event stream; {missed} events dropped)")
        }
    }
}

/// How one watch connection ended: the daemon sent its end-of-stream
/// marker (the campaign settled — done, cancelled, or quarantined with
/// its bus still open but drained), or the connection dropped mid-stream
/// (daemon restart, network fault) and the client should reconnect.
enum WatchOutcome {
    Settled,
    Dropped,
}

/// One watch connection: subscribe from `from_seq`, print events, and
/// bump `next_from` past every sequenced event so a reconnect resumes
/// exactly where this connection left off (seq-0 lines are
/// connection-local and never advance the cursor).
fn watch_once(addr: &str, campaign: u64, next_from: &mut u64) -> Result<WatchOutcome, String> {
    let mut stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(_) => return Ok(WatchOutcome::Dropped),
    };
    let request = Request::Watch {
        campaign,
        from_seq: *next_from,
    };
    if send_line(&mut stream, &request).is_err() {
        return Ok(WatchOutcome::Dropped);
    }
    let reader = match stream.try_clone() {
        Ok(reader) => reader,
        Err(e) => return Err(format!("connecting to {addr}: {e}")),
    };
    let mut reader = std::io::BufReader::new(reader);
    // The handshake must answer Watching; a typed daemon error (unknown
    // campaign…) is fatal, not a reconnect cue.
    match read_reply(&mut reader) {
        Ok(Response::Watching { .. }) => {}
        Ok(Response::Error { message }) => return Err(format!("daemon: {message}")),
        Ok(other) => return Err(format!("unexpected reply to watch: {other:?}")),
        Err(_) => return Ok(WatchOutcome::Dropped),
    }
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(_) => return Ok(WatchOutcome::Dropped),
        };
        match serde_json::from_str::<SeqEvent>(&frame) {
            Ok(stamped) => {
                print_event(&stamped.event);
                if stamped.seq > 0 {
                    *next_from = (*next_from).max(stamped.seq + 1);
                }
            }
            // Anything that is not an event is the daemon's
            // end-of-stream marker: the campaign settled.
            Err(_) => return Ok(WatchOutcome::Settled),
        }
    }
}

/// `dstress watch`: stream a campaign's events, surviving daemon
/// restarts. A dropped connection is retried with exponential backoff
/// (200 ms doubling, at most [`WATCH_MAX_ATTEMPTS`] consecutive
/// failures); any received event proves the daemon is back and resets
/// the attempt counter. Each reconnect asks for `--from-seq
/// last_seen + 1`, so the resumed stream replays no duplicate and drops
/// nothing the daemon retained.
fn watch_campaign(addr: &str, campaign: u64, from_seq: u64) -> Result<(), String> {
    const WATCH_MAX_ATTEMPTS: u32 = 5;
    let mut next_from = from_seq;
    let mut attempts: u32 = 0;
    loop {
        let before = next_from;
        match watch_once(addr, campaign, &mut next_from)? {
            WatchOutcome::Settled => return Ok(()),
            WatchOutcome::Dropped => {
                if next_from > before {
                    // The connection made progress before dropping, so
                    // the daemon was alive: start the backoff over.
                    attempts = 0;
                }
                attempts += 1;
                if attempts > WATCH_MAX_ATTEMPTS {
                    return Err(format!(
                        "watch: lost the daemon at {addr} \
                         ({WATCH_MAX_ATTEMPTS} reconnect attempts failed); \
                         rerun with --from-seq {next_from} to resume"
                    ));
                }
                let backoff_ms = 200u64 << (attempts - 1);
                eprintln!(
                    "watch: connection lost; reconnecting from seq {next_from} \
                     in {backoff_ms} ms (attempt {attempts}/{WATCH_MAX_ATTEMPTS})"
                );
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
            }
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let command = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let allowed: &[&str] = match command {
        "help" | "--help" | "-h" => &[],
        "info" => &["scale"],
        "search-word64" => &[
            "temp",
            "minimize",
            "ue",
            "scale",
            "seed",
            "db",
            "resume",
            "workers",
            "campaigns",
            "max-retries",
            "quarantine-after",
        ],
        "measure" => &["pattern", "temp", "scale", "seed"],
        "baselines" | "victims" => &["temp", "scale", "seed"],
        "margins" => &["temp", "ce-tolerated", "scale", "seed"],
        "march" => &["scale", "seed"],
        "disasm" => &["pattern", "scale", "env"],
        "serve" => &["dir", "addr", "workers", "event-capacity", "exit-when-idle"],
        "submit" => &[
            "addr",
            "temp",
            "ue",
            "minimize",
            "scale",
            "seed",
            "step-budget",
        ],
        "status" => &["addr", "campaign"],
        "watch" => &["addr", "campaign", "from-seq"],
        "pause" | "resume" | "cancel" => &["addr", "campaign"],
        other => return Err(format!("unknown command `{other}`")),
    };
    check_flags(&args, allowed)?;
    let scale = scale_from(&args)?;
    let seed = args.u64("seed", 42)?;
    let temp = args.f64("temp", 60.0)?;
    match command {
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        "info" => {
            let geo = scale.server.dimm.geometry;
            println!("scale           : {}", scale.name);
            println!(
                "DIMM geometry   : {} ranks x {} banks x {} rows x {} B rows ({} KiB)",
                geo.ranks,
                geo.banks,
                geo.rows_per_bank,
                geo.row_bytes,
                geo.capacity_bytes() / 1024
            );
            println!("windows per run : {}", scale.server.windows_per_run);
            println!("runs per virus  : {}", scale.runs_per_virus);
            println!(
                "GA              : population {}, mutation {}, crossover {}, budget {} generations",
                scale.ga.population_size,
                scale.ga.mutation_prob,
                scale.ga.crossover_prob,
                scale.ga.max_generations
            );
            Ok(())
        }
        "search-word64" => {
            let workers = args.u64("workers", 1)?.max(1) as usize;
            let campaigns = args.u64("campaigns", 1)?;
            if campaigns == 0 {
                return Err("--campaigns: must be at least 1".into());
            }
            let campaigns = usize::try_from(campaigns)
                .map_err(|_| format!("--campaigns: {campaigns} does not fit in usize"))?;
            let mut dstress = DStress::new(scale, seed);
            dstress.set_workers(workers);
            dstress.set_supervision(supervision_from(&args)?);
            let metric = if args.bool("ue") {
                Metric::UeRuns
            } else {
                Metric::CeAverage
            };
            let minimize = args.bool("minimize");
            let resume = args.bool("resume");
            if resume && args.str("db").is_none() {
                return Err("--resume requires --db FILE (the journal to continue from)".into());
            }
            let campaign = Campaign::word64(temp, metric, minimize);
            let batch = campaigns > 1;
            if !batch {
                println!(
                    "searching 64-bit patterns at {temp} C ({}, {}) ...",
                    if args.bool("ue") { "UE runs" } else { "CEs" },
                    if minimize { "minimizing" } else { "maximizing" }
                );
            }
            // With --db, run i journals into its own file: the given path
            // alone, or the derived `-c{i}` siblings of a batch.
            let paths = match args.str("db") {
                Some(db) if batch => campaign_db_paths(db, campaigns)?,
                Some(db) => vec![PathBuf::from(db)],
                None => Vec::new(),
            };
            let mut journals = Vec::with_capacity(paths.len());
            for (i, path) in paths.iter().enumerate() {
                // Opening a journal that does not exist writes nothing; an
                // interrupted campaign that never compacted has only its
                // `.journal` file.
                let journal = CampaignJournal::open(DiskStorage::new(), path)
                    .map_err(|e| format!("opening {}: {e}", path.display()))?;
                let name = campaign.run_name(i, campaigns);
                let interrupted = check_journal(&journal, path, &name, resume)?;
                match (interrupted, resume) {
                    (true, _) if !batch => println!(
                        "resuming interrupted campaign `{name}` from {}",
                        path.display()
                    ),
                    (false, true) if !batch => println!(
                        "no interrupted search in {}; starting fresh",
                        path.display()
                    ),
                    (false, true) if journal.db().records().is_empty() => {
                        return Err(format!(
                            "--resume: per-campaign journal `{}` is missing; \
                             rerun with the original --campaigns/--db flags",
                            path.display()
                        ));
                    }
                    _ => {}
                }
                journals.push(journal);
            }
            if batch {
                println!(
                    "scheduling {campaigns} {} 64-bit pattern searches at {temp} C \
                     over one {workers}-worker pool ...",
                    if paths.is_empty() {
                        "concurrent"
                    } else {
                        "journaled"
                    }
                );
            }
            let runs: Vec<Option<&mut CampaignJournal<DiskStorage>>> = if journals.is_empty() {
                (0..campaigns).map(|_| None).collect()
            } else {
                journals.iter_mut().map(Some).collect()
            };
            let results: Vec<BitCampaign> = dstress
                .run(&campaign, runs, None)
                .map_err(|e| e.to_string())?
                .into_iter()
                .flatten()
                .collect();
            for (i, campaign) in results.iter().enumerate() {
                if batch {
                    println!("\n== campaign {} ==", campaign.name);
                }
                print_word64_campaign(campaign);
                if let Some(path) = paths.get(i) {
                    println!("virus database written to {}", path.display());
                }
            }
            if batch && paths.is_empty() {
                let mut merged = dstress::EvalStats::default();
                for campaign in &results {
                    merged.merge(&campaign.result.eval_stats);
                }
                println!(
                    "\npool-wide: {} evaluations, {} cache hits across {} campaigns",
                    merged.evaluations,
                    merged.cache_hits,
                    results.len(),
                );
                print_pool_stats(&merged);
            }
            Ok(())
        }
        "measure" => {
            let pattern = args.u64("pattern", WORST_WORD)?;
            let dstress = DStress::new(scale, seed);
            let outcome = dstress
                .measure(
                    &EnvKind::Word64,
                    [("PATTERN".to_string(), BoundValue::Scalar(pattern))].into(),
                    temp,
                    Metric::CeAverage,
                )
                .map_err(|e| e.to_string())?;
            println!(
                "pattern {pattern:#018x} at {temp} C: {:.1} CEs/run, {} UEs total, {} runs stopped",
                outcome.fitness, outcome.total_ue, outcome.ue_runs
            );
            Ok(())
        }
        "baselines" => {
            let dstress = DStress::new(scale, seed);
            println!("classic micro-benchmarks at {temp} C:");
            for baseline in Baseline::all(seed) {
                let outcome = dstress
                    .measure(
                        &EnvKind::CycleFill {
                            cycle: baseline.cycle(),
                        },
                        HashMap::new(),
                        temp,
                        Metric::CeAverage,
                    )
                    .map_err(|e| e.to_string())?;
                println!(
                    "  {:<14} {:>10.1} CEs/run",
                    baseline.name(),
                    outcome.fitness
                );
            }
            let worst = dstress
                .measure(
                    &EnvKind::Word64,
                    [("PATTERN".to_string(), BoundValue::Scalar(WORST_WORD))].into(),
                    temp,
                    Metric::CeAverage,
                )
                .map_err(|e| e.to_string())?;
            println!("  {:<14} {:>10.1} CEs/run", "worst virus", worst.fitness);
            Ok(())
        }
        "victims" => {
            let mut dstress = DStress::new(scale, seed);
            let victims = dstress
                .profile_victims(temp, WORST_WORD)
                .map_err(|e| e.to_string())?;
            println!("error-prone rows at {temp} C (worst-case fill):");
            for v in victims {
                println!("  {v}");
            }
            Ok(())
        }
        "margins" => {
            let dstress = DStress::new(scale, seed);
            let criterion = if args.bool("ce-tolerated") {
                SafetyCriterion::NoUncorrectable
            } else {
                SafetyCriterion::NoErrors
            };
            let chromosome: HashMap<String, BoundValue> =
                [("PATTERN".to_string(), BoundValue::Scalar(WORST_WORD))].into();
            let margin =
                find_marginal_trefp(&dstress, &EnvKind::Word64, &chromosome, temp, criterion, 10)
                    .map_err(|e| e.to_string())?;
            let savings = savings_at_margin(margin.marginal_trefp_s, 1.0e6);
            println!(
                "marginal TREFP at {temp} C: {:.3} s (criterion: {})",
                margin.marginal_trefp_s,
                if args.bool("ce-tolerated") {
                    "CEs tolerated"
                } else {
                    "no errors"
                }
            );
            println!(
                "power savings: {:.1} % DRAM, {:.1} % system",
                savings.dram_savings * 100.0,
                savings.system_savings * 100.0
            );
            Ok(())
        }
        "march" => {
            let report = dstress::experiments::march_comparison::run(scale, seed)
                .map_err(|e| e.to_string())?;
            println!("{}", report.render());
            Ok(())
        }
        "disasm" => {
            let pattern = args.u64("pattern", WORST_WORD)?;
            let name = args.str("env").unwrap_or("word64");
            print!("{}", disasm_listing(name, pattern, scale, seed, temp)?);
            Ok(())
        }
        "serve" => {
            let dir = args
                .str("dir")
                .ok_or("serve requires --dir DIR (the campaign registry directory)")?;
            let config = DaemonConfig {
                addr: args.str("addr").unwrap_or("127.0.0.1:0").to_string(),
                dir: dir.into(),
                workers: args.u64("workers", 2)?.max(1) as usize,
                event_capacity: args.u64("event-capacity", 256)?.max(1) as usize,
                ..DaemonConfig::default()
            };
            let exit_when_idle = args.bool("exit-when-idle");
            let daemon = Dstressd::start(config).map_err(|e| format!("starting dstressd: {e}"))?;
            println!("dstressd listening on {}", daemon.addr());
            let addr = daemon.addr().to_string();
            if !exit_when_idle {
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            // --exit-when-idle: poll our own list endpoint and drain out
            // once at least one campaign exists and none is running.
            loop {
                std::thread::sleep(std::time::Duration::from_millis(200));
                let campaigns = match service_request(&addr, &Request::List)? {
                    Response::List { campaigns } => campaigns,
                    other => return Err(format!("unexpected reply to list: {other:?}")),
                };
                if !campaigns.is_empty() && campaigns.iter().all(|c| c.state != "running") {
                    break;
                }
            }
            daemon
                .shutdown()
                .map_err(|e| format!("stopping dstressd: {e}"))?;
            println!("dstressd idle; all campaigns settled");
            Ok(())
        }
        "submit" => {
            let addr = require_addr(&args)?;
            let spec = CampaignSpec {
                scale: args.str("scale").unwrap_or("").to_string(),
                temp_c: temp,
                ue: args.bool("ue"),
                minimize: args.bool("minimize"),
                seed: args.u64("seed", 0)?,
                step_budget: args.u64("step-budget", 0)?,
            };
            match service_request(addr, &Request::Submit { spec })? {
                Response::Submitted { campaign, name } => {
                    println!("submitted campaign {campaign} ({name})");
                    Ok(())
                }
                Response::Error { message } => Err(format!("daemon: {message}")),
                other => Err(format!("unexpected reply to submit: {other:?}")),
            }
        }
        "status" => {
            let addr = require_addr(&args)?;
            match args.str("campaign") {
                Some(_) => {
                    let campaign = args.u64("campaign", 0)?;
                    match service_request(addr, &Request::Status { campaign })? {
                        Response::Status { report } => {
                            print_report(&report);
                            Ok(())
                        }
                        Response::Error { message } => Err(format!("daemon: {message}")),
                        other => Err(format!("unexpected reply to status: {other:?}")),
                    }
                }
                None => match service_request(addr, &Request::List)? {
                    Response::List { campaigns } => {
                        if campaigns.is_empty() {
                            println!("no campaigns");
                        }
                        for report in &campaigns {
                            print_report(report);
                        }
                        Ok(())
                    }
                    Response::Error { message } => Err(format!("daemon: {message}")),
                    other => Err(format!("unexpected reply to list: {other:?}")),
                },
            }
        }
        "watch" => {
            let addr = require_addr(&args)?;
            let campaign = campaign_arg(&args)?;
            let from_seq = args.u64("from-seq", 0)?;
            watch_campaign(addr, campaign, from_seq)
        }
        "pause" | "resume" | "cancel" => {
            let addr = require_addr(&args)?;
            let campaign = campaign_arg(&args)?;
            let request = match command {
                "pause" => Request::Pause { campaign },
                "resume" => Request::Resume { campaign },
                _ => Request::Cancel { campaign },
            };
            match service_request(addr, &request)? {
                Response::Ok => {
                    println!("campaign {campaign}: {command} acknowledged");
                    Ok(())
                }
                Response::Error { message } => Err(format!("daemon: {message}")),
                other => Err(format!("unexpected reply to {command}: {other:?}")),
            }
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_ga::{BitGenome, JournaledCampaign, SearchSession};

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected_per_command() {
        let err = run(strings(&["info", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        // The check runs before the search starts: a typo'd flag cannot
        // silently launch a campaign at default settings.
        let err = run(strings(&["search-word64", "--tmep", "80"])).unwrap_err();
        assert!(err.contains("unknown flag --tmep"), "{err}");
        // Flags valid for one command are still rejected for another.
        let err = run(strings(&["measure", "--workers", "4"])).unwrap_err();
        assert!(err.contains("unknown flag --workers"), "{err}");
    }

    #[test]
    fn malformed_supervision_flags_are_rejected_before_the_search_starts() {
        // Non-numeric values surface as parse errors → usage + exit 1.
        let err = run(strings(&["search-word64", "--max-retries", "abc"])).unwrap_err();
        assert!(err.contains("--max-retries"), "{err}");
        let err = run(strings(&["search-word64", "--quarantine-after", "-1"])).unwrap_err();
        assert!(err.contains("--quarantine-after"), "{err}");
        // A zero quarantine threshold could never score a candidate; the
        // policy's own validation rejects it at the CLI boundary.
        let err = run(strings(&["search-word64", "--quarantine-after", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // Values beyond u32 are rejected rather than silently truncated.
        let err = run(strings(&["search-word64", "--max-retries", "4294967296"])).unwrap_err();
        assert!(err.contains("does not fit"), "{err}");
    }

    #[test]
    fn supervision_flags_parse_into_a_policy() {
        let args = Args::parse(strings(&[
            "search-word64",
            "--max-retries",
            "7",
            "--quarantine-after",
            "9",
        ]))
        .unwrap();
        let policy = supervision_from(&args).unwrap();
        assert_eq!(policy.max_retries, 7);
        assert_eq!(policy.quarantine_after, 9);
        // Unset flags fall back to the documented defaults.
        let args = Args::parse(strings(&["search-word64"])).unwrap();
        assert_eq!(
            supervision_from(&args).unwrap(),
            SupervisionPolicy::default()
        );
    }

    #[test]
    fn disasm_rejects_bad_opt_levels_and_unknown_flags() {
        // There is one compile path, so `--opt` is an unknown flag.
        let err = run(strings(&["disasm", "--opt", "none"])).unwrap_err();
        assert!(err.contains("unknown flag --opt"), "{err}");
        let err = run(strings(&["disasm", "--temp", "60"])).unwrap_err();
        assert!(err.contains("unknown flag --temp"), "{err}");
        // The happy path runs end to end on the quick scale.
        run(strings(&["disasm", "--scale", "quick"])).unwrap();
        let err = run(strings(&["disasm", "--env", "bogus", "--scale", "quick"])).unwrap_err();
        assert!(err.contains("unknown env `bogus`"), "{err}");
    }

    /// `disasm --env chunks` lists the chunk-span virus with its fill, span
    /// copy and offset reduce each fused into one superinstruction.
    #[test]
    fn disasm_lists_the_chunks_virus_with_three_fused_loops() {
        run(strings(&["disasm", "--env", "chunks", "--scale", "quick"])).unwrap();
        let listing =
            disasm_listing("chunks", WORST_WORD, ExperimentScale::quick(), 42, 60.0).unwrap();
        assert!(listing.starts_with("chunks virus"), "{listing}");
        let fused: Vec<&str> = listing.lines().filter(|l| l.contains("fused")).collect();
        assert_eq!(fused.len(), 3, "{listing}");
        // The copy writes through the local pointer register `buf` and
        // reads the global slot `cpat`.
        assert!(
            fused[1].contains("<buf>[r") && fused[1].contains("= $"),
            "{}",
            fused[1]
        );
    }

    #[test]
    fn malformed_campaign_counts_are_rejected_before_the_search_starts() {
        // Non-numeric, zero and out-of-range values all surface as errors
        // → usage + exit 1, before any pool is spawned.
        let err = run(strings(&["search-word64", "--campaigns", "two"])).unwrap_err();
        assert!(err.contains("--campaigns"), "{err}");
        let err = run(strings(&["search-word64", "--campaigns", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = run(strings(&["search-word64", "--campaigns", "-3"])).unwrap_err();
        assert!(err.contains("--campaigns"), "{err}");
        // A --db base whose derived per-campaign paths cannot be formed
        // is rejected before any journal is opened.
        let err = run(strings(&[
            "search-word64",
            "--campaigns",
            "2",
            "--db",
            "..",
        ]))
        .unwrap_err();
        assert!(err.contains("no file name"), "{err}");
        // Resuming a multi-campaign batch requires every per-campaign
        // journal that the base path derives.
        let err = run(strings(&[
            "search-word64",
            "--campaigns",
            "2",
            "--db",
            "does-not-exist/x.json",
            "--resume",
        ]))
        .unwrap_err();
        assert!(err.contains("x-c0.json"), "{err}");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn service_commands_validate_their_flags_before_connecting() {
        let err = run(strings(&["serve"])).unwrap_err();
        assert!(err.contains("--dir"), "{err}");
        let err = run(strings(&["submit", "--temp", "60"])).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err = run(strings(&["watch", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--campaign"), "{err}");
        let err = run(strings(&["cancel", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--campaign"), "{err}");
        // Unknown flags are still rejected per command.
        let err = run(strings(&["serve", "--dir", "d", "--temp", "60"])).unwrap_err();
        assert!(err.contains("unknown flag --temp"), "{err}");
        let err = run(strings(&["status", "--workers", "2"])).unwrap_err();
        assert!(err.contains("unknown flag --workers"), "{err}");
    }

    #[test]
    fn batch_resume_rejects_a_journal_of_another_campaign() {
        // Two interrupted per-campaign journals of a maximizing batch, each
        // holding the opening checkpoint the batch driver writes.
        let dir = std::env::temp_dir().join(format!("dstress-cli-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("batch.json");
        let db = db.to_str().unwrap();
        let paths = campaign_db_paths(db, 2).unwrap();
        let base = DStress::word64_campaign_name(60.0, &Metric::CeAverage, false);
        let config = ExperimentScale::quick().ga;
        for (i, path) in paths.iter().enumerate() {
            let mut journal = CampaignJournal::open(DiskStorage::new(), path).unwrap();
            let (log, session) = JournaledCampaign::open(&journal, &format!("{base}-c{i}"), || {
                SearchSession::start(config, i as u64, |rng| BitGenome::random(rng, 64))
            })
            .unwrap();
            log.checkpoint(&mut journal, &session).unwrap();
        }
        let files = |paths: &[std::path::PathBuf]| -> Vec<Option<Vec<u8>>> {
            paths
                .iter()
                .flat_map(|p| [p.clone(), p.with_extension("json.journal")])
                .map(|p| std::fs::read(p).ok())
                .collect()
        };
        let before = files(&paths);
        assert!(before.iter().any(Option::is_some));
        // Resuming with --minimize flipped selects other campaigns: the
        // batch must refuse instead of starting fresh over the journals.
        let err = run(strings(&[
            "search-word64",
            "--scale",
            "quick",
            "--temp",
            "60",
            "--campaigns",
            "2",
            "--db",
            db,
            "--resume",
            "--minimize",
        ]))
        .unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        assert!(err.contains(&format!("{base}-c0")), "{err}");
        assert_eq!(files(&paths), before, "the journals must be untouched");
        // The original flags resume both campaigns, although neither
        // journal has compacted into a snapshot yet.
        assert!(paths.iter().all(|p| !p.exists()));
        run(strings(&[
            "search-word64",
            "--scale",
            "quick",
            "--temp",
            "60",
            "--campaigns",
            "2",
            "--db",
            db,
            "--resume",
        ]))
        .unwrap();
        assert!(paths.iter().all(|p| p.exists()), "both campaigns finish");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_requires_a_database() {
        let err = run(strings(&["search-word64", "--resume", "--scale", "quick"])).unwrap_err();
        assert!(err.contains("--resume requires --db"), "{err}");
    }

    #[test]
    fn known_flags_pass_the_allowlists() {
        for (command, allowed) in [
            ("info", vec!["scale"]),
            (
                "search-word64",
                vec![
                    "temp",
                    "minimize",
                    "ue",
                    "scale",
                    "seed",
                    "db",
                    "resume",
                    "workers",
                    "campaigns",
                    "max-retries",
                    "quarantine-after",
                ],
            ),
            ("measure", vec!["pattern", "temp", "scale", "seed"]),
            ("margins", vec!["temp", "ce-tolerated", "scale", "seed"]),
        ] {
            let mut raw = vec![command.to_string()];
            for flag in &allowed {
                raw.push(format!("--{flag}"));
                raw.push("1".to_string());
            }
            let args = Args::parse(raw).unwrap();
            assert!(
                check_flags(&args, &allowed.iter().map(|s| &**s).collect::<Vec<_>>()).is_ok(),
                "{command} rejected its own flags"
            );
        }
    }
}
