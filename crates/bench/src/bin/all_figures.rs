//! Runs the paper's evaluation: every table and figure in dependency order
//! (the Fig. 9 winner feeds the Fig. 11 comparison; the Fig. 8/11 winners
//! feed the Fig. 13 tail estimates), then grades the paper's claims.
//!
//! ```text
//! all_figures [--only <figure>[,<figure>…]]
//! ```
//!
//! A full run at the paper scale writes `results/<figure>.json` and
//! `results/run.json` and rewrites EXPERIMENTS.md from them. A run at the
//! quick scale (`DSTRESS_SCALE=quick`) or with `--only` prints the reports
//! and verdicts and writes nothing.

use dstress_bench::figures::{parse_only, Figure, Reports, RunInfo};
use dstress_bench::render::{render, verdicts};
use dstress_bench::{scale, workspace_root, CAMPAIGN_SEED};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: all_figures [--only <figure>[,<figure>...]]";

fn parse_args(args: &[String]) -> Result<Option<Vec<Figure>>, String> {
    match args {
        [] => Ok(None),
        [flag, list] if flag == "--only" => parse_only(list).map(Some),
        _ => Err(format!("unexpected arguments: {}", args.join(" "))),
    }
}

fn commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Writes every report and `run.json` under `results/`, then renders
/// EXPERIMENTS.md from what was written.
fn archive(reports: &Reports, run: &RunInfo) -> Result<(), String> {
    let root = workspace_root();
    let dir = root.join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: String, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    for figure in Figure::ALL {
        if let Some(json) = reports.json(figure) {
            write(format!("{}.json", figure.key()), json)?;
        }
    }
    write(
        "run.json".into(),
        serde_json::to_string_pretty(run).map_err(|e| e.to_string())?,
    )?;
    // Render from the archive, so EXPERIMENTS.md is exactly what the
    // committed JSON renders to.
    let archived = Reports::load(&dir)?;
    let path = root.join("EXPERIMENTS.md");
    std::fs::write(&path, render(&archived, run)).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match parse_args(&args) {
        Ok(only) => only,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = scale();
    let mut reports = Reports::default();
    let mut wall_s = Vec::new();
    for figure in only.clone().unwrap_or_else(|| Figure::ALL.to_vec()) {
        let start = Instant::now();
        if let Err(e) = reports.run(figure, scale, CAMPAIGN_SEED) {
            eprintln!("error: {}: {e}", figure.key());
            return ExitCode::FAILURE;
        }
        wall_s.push((figure.key().to_string(), start.elapsed().as_secs_f64()));
        println!("==== {} (scale: {}) ====", figure.key(), scale.name);
        println!("{}", reports.text(figure).expect("the figure just ran"));
    }
    let run = RunInfo {
        commit: commit(),
        scale: scale.name.to_string(),
        seed: CAMPAIGN_SEED,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        wall_s,
    };
    println!("==== claims ====\n{}", verdicts(&reports, &scale));
    for (figure, secs) in &run.wall_s {
        println!("{figure:<18} {secs:>7.1} s");
    }
    if only.is_none() && scale.name == "paper" {
        if let Err(e) = archive(&reports, &run) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote results/ and EXPERIMENTS.md");
    }
    ExitCode::SUCCESS
}
