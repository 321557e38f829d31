//! The `daemon` workload: an in-process `Dstressd` over loopback TCP, fed
//! by a closed loop that keeps at most `nproc` quick-scale journaled word64
//! tenants in flight and polls `Status` alongside.
//!
//! The daemon journals into an in-memory [`MemStorage`] behind
//! [`TimedStorage`], the public `Storage` trait wrapped with timers: disk
//! latency stays out of the measurement, the journal's appends, syncs and
//! bytes are counted per campaign instead, and the benchmark writes nothing
//! outside its checkout.

use dstress::service::{
    CampaignSpec, DaemonConfig, Dstressd, Event, LeaderboardEntry, Request, Response, SeqEvent,
};
use dstress::{
    CampaignJournal, DStress, ExperimentScale, MemStorage, Metric, SharedStorage, Storage,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The daemon's registry directory (a path inside the in-memory storage).
const STATE_DIR: &str = "dstressd-state";

/// Pause between two `Status` polls.
const POLL_PAUSE: Duration = Duration::from_millis(25);

/// Storage operations counted for one campaign's files.
#[derive(Debug, Default, Clone, Copy)]
pub struct FileOps {
    /// Time inside `Storage::append`.
    pub append: Duration,
    /// `Storage::sync` calls.
    pub syncs: u64,
    /// Time inside `Storage::sync`.
    pub sync: Duration,
    /// Bytes appended or written.
    pub bytes: u64,
}

/// The public `Storage` trait over shared in-memory files, timed and
/// counted per campaign (files named `c{id}.…`).
#[derive(Clone)]
pub struct TimedStorage {
    inner: SharedStorage<MemStorage>,
    ops: Arc<Mutex<HashMap<u64, FileOps>>>,
}

impl TimedStorage {
    /// An empty storage.
    pub fn new() -> Self {
        TimedStorage {
            inner: SharedStorage::new(MemStorage::new()),
            ops: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// What campaign `id`'s files have seen so far.
    pub fn ops(&self, id: u64) -> FileOps {
        self.ops
            .lock()
            .expect("ops lock poisoned")
            .get(&id)
            .copied()
            .unwrap_or_default()
    }

    fn count(&self, path: &Path, update: impl FnOnce(&mut FileOps)) {
        let id = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix('c'))
            .and_then(|n| n.split('.').next())
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(id) = id {
            update(
                self.ops
                    .lock()
                    .expect("ops lock poisoned")
                    .entry(id)
                    .or_default(),
            );
        }
    }
}

impl Storage for TimedStorage {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let result = self.inner.append(path, data);
        let took = started.elapsed();
        self.count(path, |o| {
            o.append += took;
            o.bytes += data.len() as u64;
        });
        result
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        let started = Instant::now();
        let result = self.inner.sync(path);
        let took = started.elapsed();
        self.count(path, |o| {
            o.syncs += 1;
            o.sync += took;
        });
        result
    }

    fn write(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        let result = self.inner.write(path, data);
        self.count(path, |o| o.bytes += data.len() as u64);
        result
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}

/// One line-JSON connection to the daemon.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        let mut line = serde_json::to_string(request).map_err(io::Error::other)?;
        line.push('\n');
        self.stream.write_all(line.as_bytes())
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        Ok(line)
    }

    fn ask(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        serde_json::from_str(&self.line()?).map_err(io::Error::other)
    }
}

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::other(what.into())
}

/// The daemon as the workload boots it.
fn boot(storage: TimedStorage, workers: usize) -> io::Result<Dstressd> {
    Dstressd::start_with_storage(
        storage,
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            dir: PathBuf::from(STATE_DIR),
            workers,
            event_capacity: 256,
            ..DaemonConfig::default()
        },
    )
}

/// One cold set-up: `Dstressd::start` until the first `Ping` reply.
pub fn cold_setup(workers: usize) -> io::Result<Duration> {
    let started = Instant::now();
    let daemon = boot(TimedStorage::new(), workers)?;
    let mut client = Client::connect(daemon.addr())?;
    let pong = client.ask(&Request::Ping)?;
    let took = started.elapsed();
    drop(client);
    daemon.shutdown()?;
    match pong {
        Response::Pong => Ok(took),
        other => Err(bad(format!("Ping answered {other:?}"))),
    }
}

/// The spec of a quick-scale tenant with this framework seed.
pub fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        scale: "quick".into(),
        seed,
        ..CampaignSpec::default()
    }
}

/// One tenant campaign as the client saw it.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Position in the loop's submission order.
    pub index: usize,
    /// Daemon campaign id.
    pub id: u64,
    /// Framework seed of its spec.
    pub seed: u64,
    /// Submit request round-trip.
    pub submit_rtt: Duration,
    /// Submit to the `Completed` event.
    pub latency: Duration,
    /// Sequenced events streamed.
    pub events: u64,
    /// Events dropped for this watcher (`Lagged{missed}`).
    pub lagged: u64,
    /// Generations the `Completed` event reported.
    pub generations: u32,
    /// Evaluations in the last `Generation` event's stats.
    pub evaluations: u64,
    /// `max_worker_idle_ns` in the last `Generation` event's stats.
    pub max_worker_idle_ns: u64,
    /// The final leaderboard's best entry.
    pub best: Option<LeaderboardEntry>,
}

/// Submits one campaign on `client`, watches it to its end-of-stream
/// marker, and reports what streamed.
fn tenant(
    client: &mut Client,
    index: usize,
    seed: u64,
    in_flight: &Mutex<Vec<u64>>,
) -> io::Result<Tenant> {
    let submitted = Instant::now();
    let id = match client.ask(&Request::Submit { spec: spec(seed) })? {
        Response::Submitted { campaign, .. } => campaign,
        other => return Err(bad(format!("Submit answered {other:?}"))),
    };
    let submit_rtt = submitted.elapsed();
    in_flight.lock().expect("in-flight lock poisoned").push(id);
    let mut t = Tenant {
        index,
        id,
        seed,
        submit_rtt,
        latency: Duration::ZERO,
        events: 0,
        lagged: 0,
        generations: 0,
        evaluations: 0,
        max_worker_idle_ns: 0,
        best: None,
    };
    match client.ask(&Request::Watch {
        campaign: id,
        from_seq: 0,
    })? {
        Response::Watching { campaign } if campaign == id => {}
        other => return Err(bad(format!("Watch answered {other:?}"))),
    }
    let mut completed = false;
    loop {
        let line = client.line()?;
        let Ok(stamped) = serde_json::from_str::<SeqEvent>(&line) else {
            // The end-of-stream marker: the connection is back in
            // request/response mode.
            break;
        };
        if stamped.seq > 0 {
            t.events += 1;
        }
        match stamped.event {
            Event::Generation { stats, .. } => {
                t.evaluations = stats.evaluations;
                t.max_worker_idle_ns = stats.max_worker_idle_ns;
            }
            Event::Completed {
                generations,
                leaderboard,
                ..
            } => {
                t.latency = submitted.elapsed();
                t.generations = generations;
                t.best = leaderboard.into_iter().next();
                completed = true;
            }
            Event::Lagged { missed } => t.lagged += missed,
            other => return Err(bad(format!("campaign {id} ended with {other:?}"))),
        }
    }
    in_flight
        .lock()
        .expect("in-flight lock poisoned")
        .retain(|&c| c != id);
    if !completed {
        return Err(bad(format!(
            "campaign {id}'s stream ended before Completed"
        )));
    }
    Ok(t)
}

/// What one closed-loop run measured.
pub struct Loop {
    /// Completed tenants.
    pub tenants: Vec<Tenant>,
    /// Tenant or poll operations that failed.
    pub failures: Vec<String>,
    /// `Status` round-trips.
    pub status_rtts: Vec<Duration>,
    /// From the loop's start to the last completion.
    pub wall: Duration,
    /// Process CPU seconds over the loop.
    pub cpu_s: f64,
    /// Each tenant's snapshot bytes (`c{id}.db.json`) after shutdown.
    pub snapshots: HashMap<u64, Vec<u8>>,
    /// Each tenant's storage counts.
    pub ops: HashMap<u64, FileOps>,
}

/// Runs the closed loop over `count` tenants: `slots` clients each submit
/// and watch one tenant at a time, cycling over `seeds`, while one more
/// polls `Status` on whatever is in flight.
///
/// # Errors
///
/// Boot and shutdown failures; per-tenant failures are counted instead.
pub fn closed_loop(workers: usize, slots: usize, seeds: &[u64], count: usize) -> io::Result<Loop> {
    let storage = TimedStorage::new();
    let daemon = boot(storage.clone(), workers)?;
    let addr = daemon.addr();
    let next = AtomicUsize::new(0);
    let in_flight = Mutex::new(Vec::new());
    let running = AtomicBool::new(true);
    let failures = Mutex::new(Vec::new());
    let tenants = Mutex::new(Vec::new());
    let cpu_start = crate::sys::cpu_seconds();
    let started = Instant::now();
    let (status_rtts, wall) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..slots)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => return failures.lock().expect("lock").push(e.to_string()),
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        match tenant(&mut client, i, seeds[i % seeds.len()], &in_flight) {
                            Ok(t) => tenants.lock().expect("lock").push(t),
                            Err(e) => {
                                failures.lock().expect("lock").push(e.to_string());
                                return;
                            }
                        }
                    }
                })
            })
            .collect();
        let poller = scope.spawn(|| {
            let mut rtts = Vec::new();
            let mut client = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    failures.lock().expect("lock").push(e.to_string());
                    return rtts;
                }
            };
            // Round-robin over the tenants in flight.
            let mut turn = 0;
            while running.load(Ordering::Relaxed) {
                let target = in_flight
                    .lock()
                    .expect("lock")
                    .get(turn % slots.max(1))
                    .copied();
                if let Some(campaign) = target {
                    turn += 1;
                    let asked = Instant::now();
                    match client.ask(&Request::Status { campaign }) {
                        Ok(Response::Status { report }) if report.state != "failed" => {
                            rtts.push(asked.elapsed())
                        }
                        other => failures
                            .lock()
                            .expect("lock")
                            .push(format!("Status of {campaign} answered {other:?}")),
                    }
                }
                std::thread::sleep(POLL_PAUSE);
            }
            rtts
        });
        for worker in workers {
            worker.join().expect("client thread panicked");
        }
        let wall = started.elapsed();
        running.store(false, Ordering::Relaxed);
        let rtts = poller.join().expect("poller thread panicked");
        (rtts, wall)
    });
    let tenants = tenants.into_inner().expect("lock");
    let cpu_s = crate::sys::cpu_seconds() - cpu_start;
    daemon.shutdown()?;
    let snapshots = tenants
        .iter()
        .filter_map(|t| {
            let path = Path::new(STATE_DIR).join(format!("c{}.db.json", t.id));
            storage
                .read(&path)
                .ok()
                .flatten()
                .map(|bytes| (t.id, bytes))
        })
        .collect();
    let ops = tenants.iter().map(|t| (t.id, storage.ops(t.id))).collect();
    Ok(Loop {
        tenants,
        failures: failures.into_inner().expect("lock"),
        status_rtts,
        wall,
        cpu_s,
        snapshots,
        ops,
    })
}

/// A solo in-process journaled run of a tenant's spec: the reference its
/// daemon snapshot must equal byte for byte.
pub struct Solo {
    /// Wall-clock of the `search_word64_journaled` call.
    pub wall: Duration,
    /// The journal snapshot.
    pub snapshot: Vec<u8>,
    /// The campaign's digest.
    pub digest: crate::campaign::Digest,
    /// The best leaderboard entry.
    pub best: LeaderboardEntry,
}

/// Runs one solo reference campaign.
///
/// # Errors
///
/// Journal and campaign failures.
pub fn solo(seed: u64) -> Result<Solo, String> {
    let storage = SharedStorage::new(MemStorage::new());
    let path = Path::new("solo.db.json");
    let mut journal = CampaignJournal::open(storage.clone(), path).map_err(|e| e.to_string())?;
    let mut dstress = DStress::new(ExperimentScale::quick(), spec(seed).framework_seed());
    let started = Instant::now();
    let campaign = dstress
        .search_word64_journaled(&mut journal, 60.0, Metric::CeAverage, false)
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let snapshot = storage
        .read(path)
        .map_err(|e| e.to_string())?
        .ok_or("the solo run wrote no snapshot")?;
    let result = &campaign.result;
    Ok(Solo {
        wall,
        snapshot,
        digest: crate::campaign::digest(result, result.eval_stats.compile_hits),
        best: LeaderboardEntry {
            genes: result.best.to_words(),
            fitness: result.best_fitness,
        },
    })
}
