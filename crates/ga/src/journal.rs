//! Crash-safe campaign persistence (paper §III-F).
//!
//! The paper's virus database exists so a two-week search can be interrupted
//! and resumed without losing work. This module makes that guarantee real:
//!
//! * every evaluated virus and every per-generation engine checkpoint is
//!   first **acknowledged** into an append-only JSONL write-ahead journal
//!   (`<db>.journal`) — a record is acked once its append *and* fsync have
//!   both returned;
//! * the journal is periodically **compacted** into an atomic snapshot
//!   (`<db>`): the full state is written to `<db>.tmp`, fsynced, and
//!   renamed over the snapshot, so a crash mid-compaction leaves either the
//!   old snapshot or the new one — never a hybrid;
//! * **recovery** loads the snapshot and replays the journal's longest
//!   valid prefix of lines. A torn tail (crash mid-append) is discarded,
//!   and records the snapshot already holds are skipped, so replay is
//!   idempotent across every crash point of the compaction protocol.
//!
//! All I/O goes through the [`Storage`] trait; [`MemStorage`] injects
//! faults into individual appends/fsyncs/renames and simulates crashes
//! (unsynced bytes vanish), which is how the fault-injection suite proves
//! that no schedule of failures loses an acknowledged record.

use crate::db::{VirusDatabase, VirusRecord};
use crate::engine::{EngineState, SearchResult, SearchSession};
use crate::fitness::ParallelFitness;
use crate::genome::Genome;
use crate::pool::EvalPool;
use crate::supervise::{HazardPlan, Incident, SupervisionPolicy};
use crate::GaConfig;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};

/// The primitive filesystem operations the journal needs, kept separate so
/// a test harness can fail each one independently. Implementations must
/// make [`append`] + [`sync`] durable (the ack point) and [`rename`]
/// atomic.
///
/// [`append`]: Storage::append
/// [`sync`]: Storage::sync
/// [`rename`]: Storage::rename
pub trait Storage {
    /// Reads a whole file; `Ok(None)` when it does not exist.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the file being absent.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;

    /// Appends bytes to a file, creating it if missing. Not durable until
    /// [`sync`](Storage::sync) returns.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Makes every previously written byte of the file durable (fsync).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn sync(&mut self, path: &Path) -> io::Result<()>;

    /// Creates or truncates a file with the given contents (used for the
    /// snapshot temporary). Not durable until synced.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn write(&mut self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` over `to`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file; succeeds if it is already absent.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the file being absent.
    fn remove(&mut self, path: &Path) -> io::Result<()>;

    /// Creates a directory and all missing parents; succeeds if it
    /// already exists. Counted as a mutating operation by fault-injecting
    /// implementations.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()>;

    /// Lists the files directly inside `dir`, in a deterministic
    /// (sorted) order. A missing directory lists as empty.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskStorage;

impl DiskStorage {
    /// A disk-backed storage.
    pub fn new() -> Self {
        DiskStorage
    }
}

impl Storage for DiskStorage {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        f.write_all(data)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .read(true)
            .open(path)?
            .sync_all()
    }

    fn write(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        std::fs::File::create(path)?.write_all(data)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut paths = Vec::new();
        for entry in entries {
            paths.push(entry?.path());
        }
        paths.sort();
        Ok(paths)
    }
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// Current visible contents.
    content: Vec<u8>,
    /// Byte count guaranteed to survive a crash (everything synced).
    durable: usize,
}

/// An in-memory [`Storage`] with fault injection and crash simulation.
///
/// Mutating operations (append/sync/write/rename/remove) are numbered from
/// zero; [`fail_op`](MemStorage::fail_op) makes exactly one of them return
/// an error without taking effect. [`crash`](MemStorage::crash) reverts
/// every file to its durable prefix — the bytes an fsync acknowledged —
/// which is how tests model power loss.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    files: BTreeMap<PathBuf, MemFile>,
    ops: u64,
    fail_at: Option<u64>,
}

impl MemStorage {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Makes the `n`-th mutating operation (0-based, counted from now on)
    /// fail with an error instead of taking effect.
    pub fn fail_op(&mut self, n: u64) {
        self.fail_at = Some(self.ops + n);
    }

    /// Cancels any scheduled fault.
    pub fn clear_faults(&mut self) {
        self.fail_at = None;
    }

    /// Mutating operations attempted so far (including the failed one).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Simulates a crash: every file reverts to its durable prefix.
    pub fn crash(&mut self) {
        for file in self.files.values_mut() {
            file.content.truncate(file.durable);
        }
    }

    /// Simulates a crash where up to `extra` unsynced bytes of each file
    /// happened to reach the medium — the torn-tail case a crash mid-append
    /// produces.
    pub fn crash_with_tail(&mut self, extra: usize) {
        for file in self.files.values_mut() {
            let keep = (file.durable + extra).min(file.content.len());
            file.content.truncate(keep);
            file.durable = file.durable.min(keep);
        }
    }

    /// The current contents of a file, if it exists (for assertions).
    pub fn contents(&self, path: &Path) -> Option<&[u8]> {
        self.files.get(path).map(|f| f.content.as_slice())
    }

    /// Creates a file with the given durable contents (test setup).
    pub fn install(&mut self, path: impl Into<PathBuf>, data: Vec<u8>) {
        let durable = data.len();
        self.files.insert(
            path.into(),
            MemFile {
                content: data,
                durable,
            },
        );
    }

    fn gate(&mut self) -> io::Result<()> {
        let op = self.ops;
        self.ops += 1;
        if self.fail_at == Some(op) {
            return Err(io::Error::other(format!("injected fault at op {op}")));
        }
        Ok(())
    }
}

impl Storage for MemStorage {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        Ok(self.files.get(path).map(|f| f.content.clone()))
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.gate()?;
        self.files
            .entry(path.to_path_buf())
            .or_default()
            .content
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.gate()?;
        let file = self
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "sync of missing file"))?;
        file.durable = file.content.len();
        Ok(())
    }

    fn write(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.gate()?;
        self.files.insert(
            path.to_path_buf(),
            MemFile {
                content: data.to_vec(),
                durable: 0,
            },
        );
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate()?;
        let file = self
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "rename of missing file"))?;
        self.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.gate()?;
        self.files.remove(path);
        Ok(())
    }

    fn create_dir_all(&mut self, _path: &Path) -> io::Result<()> {
        // The in-memory filesystem is flat, but directory creation is
        // still a mutating operation: gate it so fault sweeps cover it.
        self.gate()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        // BTreeMap keys are already sorted.
        Ok(self
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }
}

/// A [`Storage`] shared between several owners — the campaign registry
/// and every per-campaign journal of a service engine see one filesystem.
///
/// [`DiskStorage`] is trivially shareable (the real filesystem *is* the
/// shared state), but [`MemStorage`] is a value: without this wrapper
/// each journal would get its own private in-memory filesystem and a
/// fault injected into one could never be scheduled against the ops of
/// another. Cloning shares the underlying storage; [`with`] grants
/// direct access for fault scheduling and crash simulation.
///
/// [`with`]: SharedStorage::with
#[derive(Debug, Default)]
pub struct SharedStorage<S> {
    inner: std::sync::Arc<std::sync::Mutex<S>>,
}

impl<S> Clone for SharedStorage<S> {
    fn clone(&self) -> Self {
        SharedStorage {
            inner: std::sync::Arc::clone(&self.inner),
        }
    }
}

impl<S> SharedStorage<S> {
    /// Wraps a storage for sharing.
    pub fn new(inner: S) -> Self {
        SharedStorage {
            inner: std::sync::Arc::new(std::sync::Mutex::new(inner)),
        }
    }

    /// Runs `f` with exclusive access to the underlying storage (for
    /// fault scheduling, crash simulation, and assertions).
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut inner)
    }
}

impl<S: Storage> Storage for SharedStorage<S> {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.with(|s| s.read(path))
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.with(|s| s.append(path, data))
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.with(|s| s.sync(path))
    }

    fn write(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.with(|s| s.write(path, data))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.with(|s| s.rename(from, to))
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.with(|s| s.remove(path))
    }

    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.with(|s| s.create_dir_all(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.with(|s| s.list(dir))
    }
}

/// A mid-search engine checkpoint as stored on disk: the campaign it
/// belongs to and the engine state as a nested JSON document. Keeping the
/// state opaque here keeps the journal independent of the genome type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredCheckpoint {
    /// The campaign the interrupted search belongs to.
    pub campaign: String,
    /// The serialized [`EngineState`].
    pub state: String,
}

/// A supervision incident as stored on disk, tagged with its campaign so
/// several campaigns can share one journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredIncident {
    /// The campaign whose supervisor made the decision.
    pub campaign: String,
    /// The decision itself (sequence-numbered within the campaign).
    pub incident: Incident,
}

/// The snapshot file format: the full database next to the latest engine
/// checkpoint (absent once a search finishes).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// All compacted virus records.
    pub db: VirusDatabase,
    /// The in-flight search, if one was interrupted.
    #[serde(default)]
    pub checkpoint: Option<StoredCheckpoint>,
    /// Every acked supervision incident (absent in pre-supervision
    /// snapshots).
    #[serde(default)]
    pub incidents: Vec<StoredIncident>,
}

impl Snapshot {
    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// One journal line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum JournalEntry {
    /// An evaluated virus.
    Record(VirusRecord),
    /// A per-generation engine checkpoint (the latest one wins).
    Checkpoint(StoredCheckpoint),
    /// A supervision decision (retry / quarantine / worker loss).
    Incident(StoredIncident),
}

/// A crash-safe virus database: a [`VirusDatabase`] whose every mutation is
/// write-ahead journaled through a [`Storage`], plus the engine checkpoint
/// that lets an interrupted search continue bit-identically.
///
/// # Examples
///
/// ```
/// use dstress_ga::journal::{CampaignJournal, MemStorage};
/// use dstress_ga::VirusRecord;
///
/// let mut journal = CampaignJournal::open(MemStorage::new(), "viruses.json").unwrap();
/// journal
///     .append_record(VirusRecord {
///         campaign: "word64-ce".into(),
///         genes: vec![0x3333_3333_3333_3333],
///         gene_len: 64,
///         fitness: 812.0,
///         ce: 8120,
///         ue: 0,
///         sequence: 0,
///     })
///     .unwrap();
/// // A crash that loses every unsynced byte keeps the acked record.
/// let mut storage = journal.into_storage();
/// storage.crash();
/// let recovered = CampaignJournal::open(storage, "viruses.json").unwrap();
/// assert_eq!(recovered.db().records().len(), 1);
/// ```
#[derive(Debug)]
pub struct CampaignJournal<S: Storage> {
    storage: S,
    snapshot_path: PathBuf,
    journal_path: PathBuf,
    tmp_path: PathBuf,
    db: VirusDatabase,
    checkpoint: Option<StoredCheckpoint>,
    incidents: Vec<StoredIncident>,
    /// `(campaign, sequence)` pairs already present, for idempotent replay.
    seen: HashSet<(String, u64)>,
    /// `(campaign, incident seq)` pairs already present.
    seen_incidents: HashSet<(String, u64)>,
}

impl<S: Storage> CampaignJournal<S> {
    /// Opens (or creates) the database at `path`, recovering any state the
    /// journal holds. Accepts a legacy bare-[`VirusDatabase`] snapshot. A
    /// torn journal tail — the longest-valid-prefix rule — triggers an
    /// immediate compaction so later appends land on a clean journal.
    ///
    /// # Errors
    ///
    /// Propagates storage failures; a present but unparseable snapshot is
    /// [`io::ErrorKind::InvalidData`].
    pub fn open(storage: S, path: impl Into<PathBuf>) -> io::Result<Self> {
        let snapshot_path = path.into();
        let journal_path = sibling(&snapshot_path, ".journal");
        let tmp_path = sibling(&snapshot_path, ".tmp");
        let (mut db, mut checkpoint, mut incidents) = match storage.read(&snapshot_path)? {
            None => (VirusDatabase::new(), None, Vec::new()),
            Some(bytes) => {
                let json = String::from_utf8(bytes).map_err(invalid_data)?;
                if let Ok(db) = VirusDatabase::from_json(&json) {
                    (db, None, Vec::new())
                } else {
                    let snap = Snapshot::from_json(&json).map_err(invalid_data)?;
                    (snap.db, snap.checkpoint, snap.incidents)
                }
            }
        };
        let mut seen: HashSet<(String, u64)> = db
            .records()
            .iter()
            .map(|r| (r.campaign.clone(), r.sequence))
            .collect();
        let mut seen_incidents: HashSet<(String, u64)> = incidents
            .iter()
            .map(|i| (i.campaign.clone(), i.incident.seq))
            .collect();
        let mut torn = false;
        let mut replayed = false;
        if let Some(bytes) = storage.read(&journal_path)? {
            replayed = !bytes.is_empty();
            let mut rest = bytes.as_slice();
            loop {
                let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                    // No terminator: an append was cut short.
                    torn = torn || !rest.is_empty();
                    break;
                };
                let line = &rest[..nl];
                rest = &rest[nl + 1..];
                let Ok(text) = std::str::from_utf8(line) else {
                    torn = true;
                    break;
                };
                let Ok(entry) = serde_json::from_str::<JournalEntry>(text) else {
                    // Invalid line: everything after it is untrusted.
                    torn = true;
                    break;
                };
                match entry {
                    JournalEntry::Record(r) => {
                        if seen.insert((r.campaign.clone(), r.sequence)) {
                            db.record(r);
                        }
                    }
                    JournalEntry::Checkpoint(c) => checkpoint = Some(c),
                    JournalEntry::Incident(i) => {
                        if seen_incidents.insert((i.campaign.clone(), i.incident.seq)) {
                            incidents.push(i);
                        }
                    }
                }
            }
        }
        let mut journal = CampaignJournal {
            storage,
            snapshot_path,
            journal_path,
            tmp_path,
            db,
            checkpoint,
            incidents,
            seen,
            seen_incidents,
        };
        if torn {
            // The recovered prefix becomes the snapshot and the torn
            // journal is dropped, so the next append starts a fresh file.
            journal.compact()?;
        } else if replayed {
            // A valid journal tail may contain entries whose fsync never
            // ran (the crash hit between append and sync). Recovery exposed
            // them, so they must now be durable — otherwise a second crash
            // would make two recoveries disagree about the database.
            journal.storage.sync(&journal.journal_path)?;
        }
        Ok(journal)
    }

    /// The recovered database.
    pub fn db(&self) -> &VirusDatabase {
        &self.db
    }

    /// The latest engine checkpoint, if a search is in flight.
    pub fn checkpoint(&self) -> Option<&StoredCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// Every acked supervision incident, in ack order.
    pub fn incidents(&self) -> &[StoredIncident] {
        &self.incidents
    }

    /// The acked incidents of one campaign, in ack order.
    pub fn campaign_incidents<'a>(
        &'a self,
        campaign: &'a str,
    ) -> impl Iterator<Item = &'a Incident> {
        self.incidents
            .iter()
            .filter(move |i| i.campaign == campaign)
            .map(|i| &i.incident)
    }

    /// The snapshot path this journal persists to.
    pub fn path(&self) -> &Path {
        &self.snapshot_path
    }

    /// Fault-injection access to the underlying storage.
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Consumes the journal, returning the storage (for crash simulation).
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Journals one evaluated virus: assigns its campaign sequence number,
    /// appends the line, and fsyncs. The record is **acknowledged** — it
    /// survives any later crash — exactly when this returns `Ok`; on error
    /// the record may or may not survive and the caller must treat the
    /// campaign as failed.
    ///
    /// # Errors
    ///
    /// Propagates storage and serialization failures.
    pub fn append_record(&mut self, record: VirusRecord) -> io::Result<u64> {
        self.db.record(record);
        let stored = self
            .db
            .records()
            .last()
            .expect("record was just appended")
            .clone();
        let sequence = stored.sequence;
        self.seen.insert((stored.campaign.clone(), sequence));
        self.append_entry(&JournalEntry::Record(stored))?;
        Ok(sequence)
    }

    /// Journals a supervision incident (append + fsync): the supervisor's
    /// retry/quarantine/worker-loss decision is **acknowledged** — a resume
    /// replays it instead of re-deciding — exactly when this returns `Ok`.
    /// Re-acking an already-journaled `(campaign, seq)` is a no-op, which
    /// makes the resume window's replayed decisions idempotent.
    ///
    /// # Errors
    ///
    /// Propagates storage and serialization failures.
    pub fn append_incident(&mut self, campaign: &str, incident: Incident) -> io::Result<()> {
        if !self
            .seen_incidents
            .insert((campaign.to_string(), incident.seq))
        {
            return Ok(());
        }
        let stored = StoredIncident {
            campaign: campaign.to_string(),
            incident,
        };
        self.append_entry(&JournalEntry::Incident(stored.clone()))?;
        self.incidents.push(stored);
        Ok(())
    }

    /// Journals a per-generation engine checkpoint (append + fsync). The
    /// latest checkpoint wins on recovery.
    ///
    /// # Errors
    ///
    /// Propagates storage and serialization failures.
    pub fn append_checkpoint(&mut self, campaign: &str, state: String) -> io::Result<()> {
        let checkpoint = StoredCheckpoint {
            campaign: campaign.to_string(),
            state,
        };
        self.append_entry(&JournalEntry::Checkpoint(checkpoint.clone()))?;
        self.checkpoint = Some(checkpoint);
        Ok(())
    }

    fn append_entry(&mut self, entry: &JournalEntry) -> io::Result<()> {
        let mut line = serde_json::to_string(entry).map_err(io::Error::other)?;
        line.push('\n');
        self.storage.append(&self.journal_path, line.as_bytes())?;
        self.storage.sync(&self.journal_path)
    }

    /// Compacts the journal into an atomic snapshot: full state to
    /// `<db>.tmp`, fsync, rename over `<db>`, then drop the journal. Every
    /// crash point leaves a recoverable combination (the replay skips
    /// records the snapshot already holds).
    ///
    /// # Errors
    ///
    /// Propagates storage and serialization failures.
    pub fn compact(&mut self) -> io::Result<()> {
        let snapshot = Snapshot {
            db: self.db.clone(),
            checkpoint: self.checkpoint.clone(),
            incidents: self.incidents.clone(),
        };
        let json = snapshot.to_json().map_err(io::Error::other)?;
        self.storage.write(&self.tmp_path, json.as_bytes())?;
        self.storage.sync(&self.tmp_path)?;
        self.storage.rename(&self.tmp_path, &self.snapshot_path)?;
        self.storage.remove(&self.journal_path)
    }

    /// Marks the in-flight search finished: clears the checkpoint and
    /// compacts, leaving a clean snapshot.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn finish(&mut self) -> io::Result<()> {
        self.checkpoint = None;
        self.compact()
    }
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

fn invalid_data<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The per-campaign journaling routine every journaled driver shares: the
/// solo [`run_journaled`], a batch of campaigns multiplexed on one
/// [`CampaignScheduler`](crate::pool::CampaignScheduler), and the campaign
/// service. Keeping one copy means every change to the journaling protocol
/// is made — and proven by the crash and fault suites — once.
///
/// [`open`](Self::open) resumes the campaign from the journal's checkpoint
/// when it names this campaign (the checkpoint pins configuration and seed)
/// or starts it fresh, and seeds the set of chromosomes the journal already
/// holds for it. After every engine step,
/// [`commit_step`](Self::commit_step) appends the step's newly evaluated
/// viruses, then its supervision incidents, then a checkpoint — or, once
/// the search is done, [`CampaignJournal::finish`].
///
/// Records are journaled *before* the checkpoint whose evaluation cache
/// contains them, so a crash in between re-evaluates (purity makes the
/// values identical) and the recorded-set dedup drops the repeats — no
/// crash point loses or duplicates an acknowledged record. Incidents
/// replayed in the resume window carry the same sequence numbers (the
/// supervisor is deterministic), so the journal's `(campaign, seq)` dedup
/// absorbs their re-acks the same way.
#[derive(Debug)]
pub struct JournaledCampaign {
    name: String,
    /// Chromosomes this campaign has already journaled: a resume
    /// re-executes the window after its checkpoint, and the repeats must
    /// not re-append.
    recorded: HashSet<Vec<u64>>,
}

impl JournaledCampaign {
    /// Opens campaign `name` on `journal`: the session resumes from the
    /// journal's checkpoint when that checkpoint belongs to `name`, and is
    /// built by `start` otherwise. Appends nothing.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the matching checkpoint does not
    /// decode.
    pub fn open<G, S>(
        journal: &CampaignJournal<S>,
        name: &str,
        start: impl FnOnce() -> SearchSession<G>,
    ) -> io::Result<(Self, SearchSession<G>)>
    where
        G: Genome + PartialEq + Eq + Hash + Sync + Deserialize,
        S: Storage,
    {
        let session = match journal.checkpoint() {
            Some(cp) if cp.campaign == name => {
                SearchSession::resume(EngineState::from_json(&cp.state).map_err(invalid_data)?)
            }
            _ => start(),
        };
        let recorded = journal
            .db()
            .campaign(name)
            .map(|r| r.genes.clone())
            .collect();
        let campaign = JournaledCampaign {
            name: name.to_string(),
            recorded,
        };
        Ok((campaign, session))
    }

    /// The campaign name records, incidents and checkpoints are filed
    /// under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Journals the session's between-steps state as the campaign's latest
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates storage and serialization failures.
    pub fn checkpoint<G, S>(
        &self,
        journal: &mut CampaignJournal<S>,
        session: &SearchSession<G>,
    ) -> io::Result<()>
    where
        G: Genome + PartialEq + Eq + Hash + Sync + Serialize,
        S: Storage,
    {
        let state = session.checkpoint().to_json().map_err(io::Error::other)?;
        journal.append_checkpoint(&self.name, state)
    }

    /// Journals one finished engine step: the newly evaluated viruses
    /// (built by `make_record`, deduplicated against everything already
    /// recorded), then the new supervision incidents, then `publish` (which
    /// sees the step's incidents — the service broadcasts its progress
    /// event here; other drivers pass a no-op), then the checkpoint, or
    /// [`CampaignJournal::finish`] when the search is done. Returns whether
    /// it was done.
    ///
    /// # Errors
    ///
    /// Propagates storage and serialization failures; the operations before
    /// the failing one stay acknowledged.
    pub fn commit_step<G, S>(
        &mut self,
        journal: &mut CampaignJournal<S>,
        session: &mut SearchSession<G>,
        make_record: impl Fn(&G, f64) -> VirusRecord,
        publish: impl FnOnce(&SearchSession<G>, Vec<Incident>),
    ) -> io::Result<bool>
    where
        G: Genome + PartialEq + Eq + Hash + Sync + Serialize,
        S: Storage,
    {
        for (genome, value) in session.take_newly_evaluated() {
            let record = make_record(&genome, value);
            if self.recorded.insert(record.genes.clone()) {
                journal.append_record(record)?;
            }
        }
        let incidents = session.take_new_incidents();
        for incident in &incidents {
            journal.append_incident(&self.name, incident.clone())?;
        }
        publish(session, incidents);
        if session.done() {
            journal.finish()?;
            return Ok(true);
        }
        self.checkpoint(journal, session)?;
        Ok(false)
    }
}

/// Drives a journaled GA search to completion (or a step budget) through
/// [`JournaledCampaign`]: an opening checkpoint, then one
/// [`commit_step`](JournaledCampaign::commit_step) per engine step.
///
/// If `journal` holds a checkpoint for `campaign`, the search **resumes**
/// from it and continues bit-identically to an uninterrupted run (`config`
/// and `seed` are then ignored — the checkpoint pins them; `supervision`
/// is re-applied and must match the interrupted run's policy). Otherwise a
/// fresh search starts from `seed`.
///
/// Returns `Ok(None)` when `max_steps` ran out before the search finished
/// (the checkpoint is journaled, ready to resume); `Ok(Some(result))` when
/// the search completed, after compacting the journal into a snapshot with
/// the checkpoint cleared.
///
/// Evaluation runs on a persistent [`crate::pool::EvalPool`] whose worker
/// replicas stay warm across generations; their bookkeeping is absorbed
/// back into `fitness` on **every** exit — including the step-budget pause
/// — so counters like the word64 evaluator's compile statistics stay exact
/// across resume windows instead of reflecting only the primary replica.
///
/// # Errors
///
/// Propagates storage failures and checkpoint decode failures.
#[allow(clippy::too_many_arguments)] // the knobs mirror a campaign definition
pub fn run_journaled<G, F, S>(
    journal: &mut CampaignJournal<S>,
    campaign: &str,
    config: GaConfig,
    seed: u64,
    init: impl FnMut(&mut StdRng) -> G,
    fitness: &mut F,
    workers: usize,
    make_record: impl Fn(&G, f64) -> VirusRecord,
    max_steps: Option<u32>,
    supervision: SupervisionPolicy,
    hazards: Option<HazardPlan>,
) -> io::Result<Option<SearchResult<G>>>
where
    G: Genome + PartialEq + Eq + Hash + Sync + Serialize + Deserialize + 'static,
    F: ParallelFitness<G> + 'static,
    S: Storage,
{
    assert!(workers >= 1, "at least one evaluation worker is required");
    let (mut log, mut session) = JournaledCampaign::open(journal, campaign, || {
        SearchSession::start(config, seed, init)
    })?;
    session.set_supervision(supervision);
    session.set_hazards(hazards);
    let pool = EvalPool::new(&*fitness, workers);
    let mut drive = || -> io::Result<bool> {
        log.checkpoint(journal, &session)?;
        let mut steps = 0u32;
        while max_steps.is_none_or(|limit| steps < limit) {
            session.step(&pool);
            steps += 1;
            if log.commit_step(journal, &mut session, &make_record, |_, _| {})? {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let finished = drive();
    for replica in pool.shutdown() {
        fitness.absorb(replica);
    }
    Ok(finished?.then(|| session.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::Fitness;
    use crate::genome::BitGenome;

    fn record(campaign: &str, fitness: f64, genes: Vec<u64>) -> VirusRecord {
        VirusRecord {
            campaign: campaign.into(),
            genes,
            gene_len: 64,
            fitness,
            ce: fitness as u64,
            ue: 0,
            sequence: 0,
        }
    }

    /// A pure, replicable popcount fitness for driving journaled searches.
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

    fn small_config() -> GaConfig {
        let mut config = GaConfig::paper_defaults();
        config.population_size = 10;
        config.max_generations = 8;
        config.stagnation_window = 3;
        config
    }

    #[test]
    fn acked_records_survive_a_crash_with_a_torn_tail() {
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        for i in 0..3 {
            journal
                .append_record(record("c", i as f64, vec![i]))
                .unwrap();
        }
        // A fourth append reaches the file but its fsync never happens;
        // the crash leaves a few of its bytes behind — a torn tail.
        let path = PathBuf::from("db.json.journal");
        let mut storage = journal.into_storage();
        storage
            .append(&path, br#"{"Record":{"campaign":"c","genes":[99"#)
            .unwrap();
        storage.crash_with_tail(7);
        let recovered = CampaignJournal::open(storage, "db.json").unwrap();
        let genes: Vec<u64> = recovered.db().campaign("c").map(|r| r.genes[0]).collect();
        assert_eq!(genes, vec![0, 1, 2], "acked prefix must survive verbatim");
        // The torn journal was compacted away: appends start a clean file.
        assert!(recovered
            .into_storage()
            .contents(&path)
            .is_none_or(|c| c.is_empty()));
    }

    #[test]
    fn compact_roundtrips_records_and_checkpoint() {
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        journal.append_record(record("c", 5.0, vec![5])).unwrap();
        journal
            .append_checkpoint("c", "{\"fake\":1}".into())
            .unwrap();
        journal.compact().unwrap();
        let db_before = journal.db().clone();
        let mut storage = journal.into_storage();
        storage.crash();
        let reopened = CampaignJournal::open(storage, "db.json").unwrap();
        assert_eq!(*reopened.db(), db_before);
        assert_eq!(reopened.checkpoint().unwrap().campaign, "c");
        assert_eq!(reopened.checkpoint().unwrap().state, "{\"fake\":1}");
    }

    #[test]
    fn crash_between_snapshot_rename_and_journal_remove_does_not_duplicate() {
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        journal.append_record(record("c", 1.0, vec![1])).unwrap();
        journal.append_record(record("c", 2.0, vec![2])).unwrap();
        // compact = write tmp, sync tmp, rename, remove journal: fail the
        // remove, so both the new snapshot and the old journal survive.
        journal.storage_mut().fail_op(3);
        assert!(journal.compact().is_err());
        let mut storage = journal.into_storage();
        storage.clear_faults();
        storage.crash();
        let reopened = CampaignJournal::open(storage, "db.json").unwrap();
        let seqs: Vec<u64> = reopened.db().campaign("c").map(|r| r.sequence).collect();
        assert_eq!(seqs, vec![0, 1], "replay over the snapshot must dedup");
    }

    #[test]
    fn failed_append_or_sync_is_not_acked_and_loses_nothing_acked() {
        for fail in 0..2u64 {
            let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
            journal.append_record(record("c", 1.0, vec![1])).unwrap();
            // append = op0, sync = op1 of the next record.
            journal.storage_mut().fail_op(fail);
            assert!(journal.append_record(record("c", 2.0, vec![2])).is_err());
            let mut storage = journal.into_storage();
            storage.clear_faults();
            storage.crash();
            let reopened = CampaignJournal::open(storage, "db.json").unwrap();
            let genes: Vec<u64> = reopened.db().campaign("c").map(|r| r.genes[0]).collect();
            assert_eq!(genes, vec![1], "fail at op {fail}");
        }
    }

    #[test]
    fn opens_legacy_bare_database_snapshots() {
        let mut db = VirusDatabase::new();
        db.record(record("legacy", 3.0, vec![3]));
        let mut storage = MemStorage::new();
        storage.install("db.json", db.to_json().unwrap().into_bytes());
        let journal = CampaignJournal::open(storage, "db.json").unwrap();
        assert_eq!(*journal.db(), db);
        assert!(journal.checkpoint().is_none());
    }

    #[test]
    fn unparseable_snapshot_is_invalid_data() {
        let mut storage = MemStorage::new();
        storage.install("db.json", b"not json".to_vec());
        let err = CampaignJournal::open(storage, "db.json").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    use crate::supervise::{Hazard, HazardPlan, IncidentKind};

    fn incident(seq: u64, eval_index: u64) -> Incident {
        Incident {
            seq,
            eval_index,
            kind: IncidentKind::WorkerLoss,
        }
    }

    #[test]
    fn acked_incidents_survive_a_crash() {
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        journal.append_record(record("c", 1.0, vec![1])).unwrap();
        journal.append_incident("c", incident(0, 4)).unwrap();
        journal.append_incident("c", incident(1, 9)).unwrap();
        let mut storage = journal.into_storage();
        storage.crash();
        let recovered = CampaignJournal::open(storage, "db.json").unwrap();
        let replayed: Vec<&Incident> = recovered.campaign_incidents("c").collect();
        assert_eq!(replayed, vec![&incident(0, 4), &incident(1, 9)]);
        assert_eq!(recovered.db().campaign("c").count(), 1);
    }

    #[test]
    fn incident_appends_dedup_on_sequence_number() {
        // A resumed session replays supervision decisions it already made;
        // re-acking the same (campaign, seq) must be a no-op, including on
        // a journal that replayed duplicated entries after a crash.
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        journal.append_incident("c", incident(0, 4)).unwrap();
        journal.append_incident("c", incident(0, 4)).unwrap();
        assert_eq!(journal.incidents().len(), 1);
        // Distinct campaigns keep their own numbering.
        journal.append_incident("other", incident(0, 2)).unwrap();
        assert_eq!(journal.incidents().len(), 2);
        assert_eq!(journal.campaign_incidents("c").count(), 1);
    }

    #[test]
    fn compact_roundtrips_incidents() {
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        journal.append_record(record("c", 1.0, vec![1])).unwrap();
        journal.append_incident("c", incident(0, 7)).unwrap();
        journal.compact().unwrap();
        let mut storage = journal.into_storage();
        storage.crash();
        let reopened = CampaignJournal::open(storage, "db.json").unwrap();
        assert_eq!(
            reopened.campaign_incidents("c").collect::<Vec<_>>(),
            vec![&incident(0, 7)]
        );
        // The incident came back from the snapshot, so re-acking it after
        // compaction still dedups.
        let mut reopened = reopened;
        reopened.append_incident("c", incident(0, 7)).unwrap();
        assert_eq!(reopened.incidents().len(), 1);
    }

    #[test]
    fn journaled_search_under_hazards_replays_incidents_after_a_crash() {
        let config = small_config();
        let init = |rng: &mut StdRng| BitGenome::random(rng, 24);
        let make = |g: &BitGenome, v: f64| record("pop", v, g.to_words());
        let make_plan = || {
            let plan = HazardPlan::new();
            plan.schedule(2, Hazard::Panic);
            plan.schedule(5, Hazard::Transient);
            plan.schedule(8, Hazard::KillWorker);
            plan.schedule(13, Hazard::BudgetBlowout);
            plan
        };
        let run = |journal: &mut CampaignJournal<MemStorage>, max_steps: Option<u32>| {
            run_journaled(
                journal,
                "pop",
                config,
                7,
                init,
                &mut Popcount,
                2,
                make,
                max_steps,
                SupervisionPolicy::default(),
                Some(make_plan()),
            )
            .unwrap()
        };
        let mut clean = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        let reference = run(&mut clean, None).expect("search must finish");
        assert!(reference.quarantined() >= 2);
        let clean_incidents: Vec<&Incident> = clean.campaign_incidents("pop").collect();
        assert_eq!(clean_incidents.len(), reference.incidents.len());
        // Crash after two generations, reopen, resume with a fresh copy of
        // the same plan: pre-crash hazards are served from the cache (they
        // never re-fire), post-crash hazards fire exactly once, and the
        // journaled incident stream matches the uninterrupted run.
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        assert!(run(&mut journal, Some(2)).is_none());
        let mut storage = journal.into_storage();
        storage.crash();
        let mut journal = CampaignJournal::open(storage, "db.json").unwrap();
        let resumed = run(&mut journal, None).expect("resumed search must finish");
        assert_eq!(resumed.best, reference.best);
        assert_eq!(resumed.incidents, reference.incidents);
        assert_eq!(
            journal.campaign_incidents("pop").collect::<Vec<_>>(),
            clean_incidents,
            "the journaled incident stream is bit-identical"
        );
        assert_eq!(*journal.db(), *clean.db());
    }

    #[test]
    fn journaled_search_resumes_bit_identically_after_budget_interruption() {
        let config = small_config();
        let init = |rng: &mut StdRng| BitGenome::random(rng, 24);
        let make = |g: &BitGenome, v: f64| record("pop", v, g.to_words());
        let run = |journal: &mut CampaignJournal<MemStorage>, max_steps: Option<u32>| {
            run_journaled(
                journal,
                "pop",
                config,
                7,
                init,
                &mut Popcount,
                2,
                make,
                max_steps,
                SupervisionPolicy::default(),
                None,
            )
            .unwrap()
        };
        // Uninterrupted reference run.
        let mut clean = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        let reference = run(&mut clean, None).expect("search must finish");
        // Interrupted run: stop after 3 steps, reopen from crashed storage,
        // resume to completion.
        let mut journal = CampaignJournal::open(MemStorage::new(), "db.json").unwrap();
        assert!(
            run(&mut journal, Some(3)).is_none(),
            "budget must interrupt"
        );
        let mut storage = journal.into_storage();
        storage.crash();
        let mut journal = CampaignJournal::open(storage, "db.json").unwrap();
        assert!(
            journal.checkpoint().is_some(),
            "checkpoint must be recovered"
        );
        let resumed = run(&mut journal, None).expect("resumed search must finish");
        assert_eq!(resumed.best, reference.best);
        assert_eq!(resumed.best_fitness, reference.best_fitness);
        assert_eq!(resumed.leaderboard, reference.leaderboard);
        assert_eq!(resumed.generations, reference.generations);
        assert_eq!(resumed.converged, reference.converged);
        assert_eq!(resumed.history, reference.history);
        // The record stream is identical too, and the checkpoint is gone.
        assert_eq!(*journal.db(), *clean.db());
        assert!(journal.checkpoint().is_none());
    }
}
