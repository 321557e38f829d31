//! The on-disk campaign registry: ids, specs, journals, results.
//!
//! Each campaign owns three files inside the daemon's directory, keyed by
//! its id:
//!
//! * `c{id}.spec.json` — the submitted [`CampaignSpec`] plus the campaign
//!   lifecycle state (`running`, `paused`, `budget-paused`, `failed`,
//!   `done`, `cancelled`). Written atomically (tmp + fsync + rename) on
//!   every state change.
//! * `c{id}.db.json` — the campaign's own write-ahead journal snapshot
//!   (with `.journal` / `.tmp` siblings), giving every campaign journal
//!   isolation: one campaign's records can never interleave with
//!   another's.
//! * `c{id}.result.json` — the final report + leaderboard, written once
//!   when the campaign completes.
//!
//! All I/O goes through the [`Storage`] trait ([`DiskStorage`] by
//! default), so the fault-injection suite can fail any individual
//! registry operation through [`MemStorage`](dstress_ga::MemStorage).
//!
//! On boot the registry scans the directory: `done`/`cancelled` campaigns
//! are listed for status queries, everything else is handed back to the
//! engine to resume **bit-identically** from its journal checkpoint (or
//! from its spec seed if it never stepped).

use crate::service::protocol::{CampaignSpec, LeaderboardEntry, StatusReport};
use dstress_ga::journal::{DiskStorage, Storage};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// The spec file contents: what was submitted plus where the campaign is
/// in its lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredSpec {
    /// The submitted spec.
    pub spec: CampaignSpec,
    /// The campaign's database key.
    pub name: String,
    /// `running`, `paused`, `budget-paused`, `failed`, `done` or
    /// `cancelled`.
    pub state: String,
    /// The storage error that quarantined the campaign, when `state` is
    /// `failed` (absent otherwise).
    #[serde(default)]
    pub error: Option<String>,
    /// How far the campaign's event numbering leads its journaled steps
    /// (quarantine notices, steps a recovery re-ran): a revived campaign
    /// numbers on from its checkpoint's steps plus this, so no event
    /// sequence number repeats across a restart. Absent in older spec
    /// files, where it reads 0.
    #[serde(default)]
    pub seq_offset: u64,
    /// The journaled steps `seq_offset` is relative to, so a campaign
    /// whose journal does not reopen after a restart still numbers on
    /// past every seq it published. Absent in older spec files, where it
    /// reads 0.
    #[serde(default)]
    pub seq_steps: u64,
}

/// The result file contents: the terminal report and full leaderboard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredResult {
    /// The final status report.
    pub report: StatusReport,
    /// The final leaderboard, best first.
    pub leaderboard: Vec<LeaderboardEntry>,
}

/// One registered campaign as recovered by a boot scan.
#[derive(Debug, Clone)]
pub struct RegisteredCampaign {
    /// The campaign id.
    pub id: u64,
    /// Its spec file contents.
    pub stored: StoredSpec,
}

/// The campaign registry over one daemon directory.
#[derive(Debug)]
pub struct CampaignRegistry<S: Storage = DiskStorage> {
    storage: S,
    dir: PathBuf,
    next_id: u64,
}

impl CampaignRegistry<DiskStorage> {
    /// Opens (creating if needed) the registry directory on the real
    /// filesystem and scans it. See [`open_with`](Self::open_with).
    ///
    /// # Errors
    ///
    /// Propagates directory and file I/O failures; an unparseable spec
    /// file is [`io::ErrorKind::InvalidData`].
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(Self, Vec<RegisteredCampaign>)> {
        Self::open_with(DiskStorage::new(), dir)
    }
}

impl<S: Storage> CampaignRegistry<S> {
    /// Opens (creating if needed) the registry directory through
    /// `storage` and scans it, returning the registry and every
    /// previously registered campaign in id order.
    ///
    /// # Errors
    ///
    /// Propagates directory and file I/O failures; an unparseable spec
    /// file is [`io::ErrorKind::InvalidData`] (the daemon refuses to boot
    /// over a corrupt registry rather than silently dropping campaigns).
    pub fn open_with(
        mut storage: S,
        dir: impl Into<PathBuf>,
    ) -> io::Result<(Self, Vec<RegisteredCampaign>)> {
        let dir = dir.into();
        storage.create_dir_all(&dir)?;
        let mut campaigns = Vec::new();
        for path in storage.list(&dir)? {
            let Some(name) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            let Some(id) = name
                .strip_prefix('c')
                .and_then(|rest| rest.strip_suffix(".spec.json"))
                .and_then(|id| id.parse::<u64>().ok())
            else {
                continue;
            };
            let bytes = storage
                .read(&path)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "spec file vanished"))?;
            let text = String::from_utf8(bytes).map_err(invalid_data)?;
            let stored: StoredSpec = serde_json::from_str(&text).map_err(invalid_data)?;
            campaigns.push(RegisteredCampaign { id, stored });
        }
        campaigns.sort_by_key(|c| c.id);
        let next_id = campaigns.last().map_or(0, |c| c.id + 1);
        Ok((
            CampaignRegistry {
                storage,
                dir,
                next_id,
            },
            campaigns,
        ))
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Allocates the next campaign id (ids are never reused).
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The campaign's journal snapshot path (its `.journal` and `.tmp`
    /// siblings are derived by the journal itself).
    pub fn db_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("c{id}.db.json"))
    }

    /// Persists a campaign's spec + lifecycle state atomically.
    ///
    /// # Errors
    ///
    /// Propagates file I/O and serialization failures.
    pub fn write_spec(&mut self, id: u64, stored: &StoredSpec) -> io::Result<()> {
        let json = serde_json::to_string_pretty(stored).map_err(io::Error::other)?;
        self.write_atomic(&format!("c{id}.spec.json"), json.as_bytes())
    }

    /// Persists a campaign's terminal result atomically.
    ///
    /// # Errors
    ///
    /// Propagates file I/O and serialization failures.
    pub fn write_result(&mut self, id: u64, result: &StoredResult) -> io::Result<()> {
        let json = serde_json::to_string_pretty(result).map_err(io::Error::other)?;
        self.write_atomic(&format!("c{id}.result.json"), json.as_bytes())
    }

    /// Loads a campaign's terminal result, if it finished.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures; an unparseable result file is
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_result(&self, id: u64) -> io::Result<Option<StoredResult>> {
        let path = self.dir.join(format!("c{id}.result.json"));
        let Some(bytes) = self.storage.read(&path)? else {
            return Ok(None);
        };
        let text = String::from_utf8(bytes).map_err(invalid_data)?;
        Ok(Some(serde_json::from_str(&text).map_err(invalid_data)?))
    }

    /// Best-effort removal of a campaign's journal files (used to clean
    /// up after a submit whose spec never persisted, so a later campaign
    /// reusing the id cannot resume a stale checkpoint).
    pub fn discard_journal(&mut self, id: u64) {
        let db = self.db_path(id);
        for path in [db.clone(), sibling(&db, ".journal"), sibling(&db, ".tmp")] {
            let _ = self.storage.remove(&path);
        }
    }

    /// Writes `data` under `file` with the same durability discipline the
    /// journal's compaction uses: write the temporary, fsync it, then
    /// atomically rename it over the target — a crash can surface the old
    /// file or the new one, never a torn or zero-length hybrid.
    fn write_atomic(&mut self, file: &str, data: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{file}.tmp"));
        let target = self.dir.join(file);
        self.storage.write(&tmp, data)?;
        self.storage.sync(&tmp)?;
        self.storage.rename(&tmp, &target)
    }
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(suffix);
    path.with_file_name(name)
}

fn invalid_data<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_ga::MemStorage;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dstress-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stored(state: &str) -> StoredSpec {
        StoredSpec {
            spec: CampaignSpec::default(),
            name: "word64-ce-max-60C".into(),
            state: state.into(),
            error: None,
            seq_offset: 0,
            seq_steps: 0,
        }
    }

    #[test]
    fn ids_are_allocated_past_every_recovered_campaign() {
        let dir = temp_dir("ids");
        let (mut registry, recovered) = CampaignRegistry::open(&dir).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(registry.alloc_id(), 0);
        assert_eq!(registry.alloc_id(), 1);
        registry.write_spec(0, &stored("done")).unwrap();
        registry.write_spec(1, &stored("running")).unwrap();
        let (mut reopened, recovered) = CampaignRegistry::open(&dir).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].id, 0);
        assert_eq!(recovered[0].stored.state, "done");
        assert_eq!(recovered[1].stored.state, "running");
        assert_eq!(reopened.alloc_id(), 2, "ids continue past the scan");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_round_trip_and_absence_is_none() {
        let dir = temp_dir("results");
        let (mut registry, _) = CampaignRegistry::open(&dir).unwrap();
        assert!(registry.read_result(0).unwrap().is_none());
        let result = StoredResult {
            report: StatusReport {
                campaign: 0,
                name: "word64-ce-max-60C".into(),
                state: "done".into(),
                generation: 9,
                best: None,
                evaluations: 100,
                cache_hits: 3,
                incidents: 0,
                converged: true,
                error: None,
            },
            leaderboard: vec![LeaderboardEntry {
                genes: vec![0x3333_3333_3333_3333],
                fitness: 800.0,
            }],
        };
        registry.write_result(0, &result).unwrap();
        assert_eq!(registry.read_result(0).unwrap().unwrap(), result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_files_without_a_seq_offset_still_load() {
        let dir = temp_dir("old-spec");
        std::fs::create_dir_all(&dir).unwrap();
        let old = r#"{"spec":{"scale":"quick"},"name":"word64-ce-max-60C","state":"paused"}"#;
        std::fs::write(dir.join("c0.spec.json"), old).unwrap();
        let (_, recovered) = CampaignRegistry::open(&dir).unwrap();
        assert_eq!(recovered[0].stored.state, "paused");
        assert_eq!(recovered[0].stored.seq_offset, 0);
        assert_eq!(recovered[0].stored.seq_steps, 0);
        assert_eq!(recovered[0].stored.error, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spec_files_refuse_to_boot() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("c0.spec.json"), b"not json").unwrap();
        let err = CampaignRegistry::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_writes_are_durable_before_the_rename() {
        // The write_atomic discipline through an injectable storage:
        // write tmp (op 0), fsync tmp (op 1), rename (op 2). A crash
        // after the rename keeps the full spec because the fsync came
        // first; failing the fsync never leaves a torn target.
        let dir = PathBuf::from("reg");
        let (mut registry, _) = CampaignRegistry::open_with(MemStorage::new(), &dir).unwrap();
        registry.write_spec(0, &stored("running")).unwrap();
        let (registry, recovered) = CampaignRegistry::open_with(registry.storage, &dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].stored.state, "running");
        // Now fail the fsync of the next spec write: the target file must
        // be untouched (the failed write only ever touched the tmp).
        let mut registry = registry;
        let before = registry
            .storage
            .read(&dir.join("c0.spec.json"))
            .unwrap()
            .unwrap();
        registry.storage.fail_op(1); // op 0 = tmp write, op 1 = tmp fsync
        assert!(registry.write_spec(0, &stored("paused")).is_err());
        let after = registry
            .storage
            .read(&dir.join("c0.spec.json"))
            .unwrap()
            .unwrap();
        assert_eq!(before, after, "a failed spec write tore the target");
        // After a crash (unsynced bytes vanish) the registry still boots
        // with the old spec.
        registry.storage.clear_faults();
        registry.storage.crash();
        let (_, recovered) = CampaignRegistry::open_with(registry.storage, &dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].stored.state, "running");
    }
}
