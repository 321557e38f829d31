//! The experimental server: MCUs, MCBs, ECC counters, parameter knobs and
//! virus-run evaluation (paper §IV, Fig. 5).

use crate::config::ServerConfig;
use crate::power::{PowerModel, PowerReport};
use crate::replay::ReplayProfile;
use crate::session::{RecordedRun, Session};
use crate::thermal::{SettleReport, ThermalError, ThermalTestbed};
use dstress_dram::geometry::RowKey;
use dstress_dram::{
    ActivationCounts, AddressMap, Dimm, OperatingEnv, PlanError, RunPlan, VrtEvent, WordEvent,
    MAX_LANES,
};
use dstress_ecc::{classify_flips, CounterSnapshot, EccCounters, EventKind};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

/// Number of memory controller units on the X-Gene 2 (paper Fig. 5).
pub const MCUS: usize = 4;
/// Number of memory controller bridges; each spans two MCUs and owns the
/// VDD rail (paper §IV).
pub const MCBS: usize = 2;
/// Ranks per DIMM.
pub const RANKS: usize = 2;

/// Bounded retention of the per-MCU plan cache (entries are FIFO-evicted;
/// a generation needs one entry per distinct (contents, operating point,
/// activation profile) it evaluates, which is 1 for the idle MCUs and 1
/// per candidate — evicted next round — for the target MCU).
const PLAN_CACHE_CAP: usize = 8;

/// Bounded retention of the replay-profile cache. Candidates of one
/// population whose templates record value-independent traces (all the
/// data-pattern viruses) share one entry. With the spare trace buffer the
/// server keeps for the next session, at most four traces stay allocated
/// between evaluations.
const PROFILE_CACHE_CAP: usize = 3;

/// An operating point as exact bit patterns — the plan-cache key must use
/// bitwise equality, not approximate float comparison, because the plan is
/// a pure function of the exact operating-point floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EnvKey {
    temp: u64,
    vdd: u64,
    trefp: u64,
}

impl EnvKey {
    fn of(env: &OperatingEnv) -> EnvKey {
        EnvKey {
            temp: env.temp_c.to_bits(),
            vdd: env.vdd_v.to_bits(),
            trefp: env.trefp_s.to_bits(),
        }
    }
}

/// A [`RunPlan`] bundled with what the batched path needs to account for
/// its events per run instead of per event, shared (via `Arc`) between the
/// plan cache and every [`PreparedRun`] that hit it.
///
/// Static events are byte-identical every window of every run, so they are
/// classified once here and applied scaled by a run's completed windows —
/// integer sums, bit-identical to the event-at-a-time accounting
/// ([`record_events`]) of [`XGene2Server::evaluate_run_reference`]. Every
/// row an event of the plan can touch gets a slot in a sorted row table,
/// so a run tallies rows into a flat array instead of a map.
#[derive(Debug, PartialEq)]
struct McuPlan {
    plan: RunPlan,
    /// Per-rank counter delta of one window's static events.
    static_per_rank: [CounterSnapshot; RANKS],
    /// Whether the static events include an uncorrectable error (which
    /// then fires in every window).
    static_ue: bool,
    /// The row table, sorted: the rows of the visible static events and of
    /// every VRT word. A row's index here is its slot.
    rows: Vec<RowKey>,
    /// Per slot, the (CE, UE) tally of one window's static events.
    static_rows: Vec<[u64; 2]>,
    /// Per VRT word, indexed like [`RunPlan::vrt_word_sites`].
    vrt_sites: Vec<VrtSite>,
}

/// Where a VRT word's events are accounted: its row slot, its rank and the
/// contents the decoder checks a multi-bit flip against.
#[derive(Debug, PartialEq)]
struct VrtSite {
    slot: u32,
    rank: u8,
    written: u64,
}

impl McuPlan {
    fn new(plan: RunPlan) -> McuPlan {
        let mut static_per_rank = [CounterSnapshot::default(); RANKS];
        let mut static_ue = false;
        let mut visible = Vec::new();
        for event in plan.static_events() {
            let kind = classify_flips(event.written, event.flip_mask, 0);
            static_per_rank[event.loc.rank as usize].count(kind);
            static_ue |= kind == EventKind::Ue;
            if kind.is_visible() {
                visible.push((event.loc.row_key(), kind));
            }
        }
        let mut rows: Vec<RowKey> = visible
            .iter()
            .map(|&(row, _)| row)
            .chain(plan.vrt_word_sites().map(|(loc, _)| loc.row_key()))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let slot = |row: RowKey| rows.binary_search(&row).expect("every row has a slot");
        let mut static_rows = vec![[0u64; 2]; rows.len()];
        for (row, kind) in visible {
            static_rows[slot(row)][tally_index(kind)] += 1;
        }
        let vrt_sites = plan
            .vrt_word_sites()
            .map(|(loc, written)| VrtSite {
                slot: u32::try_from(slot(loc.row_key())).expect("row slots fit u32"),
                rank: loc.rank,
                written,
            })
            .collect();
        McuPlan {
            plan,
            static_per_rank,
            static_ue,
            rows,
            static_rows,
            vrt_sites,
        }
    }
}

/// The (CE, UE) tally column a visible event kind counts in.
fn tally_index(kind: EventKind) -> usize {
    usize::from(kind == EventKind::Ue)
}

/// One plan-cache entry: the full (contents, operating point, disturbance)
/// key — contents identified by the DIMM's monotonically increasing
/// generation counter, the disturbance by the activation profile it derives
/// from — plus the prepared plan. The stored `acts` are compared for exact
/// equality on lookup, so a hit is collision-free by construction.
#[derive(Debug, Clone)]
struct CachedPlan {
    generation: u64,
    env: EnvKey,
    acts: ActivationCounts,
    prepared: Arc<McuPlan>,
}

/// One replay-profile cache entry: the profile depends on the recorded
/// trace and the per-MCU refresh periods (and on fixed per-server config),
/// so both are stored and verified for exact equality on lookup.
#[derive(Debug, Clone)]
struct CachedProfile {
    trefps: [u64; MCUS],
    trace: RecordedRun,
    entry: Arc<ProfileEntry>,
}

/// A replay profile plus each MCU's disturbance profile derived from it,
/// memoized on the first plan build that needs it. A disturbance profile is
/// a pure function of the profile's activations and of the DIMM's weak-cell
/// population and disturbance model, which never change after boot, so the
/// memo stays valid for as long as the entry lives: it is evicted with its
/// profile-cache entry and dropped by [`XGene2Server::clear_eval_caches`].
#[derive(Debug)]
struct ProfileEntry {
    profile: ReplayProfile,
    disturbance: [OnceLock<Vec<f64>>; MCUS],
}

impl ProfileEntry {
    fn new(profile: ReplayProfile) -> Self {
        ProfileEntry {
            profile,
            disturbance: Default::default(),
        }
    }
}

/// The trace buffer of the profile-cache entry a new run evicted, kept for
/// the next [`Session`] to record into instead of growing a fresh one. A
/// clone starts without one, so a replicated server owns no buffer it did
/// not record itself.
#[derive(Debug, Default)]
struct SpareTrace(Option<RecordedRun>);

impl Clone for SpareTrace {
    fn clone(&self) -> Self {
        SpareTrace(None)
    }
}

/// Multiplies every field of a per-window counter delta by a window count.
fn scale_snapshot(s: &CounterSnapshot, windows: u64) -> CounterSnapshot {
    CounterSnapshot {
        ce: s.ce * windows,
        ue: s.ue * windows,
        sdc_miscorrected: s.sdc_miscorrected * windows,
        sdc_undetected: s.sdc_undetected * windows,
        clean: s.clean * windows,
    }
}

/// The row tables of a prepared run's plans laid end to end — MCU `m`'s
/// slot `s` is global slot `offsets[m] + s` — and their one-window static
/// rows, sorted into outcome order. Built once per evaluation: scaling
/// every static count by the same window count w ≥ 1 keeps that order, so
/// each run only sorts the rows its VRT events touched and merges them in.
struct RunRows {
    offsets: [usize; MCUS + 1],
    /// (global slot, one-window row tally), in outcome order.
    statics: Vec<(usize, RowErrors)>,
}

impl RunRows {
    fn new(prepared: &PreparedRun) -> RunRows {
        let mut offsets = [0; MCUS + 1];
        let mut statics = Vec::new();
        for (mcu, plan) in prepared.plans.iter().enumerate() {
            offsets[mcu + 1] = offsets[mcu] + plan.rows.len();
            for (slot, (&row, &[ce, ue])) in plan.rows.iter().zip(&plan.static_rows).enumerate() {
                if ce + ue > 0 {
                    statics.push((offsets[mcu] + slot, RowErrors { mcu, row, ce, ue }));
                }
            }
        }
        statics.sort_unstable_by(|a, b| outcome_order(&a.1, &b.1));
        RunRows { offsets, statics }
    }

    /// Number of global slots.
    fn len(&self) -> usize {
        self.offsets[MCUS]
    }

    /// One run's row errors in outcome order: its static rows scaled by
    /// its completed windows, merged with the rows its VRT events touched.
    fn row_errors(&self, prepared: &PreparedRun, tally: &RowTally, windows: u64) -> Vec<RowErrors> {
        if windows == 0 {
            // Nothing fired: a run stopped before its first window has no rows.
            return Vec::new();
        }
        let mut touched: Vec<RowErrors> = tally
            .touched
            .iter()
            .map(|&global| {
                let mcu = self.offsets.partition_point(|&o| o <= global) - 1;
                let slot = global - self.offsets[mcu];
                let plan = &prepared.plans[mcu];
                let [static_ce, static_ue] = plan.static_rows[slot];
                let [ce, ue] = tally.counts[global];
                RowErrors {
                    mcu,
                    row: plan.rows[slot],
                    ce: static_ce * windows + ce,
                    ue: static_ue * windows + ue,
                }
            })
            .collect();
        touched.sort_unstable_by(outcome_order);
        let mut touched = touched.into_iter().peekable();
        let mut rows = Vec::with_capacity(self.statics.len() + touched.len());
        for &(global, row) in &self.statics {
            if tally.counts[global] != [0, 0] {
                continue; // merged into its touched entry
            }
            let scaled = RowErrors {
                ce: row.ce * windows,
                ue: row.ue * windows,
                ..row
            };
            while let Some(fresh) =
                touched.next_if(|t| outcome_order(t, &scaled) == std::cmp::Ordering::Less)
            {
                rows.push(fresh);
            }
            rows.push(scaled);
        }
        rows.extend(touched);
        rows
    }
}

/// One run's VRT-event row tallies over a [`RunRows`] slot space.
struct RowTally {
    /// (CE, UE) per global slot.
    counts: Vec<[u64; 2]>,
    /// The slots with a non-zero tally, in first-touch order.
    touched: Vec<usize>,
}

impl RowTally {
    fn new(slots: usize) -> RowTally {
        RowTally {
            counts: vec![[0; 2]; slots],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, slot: usize, kind: EventKind) {
        let count = &mut self.counts[slot];
        if *count == [0, 0] {
            self.touched.push(slot);
        }
        count[tally_index(kind)] += 1;
    }
}

/// One memory controller unit: its DIMM, refresh period, allocation
/// cursor and prepared-plan cache.
#[derive(Debug, Clone)]
struct Mcu {
    dimm: Dimm,
    trefp_s: f64,
    alloc_cursor: u64,
    /// FIFO cache of prepared run plans, keyed by (contents generation,
    /// operating point, activation profile). Entries for superseded
    /// generations simply stop matching and age out; the generation
    /// counter never repeats, so a hit cannot alias different contents.
    plan_cache: VecDeque<CachedPlan>,
}

/// One memory controller bridge: the VDD rail for two MCUs.
#[derive(Debug, Clone, Copy)]
struct Mcb {
    vdd_v: f64,
}

/// Error counts attributed to one (MCU, rank) error domain — what Linux
/// EDAC exposes per DIMM/rank on the real server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainCounts {
    /// MCU (and therefore DIMM slot) index.
    pub mcu: usize,
    /// Rank within the DIMM.
    pub rank: usize,
    /// The counter values.
    pub counts: CounterSnapshot,
}

/// Error counts attributed to one DRAM row during a run — what the paper
/// aggregates to find "error-prone rows" for the neighbour-row experiments
/// (§V-A.2: "We identified the row addresses where errors were detected
/// using the mapping function").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowErrors {
    /// MCU (DIMM slot) index.
    pub mcu: usize,
    /// The affected row.
    pub row: dstress_dram::geometry::RowKey,
    /// Correctable errors observed in the row.
    pub ce: u64,
    /// Uncorrectable errors observed in the row.
    pub ue: u64,
}

/// A virus run prepared for repeated evaluation: one [`RunPlan`] per MCU,
/// built once for the current contents, operating points and replay
/// profile by [`XGene2Server::prepare_run`].
///
/// Valid until contents or operating points change — the ten-run averaging
/// loop of a fitness call reuses one `PreparedRun` across all its nonces,
/// paying the per-cell retention math once instead of once per window per
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedRun {
    plans: Vec<Arc<McuPlan>>,
}

/// The observable outcome of evaluating one virus run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Error totals across all domains for this run.
    pub totals: CounterSnapshot,
    /// Per-(MCU, rank) breakdown.
    pub per_domain: Vec<DomainCounts>,
    /// Refresh windows completed before the run ended.
    pub windows_completed: u32,
    /// Whether the run was stopped early because ECC raised an
    /// uncorrectable error (the paper's framework kills the virus on UE,
    /// §V-A.1).
    pub stopped_on_ue: bool,
    /// Per-row error tallies for this run, sorted by descending CE count.
    pub row_errors: Vec<RowErrors>,
}

/// The simulated X-Gene 2 server.
///
/// See the crate-level example for typical use.
///
/// The server is `Clone`: a clone is a fully independent replica (its own
/// DIMMs, thermal state and ECC counters) whose future behaviour is
/// identical to the original's for the same inputs — the substrate the
/// parallel GA evaluation workers each own a copy of.
#[derive(Debug, Clone)]
pub struct XGene2Server {
    config: ServerConfig,
    mcus: Vec<Mcu>,
    mcbs: [Mcb; MCBS],
    thermal: ThermalTestbed,
    counters: Vec<Vec<EccCounters>>,
    /// FIFO cache of replay profiles keyed by (trace, refresh periods).
    profile_cache: VecDeque<CachedProfile>,
    /// Trace buffer for the next session.
    spare_trace: SpareTrace,
}

impl XGene2Server {
    /// Boots a server: builds four DIMMs from their per-slot seeds and
    /// density multipliers, nominal operating parameters everywhere, all
    /// DIMMs at ambient temperature.
    pub fn new(config: ServerConfig) -> Self {
        let mcus = (0..MCUS)
            .map(|i| Mcu {
                dimm: Dimm::new(config.dimm_config_for(i), config.dimm_seeds[i]),
                trefp_s: dstress_dram::env::NOMINAL_TREFP_S,
                alloc_cursor: 0,
                plan_cache: VecDeque::new(),
            })
            .collect();
        let counters = (0..MCUS)
            .map(|_| (0..RANKS).map(|_| EccCounters::new()).collect())
            .collect();
        XGene2Server {
            config,
            mcus,
            mcbs: [Mcb {
                vdd_v: dstress_dram::env::NOMINAL_VDD_V,
            }; MCBS],
            thermal: ThermalTestbed::new(MCUS, config.ambient_c),
            counters,
            profile_cache: VecDeque::new(),
            spare_trace: SpareTrace::default(),
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Whether hardware interleaving is enabled.
    pub fn interleaving(&self) -> bool {
        self.config.interleaving
    }

    /// Row size of the installed DIMMs in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.config.dimm.geometry.row_bytes as u64
    }

    /// Sets the refresh period of one MCU (the X-Gene 2 configures TREFP
    /// per MCU, §IV).
    ///
    /// # Panics
    ///
    /// Panics if `mcu` is out of range or `trefp_s` is not positive.
    pub fn set_trefp(&mut self, mcu: usize, trefp_s: f64) {
        assert!(trefp_s > 0.0, "refresh period must be positive");
        self.mcus[mcu].trefp_s = trefp_s;
    }

    /// The refresh period of one MCU.
    pub fn trefp(&self, mcu: usize) -> f64 {
        self.mcus[mcu].trefp_s
    }

    /// Sets the supply voltage of one MCB (two MCUs share a rail, §IV).
    ///
    /// # Panics
    ///
    /// Panics if `mcb` is out of range or the voltage is not positive.
    pub fn set_vdd(&mut self, mcb: usize, vdd_v: f64) {
        assert!(vdd_v > 0.0, "supply voltage must be positive");
        self.mcbs[mcb].vdd_v = vdd_v;
    }

    /// The supply voltage feeding an MCU.
    pub fn vdd_for_mcu(&self, mcu: usize) -> f64 {
        self.mcbs[mcu / 2].vdd_v
    }

    /// Drives one DIMM to a temperature setpoint through the PID testbed
    /// and returns the settling report. Check the report's `settled` flag:
    /// an unreachable setpoint comes back as `settled == false`, not as an
    /// error.
    ///
    /// # Errors
    ///
    /// [`ThermalError::ChannelOutOfRange`] if `mcu` is out of range.
    pub fn set_dimm_temperature(
        &mut self,
        mcu: usize,
        temp_c: f64,
    ) -> Result<SettleReport, ThermalError> {
        self.thermal.settle(mcu, temp_c)
    }

    /// The current temperature of a DIMM.
    ///
    /// # Panics
    ///
    /// Panics if `mcu` is out of range (the server always rigs one thermal
    /// channel per MCU).
    pub fn dimm_temperature(&self, mcu: usize) -> f64 {
        self.thermal
            .temperature(mcu)
            .expect("one thermal channel per MCU")
    }

    /// The operating point currently applied to one MCU's DIMM.
    pub fn operating_env(&self, mcu: usize) -> OperatingEnv {
        OperatingEnv {
            temp_c: self.dimm_temperature(mcu),
            vdd_v: self.vdd_for_mcu(mcu),
            trefp_s: self.mcus[mcu].trefp_s,
        }
    }

    /// Applies the paper's relaxed stress point (max TREFP, min VDD) to the
    /// second memory domain (MCU2+MCU3 behind MCB1), leaving MCU0/MCU1
    /// nominal — the §IV memory configuration.
    pub fn relax_second_domain(&mut self) {
        self.set_trefp(2, dstress_dram::env::MAX_TREFP_S);
        self.set_trefp(3, dstress_dram::env::MAX_TREFP_S);
        self.set_vdd(1, 1.428);
    }

    /// Opens a memory session that allocates from `target_mcu`.
    ///
    /// # Panics
    ///
    /// Panics if `target_mcu` is out of range.
    pub fn session(&mut self, target_mcu: usize) -> Session<'_> {
        assert!(target_mcu < MCUS, "MCU index {target_mcu} out of range");
        let max_trace = self.config.access.max_trace_len;
        Session::new(self, target_mcu, max_trace)
    }

    /// Read-only access to one DIMM (diagnostics / calibration).
    pub fn dimm(&self, mcu: usize) -> &Dimm {
        &self.mcus[mcu].dimm
    }

    /// Mutable access to one DIMM (workload setup outside a session).
    ///
    /// Drops the evaluation caches first: the caller may replace the DIMM,
    /// and a new DIMM's contents generation restarts at 0, so a cached plan
    /// of the old DIMM could match it again.
    pub fn dimm_mut(&mut self, mcu: usize) -> &mut Dimm {
        self.clear_eval_caches();
        &mut self.mcus[mcu].dimm
    }

    /// Clears the contents of every DIMM and resets allocation cursors —
    /// fresh memory between experiments.
    pub fn reset_memory(&mut self) {
        for mcu in &mut self.mcus {
            mcu.dimm.clear_contents();
            mcu.alloc_cursor = 0;
        }
    }

    /// An empty trace for a new session on `target_mcu`, recording into the
    /// spare buffer when there is one.
    pub(crate) fn spare_trace(&mut self, target_mcu: usize) -> RecordedRun {
        match self.spare_trace.0.take() {
            Some(mut trace) => {
                trace.reset(target_mcu);
                trace
            }
            None => RecordedRun::idle(target_mcu),
        }
    }

    pub(crate) fn allocate(&mut self, mcu: usize, bytes: u64) -> Option<u64> {
        let capacity = self.mcus[mcu].dimm.geometry().capacity_bytes();
        let cursor = self.mcus[mcu].alloc_cursor;
        if cursor + bytes > capacity {
            return None;
        }
        self.mcus[mcu].alloc_cursor += bytes;
        Some(cursor)
    }

    pub(crate) fn available(&self, mcu: usize) -> u64 {
        self.mcus[mcu].dimm.geometry().capacity_bytes() - self.mcus[mcu].alloc_cursor
    }

    #[inline]
    pub(crate) fn read_local(&self, mcu: usize, local_addr: u64) -> u64 {
        self.mcus[mcu].dimm.read_addr(local_addr)
    }

    #[inline]
    pub(crate) fn write_local(&mut self, mcu: usize, local_addr: u64, value: u64) {
        self.mcus[mcu].dimm.write_addr(local_addr, value);
    }

    /// Loads consecutive words starting at a DIMM-local address; the span
    /// must not cross a row boundary (callers chunk per row — consecutive
    /// in-row addresses map to consecutive columns).
    pub(crate) fn read_local_span(&self, mcu: usize, local_addr: u64, out: &mut [u64]) {
        let map = self.mcus[mcu].dimm.address_map();
        let loc = map
            .map(local_addr & !7)
            .expect("session addresses are within capacity");
        self.mcus[mcu].dimm.read_words(loc, out);
    }

    /// Stores consecutive words starting at a DIMM-local address; the span
    /// must not cross a row boundary (callers chunk per row — consecutive
    /// in-row addresses map to consecutive columns).
    pub(crate) fn write_local_span(&mut self, mcu: usize, local_addr: u64, values: &[u64]) {
        let map = self.mcus[mcu].dimm.address_map();
        let loc = map
            .map(local_addr & !7)
            .expect("session addresses are within capacity");
        self.mcus[mcu].dimm.write_words(loc, values);
    }

    /// Zeroes all EDAC counters (done between virus runs, as on the real
    /// server).
    pub fn reset_counters(&mut self) {
        for per_mcu in &self.counters {
            for c in per_mcu {
                c.reset();
            }
        }
    }

    /// Snapshot of every (MCU, rank) error domain.
    pub fn counters(&self) -> Vec<DomainCounts> {
        let mut out = Vec::with_capacity(MCUS * RANKS);
        for (mcu, per_mcu) in self.counters.iter().enumerate() {
            for (rank, c) in per_mcu.iter().enumerate() {
                out.push(DomainCounts {
                    mcu,
                    rank,
                    counts: c.snapshot(),
                });
            }
        }
        out
    }

    /// Evaluates one virus run: replays the recorded trace for
    /// `windows_per_run` refresh windows under the current operating points
    /// and tallies ECC events. `nonce` distinguishes repeat runs of the
    /// same virus (VRT makes them differ, so callers average several runs,
    /// as the paper does with 10).
    ///
    /// The run stops at the end of the first window in which ECC reported
    /// an uncorrectable error, mirroring the OS killing the virus (§V-A.1).
    ///
    /// This is one run of [`Self::evaluate_runs`]; results are
    /// bit-identical to [`Self::evaluate_run_reference`].
    ///
    /// # Errors
    ///
    /// [`PlanError`] on a plan-layer programming error.
    pub fn evaluate_run(&mut self, run: &RecordedRun, nonce: u64) -> Result<RunOutcome, PlanError> {
        let mut outcomes = self.evaluate_runs(run, 1, nonce)?;
        Ok(outcomes.pop().expect("one run yields one outcome"))
    }

    /// Evaluates `runs` repeat runs of the same virus, building the replay
    /// profile and run plans once (the paper's 10-run averaging workflow,
    /// §V-A.1). The runs are evaluated through the batched lane kernel —
    /// all of them advance window by window together — which is
    /// bit-identical to evaluating them one at a time through
    /// [`Self::evaluate_run_reference`], the oracle.
    ///
    /// # Errors
    ///
    /// [`PlanError`] on a plan-layer programming error.
    pub fn evaluate_runs(
        &mut self,
        run: &RecordedRun,
        runs: u32,
        base_nonce: u64,
    ) -> Result<Vec<RunOutcome>, PlanError> {
        let prepared = self.prepare_run(run)?;
        self.evaluate_prepared_runs(&prepared, runs, base_nonce)
    }

    /// [`Self::evaluate_runs`] for a run the caller is done with: a new
    /// profile-cache entry keeps it without a copy, and the entry it evicts
    /// backs the next session's recording. Outcomes are the same as
    /// [`Self::evaluate_runs`] gives.
    ///
    /// # Errors
    ///
    /// [`PlanError`] on a plan-layer programming error.
    pub fn evaluate_runs_owned(
        &mut self,
        run: RecordedRun,
        runs: u32,
        base_nonce: u64,
    ) -> Result<Vec<RunOutcome>, PlanError> {
        let prepared = self.prepare(Cow::Owned(run))?;
        self.evaluate_prepared_runs(&prepared, runs, base_nonce)
    }

    /// Builds the per-MCU [`RunPlan`]s for a recorded run under the current
    /// contents and operating points, serving repeats from the per-MCU plan
    /// cache: prepares sharing a (contents, operating point, activation
    /// profile) key pay the per-cell retention math once. In a campaign
    /// that is the idle MCUs, whose contents stay put across candidates,
    /// and repeat prepares of unchanged contents. The target MCU's plans do
    /// not hit across evaluations: each evaluation resets memory and
    /// rewrites the target DIMM, which moves its contents generation. What
    /// the target MCU does reuse is the replay profile and the disturbance
    /// profile memoized on it, whenever consecutive candidates record the
    /// same trace. A cache hit requires exact equality of the stored
    /// activation profile, so cached and freshly built plans are
    /// interchangeable bit for bit and outcomes never depend on cache
    /// state.
    ///
    /// Evaluate with [`Self::evaluate_prepared_runs`]; rebuild after any
    /// write or knob change.
    ///
    /// # Errors
    ///
    /// [`PlanError::IndexOverflow`] if a weak-cell population overflows the
    /// plan index layout.
    pub fn prepare_run(&mut self, run: &RecordedRun) -> Result<PreparedRun, PlanError> {
        self.prepare(Cow::Borrowed(run))
    }

    /// [`Self::prepare_run`] over a borrowed or an owned run.
    fn prepare(&mut self, run: Cow<'_, RecordedRun>) -> Result<PreparedRun, PlanError> {
        let entry = self.profile_cached(run);
        let mut plans = Vec::with_capacity(MCUS);
        for mcu in 0..MCUS {
            let env = EnvKey::of(&self.operating_env(mcu));
            let generation = self.mcus[mcu].dimm.contents_generation();
            let acts = &entry.profile.acts_per_window[mcu];
            if let Some(hit) = self.mcus[mcu]
                .plan_cache
                .iter()
                .find(|c| c.generation == generation && c.env == env && &c.acts == acts)
            {
                plans.push(Arc::clone(&hit.prepared));
                continue;
            }
            let prepared = Arc::new(self.build_mcu_plan(mcu, &entry)?);
            let cache = &mut self.mcus[mcu].plan_cache;
            if cache.len() >= PLAN_CACHE_CAP {
                cache.pop_front();
            }
            cache.push_back(CachedPlan {
                generation,
                env,
                acts: acts.clone(),
                prepared: Arc::clone(&prepared),
            });
            plans.push(prepared);
        }
        Ok(PreparedRun { plans })
    }

    /// [`Self::prepare_run`] without consulting or populating the caches —
    /// the cold-path oracle the cache-coherence tests (and the `generation`
    /// bench baseline) compare against.
    ///
    /// # Errors
    ///
    /// [`PlanError::IndexOverflow`] if a weak-cell population overflows the
    /// plan index layout.
    pub fn prepare_run_uncached(&mut self, run: &RecordedRun) -> Result<PreparedRun, PlanError> {
        let entry = ProfileEntry::new(self.build_profile(run));
        let mut plans = Vec::with_capacity(MCUS);
        for mcu in 0..MCUS {
            plans.push(Arc::new(self.build_mcu_plan(mcu, &entry)?));
        }
        Ok(PreparedRun { plans })
    }

    fn build_mcu_plan(&mut self, mcu: usize, entry: &ProfileEntry) -> Result<McuPlan, PlanError> {
        let env = self.operating_env(mcu);
        let dimm = &mut self.mcus[mcu].dimm;
        let disturbance = entry.disturbance[mcu]
            .get_or_init(|| dimm.disturbance_profile(&entry.profile.acts_per_window[mcu]));
        Ok(McuPlan::new(dimm.prepare_run(&env, disturbance)?))
    }

    /// Drops every cached plan and replay profile (with the disturbance
    /// profiles memoized on them). Outcomes are cache-state independent,
    /// so this only affects wall-clock — it exists for benchmarks and
    /// cache-coherence tests.
    pub fn clear_eval_caches(&mut self) {
        for mcu in &mut self.mcus {
            mcu.plan_cache.clear();
        }
        self.profile_cache.clear();
    }

    /// The replay profile (with its disturbance memo) for a recorded run,
    /// served from the profile cache when an entry with an identical
    /// (trace, refresh periods) key exists. Equality of the full trace is verified on every hit, so the
    /// cache can never alias two different traces; data-pattern viruses,
    /// whose traces record addresses and access kinds but not values,
    /// share one entry across a whole population.
    ///
    /// A new entry stores an owned run as it is and a borrowed one as a
    /// copy, and the entry it evicts becomes the spare trace buffer for the
    /// next session. An owned run that hits is dropped: keeping it as the
    /// spare too would hold one more trace between evaluations than the
    /// cache does.
    fn profile_cached(&mut self, run: Cow<'_, RecordedRun>) -> Arc<ProfileEntry> {
        let trefps: [u64; MCUS] = std::array::from_fn(|i| self.mcus[i].trefp_s.to_bits());
        if let Some(hit) = self
            .profile_cache
            .iter()
            .find(|c| c.trefps == trefps && c.trace == *run)
        {
            return Arc::clone(&hit.entry);
        }
        let entry = Arc::new(ProfileEntry::new(self.build_profile(&run)));
        if self.profile_cache.len() >= PROFILE_CACHE_CAP {
            self.spare_trace.0 = self.profile_cache.pop_front().map(|evicted| evicted.trace);
        }
        self.profile_cache.push_back(CachedProfile {
            trefps,
            trace: run.into_owned(),
            entry: Arc::clone(&entry),
        });
        entry
    }

    /// Evaluates `runs` repeat runs of a prepared virus in one batched
    /// sweep — the hot path behind [`Self::evaluate_run`],
    /// [`Self::evaluate_runs`] and the GA fitness loop. Per (window, MCU)
    /// the lane kernel ([`RunPlan::advance_window_vrt_lanes`]) computes
    /// every live run's VRT events in a single cell-outer pass over the
    /// plan's flat SoA.
    /// Everything that is the same in every window is accounted once per
    /// run: the static events through the plan's one-window summary scaled
    /// by the run's completed windows, the row tallies through the plans'
    /// row slots, and the persistent EDAC counters through one fold per
    /// (MCU, rank). All accounting is integer sums, so the outcomes (and
    /// the persistent EDAC counters) are bit-identical to evaluating the
    /// runs one at a time through [`Self::evaluate_run_reference`].
    ///
    /// A run stops after the first full window in which any MCU raised an
    /// uncorrectable error, exactly as in the reference path; its lane then
    /// goes dead while the other runs continue.
    ///
    /// # Errors
    ///
    /// [`PlanError::Stale`] if DIMM contents changed since
    /// [`Self::prepare_run`].
    pub fn evaluate_prepared_runs(
        &mut self,
        prepared: &PreparedRun,
        runs: u32,
        base_nonce: u64,
    ) -> Result<Vec<RunOutcome>, PlanError> {
        self.ensure_prepared_fresh(prepared)?;
        let rows = RunRows::new(prepared);
        let mut outcomes = Vec::with_capacity(runs as usize);
        let mut batch_start = 0u64;
        while batch_start < runs as u64 {
            let lanes = (runs as u64 - batch_start).min(MAX_LANES as u64) as usize;
            let nonces: Vec<u64> = (0..lanes as u64)
                .map(|l| base_nonce.wrapping_add(batch_start + l))
                .collect();
            outcomes.extend(self.evaluate_lane_batch(prepared, &rows, &nonces));
            batch_start += lanes as u64;
        }
        Ok(outcomes)
    }

    /// One ≤[`MAX_LANES`]-lane batch of [`Self::evaluate_prepared_runs`]:
    /// `nonces[l]` is lane `l`'s run nonce. Freshness must already be
    /// checked.
    fn evaluate_lane_batch(
        &mut self,
        prepared: &PreparedRun,
        rows: &RunRows,
        nonces: &[u64],
    ) -> Vec<RunOutcome> {
        let lanes = nonces.len();
        let mut deltas = vec![[[CounterSnapshot::default(); RANKS]; MCUS]; lanes];
        let mut tallies: Vec<RowTally> = (0..lanes).map(|_| RowTally::new(rows.len())).collect();
        let mut lane_events: Vec<Vec<VrtEvent>> = vec![Vec::new(); lanes];
        let mut window_nonces = vec![0u64; lanes];
        let mut windows_completed = vec![0u32; lanes];
        let mut stopped_on_ue = vec![false; lanes];
        let mut live = if lanes == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        for window in 0..self.config.windows_per_run {
            if live == 0 {
                break;
            }
            let mut ue_this_window = 0u64;
            for (mcu, plan) in prepared.plans.iter().enumerate() {
                for (l, &nonce) in nonces.iter().enumerate() {
                    window_nonces[l] = window_nonce(nonce, window, mcu);
                }
                self.mcus[mcu]
                    .dimm
                    .advance_window_planned_lanes(
                        &plan.plan,
                        &window_nonces,
                        live,
                        &mut lane_events,
                    )
                    .expect("plan freshness checked by caller; no writes happen mid-evaluation");
                if plan.static_ue {
                    ue_this_window |= live;
                }
                let offset = rows.offsets[mcu];
                let mut scan = live;
                while scan != 0 {
                    let lane = scan.trailing_zeros() as usize;
                    scan &= scan - 1;
                    for event in &lane_events[lane] {
                        let site = &plan.vrt_sites[event.word as usize];
                        let kind = classify_flips(site.written, event.flip_mask, 0);
                        deltas[lane][mcu][site.rank as usize].count(kind);
                        if kind.is_visible() {
                            tallies[lane].add(offset + site.slot as usize, kind);
                        }
                        if kind == EventKind::Ue {
                            ue_this_window |= 1u64 << lane;
                        }
                    }
                }
            }
            let mut scan = live;
            while scan != 0 {
                let lane = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                windows_completed[lane] = window + 1;
            }
            // A UE ends a run after its full window, exactly like the
            // reference path's end-of-window break.
            let stopping = live & ue_this_window;
            let mut scan = stopping;
            while scan != 0 {
                let lane = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                stopped_on_ue[lane] = true;
            }
            live &= !stopping;
        }
        // Fold each run into the persistent EDAC counters once, its static
        // events scaled by the windows they fired in.
        (0..lanes)
            .map(|lane| {
                let windows = windows_completed[lane];
                for (mcu, lane_deltas) in deltas[lane].iter_mut().enumerate() {
                    let statics = &prepared.plans[mcu].static_per_rank;
                    for (rank, delta) in lane_deltas.iter_mut().enumerate() {
                        *delta = *delta + scale_snapshot(&statics[rank], windows as u64);
                        self.counters[mcu][rank].record_snapshot(delta);
                    }
                }
                run_outcome(
                    &deltas[lane],
                    rows.row_errors(prepared, &tallies[lane], windows as u64),
                    windows,
                    stopped_on_ue[lane],
                )
            })
            .collect()
    }

    fn ensure_prepared_fresh(&self, prepared: &PreparedRun) -> Result<(), PlanError> {
        for (mcu, plan) in prepared.plans.iter().enumerate() {
            self.mcus[mcu].dimm.ensure_plan_fresh(&plan.plan)?;
        }
        Ok(())
    }

    /// Reference evaluation path: re-runs the full per-cell retention loop
    /// ([`Dimm::advance_window_profiled`]) every window, one run at a time,
    /// instead of going through a [`PreparedRun`]. Kept as the oracle the
    /// differential tests (and the `window_kernel` bench) compare the
    /// lane-batched path against.
    pub fn evaluate_run_reference(&mut self, run: &RecordedRun, nonce: u64) -> RunOutcome {
        let profile = self.build_profile(run);
        let disturbances = self.disturbance_profiles(&profile);
        self.evaluate_with_profile(&disturbances, nonce)
    }

    /// Precomputes each DIMM's per-weak-word disturbance factors for a
    /// replay profile (they are invariant across windows and runs).
    fn disturbance_profiles(&self, profile: &ReplayProfile) -> Vec<Vec<f64>> {
        (0..MCUS)
            .map(|mcu| {
                self.mcus[mcu]
                    .dimm
                    .disturbance_profile(&profile.acts_per_window[mcu])
            })
            .collect()
    }

    /// Builds the analytic replay profile for a recorded run under the
    /// current per-MCU refresh periods.
    pub fn build_profile(&self, run: &RecordedRun) -> ReplayProfile {
        let maps: Vec<AddressMap> = self.mcus.iter().map(|m| m.dimm.address_map()).collect();
        let trefps: Vec<f64> = self.mcus.iter().map(|m| m.trefp_s).collect();
        ReplayProfile::build(run, &self.config.access, &maps, &trefps)
    }

    fn evaluate_with_profile(&mut self, disturbances: &[Vec<f64>], nonce: u64) -> RunOutcome {
        let mut deltas = [[CounterSnapshot::default(); RANKS]; MCUS];
        let mut row_errors = HashMap::new();
        let mut stopped_on_ue = false;
        let mut windows_completed = 0;
        'windows: for window in 0..self.config.windows_per_run {
            // The MCU index addresses four parallel arrays (`mcus`, `counters`,
            // `disturbances`, the per-MCU operating env), so an index loop is
            // clearer than nested enumerate/zip over disjoint borrows of self.
            #[allow(clippy::needless_range_loop)]
            for mcu in 0..MCUS {
                let env = self.operating_env(mcu);
                let events = self.mcus[mcu].dimm.advance_window_profiled(
                    &env,
                    &disturbances[mcu],
                    window_nonce(nonce, window, mcu),
                );
                if record_events(
                    &self.counters[mcu],
                    &mut deltas[mcu],
                    &mut row_errors,
                    mcu,
                    &events,
                ) {
                    stopped_on_ue = true;
                }
            }
            windows_completed = window + 1;
            if stopped_on_ue {
                break 'windows;
            }
        }
        finalize_outcome(&deltas, row_errors, windows_completed, stopped_on_ue)
    }

    /// Measures server power at the current operating points, given the
    /// DRAM access rate each DIMM sustains.
    pub fn measure_power(
        &self,
        model: &PowerModel,
        dram_accesses_per_s: &[f64; MCUS],
    ) -> PowerReport {
        model.report((0..MCUS).map(|i| {
            (
                self.mcus[i].trefp_s,
                self.vdd_for_mcu(i),
                dram_accesses_per_s[i],
            )
        }))
    }
}

/// Derives the per-(window, MCU) VRT nonce from a run nonce — the one
/// formula the reference and the lane-batched paths share.
fn window_nonce(run_nonce: u64, window: u32, mcu: usize) -> u64 {
    run_nonce
        .wrapping_mul(0x0100_0000_01B3)
        .wrapping_add(window as u64)
        .wrapping_add((mcu as u64) << 32)
}

/// Tallies one window's events for one MCU of the reference path into the
/// persistent EDAC counters, the run-local deltas and the per-row tally,
/// one event at a time. Returns whether an uncorrectable error was seen.
fn record_events(
    counters: &[EccCounters],
    deltas: &mut [CounterSnapshot; RANKS],
    row_errors: &mut HashMap<(usize, RowKey), (u64, u64)>,
    mcu: usize,
    events: &[WordEvent],
) -> bool {
    let mut saw_ue = false;
    for event in events {
        let kind = classify_flips(event.written, event.flip_mask, 0);
        let rank = event.loc.rank as usize;
        counters[rank].record(kind);
        deltas[rank].count(kind);
        if kind.is_visible() {
            let entry = row_errors
                .entry((mcu, event.loc.row_key()))
                .or_insert((0u64, 0u64));
            match kind {
                EventKind::Ce => entry.0 += 1,
                EventKind::Ue => entry.1 += 1,
                _ => {}
            }
        }
        if kind == EventKind::Ue {
            saw_ue = true;
        }
    }
    saw_ue
}

/// Assembles a [`RunOutcome`] of the reference path from run-local deltas
/// and the per-row tally.
fn finalize_outcome(
    deltas: &[[CounterSnapshot; RANKS]; MCUS],
    row_errors: HashMap<(usize, RowKey), (u64, u64)>,
    windows_completed: u32,
    stopped_on_ue: bool,
) -> RunOutcome {
    let mut rows: Vec<RowErrors> = row_errors
        .into_iter()
        .map(|((mcu, row), (ce, ue))| RowErrors { mcu, row, ce, ue })
        .collect();
    rows.sort_by(outcome_order);
    run_outcome(deltas, rows, windows_completed, stopped_on_ue)
}

/// The order of [`RunOutcome::row_errors`]. The key is total — descending
/// CE, then UE, then row, then MCU — so the order never depends on
/// hash-map iteration or on the order rows were tallied in.
fn outcome_order(a: &RowErrors, b: &RowErrors) -> std::cmp::Ordering {
    b.ce.cmp(&a.ce)
        .then(b.ue.cmp(&a.ue))
        .then(a.row.cmp(&b.row))
        .then(a.mcu.cmp(&b.mcu))
}

/// Assembles a [`RunOutcome`] from run-local deltas and row errors already
/// in outcome order.
fn run_outcome(
    deltas: &[[CounterSnapshot; RANKS]; MCUS],
    row_errors: Vec<RowErrors>,
    windows_completed: u32,
    stopped_on_ue: bool,
) -> RunOutcome {
    let mut per_domain = Vec::with_capacity(MCUS * RANKS);
    for (mcu, ranks) in deltas.iter().enumerate() {
        for (rank, counts) in ranks.iter().enumerate() {
            per_domain.push(DomainCounts {
                mcu,
                rank,
                counts: *counts,
            });
        }
    }
    let totals = per_domain
        .iter()
        .fold(CounterSnapshot::default(), |acc, d| acc + d.counts);
    RunOutcome {
        totals,
        per_domain,
        windows_completed,
        stopped_on_ue,
        row_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::MemoryBus;

    const WORST: u64 = 0x3333_3333_3333_3333;

    fn server() -> XGene2Server {
        XGene2Server::new(ServerConfig::small())
    }

    /// Fills the whole target DIMM with a word pattern and returns the
    /// recorded run (the paper's data-pattern viruses malloc as much memory
    /// as possible so the pattern covers the module).
    fn fill_run(server: &mut XGene2Server, mcu: usize, word: u64) -> RecordedRun {
        server.reset_memory();
        let bytes = server.config().dimm.geometry.capacity_bytes();
        let mut s = server.session(mcu);
        let base = s.alloc(bytes).expect("allocation fits");
        let values = vec![word; (bytes / 8) as usize];
        s.fill(base, &values).expect("write in range");
        s.finish()
    }

    #[test]
    fn knobs_are_per_mcu_and_per_mcb() {
        let mut sv = server();
        sv.set_trefp(2, 1.0);
        assert_eq!(sv.trefp(2), 1.0);
        assert_eq!(sv.trefp(0), dstress_dram::env::NOMINAL_TREFP_S);
        sv.set_vdd(1, 1.428);
        assert_eq!(sv.vdd_for_mcu(2), 1.428);
        assert_eq!(sv.vdd_for_mcu(3), 1.428);
        assert_eq!(sv.vdd_for_mcu(0), 1.5);
    }

    #[test]
    fn relax_second_domain_matches_paper_setup() {
        let mut sv = server();
        sv.relax_second_domain();
        assert_eq!(sv.trefp(2), dstress_dram::env::MAX_TREFP_S);
        assert_eq!(sv.trefp(3), dstress_dram::env::MAX_TREFP_S);
        assert_eq!(sv.trefp(0), dstress_dram::env::NOMINAL_TREFP_S);
        assert!((sv.vdd_for_mcu(2) - 1.428).abs() < 1e-9);
        assert_eq!(sv.vdd_for_mcu(0), 1.5);
    }

    #[test]
    fn thermal_setpoint_sticks() {
        let mut sv = server();
        let report = sv.set_dimm_temperature(2, 60.0).unwrap();
        assert!(report.settled);
        assert!((sv.dimm_temperature(2) - 60.0).abs() < 0.5);
        assert!((sv.dimm_temperature(0) - sv.config().ambient_c).abs() < 0.5);
        assert!(sv.set_dimm_temperature(99, 60.0).is_err());
    }

    #[test]
    fn nominal_run_is_error_free() {
        let mut sv = server();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let outcome = sv.evaluate_run(&run, 0).unwrap();
        assert_eq!(
            outcome.totals.visible(),
            0,
            "no errors at nominal parameters"
        );
        assert!(!outcome.stopped_on_ue);
    }

    #[test]
    fn relaxed_run_manifests_ces_on_the_stressed_dimm_only() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let outcome = sv.evaluate_run(&run, 0).unwrap();
        assert!(outcome.totals.ce > 0, "relaxed DIMM2 at 60C must show CEs");
        let ce_of = |mcu: usize| -> u64 {
            outcome
                .per_domain
                .iter()
                .filter(|d| d.mcu == mcu)
                .map(|d| d.counts.visible())
                .sum()
        };
        // MCU0/MCU1 run at nominal parameters: no errors there.
        assert_eq!(ce_of(0), 0, "nominal MCU0 must stay clean");
        assert_eq!(ce_of(1), 0, "nominal MCU1 must stay clean");
        // DIMM3 is relaxed too but idle at ambient: only background errors,
        // far fewer than the heated, virus-filled DIMM2.
        assert!(
            ce_of(2) > 10 * ce_of(3).max(1),
            "DIMM2 must dominate: {} vs {}",
            ce_of(2),
            ce_of(3)
        );
    }

    #[test]
    fn high_temperature_triggers_ue_and_stops_the_run() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 70.0).unwrap();
        // Fill the whole DIMM so the UE-prone pairs are covered.
        let run = fill_run(&mut sv, 2, WORST);
        let outcome = sv.evaluate_run(&run, 0).unwrap();
        assert!(outcome.stopped_on_ue, "70C must raise a UE");
        assert!(outcome.totals.ue > 0);
        assert!(outcome.windows_completed <= sv.config().windows_per_run);
    }

    #[test]
    fn counters_accumulate_across_runs_and_reset() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let a = sv.evaluate_run(&run, 0).unwrap();
        let b = sv.evaluate_run(&run, 1).unwrap();
        let total: u64 = sv.counters().iter().map(|d| d.counts.visible()).sum();
        assert_eq!(total, a.totals.visible() + b.totals.visible());
        sv.reset_counters();
        let zero: u64 = sv.counters().iter().map(|d| d.counts.visible()).sum();
        assert_eq!(zero, 0);
    }

    #[test]
    fn run_outcomes_vary_across_nonces() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let counts: Vec<u64> = (0..8)
            .map(|n| sv.evaluate_run(&run, n).unwrap().totals.ce)
            .collect();
        let distinct: std::collections::HashSet<_> = counts.iter().collect();
        assert!(
            distinct.len() > 1,
            "VRT must differentiate runs: {counts:?}"
        );
    }

    #[test]
    fn worst_pattern_beats_all_zeros_at_server_level() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let worst: u64 = (0..4)
            .map(|n| sv.evaluate_run(&run, n).unwrap().totals.ce)
            .sum();
        sv.reset_memory();
        let run = fill_run(&mut sv, 2, 0);
        let zeros: u64 = (0..4)
            .map(|n| sv.evaluate_run(&run, n).unwrap().totals.ce)
            .sum();
        assert!(
            worst as f64 >= 1.4 * zeros.max(1) as f64,
            "worst={worst} zeros={zeros}"
        );
    }

    /// The oracle for `runs` repeat runs: [`XGene2Server::evaluate_run_reference`]
    /// one run at a time, with the nonces the batched path gives its lanes.
    fn reference_runs(
        server: &mut XGene2Server,
        run: &RecordedRun,
        runs: u32,
        base_nonce: u64,
    ) -> Vec<RunOutcome> {
        (0..runs as u64)
            .map(|r| server.evaluate_run_reference(run, base_nonce.wrapping_add(r)))
            .collect()
    }

    #[test]
    fn prepared_run_matches_reference_path() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 62.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut reference_sv = sv.clone();
        let prepared = sv.prepare_run(&run).unwrap();
        // One prepared run serves every nonce, one run per call.
        for nonce in 0..12 {
            let fast = sv.evaluate_prepared_runs(&prepared, 1, nonce).unwrap();
            let slow = reference_sv.evaluate_run_reference(&run, nonce);
            assert_eq!(fast, [slow], "prepared path diverged at nonce {nonce}");
        }
        assert_eq!(sv.counters(), reference_sv.counters());
    }

    #[test]
    fn batched_runs_match_sequential_oracle() {
        // 60C exercises the CE-only regime, 70C the stop-on-UE regime
        // (lanes dying at different windows inside one batch); zero windows
        // must leave every run without rows.
        for windows in [0, 1, 6] {
            for temp in [60.0, 70.0] {
                let mut sv = XGene2Server::new(ServerConfig {
                    windows_per_run: windows,
                    ..ServerConfig::small()
                });
                sv.relax_second_domain();
                sv.set_dimm_temperature(2, temp).unwrap();
                let run = fill_run(&mut sv, 2, WORST);
                let mut oracle_sv = sv.clone();
                let batched = sv.evaluate_runs(&run, 10, 3).unwrap();
                let sequential = reference_runs(&mut oracle_sv, &run, 10, 3);
                assert_eq!(
                    batched, sequential,
                    "batched path diverged at {temp}C, {windows} windows"
                );
                assert_eq!(
                    sv.counters(),
                    oracle_sv.counters(),
                    "persistent EDAC tallies diverged at {temp}C, {windows} windows"
                );
            }
        }
    }

    #[test]
    fn batched_runs_chunk_beyond_one_lane_word() {
        // More runs than MAX_LANES, so the batch splits across lane words.
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 62.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut oracle_sv = sv.clone();
        let runs = MAX_LANES as u32 + 3;
        let batched = sv.evaluate_runs(&run, runs, 11).unwrap();
        let sequential = reference_runs(&mut oracle_sv, &run, runs, 11);
        assert_eq!(batched.len(), runs as usize);
        assert_eq!(batched, sequential);
        assert_eq!(sv.counters(), oracle_sv.counters());
    }

    #[test]
    fn plan_cache_state_does_not_change_results() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut cold = sv.clone();
        // Warm path: the second prepare_run hits caches the first built.
        let _ = sv.evaluate_runs(&run, 2, 0).unwrap();
        let warm = sv.evaluate_runs(&run, 2, 9).unwrap();
        // Cold path: same history, then caches dropped and a forced rebuild.
        let _ = cold.evaluate_runs(&run, 2, 0).unwrap();
        cold.clear_eval_caches();
        let prepared = cold.prepare_run_uncached(&run).unwrap();
        let uncached = cold.evaluate_prepared_runs(&prepared, 2, 9).unwrap();
        assert_eq!(
            warm, uncached,
            "cache hits must be bit-identical to rebuilds"
        );
        assert_eq!(sv.counters(), cold.counters());
    }

    /// Fills `rows` rows of the target DIMM with a word pattern and
    /// streams them back. The reads miss the cache model and activate
    /// rows, so the trace has a non-zero disturbance profile; the trace
    /// depends on `rows` but not on the pattern.
    fn hammer_run(server: &mut XGene2Server, mcu: usize, rows: u64, word: u64) -> RecordedRun {
        server.reset_memory();
        let words = rows * server.row_bytes() / 8;
        let mut s = server.session(mcu);
        let base = s.alloc(words * 8).expect("allocation fits");
        s.fill(base, &vec![word; words as usize])
            .expect("write in range");
        let mut out = Vec::new();
        s.read_span(base, words, &mut out).expect("read in range");
        s.finish()
    }

    /// Whether the profile-cache entry for `run` memoized MCU `mcu`'s
    /// disturbance profile.
    fn memoized(server: &XGene2Server, run: &RecordedRun, mcu: usize) -> bool {
        server
            .profile_cache
            .iter()
            .any(|c| &c.trace == run && c.entry.disturbance[mcu].get().is_some())
    }

    /// Asserts every memoized disturbance profile equals a fresh one for
    /// its entry's activations, bit for bit.
    fn assert_memos_coherent(server: &XGene2Server) {
        for cached in &server.profile_cache {
            for (mcu, memo) in cached.entry.disturbance.iter().enumerate() {
                if let Some(memo) = memo.get() {
                    let acts = &cached.entry.profile.acts_per_window[mcu];
                    let fresh = server.dimm(mcu).disturbance_profile(acts);
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(memo), bits(&fresh), "stale memo for MCU {mcu}");
                }
            }
        }
    }

    /// Asserts `prepare_run` (caches and memo) builds exactly the plans
    /// of the cold oracle, and that every memo is coherent.
    fn assert_prepare_matches_uncached(server: &mut XGene2Server, run: &RecordedRun) {
        let warm = server.prepare_run(run).unwrap();
        assert_eq!(warm, server.prepare_run_uncached(run).unwrap());
        assert_memos_coherent(server);
    }

    #[test]
    fn disturbance_memo_plans_match_uncached_rebuilds() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = hammer_run(&mut sv, 2, 48, WORST);
        assert!(sv.build_profile(&run).acts_per_window[2].total() > 0);
        let first = sv.prepare_run(&run).unwrap();
        assert_eq!(first, sv.prepare_run_uncached(&run).unwrap());
        assert!(memoized(&sv, &run, 2));

        // Same trace, new contents: the memo is reused for new plans.
        let rewritten = hammer_run(&mut sv, 2, 48, 0x5A5A_5A5A_5A5A_5A5A);
        assert_eq!(rewritten, run, "the pattern does not change the trace");
        assert_ne!(
            sv.prepare_run(&run).unwrap(),
            first,
            "new contents, new plans"
        );
        assert_prepare_matches_uncached(&mut sv, &run);

        // A refresh-period change keys a new profile entry.
        sv.set_trefp(3, dstress_dram::env::NOMINAL_TREFP_S);
        assert_prepare_matches_uncached(&mut sv, &run);
        sv.set_trefp(3, dstress_dram::env::MAX_TREFP_S);

        // On a clone, which shares the memoized entries.
        let mut replica = sv.clone();
        assert_prepare_matches_uncached(&mut replica, &run);
        assert_eq!(
            replica.prepare_run(&run).unwrap(),
            sv.prepare_run(&run).unwrap()
        );

        // After more distinct traces than the cache holds evict the entry.
        for rows in 1..=PROFILE_CACHE_CAP as u64 {
            let other = hammer_run(&mut sv, 2, 48 + rows, WORST);
            assert_prepare_matches_uncached(&mut sv, &other);
        }
        let run = hammer_run(&mut sv, 2, 48, WORST);
        assert!(!memoized(&sv, &run, 2), "the entry must have been evicted");
        assert_prepare_matches_uncached(&mut sv, &run);

        // After the caches are dropped.
        sv.clear_eval_caches();
        assert!(!memoized(&sv, &run, 2));
        assert_prepare_matches_uncached(&mut sv, &run);
    }

    #[test]
    fn recycled_trace_buffers_prepare_like_uncached() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        // One more distinct run than the profile cache holds, each handed
        // over by value: the entry the last one evicts becomes the spare.
        for rows in 0..=PROFILE_CACHE_CAP as u64 {
            let run = hammer_run(&mut sv, 2, 8 + rows, WORST);
            sv.evaluate_runs_owned(run, 2, rows).unwrap();
        }
        assert!(sv.spare_trace.0.is_some(), "the evicted trace is kept");
        assert!(
            sv.clone().spare_trace.0.is_none(),
            "a replica starts without a spare buffer"
        );

        // The next session records into it.
        let run = hammer_run(&mut sv, 2, 20, WORST);
        assert!(sv.spare_trace.0.is_none(), "the session took the spare");
        assert_prepare_matches_uncached(&mut sv, &run);

        // The borrowed prepare missed, so its eviction left a new spare. A
        // repeat handed over by value hits the cache and is dropped, leaving
        // that spare as it was; outcomes match the borrowed path.
        let spare = sv.spare_trace.0.clone();
        assert!(spare.is_some());
        let owned = sv.evaluate_runs_owned(run.clone(), 2, 5).unwrap();
        assert_eq!(sv.spare_trace.0, spare, "a hit leaves the spare alone");
        let again = hammer_run(&mut sv, 2, 20, WORST);
        assert_eq!(again, run);
        assert_prepare_matches_uncached(&mut sv, &again);
        assert_eq!(owned, sv.evaluate_runs(&again, 2, 5).unwrap());
    }

    #[test]
    fn stale_prepared_run_is_a_typed_error() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let prepared = sv.prepare_run(&run).unwrap();
        // Any write to the target DIMM invalidates its plan.
        let _ = fill_run(&mut sv, 2, 0);
        for runs in [1, 2] {
            match sv.evaluate_prepared_runs(&prepared, runs, 0) {
                Err(PlanError::Stale { built, current }) => assert!(current > built),
                other => panic!("expected PlanError::Stale, got {other:?}"),
            }
        }
    }

    #[test]
    fn replaced_dimm_is_not_served_the_old_dimms_plan() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let old = sv.evaluate_runs(&run, 3, 0).unwrap();
        // Another weak-cell population; its contents generation restarts
        // at 0, so the identical refill reaches the old DIMM's generation.
        let config = sv.config().dimm_config_for(2);
        let seed = sv.config().dimm_seeds[2] ^ 0x5EED;
        *sv.dimm_mut(2) = Dimm::new(config, seed);
        let refill = fill_run(&mut sv, 2, WORST);
        assert_eq!(refill, run);
        let uncached = sv.prepare_run_uncached(&refill).unwrap();
        let expected = sv.evaluate_prepared_runs(&uncached, 3, 0).unwrap();
        assert_ne!(expected, old, "the new DIMM manifests other errors");
        assert_eq!(sv.evaluate_runs(&refill, 3, 0).unwrap(), expected);
    }

    #[test]
    fn cloned_server_is_independent_and_identical() {
        fn assert_send<T: Send>() {}
        assert_send::<XGene2Server>();
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut replica = sv.clone();
        let a = sv.evaluate_run(&run, 5).unwrap();
        let b = replica.evaluate_run(&run, 5).unwrap();
        assert_eq!(a, b, "a replica must reproduce the original's outcomes");
        // The copies are independent: resetting one leaves the other's
        // accumulated counters untouched.
        sv.reset_counters();
        let replica_total: u64 = replica.counters().iter().map(|d| d.counts.visible()).sum();
        assert_eq!(replica_total, b.totals.visible());
    }

    #[test]
    fn measure_power_reflects_knobs() {
        let mut sv = server();
        let model = PowerModel::default();
        let before = sv.measure_power(&model, &[0.0; 4]);
        sv.relax_second_domain();
        let after = sv.measure_power(&model, &[0.0; 4]);
        assert!(after.dram_w < before.dram_w);
        assert!(after.system_w < before.system_w);
    }
}
