//! Classic MARCH / MATS memory tests (paper §II "DRAM errors", §VII).
//!
//! Vendors test DRAM with MARCH-family algorithms: sequences of *march
//! elements*, each sweeping the address space in a direction while applying
//! read-verify and write operations. The paper's critique (§II, §VII) is
//! that these tests (a) assume the physical layout is known and (b) use
//! simple data backgrounds, so they miss the pattern-sensitive faults
//! DStress discovers. This module implements the standard algorithms so the
//! claim can be measured: the march experiments compare the CEs each test
//! manifests against the synthesized viruses.
//!
//! Notation (van de Goor): `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)` — `⇑` ascending
//! sweep, `⇓` descending, `⇕` either; `w0/w1` write the 0/1 background,
//! `r0/r1` read and verify it.

use crate::error::DStressError;
use crate::evaluate::EvalOutcome;
use crate::scale::ExperimentScale;
use crate::search::DStress;
use dstress_platform::session::{MemoryBus, SessionError};
use serde::{Deserialize, Serialize};

/// One operation of a march element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MarchOp {
    /// Read the word and verify it holds the given background (false = the
    /// all-0 background, true = all-1).
    Read(bool),
    /// Write the given background.
    Write(bool),
}

/// Sweep direction of a march element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Ascending addresses (`⇑`).
    Up,
    /// Descending addresses (`⇓`).
    Down,
    /// Direction irrelevant (`⇕`); executed ascending.
    Either,
}

/// One march element: a direction and an operation sequence applied to
/// every word before moving to the next.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarchElement {
    /// Sweep direction.
    pub direction: Direction,
    /// Operations applied per word.
    pub ops: Vec<MarchOp>,
}

impl MarchElement {
    /// Builds an element from a compact spec string like `"r0,w1"`.
    ///
    /// # Panics
    ///
    /// Panics on malformed specs (these are compile-time constants in
    /// practice).
    pub fn parse(direction: Direction, spec: &str) -> Self {
        let ops = spec
            .split(',')
            .map(|op| match op.trim() {
                "r0" => MarchOp::Read(false),
                "r1" => MarchOp::Read(true),
                "w0" => MarchOp::Write(false),
                "w1" => MarchOp::Write(true),
                other => panic!("unknown march op `{other}`"),
            })
            .collect();
        MarchElement { direction, ops }
    }
}

/// A complete march test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarchTest {
    /// Conventional name (e.g. `MARCH C-`).
    pub name: String,
    /// The march elements, in order.
    pub elements: Vec<MarchElement>,
}

/// The result of executing a march test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarchRunReport {
    /// Read-verify mismatches observed by the test program itself.
    pub mismatches: u64,
    /// Words swept.
    pub words: u64,
    /// Total session operations issued.
    pub operations: u64,
}

impl MarchTest {
    /// MATS+ — the minimal test for address decoder + stuck-at faults:
    /// `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)`.
    pub fn mats_plus() -> Self {
        MarchTest {
            name: "MATS+".into(),
            elements: vec![
                MarchElement::parse(Direction::Either, "w0"),
                MarchElement::parse(Direction::Up, "r0,w1"),
                MarchElement::parse(Direction::Down, "r1,w0"),
            ],
        }
    }

    /// MARCH X — adds coupling-fault coverage:
    /// `⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0)`.
    pub fn march_x() -> Self {
        MarchTest {
            name: "MARCH X".into(),
            elements: vec![
                MarchElement::parse(Direction::Either, "w0"),
                MarchElement::parse(Direction::Up, "r0,w1"),
                MarchElement::parse(Direction::Down, "r1,w0"),
                MarchElement::parse(Direction::Either, "r0"),
            ],
        }
    }

    /// MARCH C- — the industry workhorse for unlinked idempotent coupling
    /// faults: `⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)`.
    pub fn march_cminus() -> Self {
        MarchTest {
            name: "MARCH C-".into(),
            elements: vec![
                MarchElement::parse(Direction::Either, "w0"),
                MarchElement::parse(Direction::Up, "r0,w1"),
                MarchElement::parse(Direction::Up, "r1,w0"),
                MarchElement::parse(Direction::Down, "r0,w1"),
                MarchElement::parse(Direction::Down, "r1,w0"),
                MarchElement::parse(Direction::Either, "r0"),
            ],
        }
    }

    /// MSCAN — the simple scan the paper's BIST discussion mentions:
    /// `⇕(w0); ⇕(r0); ⇕(w1); ⇕(r1)`.
    pub fn mscan() -> Self {
        MarchTest {
            name: "MSCAN".into(),
            elements: vec![
                MarchElement::parse(Direction::Either, "w0"),
                MarchElement::parse(Direction::Either, "r0"),
                MarchElement::parse(Direction::Either, "w1"),
                MarchElement::parse(Direction::Either, "r1"),
            ],
        }
    }

    /// All implemented tests.
    pub fn all() -> Vec<MarchTest> {
        vec![
            MarchTest::mscan(),
            MarchTest::mats_plus(),
            MarchTest::march_x(),
            MarchTest::march_cminus(),
        ]
    }

    /// The background word for a 0/1 march background.
    fn background(bit: bool) -> u64 {
        if bit {
            u64::MAX
        } else {
            0
        }
    }

    /// Executes the test over `words` 64-bit words starting at `base`,
    /// issuing every operation through the session (so the access trace is
    /// recorded like any workload's).
    ///
    /// # Errors
    ///
    /// Propagates session memory errors.
    pub fn execute(
        &self,
        session: &mut dyn MemoryBus,
        base: u64,
        words: u64,
    ) -> Result<MarchRunReport, SessionError> {
        let mut mismatches = 0u64;
        let mut operations = 0u64;
        for element in &self.elements {
            let indices: Box<dyn Iterator<Item = u64>> = match element.direction {
                Direction::Up | Direction::Either => Box::new(0..words),
                Direction::Down => Box::new((0..words).rev()),
            };
            for w in indices {
                let addr = base + w * 8;
                for op in &element.ops {
                    operations += 1;
                    match op {
                        MarchOp::Read(expected) => {
                            let value = session.read_u64(addr)?;
                            if value != Self::background(*expected) {
                                mismatches += 1;
                            }
                        }
                        MarchOp::Write(bit) => {
                            session.write_u64(addr, Self::background(*bit))?;
                        }
                    }
                }
            }
        }
        Ok(MarchRunReport {
            mismatches,
            words,
            operations,
        })
    }

    /// Theoretical complexity in operations per word (the conventional
    /// `xN` rating: MATS+ is 5N, MARCH C- is 10N…).
    pub fn ops_per_word(&self) -> usize {
        self.elements.iter().map(|e| e.ops.len()).sum()
    }
}

/// Runs a march test as a stress workload on the target DIMM and measures
/// the ECC errors it manifests (the march analogue of the Fig. 8e
/// micro-benchmark comparison).
///
/// # Errors
///
/// Propagates session and evaluation failures.
pub fn measure_march(
    dstress: &DStress,
    test: &MarchTest,
    temp_c: f64,
) -> Result<(EvalOutcome, MarchRunReport), DStressError> {
    let scale: &ExperimentScale = &dstress.scale;
    let mut server = dstress.server_at(temp_c)?;
    server.reset_memory();
    let words = scale.dimm_words();
    let mut session = server.session(2);
    let base = session
        .alloc(words * 8)
        .map_err(|e| DStressError::Experiment(format!("march allocation failed: {e}")))?;
    let report = test
        .execute(&mut session, base, words)
        .map_err(|e| DStressError::Experiment(format!("march execution failed: {e}")))?;
    let run = session.finish();
    let trace_len = run.len();
    let total = server.evaluate_runs_total(run, scale.runs_per_virus, 0x3A6C)?;
    let outcome = EvalOutcome {
        fitness: total.totals.ce as f64 / total.runs.max(1) as f64,
        total_ce: total.totals.ce,
        total_ue: total.totals.ue,
        ue_runs: total.ue_runs,
        trace_len,
    };
    Ok((outcome, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;
    use std::collections::HashMap;

    /// Minimal in-memory bus for element-semantics tests.
    #[derive(Default)]
    struct MockBus {
        memory: HashMap<u64, u64>,
        cursor: u64,
        log: Vec<(u64, bool)>,
    }

    impl MemoryBus for MockBus {
        fn alloc(&mut self, bytes: u64) -> Result<u64, SessionError> {
            let base = self.cursor;
            self.cursor += bytes;
            Ok(base)
        }
        fn read_u64(&mut self, addr: u64) -> Result<u64, SessionError> {
            self.log.push((addr, false));
            Ok(self.memory.get(&addr).copied().unwrap_or(0))
        }
        fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), SessionError> {
            self.log.push((addr, true));
            self.memory.insert(addr, value);
            Ok(())
        }
    }

    #[test]
    fn element_parsing() {
        let e = MarchElement::parse(Direction::Up, "r0,w1");
        assert_eq!(e.ops, vec![MarchOp::Read(false), MarchOp::Write(true)]);
    }

    #[test]
    #[should_panic(expected = "unknown march op")]
    fn bad_spec_panics() {
        MarchElement::parse(Direction::Up, "r2");
    }

    #[test]
    fn complexity_ratings_match_the_literature() {
        assert_eq!(MarchTest::mats_plus().ops_per_word(), 5);
        assert_eq!(MarchTest::march_x().ops_per_word(), 6);
        assert_eq!(MarchTest::march_cminus().ops_per_word(), 10);
        assert_eq!(MarchTest::mscan().ops_per_word(), 4);
    }

    #[test]
    fn march_cminus_passes_on_healthy_memory() {
        let mut bus = MockBus::default();
        let report = MarchTest::march_cminus().execute(&mut bus, 0, 32).unwrap();
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.operations, 10 * 32);
        assert_eq!(report.words, 32);
    }

    #[test]
    fn march_detects_a_planted_stuck_at_fault() {
        // Plant a stuck-at-1 bit: a write of 0 leaves bit 5 set.
        struct StuckBus {
            inner: MockBus,
            fault_addr: u64,
        }
        impl MemoryBus for StuckBus {
            fn alloc(&mut self, bytes: u64) -> Result<u64, SessionError> {
                self.inner.alloc(bytes)
            }
            fn read_u64(&mut self, addr: u64) -> Result<u64, SessionError> {
                let v = self.inner.read_u64(addr)?;
                Ok(if addr == self.fault_addr {
                    v | (1 << 5)
                } else {
                    v
                })
            }
            fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), SessionError> {
                self.inner.write_u64(addr, value)
            }
        }
        let mut bus = StuckBus {
            inner: MockBus::default(),
            fault_addr: 8 * 3,
        };
        let report = MarchTest::mats_plus().execute(&mut bus, 0, 16).unwrap();
        // r0 sees the stuck bit in elements reading the 0 background.
        assert!(report.mismatches > 0, "stuck-at fault must be detected");
    }

    #[test]
    fn descending_elements_sweep_downward() {
        let mut bus = MockBus::default();
        MarchTest::mats_plus().execute(&mut bus, 0, 4).unwrap();
        // Element 3 (⇓ r1,w0) must touch addresses in descending order:
        // find the last 8 log entries (4 words x r+w).
        let tail: Vec<u64> = bus.log[bus.log.len() - 8..]
            .iter()
            .map(|(a, _)| *a)
            .collect();
        assert_eq!(tail, vec![24, 24, 16, 16, 8, 8, 0, 0]);
    }

    #[test]
    fn march_as_stress_workload_manifests_fewer_ces_than_the_worst_virus() {
        // The paper's point (§VII): MARCH tests use simple backgrounds, so
        // they under-stress pattern-sensitive cells.
        let dstress = DStress::new(ExperimentScale::quick(), 21);
        let (march, report) = measure_march(&dstress, &MarchTest::march_cminus(), 60.0).unwrap();
        assert_eq!(report.mismatches, 0);
        let virus = dstress
            .measure(
                &crate::search::EnvKind::Word64,
                [(
                    "PATTERN".to_string(),
                    dstress_vpl::BoundValue::Scalar(crate::search::WORST_WORD),
                )]
                .into(),
                60.0,
                crate::evaluate::Metric::CeAverage,
            )
            .unwrap();
        assert!(
            virus.fitness > march.fitness,
            "virus {} must beat MARCH C- {}",
            virus.fitness,
            march.fitness
        );
    }
}
