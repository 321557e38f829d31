//! The built-in virus templates (paper §III-A/§III-B).
//!
//! Five template families drive the paper's evaluation:
//!
//! 1. [`WORD64`] — the 64-bit data-pattern virus: fill all allocatable
//!    memory with one searched 64-bit word, then keep it under read
//!    pressure (Fig. 8a–d);
//! 2. [`ROW_TRIPLE`] — the "24 KB" pattern: three per-row patterns written
//!    to each error-prone row and its two same-bank neighbours (Fig. 9);
//! 3. [`CHUNKS`] — the "512 KB" pattern: one pattern spanning 64
//!    consecutive 8 KB chunks around each error-prone row (Fig. 10);
//! 4. [`ROW_ACCESS`] — access template 1: a 64-bit bitmap selecting which
//!    of the 32 predecessor / 32 successor rows of each error-prone row to
//!    stream repeatedly (Fig. 11);
//! 5. [`STRIDE_ACCESS`] — access template 2: per-row stride coefficients
//!    `aᵢ·x + bᵢ` with `aᵢ, bᵢ ∈ [0, 20]` over the 16 neighbouring rows
//!    (Fig. 12, Eq. 1).
//!
//! Placeholders in ALL-CAPS with a leading searched parameter section are
//! explored by the GA; the remaining placeholders (`MEM_BYTES`,
//! `VICTIM_OFFS`, `FILL`, …) are *environment inputs* the framework binds
//! from the known address mapping — exactly how the paper computes target
//! rows "using the mapping function discussed in Section II".

use crate::error::DStressError;
use crate::scale::ExperimentScale;
use crate::search::EnvKind;
use dstress_vpl::ast::Program;
use dstress_vpl::{BoundValue, ParamShape, ProcessedTemplate, Template};
use std::collections::HashMap;

/// Template 1 — the 64-bit data-pattern virus (paper Fig. 3 is this shape).
pub const WORD64: &str = r#"
->parameters
$$$_PATTERN_$$$ [0,18446744073709551615]

->local_data
unsigned long long i = 0;
unsigned long long acc = 0;

->body
volatile unsigned long long* buf = (unsigned long long*)(malloc($$$_MEM_BYTES_$$$));
/* data pattern */
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    buf[i] = $$$_PATTERN_$$$;
}
/* memory access pattern: keep the filled memory under read pressure */
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    acc += buf[i];
}
"#;

/// Template 2 — the row-triple ("24 KB") data-pattern virus: a searched
/// pattern for each error-prone row and for the rows preceding/following it
/// in the same bank (paper §III-B, Fig. 9).
pub const ROW_TRIPLE: &str = r#"
->parameters
$$$_PREV_PATTERN_$$$ [ROW_WORDS][0,18446744073709551615]
$$$_VICTIM_PATTERN_$$$ [ROW_WORDS][0,18446744073709551615]
$$$_NEXT_PATTERN_$$$ [ROW_WORDS][0,18446744073709551615]

->global_data
volatile unsigned long long prev_pat[] = $$$_PREV_PATTERN_$$$;
volatile unsigned long long victim_pat[] = $$$_VICTIM_PATTERN_$$$;
volatile unsigned long long next_pat[] = $$$_NEXT_PATTERN_$$$;
volatile unsigned long long victims[] = $$$_VICTIM_OFFS_$$$;

->local_data
unsigned long long i = 0;
unsigned long long v = 0;
unsigned long long base = 0;
unsigned long long acc = 0;

->body
volatile unsigned long long* buf = (unsigned long long*)(malloc($$$_MEM_BYTES_$$$));
/* background fill */
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    buf[i] = $$$_FILL_$$$;
}
/* per-row patterns around each error-prone row */
for (v = 0; v < $$$_NV_$$$; v += 1) {
    base = victims[v];
    for (i = 0; i < $$$_ROW_WORDS_$$$; i += 1) {
        buf[base - $$$_BANK_STRIDE_$$$ + i] = prev_pat[i];
        buf[base + i] = victim_pat[i];
        buf[base + $$$_BANK_STRIDE_$$$ + i] = next_pat[i];
    }
}
/* read pressure over the victim neighbourhoods */
for (v = 0; v < $$$_NV_$$$; v += 1) {
    base = victims[v];
    for (i = 0; i < $$$_ROW_WORDS_$$$; i += 1) {
        acc += buf[base - $$$_BANK_STRIDE_$$$ + i];
        acc += buf[base + i];
        acc += buf[base + $$$_BANK_STRIDE_$$$ + i];
    }
}
"#;

/// Template 3 — the chunk-span ("512 KB") data-pattern virus: one searched
/// pattern across 64 consecutive chunks around each error-prone row
/// (paper §V-A.3, Fig. 10).
pub const CHUNKS: &str = r#"
->parameters
$$$_CHUNK_PATTERN_$$$ [SPAN_WORDS][0,18446744073709551615]

->global_data
volatile unsigned long long cpat[] = $$$_CHUNK_PATTERN_$$$;
volatile unsigned long long starts[] = $$$_CHUNK_STARTS_$$$;

->local_data
unsigned long long i = 0;
unsigned long long v = 0;
unsigned long long s = 0;
unsigned long long acc = 0;

->body
volatile unsigned long long* buf = (unsigned long long*)(malloc($$$_MEM_BYTES_$$$));
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    buf[i] = $$$_FILL_$$$;
}
for (v = 0; v < $$$_NV_$$$; v += 1) {
    s = starts[v];
    for (i = 0; i < $$$_SPAN_WORDS_$$$; i += 1) {
        buf[s + i] = cpat[i];
    }
}
for (v = 0; v < $$$_NV_$$$; v += 1) {
    s = starts[v];
    for (i = 0; i < $$$_SPAN_WORDS_$$$; i += 1) {
        acc += buf[s + i];
    }
}
"#;

/// Template 4 — memory-access virus, first scheme: a binary vector over the
/// 32 predecessor and 32 successor rows of each error-prone row; selected
/// rows are streamed whole, repeatedly (paper §III-B/§V-A.4, Fig. 11).
pub const ROW_ACCESS: &str = r#"
->parameters
$$$_SEL_$$$ [64][0,1]

->global_data
volatile unsigned long long sel[] = $$$_SEL_$$$;
volatile unsigned long long neigh[] = $$$_NEIGH_OFFS_$$$;

->local_data
unsigned long long i = 0;
unsigned long long r = 0;
unsigned long long v = 0;
unsigned long long x = 0;
unsigned long long base = 0;
unsigned long long acc = 0;

->body
volatile unsigned long long* buf = (unsigned long long*)(malloc($$$_MEM_BYTES_$$$));
/* the paper fills memory with the worst-case 64-bit data pattern first */
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    buf[i] = $$$_FILL_$$$;
}
for (x = 0; x < $$$_REPS_$$$; x += 1) {
    for (r = 0; r < 64; r += 1) {
        if (sel[r]) {
            for (v = 0; v < $$$_NV_$$$; v += 1) {
                base = neigh[v * 64 + r];
                /* single-word reads with a rotating offset: each visit
                   re-activates the row (the paper's viruses hammer through
                   ordinary loads; the cache cannot hold the rotating set) */
                acc += buf[base + (x * 9) % $$$_ROW_WORDS_$$$];
            }
        }
    }
}
"#;

/// Template 5 — memory-access virus, second scheme: per-neighbour-row
/// stride coefficients `aᵢ·x + bᵢ` (paper Eq. 1) over the 16 rows adjacent
/// to each error-prone row, with `aᵢ, bᵢ ∈ [0, 20]` (Fig. 12).
pub const STRIDE_ACCESS: &str = r#"
->parameters
$$$_COEFFS_$$$ [32][0,20]

->global_data
volatile unsigned long long coeffs[] = $$$_COEFFS_$$$;
volatile unsigned long long neigh16[] = $$$_NEIGH16_OFFS_$$$;

->local_data
unsigned long long x = 0;
unsigned long long r = 0;
unsigned long long v = 0;
unsigned long long i = 0;
unsigned long long base = 0;
unsigned long long acc = 0;

->body
volatile unsigned long long* buf = (unsigned long long*)(malloc($$$_MEM_BYTES_$$$));
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    buf[i] = $$$_FILL_$$$;
}
for (x = 0; x < $$$_X_ITERS_$$$; x += 1) {
    for (r = 0; r < 16; r += 1) {
        for (v = 0; v < $$$_NV_$$$; v += 1) {
            base = neigh16[v * 16 + r];
            acc += buf[base + (coeffs[r] * x + coeffs[16 + r]) % $$$_ROW_WORDS_$$$];
        }
    }
}
"#;

/// Template 6 — the classic data-pattern micro-benchmarks (MSCAN,
/// checkerboard, walking 0s/1s, random): fill memory by cycling a 64-word
/// environment-supplied pattern vector, then sweep-read (paper §V-A.1's
/// baselines).
pub const CYCLE_FILL: &str = r#"
->parameters

->global_data
volatile unsigned long long cycle[] = $$$_CYCLE_$$$;

->local_data
unsigned long long i = 0;
unsigned long long acc = 0;

->body
volatile unsigned long long* buf = (unsigned long long*)(malloc($$$_MEM_BYTES_$$$));
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    buf[i] = cycle[i % 64];
}
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    acc += buf[i];
}
"#;

/// Processes a built-in template at a given scale (resolving the
/// `ROW_WORDS`/`SPAN_WORDS` constants used in parameter declarations).
///
/// # Errors
///
/// Propagates template processing failures.
pub fn process(source: &str, scale: &ExperimentScale) -> Result<ProcessedTemplate, DStressError> {
    let constants: HashMap<String, u64> = [
        ("ROW_WORDS".to_string(), scale.row_words()),
        ("SPAN_WORDS".to_string(), 64 * scale.row_words()),
    ]
    .into_iter()
    .collect();
    Ok(Template::parse(source)?.process(&constants)?)
}

/// Instantiates `env`'s template at `scale` with every searched parameter
/// element set to `word`, clamped to the parameter's domain — one
/// representative virus per template, for inspecting what the compiler
/// makes of it (`dstress disasm --env`).
///
/// # Errors
///
/// Propagates template processing, binding and instantiation failures.
pub fn instantiate_uniform(
    env: &EnvKind,
    scale: &ExperimentScale,
    word: u64,
) -> Result<Program, DStressError> {
    let template = process(env.template_source(), scale)?;
    let mut bindings = env.bindings(scale)?;
    for p in template.params() {
        let value = match p.shape {
            ParamShape::Scalar { lo, hi } => BoundValue::Scalar(word.clamp(lo, hi)),
            ParamShape::Array { len, lo, hi } => {
                BoundValue::Array(vec![word.clamp(lo, hi); len as usize])
            }
        };
        bindings.insert(p.name.clone(), value);
    }
    Ok(template.instantiate(&bindings)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ExperimentScale {
        ExperimentScale::quick()
    }

    #[test]
    fn word64_template_processes() {
        let t = process(WORD64, &scale()).unwrap();
        assert_eq!(t.params().len(), 1);
        assert_eq!(t.params()[0].name, "PATTERN");
        assert_eq!(
            t.params()[0].shape,
            ParamShape::Scalar {
                lo: 0,
                hi: u64::MAX
            }
        );
    }

    #[test]
    fn row_triple_template_processes() {
        let s = scale();
        let t = process(ROW_TRIPLE, &s).unwrap();
        assert_eq!(t.params().len(), 3);
        for p in t.params() {
            assert_eq!(
                p.shape,
                ParamShape::Array {
                    len: s.row_words(),
                    lo: 0,
                    hi: u64::MAX
                },
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn chunks_template_processes() {
        let s = scale();
        let t = process(CHUNKS, &s).unwrap();
        assert_eq!(t.params().len(), 1);
        assert_eq!(
            t.params()[0].shape,
            ParamShape::Array {
                len: 64 * s.row_words(),
                lo: 0,
                hi: u64::MAX
            }
        );
    }

    #[test]
    fn row_access_template_processes() {
        let t = process(ROW_ACCESS, &scale()).unwrap();
        assert_eq!(
            t.params()[0].shape,
            ParamShape::Array {
                len: 64,
                lo: 0,
                hi: 1
            }
        );
    }

    #[test]
    fn stride_access_template_processes() {
        let t = process(STRIDE_ACCESS, &scale()).unwrap();
        assert_eq!(
            t.params()[0].shape,
            ParamShape::Array {
                len: 32,
                lo: 0,
                hi: 20
            }
        );
    }

    #[test]
    fn cycle_fill_template_has_no_searched_params() {
        let t = process(CYCLE_FILL, &scale()).unwrap();
        assert!(t.params().is_empty());
    }

    /// perfbench times `compile_opt` at the default level as the compile
    /// stage; it must produce the program the evaluator compiles and runs.
    #[test]
    fn default_opt_level_compiles_what_the_evaluator_runs() {
        use crate::WORST_WORD;
        use dstress_dram::geometry::RowKey;
        use dstress_vpl::{compile, compile_opt, OptLevel};
        let s = scale();
        for env in [
            EnvKind::Word64,
            EnvKind::StrideAccess {
                victims: vec![RowKey::new(0, 3, 8)],
                fill: WORST_WORD,
            },
        ] {
            // Every searched element at the top of its domain.
            let program = instantiate_uniform(&env, &s, u64::MAX).unwrap();
            let plain = compile(&program).unwrap();
            let shim = compile_opt(&program, &OptLevel.config()).unwrap();
            assert_eq!(format!("{plain:?}"), format!("{shim:?}"), "{env:?}");
        }
    }

    /// Pins which loops of each paper template run as one fused dispatch,
    /// at both scales, so a refactor cannot unfuse one silently: the fill
    /// everywhere, word64's reduce, chunks' span copy and offset reduce, and
    /// the access templates' gathers. Row-triple's three-statement bodies
    /// stay unfused.
    #[test]
    fn paper_templates_fuse_their_span_loops() {
        use crate::WORST_WORD;
        use dstress_dram::geometry::RowKey;
        use dstress_vpl::{compile, FusedShape::*};
        for s in [ExperimentScale::quick(), ExperimentScale::paper()] {
            // A row mid-DIMM leaves every template its neighbourhood.
            let geo = s.server.dimm.geometry;
            let victims = vec![RowKey::new(0, 1, geo.rows_per_bank / 2)];
            for (env, shapes) in [
                (EnvKind::Word64, vec![Fill, Reduce]),
                (
                    EnvKind::RowTriple {
                        victims: victims.clone(),
                    },
                    vec![Fill],
                ),
                (
                    EnvKind::Chunks {
                        victims: victims.clone(),
                    },
                    vec![Fill, Copy, OffsetReduce],
                ),
                (
                    EnvKind::RowAccess {
                        victims: victims.clone(),
                        fill: WORST_WORD,
                    },
                    vec![Fill, Gather],
                ),
                (
                    EnvKind::StrideAccess {
                        victims: victims.clone(),
                        fill: WORST_WORD,
                    },
                    vec![Fill, Gather],
                ),
            ] {
                let program = instantiate_uniform(&env, &s, WORST_WORD).unwrap();
                let compiled = compile(&program).unwrap();
                assert_eq!(compiled.fused_shapes(), shapes, "{} {env:?}", s.name);
            }
        }
    }
}
