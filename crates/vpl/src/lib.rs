//! The DStress virus programming tool (paper §III-A, Fig. 3).
//!
//! Users describe a *family* of viruses as a template: a C-like program with
//! `$$$_NAME_$$$` placeholders whose domains are declared in a
//! `->parameters` section. The GA explores the declared domains; every
//! chromosome instantiates the template into a concrete program which is
//! executed against the experimental platform.
//!
//! A template has four sections, introduced by `->` markers exactly as in
//! the paper's Fig. 3:
//!
//! ```text
//! ->parameters
//! $$$_ARRAY1_VEC_$$$ [N1][DB1,UP1]
//! $$$_VAR1_$$$ [DB3,UP3]
//!
//! ->global_data
//! volatile unsigned long long var1[] = $$$_ARRAY1_VEC_$$$;
//!
//! ->local_data
//! unsigned long long var3 = $$$_VAR1_$$$;
//!
//! ->body
//! /* data pattern */
//! for (i = 0; i < N1; i += 1) { var1[i] = var3; }
//! ```
//!
//! * **parameters** — each placeholder's shape and domain. `[N][LO,UP]`
//!   declares an `N`-element array of 64-bit values in `[LO, UP]`;
//!   `[LO,UP]` declares a scalar. `N`, `LO`, `UP` may be integer literals or
//!   named constants supplied at processing time (the paper's `N1`, `DB1`…).
//! * **global_data** — variables allocated in DRAM through the platform
//!   session; every access to them is a real memory access.
//! * **local_data** — register-resident locals (no DRAM traffic).
//! * **body** — the virus code: `for`, `if`/`else`, assignments, 64-bit
//!   arithmetic, array indexing and `malloc`.
//!
//! The crate implements the paper's *processing phase* (§III-D: "lexical,
//! syntax and semantic analyses to extract variables") in [`lexer`],
//! [`parser`], [`template`] and [`sema`], and the execution side of the
//! *evaluation phase* twice: the tree-walking reference [`interp`], and the
//! production tier — [`bytecode`] + [`vm`] — which compiles an instantiated
//! program once ([`compile`]) and executes the flat ops bit-identically but
//! many times faster. The GA evaluator compiles each chromosome once and
//! reuses the bytecode across its averaging runs.
//!
//! # Examples
//!
//! ```
//! use dstress_vpl::{Template, BoundValue};
//! use std::collections::HashMap;
//!
//! let src = r#"
//! ->parameters
//! $$$_PATTERN_$$$ [0,18446744073709551615]
//! ->local_data
//! unsigned long long i = 0;
//! ->body
//! volatile unsigned long long* buf = malloc(256);
//! for (i = 0; i < 32; i += 1) { buf[i] = $$$_PATTERN_$$$; }
//! "#;
//! let template = Template::parse(src)?;
//! let processed = template.process(&HashMap::new())?;
//! assert_eq!(processed.params().len(), 1);
//!
//! let mut bindings = HashMap::new();
//! bindings.insert("PATTERN".to_string(), BoundValue::Scalar(0x3333_3333_3333_3333));
//! let program = processed.instantiate(&bindings)?;
//! # Ok::<(), dstress_vpl::VplError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod disasm;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod pretty;
mod resolve;
pub mod sema;
pub mod template;
pub mod token;
pub mod vm;

pub use bytecode::{compile, CompiledProgram};
pub use disasm::disassemble;
pub use error::VplError;
pub use interp::{ExecLimits, ExecStats, Interpreter};
pub use passes::{compile_opt, OptLevel, PassConfig};
pub use template::{BoundValue, ParamDecl, ParamShape, ProcessedTemplate, Template};
pub use vm::{BusOps, Vm};
