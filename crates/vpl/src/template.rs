//! Template structure: sections, parameter declarations, processing and
//! instantiation (paper §III-A/§III-D).

use crate::ast::{Expr, Init, Program};
use crate::error::VplError;
use crate::parser::parse_program;
use crate::sema::check_program;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The shape and domain of one searched parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamShape {
    /// A single 64-bit value in `[lo, hi]` (inclusive).
    Scalar {
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
    /// An array of `len` 64-bit values, each in `[lo, hi]` (inclusive).
    Array {
        /// Element count.
        len: u64,
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
}

/// One `$$$_NAME_$$$ [..]` line of the `->parameters` section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamDecl {
    /// Placeholder name.
    pub name: String,
    /// Declared shape and domain.
    pub shape: ParamShape,
}

impl ParamDecl {
    /// The inclusive domain of each element.
    pub fn bounds(&self) -> (u64, u64) {
        match self.shape {
            ParamShape::Scalar { lo, hi } | ParamShape::Array { lo, hi, .. } => (lo, hi),
        }
    }
}

/// A value bound to a placeholder at instantiation time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoundValue {
    /// A single value.
    Scalar(u64),
    /// An array of values.
    Array(Vec<u64>),
}

/// A parsed-but-unprocessed template: its raw sections.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    parameters: String,
    global_data: String,
    local_data: String,
    body: String,
}

impl Template {
    /// Splits template source into its `->` sections.
    ///
    /// # Errors
    ///
    /// Returns [`VplError::Template`] for unknown section markers, duplicate
    /// sections, or a missing `->body`.
    pub fn parse(source: &str) -> Result<Template, VplError> {
        let mut sections: HashMap<&str, String> = HashMap::new();
        let mut current: Option<&str> = None;
        for line in source.lines() {
            let trimmed = line.trim();
            if let Some(marker) = trimmed.strip_prefix("->") {
                let name = marker.trim();
                let key = match name {
                    "parameters" => "parameters",
                    "global_data" => "global_data",
                    "local_data" => "local_data",
                    "body" => "body",
                    other => {
                        return Err(VplError::Template(format!("unknown section `->{other}`")))
                    }
                };
                if sections.contains_key(key) {
                    return Err(VplError::Template(format!("duplicate section `->{key}`")));
                }
                sections.insert(key, String::new());
                current = Some(key);
            } else if let Some(key) = current {
                let section = sections.get_mut(key).expect("current section exists");
                section.push_str(line);
                section.push('\n');
            } else if !trimmed.is_empty() {
                return Err(VplError::Template(format!(
                    "content before the first section marker: `{trimmed}`"
                )));
            }
        }
        if !sections.contains_key("body") {
            return Err(VplError::Template(
                "template has no `->body` section".into(),
            ));
        }
        Ok(Template {
            parameters: sections.remove("parameters").unwrap_or_default(),
            global_data: sections.remove("global_data").unwrap_or_default(),
            local_data: sections.remove("local_data").unwrap_or_default(),
            body: sections.remove("body").unwrap_or_default(),
        })
    }

    /// Runs the processing phase (paper §III-D): parses the parameter
    /// declarations (resolving named constants through `constants`), parses
    /// the code sections, and checks semantics.
    ///
    /// # Errors
    ///
    /// Returns the first lexical, syntax, template or semantic error.
    pub fn process(&self, constants: &HashMap<String, u64>) -> Result<ProcessedTemplate, VplError> {
        let params = parse_params(&self.parameters, constants)?;
        let program = parse_program(&self.global_data, &self.local_data, &self.body)?;
        check_program(&program, &params)?;
        Ok(ProcessedTemplate { params, program })
    }
}

/// A template after the processing phase: the extracted search variables
/// and the analysed program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessedTemplate {
    params: Vec<ParamDecl>,
    program: Program,
}

impl ProcessedTemplate {
    /// The searched parameters, in declaration order — this order defines
    /// the chromosome layout used by the GA.
    pub fn params(&self) -> &[ParamDecl] {
        &self.params
    }

    /// The analysed program, still containing placeholders.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Instantiates the template with concrete values, yielding an
    /// executable [`Program`].
    ///
    /// Every declared parameter must be bound with a value of the right
    /// shape and within its domain; extra bindings (environment inputs such
    /// as target-row address arrays) are allowed and substituted wherever
    /// referenced.
    ///
    /// # Errors
    ///
    /// Returns [`VplError::Binding`] for missing bindings, shape mismatches
    /// or out-of-domain values.
    pub fn instantiate(&self, bindings: &HashMap<String, BoundValue>) -> Result<Program, VplError> {
        for p in &self.params {
            let bound = bindings
                .get(&p.name)
                .ok_or_else(|| VplError::Binding(format!("parameter `{}` is not bound", p.name)))?;
            let (lo, hi) = p.bounds();
            match (&p.shape, bound) {
                (ParamShape::Scalar { .. }, BoundValue::Scalar(v)) => {
                    if *v < lo || *v > hi {
                        return Err(VplError::Binding(format!(
                            "value {v} for `{}` outside [{lo}, {hi}]",
                            p.name
                        )));
                    }
                }
                (ParamShape::Array { len, .. }, BoundValue::Array(vs)) => {
                    if vs.len() as u64 != *len {
                        return Err(VplError::Binding(format!(
                            "array `{}` has {} elements, declared {len}",
                            p.name,
                            vs.len()
                        )));
                    }
                    if let Some(v) = vs.iter().find(|v| **v < lo || **v > hi) {
                        return Err(VplError::Binding(format!(
                            "element {v} of `{}` outside [{lo}, {hi}]",
                            p.name
                        )));
                    }
                }
                _ => {
                    return Err(VplError::Binding(format!(
                        "shape mismatch for `{}`: declared {:?}",
                        p.name, p.shape
                    )))
                }
            }
        }
        let mut program = self.program.clone();
        substitute_program(&mut program, bindings)?;
        Ok(program)
    }
}

/// Replaces placeholder expressions with bound literals.
fn substitute_program(
    program: &mut Program,
    bindings: &HashMap<String, BoundValue>,
) -> Result<(), VplError> {
    fn subst_init(
        init: &mut Option<Init>,
        b: &HashMap<String, BoundValue>,
    ) -> Result<(), VplError> {
        if let Some(Init::Expr(Expr::Placeholder(name))) = init {
            match b.get(name) {
                Some(BoundValue::Array(vs)) => {
                    *init = Some(Init::List(vs.iter().map(|v| Expr::Num(*v)).collect()));
                    return Ok(());
                }
                Some(BoundValue::Scalar(v)) => {
                    *init = Some(Init::Expr(Expr::Num(*v)));
                    return Ok(());
                }
                None => {
                    return Err(VplError::Binding(format!(
                        "placeholder `{name}` is not bound"
                    )))
                }
            }
        }
        match init {
            Some(Init::Expr(e)) => subst_expr(e, b),
            Some(Init::List(es)) => es.iter_mut().try_for_each(|e| subst_expr(e, b)),
            None => Ok(()),
        }
    }
    fn subst_expr(e: &mut Expr, b: &HashMap<String, BoundValue>) -> Result<(), VplError> {
        match e {
            Expr::Placeholder(name) => match b.get(name) {
                Some(BoundValue::Scalar(v)) => {
                    *e = Expr::Num(*v);
                    Ok(())
                }
                Some(BoundValue::Array(_)) => Err(VplError::Binding(format!(
                    "array placeholder `{name}` used as a scalar expression"
                ))),
                None => Err(VplError::Binding(format!(
                    "placeholder `{name}` is not bound"
                ))),
            },
            Expr::Index { index, .. } => subst_expr(index, b),
            Expr::Unary { operand, .. } => subst_expr(operand, b),
            Expr::Binary { lhs, rhs, .. } => {
                subst_expr(lhs, b)?;
                subst_expr(rhs, b)
            }
            Expr::Call { args, .. } => args.iter_mut().try_for_each(|a| subst_expr(a, b)),
            Expr::Num(_) | Expr::Var(_) => Ok(()),
        }
    }
    fn subst_stmt(
        s: &mut crate::ast::Stmt,
        b: &HashMap<String, BoundValue>,
    ) -> Result<(), VplError> {
        use crate::ast::{LValue, Stmt};
        match s {
            Stmt::Decl(d) => subst_init(&mut d.init, b),
            Stmt::Expr(e) => subst_expr(e, b),
            Stmt::Assign { target, value, .. } => {
                if let LValue::Index { index, .. } = target {
                    subst_expr(index, b)?;
                }
                subst_expr(value, b)
            }
            Stmt::IncDec { target, .. } => {
                if let LValue::Index { index, .. } = target {
                    subst_expr(index, b)?;
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                subst_stmt(init, b)?;
                subst_expr(cond, b)?;
                subst_stmt(step, b)?;
                body.iter_mut().try_for_each(|s| subst_stmt(s, b))
            }
            Stmt::If { cond, then, els } => {
                subst_expr(cond, b)?;
                then.iter_mut().try_for_each(|s| subst_stmt(s, b))?;
                els.iter_mut().try_for_each(|s| subst_stmt(s, b))
            }
            Stmt::Block(stmts) => stmts.iter_mut().try_for_each(|s| subst_stmt(s, b)),
        }
    }
    for d in program.globals.iter_mut().chain(program.locals.iter_mut()) {
        subst_init(&mut d.init, bindings)?;
    }
    program
        .body
        .iter_mut()
        .try_for_each(|s| subst_stmt(s, bindings))
}

/// Parses the `->parameters` section.
///
/// Each non-empty line is `$$$_NAME_$$$ [N][LO,HI]` (array) or
/// `$$$_NAME_$$$ [LO,HI]` (scalar); `N`, `LO` and `HI` are decimal/hex
/// literals or names resolved through `constants`.
fn parse_params(
    section: &str,
    constants: &HashMap<String, u64>,
) -> Result<Vec<ParamDecl>, VplError> {
    let mut out: Vec<ParamDecl> = Vec::new();
    for raw_line in section.lines() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        let (name, rest) = parse_placeholder_name(line)
            .ok_or_else(|| VplError::Template(format!("malformed parameter line: `{line}`")))?;
        if out.iter().any(|p| p.name == name) {
            return Err(VplError::Template(format!("duplicate parameter `{name}`")));
        }
        let groups = parse_bracket_groups(rest, constants)?;
        let shape = match groups.as_slice() {
            [one] if one.len() == 2 => ParamShape::Scalar {
                lo: one[0],
                hi: one[1],
            },
            [n, range] if n.len() == 1 && range.len() == 2 => ParamShape::Array {
                len: n[0],
                lo: range[0],
                hi: range[1],
            },
            _ => {
                return Err(VplError::Template(format!(
                    "parameter `{name}` needs `[LO,HI]` or `[N][LO,HI]`"
                )))
            }
        };
        let (lo, hi) = match shape {
            ParamShape::Scalar { lo, hi } | ParamShape::Array { lo, hi, .. } => (lo, hi),
        };
        if lo > hi {
            return Err(VplError::Template(format!(
                "parameter `{name}` has an empty domain [{lo}, {hi}]"
            )));
        }
        if let ParamShape::Array { len: 0, .. } = shape {
            return Err(VplError::Template(format!(
                "parameter `{name}` has zero length"
            )));
        }
        out.push(ParamDecl { name, shape });
    }
    Ok(out)
}

/// Extracts `NAME` from a leading `$$$_NAME_$$$`, returning the remainder.
fn parse_placeholder_name(line: &str) -> Option<(String, &str)> {
    let rest = line.strip_prefix("$$$_")?;
    let end = rest.find("_$$$")?;
    let name = &rest[..end];
    if name.is_empty() {
        return None;
    }
    Some((name.to_string(), &rest[end + 4..]))
}

/// Parses a sequence of `[a]`/`[a,b]` groups with constant resolution.
fn parse_bracket_groups(
    mut rest: &str,
    constants: &HashMap<String, u64>,
) -> Result<Vec<Vec<u64>>, VplError> {
    let mut groups = Vec::new();
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            break;
        }
        let stripped = rest
            .strip_prefix('[')
            .ok_or_else(|| VplError::Template(format!("expected `[...]`, found `{rest}`")))?;
        let inner_end = stripped
            .find(']')
            .ok_or_else(|| VplError::Template(format!("unterminated `[...]` in `{rest}`")))?;
        let inner = &stripped[..inner_end];
        let mut values = Vec::new();
        for part in inner.split(',') {
            let token = part.trim();
            let value = if let Some(hex) = token
                .strip_prefix("0x")
                .or_else(|| token.strip_prefix("0X"))
            {
                u64::from_str_radix(hex, 16)
                    .map_err(|e| VplError::Template(format!("bad constant `{token}`: {e}")))?
            } else if token.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                token
                    .parse::<u64>()
                    .map_err(|e| VplError::Template(format!("bad constant `{token}`: {e}")))?
            } else {
                *constants.get(token).ok_or_else(|| {
                    VplError::Template(format!("unknown constant `{token}` in parameter bounds"))
                })?
            };
            values.push(value);
        }
        groups.push(values);
        rest = &stripped[inner_end + 1..];
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3_LIKE: &str = r#"
->parameters
$$$_ARRAY1_VEC_$$$ [N1][DB1,UP1]
$$$_VAR1_$$$ [0,255]

->global_data
volatile unsigned long long var1[] = $$$_ARRAY1_VEC_$$$;

->local_data
unsigned long long var3 = $$$_VAR1_$$$;
int i = 0;

->body
for (i = 0; i < 4; i += 1) {
    var1[i] = var3;
}
"#;

    fn constants() -> HashMap<String, u64> {
        [
            ("N1".to_string(), 4u64),
            ("DB1".to_string(), 0),
            ("UP1".to_string(), u64::MAX),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn parses_sections() {
        let t = Template::parse(FIG3_LIKE).unwrap();
        assert!(t.parameters.contains("ARRAY1_VEC"));
        assert!(t.global_data.contains("var1"));
        assert!(t.body.contains("for"));
    }

    #[test]
    fn rejects_unknown_and_duplicate_sections() {
        assert!(matches!(
            Template::parse("->bogus\nx"),
            Err(VplError::Template(_))
        ));
        assert!(matches!(
            Template::parse("->body\n->body\n"),
            Err(VplError::Template(_))
        ));
        assert!(matches!(
            Template::parse("->parameters\n"),
            Err(VplError::Template(_))
        ));
        assert!(matches!(
            Template::parse("stray\n->body\n"),
            Err(VplError::Template(_))
        ));
    }

    #[test]
    fn processing_extracts_parameters_with_constants() {
        let t = Template::parse(FIG3_LIKE).unwrap();
        let p = t.process(&constants()).unwrap();
        assert_eq!(p.params().len(), 2);
        assert_eq!(p.params()[0].name, "ARRAY1_VEC");
        assert_eq!(
            p.params()[0].shape,
            ParamShape::Array {
                len: 4,
                lo: 0,
                hi: u64::MAX
            }
        );
        assert_eq!(p.params()[1].shape, ParamShape::Scalar { lo: 0, hi: 255 });
    }

    #[test]
    fn unknown_constant_is_an_error() {
        let t = Template::parse(FIG3_LIKE).unwrap();
        let err = t.process(&HashMap::new()).unwrap_err();
        assert!(matches!(err, VplError::Template(_)));
        assert!(err.to_string().contains("N1"));
    }

    #[test]
    fn duplicate_parameter_is_an_error() {
        let src = "->parameters\n$$$_P_$$$ [0,1]\n$$$_P_$$$ [0,1]\n->body\ni = $$$_P_$$$;";
        let err = Template::parse(src)
            .unwrap()
            .process(&HashMap::new())
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn empty_domain_is_an_error() {
        let src = "->parameters\n$$$_P_$$$ [5,2]\n->body\ni = $$$_P_$$$;";
        assert!(Template::parse(src)
            .unwrap()
            .process(&HashMap::new())
            .is_err());
    }

    #[test]
    fn instantiation_substitutes_and_validates() {
        let t = Template::parse(FIG3_LIKE).unwrap();
        let p = t.process(&constants()).unwrap();
        let mut b = HashMap::new();
        b.insert("ARRAY1_VEC".into(), BoundValue::Array(vec![1, 2, 3, 4]));
        b.insert("VAR1".into(), BoundValue::Scalar(99));
        let program = p.instantiate(&b).unwrap();
        match &program.globals[0].init {
            Some(Init::List(items)) => assert_eq!(items.len(), 4),
            other => panic!("array placeholder not expanded: {other:?}"),
        }
        assert!(program.placeholder_names().is_empty());
    }

    #[test]
    fn instantiation_rejects_bad_bindings() {
        let t = Template::parse(FIG3_LIKE).unwrap();
        let p = t.process(&constants()).unwrap();
        // Missing binding.
        assert!(p.instantiate(&HashMap::new()).is_err());
        // Wrong shape.
        let mut b = HashMap::new();
        b.insert("ARRAY1_VEC".into(), BoundValue::Scalar(1));
        b.insert("VAR1".into(), BoundValue::Scalar(1));
        assert!(p.instantiate(&b).is_err());
        // Out of domain.
        let mut b = HashMap::new();
        b.insert("ARRAY1_VEC".into(), BoundValue::Array(vec![1, 2, 3, 4]));
        b.insert("VAR1".into(), BoundValue::Scalar(256));
        let err = p.instantiate(&b).unwrap_err();
        assert!(err.to_string().contains("outside"));
        // Wrong array length.
        let mut b = HashMap::new();
        b.insert("ARRAY1_VEC".into(), BoundValue::Array(vec![1, 2]));
        b.insert("VAR1".into(), BoundValue::Scalar(0));
        assert!(p.instantiate(&b).is_err());
    }

    #[test]
    fn extra_environment_bindings_are_allowed() {
        let src = "->parameters\n$$$_P_$$$ [0,10]\n->global_data\nvolatile unsigned long long rows[] = $$$_TARGETS_$$$;\n->body\nrows[0] = $$$_P_$$$;";
        let p = Template::parse(src)
            .unwrap()
            .process(&HashMap::new())
            .unwrap();
        let mut b = HashMap::new();
        b.insert("P".into(), BoundValue::Scalar(5));
        b.insert("TARGETS".into(), BoundValue::Array(vec![100, 200]));
        let program = p.instantiate(&b).unwrap();
        assert!(program.placeholder_names().is_empty());
    }

    #[test]
    fn hex_bounds_are_parsed() {
        let src =
            "->parameters\n$$$_P_$$$ [0x10,0xFF]\n->local_data\nint i = 0;\n->body\ni = $$$_P_$$$;";
        let p = Template::parse(src)
            .unwrap()
            .process(&HashMap::new())
            .unwrap();
        assert_eq!(p.params()[0].shape, ParamShape::Scalar { lo: 16, hi: 255 });
    }
}
