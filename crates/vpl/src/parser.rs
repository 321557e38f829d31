//! Recursive-descent parser (the syntax analysis of the processing phase).

use crate::ast::{AssignOp, BinOp, Decl, Expr, Init, LValue, Program, Stmt, UnOp};
use crate::error::VplError;
use crate::lexer::lex;
use crate::token::{Keyword, Punct, Spanned, Token};

/// Parses the three code sections of a template into a [`Program`].
///
/// # Errors
///
/// Returns [`VplError::Lex`] or [`VplError::Parse`] on malformed input.
pub fn parse_program(global_data: &str, local_data: &str, body: &str) -> Result<Program, VplError> {
    let globals = Parser::new(lex(global_data)?).declarations()?;
    let locals = Parser::new(lex(local_data)?).declarations()?;
    let body = Parser::new(lex(body)?).statements_until_eof()?;
    Ok(Program {
        globals,
        locals,
        body,
    })
}

/// Parses a single expression (the parser tests check the expression
/// grammar through it).
///
/// # Errors
///
/// Returns [`VplError::Parse`] when the input is not exactly one expression.
#[cfg(test)]
pub fn parse_expr(source: &str) -> Result<Expr, VplError> {
    let mut p = Parser::new(lex(source)?);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Extra declarators produced by comma-lists (`int i, j;`), drained into
    /// the surrounding statement/declaration list.
    pending: Vec<OptionDecl>,
}

impl Parser {
    fn new(tokens: Vec<Spanned>) -> Self {
        Parser {
            tokens,
            pos: 0,
            pending: Vec::new(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset).map(|s| &s.token)
    }

    fn line(&self) -> u32 {
        self.tokens.get(self.pos).map(|s| s.line).unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> VplError {
        VplError::Parse {
            message: message.into(),
            line: self.line(),
        }
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(&Token::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), VplError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            match self.peek() {
                Some(t) => Err(self.error(format!("expected `{p:?}`, found {t}"))),
                None => Err(self.error(format!("expected `{p:?}`, found end of input"))),
            }
        }
    }

    #[cfg(test)]
    fn expect_eof(&mut self) -> Result<(), VplError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.error(format!("unexpected trailing {t}"))),
        }
    }

    // ---- declarations -------------------------------------------------

    /// Parses a sequence of declarations (global_data / local_data
    /// sections).
    fn declarations(&mut self) -> Result<Vec<Decl>, VplError> {
        let mut out = Vec::new();
        while self.peek().is_some() {
            let d = self.declaration()?;
            self.expect_punct(Punct::Semicolon)?;
            out.push(d);
            for mut pd in std::mem::take(&mut self.pending) {
                if let Some(decl) = pd.take() {
                    out.push(decl);
                }
            }
        }
        Ok(out)
    }

    /// Whether the upcoming tokens start a declaration.
    fn at_declaration(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Keyword(
                Keyword::Volatile | Keyword::Unsigned | Keyword::Int
            ))
        )
    }

    fn declaration(&mut self) -> Result<Decl, VplError> {
        // [volatile] (unsigned long long [*] | int) name ([])? (= init)?
        if self.peek() == Some(&Token::Keyword(Keyword::Volatile)) {
            self.bump();
        }
        let is_pointer = match self.bump() {
            Some(Token::Keyword(Keyword::Unsigned)) => {
                for _ in 0..2 {
                    if self.bump() != Some(Token::Keyword(Keyword::Long)) {
                        return Err(self.error("expected `long long` after `unsigned`"));
                    }
                }
                self.eat_punct(Punct::Star)
            }
            Some(Token::Keyword(Keyword::Int)) => false,
            other => {
                return Err(self.error(format!(
                    "expected a type, found {}",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of input".into())
                )))
            }
        };
        let mut decls = self.one_declarator(is_pointer)?;
        // Comma-separated declarator lists (`int i, j;`) desugar into the
        // first declarator; the rest are returned through `pending`.
        while self.eat_punct(Punct::Comma) {
            let more = self.one_declarator(is_pointer)?;
            self.pending.push(more);
        }
        Ok(decls
            .take()
            .expect("one_declarator always yields a declaration"))
    }

    fn one_declarator(&mut self, is_pointer: bool) -> Result<OptionDecl, VplError> {
        let name = match self.bump() {
            Some(Token::Ident(n)) => n,
            other => {
                return Err(self.error(format!(
                    "expected a variable name, found {}",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of input".into())
                )))
            }
        };
        let is_array = if self.eat_punct(Punct::LBracket) {
            // Optional size expression is parsed and discarded: array length
            // comes from the initializer.
            if self.peek() != Some(&Token::Punct(Punct::RBracket)) {
                self.expr()?;
            }
            self.expect_punct(Punct::RBracket)?;
            true
        } else {
            false
        };
        let init = if self.eat_punct(Punct::Assign) {
            if self.eat_punct(Punct::LBrace) {
                let mut items = Vec::new();
                if self.peek() != Some(&Token::Punct(Punct::RBrace)) {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RBrace)?;
                Some(Init::List(items))
            } else {
                Some(Init::Expr(self.expr()?))
            }
        } else {
            None
        };
        Ok(OptionDecl(Some(Decl {
            name,
            is_array,
            is_pointer,
            init,
        })))
    }

    // ---- statements ----------------------------------------------------

    fn statements_until_eof(&mut self) -> Result<Vec<Stmt>, VplError> {
        let mut out = Vec::new();
        while self.peek().is_some() {
            out.push(self.statement()?);
            self.drain_pending(&mut out);
        }
        Ok(out)
    }

    fn drain_pending(&mut self, out: &mut Vec<Stmt>) {
        for mut d in std::mem::take(&mut self.pending) {
            if let Some(decl) = d.take() {
                out.push(Stmt::Decl(decl));
            }
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, VplError> {
        self.expect_punct(Punct::LBrace)?;
        let mut out = Vec::new();
        while self.peek() != Some(&Token::Punct(Punct::RBrace)) {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            let s = self.statement()?;
            out.push(s);
            self.drain_pending(&mut out);
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(out)
    }

    fn statement(&mut self) -> Result<Stmt, VplError> {
        match self.peek() {
            Some(Token::Keyword(Keyword::For)) => self.for_stmt(),
            Some(Token::Keyword(Keyword::If)) => self.if_stmt(),
            Some(Token::Punct(Punct::LBrace)) => Ok(Stmt::Block(self.block()?)),
            _ if self.at_declaration() => {
                let d = self.declaration()?;
                self.expect_punct(Punct::Semicolon)?;
                Ok(Stmt::Decl(d))
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect_punct(Punct::Semicolon)?;
                Ok(s)
            }
        }
    }

    fn for_stmt(&mut self) -> Result<Stmt, VplError> {
        self.bump(); // `for`
        self.expect_punct(Punct::LParen)?;
        let init = if self.peek() == Some(&Token::Punct(Punct::Semicolon)) {
            Stmt::Block(vec![])
        } else if self.at_declaration() {
            Stmt::Decl(self.declaration()?)
        } else {
            self.simple_stmt()?
        };
        self.expect_punct(Punct::Semicolon)?;
        let cond = if self.peek() == Some(&Token::Punct(Punct::Semicolon)) {
            Expr::Num(1)
        } else {
            self.expr()?
        };
        self.expect_punct(Punct::Semicolon)?;
        let step = if self.peek() == Some(&Token::Punct(Punct::RParen)) {
            Stmt::Block(vec![])
        } else {
            self.simple_stmt()?
        };
        self.expect_punct(Punct::RParen)?;
        let body = if self.peek() == Some(&Token::Punct(Punct::LBrace)) {
            self.block()?
        } else {
            vec![self.statement()?]
        };
        Ok(Stmt::For {
            init: Box::new(init),
            cond,
            step: Box::new(step),
            body,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, VplError> {
        self.bump(); // `if`
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then = if self.peek() == Some(&Token::Punct(Punct::LBrace)) {
            self.block()?
        } else {
            vec![self.statement()?]
        };
        let els = if self.peek() == Some(&Token::Keyword(Keyword::Else)) {
            self.bump();
            if self.peek() == Some(&Token::Punct(Punct::LBrace)) {
                self.block()?
            } else {
                vec![self.statement()?]
            }
        } else {
            vec![]
        };
        Ok(Stmt::If { cond, then, els })
    }

    /// An assignment, inc/dec, or bare expression (no trailing `;`).
    fn simple_stmt(&mut self) -> Result<Stmt, VplError> {
        // Lookahead for `ident (= | op= | ++ | -- | [expr] =)`.
        if let Some(Token::Ident(name)) = self.peek().cloned() {
            let after = self.peek_at(1).cloned();
            match after {
                Some(Token::Punct(Punct::Assign)) => {
                    self.pos += 2;
                    let value = self.expr()?;
                    return Ok(Stmt::Assign {
                        target: LValue::Var(name),
                        op: AssignOp::Set,
                        value,
                    });
                }
                Some(Token::Punct(
                    p @ (Punct::PlusAssign
                    | Punct::MinusAssign
                    | Punct::StarAssign
                    | Punct::SlashAssign),
                )) => {
                    self.pos += 2;
                    let value = self.expr()?;
                    let op = match p {
                        Punct::PlusAssign => AssignOp::Add,
                        Punct::MinusAssign => AssignOp::Sub,
                        Punct::StarAssign => AssignOp::Mul,
                        _ => AssignOp::Div,
                    };
                    return Ok(Stmt::Assign {
                        target: LValue::Var(name),
                        op,
                        value,
                    });
                }
                Some(Token::Punct(Punct::PlusPlus)) => {
                    self.pos += 2;
                    return Ok(Stmt::IncDec {
                        target: LValue::Var(name),
                        increment: true,
                    });
                }
                Some(Token::Punct(Punct::MinusMinus)) => {
                    self.pos += 2;
                    return Ok(Stmt::IncDec {
                        target: LValue::Var(name),
                        increment: false,
                    });
                }
                Some(Token::Punct(Punct::LBracket)) => {
                    // Could be `a[i] = e` / `a[i] += e` / `a[i]++` or a bare
                    // read `a[i]` inside an expression statement. Parse the
                    // index, then decide.
                    let saved = self.pos;
                    self.pos += 2;
                    let index = self.expr()?;
                    if self.eat_punct(Punct::RBracket) {
                        if self.eat_punct(Punct::Assign) {
                            let value = self.expr()?;
                            return Ok(Stmt::Assign {
                                target: LValue::Index { base: name, index },
                                op: AssignOp::Set,
                                value,
                            });
                        }
                        for (p, op) in [
                            (Punct::PlusAssign, AssignOp::Add),
                            (Punct::MinusAssign, AssignOp::Sub),
                            (Punct::StarAssign, AssignOp::Mul),
                            (Punct::SlashAssign, AssignOp::Div),
                        ] {
                            if self.eat_punct(p) {
                                let value = self.expr()?;
                                return Ok(Stmt::Assign {
                                    target: LValue::Index { base: name, index },
                                    op,
                                    value,
                                });
                            }
                        }
                        if self.eat_punct(Punct::PlusPlus) {
                            return Ok(Stmt::IncDec {
                                target: LValue::Index { base: name, index },
                                increment: true,
                            });
                        }
                        if self.eat_punct(Punct::MinusMinus) {
                            return Ok(Stmt::IncDec {
                                target: LValue::Index { base: name, index },
                                increment: false,
                            });
                        }
                    }
                    // Not an assignment: rewind and parse as an expression.
                    self.pos = saved;
                }
                _ => {}
            }
        }
        Ok(Stmt::Expr(self.expr()?))
    }

    // ---- expressions (precedence climbing) ------------------------------

    fn expr(&mut self) -> Result<Expr, VplError> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, VplError> {
        let mut lhs = self.unary_expr()?;
        while let Some(&Token::Punct(p)) = self.peek() {
            let Some((op, prec)) = binop_of(p) else { break };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, VplError> {
        if self.eat_punct(Punct::Minus) {
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(self.unary_expr()?),
            });
        }
        if self.eat_punct(Punct::Bang) {
            return Ok(Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(self.unary_expr()?),
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, VplError> {
        let mut e = self.primary_expr()?;
        while self.peek() == Some(&Token::Punct(Punct::LBracket)) {
            let base = match &e {
                Expr::Var(name) => name.clone(),
                _ => return Err(self.error("indexing is only supported on variables")),
            };
            self.bump();
            let index = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
            e = Expr::Index {
                base,
                index: Box::new(index),
            };
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, VplError> {
        match self.bump() {
            Some(Token::Number(n)) => Ok(Expr::Num(n)),
            Some(Token::Placeholder(p)) => Ok(Expr::Placeholder(p)),
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::Punct(Punct::LParen)) {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::Punct(Punct::RParen)) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Some(Token::Punct(Punct::LParen)) => {
                // A cast like `(unsigned long long*)(...)` is parsed and
                // discarded — the language is untyped 64-bit underneath.
                if matches!(
                    self.peek(),
                    Some(Token::Keyword(Keyword::Unsigned | Keyword::Int))
                ) {
                    while self.peek() != Some(&Token::Punct(Punct::RParen)) {
                        if self.bump().is_none() {
                            return Err(self.error("unterminated cast"));
                        }
                    }
                    self.bump();
                    return self.unary_expr();
                }
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(t) => Err(self.error(format!("expected an expression, found {t}"))),
            None => Err(self.error("expected an expression, found end of input")),
        }
    }
}

/// Extra declarators queued by comma-lists (`int i, j;`).
#[derive(Debug)]
struct OptionDecl(Option<Decl>);

impl OptionDecl {
    fn take(&mut self) -> Option<Decl> {
        self.0.take()
    }
}

/// Operator precedence table (higher binds tighter).
fn binop_of(p: Punct) -> Option<(BinOp, u8)> {
    Some(match p {
        Punct::PipePipe => (BinOp::Or, 1),
        Punct::AmpAmp => (BinOp::And, 2),
        Punct::Pipe => (BinOp::BitOr, 3),
        Punct::Caret => (BinOp::BitXor, 4),
        Punct::Amp => (BinOp::BitAnd, 5),
        Punct::Eq => (BinOp::Eq, 6),
        Punct::Ne => (BinOp::Ne, 6),
        Punct::Lt => (BinOp::Lt, 7),
        Punct::Gt => (BinOp::Gt, 7),
        Punct::Le => (BinOp::Le, 7),
        Punct::Ge => (BinOp::Ge, 7),
        Punct::Shl => (BinOp::Shl, 8),
        Punct::Shr => (BinOp::Shr, 8),
        Punct::Plus => (BinOp::Add, 9),
        Punct::Minus => (BinOp::Sub, 9),
        Punct::Star => (BinOp::Mul, 10),
        Punct::Slash => (BinOp::Div, 10),
        Punct::Percent => (BinOp::Rem, 10),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_parentheses() {
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_indexing_and_calls() {
        let e = parse_expr("a[i + 1]").unwrap();
        assert!(matches!(e, Expr::Index { .. }));
        let e = parse_expr("malloc(64)").unwrap();
        assert!(matches!(e, Expr::Call { .. }));
    }

    #[test]
    fn parses_casts_transparently() {
        let e = parse_expr("(unsigned long long*)(malloc(8))").unwrap();
        assert!(matches!(e, Expr::Call { .. }));
    }

    #[test]
    fn parses_placeholders_in_expressions() {
        let e = parse_expr("$$$_X_$$$ + 1").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn parses_global_declarations() {
        let p = parse_program(
            "volatile unsigned long long var1[] = $$$_A_$$$; unsigned long long x = 3;",
            "",
            "",
        )
        .unwrap();
        assert_eq!(p.globals.len(), 2);
        assert!(p.globals[0].is_array);
        assert_eq!(p.globals[0].name, "var1");
        assert!(matches!(
            p.globals[0].init,
            Some(Init::Expr(Expr::Placeholder(_)))
        ));
    }

    #[test]
    fn parses_array_literal_initializer() {
        let p = parse_program("unsigned long long t[] = { 1, 2, 3 };", "", "").unwrap();
        match &p.globals[0].init {
            Some(Init::List(items)) => assert_eq!(items.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_comma_declarator_lists() {
        let p = parse_program("", "int i, j, k;", "").unwrap();
        // Comma declarators surface in the locals list via the pending queue
        // drained by `declarations`.
        assert_eq!(p.locals.len(), 3);
        let names: Vec<&str> = p.locals.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["i", "j", "k"]);
    }

    #[test]
    fn parses_for_loop() {
        let p = parse_program("", "int i = 0;", "for (i = 0; i < 10; i += 1) { i = i; }").unwrap();
        assert!(matches!(p.body[0], Stmt::For { .. }));
    }

    #[test]
    fn parses_for_with_increment_and_bare_body() {
        let p = parse_program("", "int i = 0;", "for (i = 0; i < 10; i++) i = i;").unwrap();
        match &p.body[0] {
            Stmt::For { step, body, .. } => {
                assert!(matches!(
                    **step,
                    Stmt::IncDec {
                        increment: true,
                        ..
                    }
                ));
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_else() {
        let p = parse_program("", "int i = 0;", "if (i == 0) { i = 1; } else { i = 2; }").unwrap();
        match &p.body[0] {
            Stmt::If { then, els, .. } => {
                assert_eq!(then.len(), 1);
                assert_eq!(els.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_array_element_assignment() {
        let p = parse_program("", "", "a[3] = 7; a[4] += 1; a[5]++;").unwrap();
        assert!(matches!(
            &p.body[0],
            Stmt::Assign {
                target: LValue::Index { .. },
                ..
            }
        ));
        assert!(matches!(
            &p.body[1],
            Stmt::Assign {
                op: AssignOp::Add,
                target: LValue::Index { .. },
                ..
            }
        ));
        assert!(matches!(
            &p.body[2],
            Stmt::IncDec {
                increment: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_body_local_declaration_with_malloc() {
        let p = parse_program(
            "",
            "",
            "volatile unsigned long long* temp = (unsigned long long*)(malloc(64));",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::Decl(d) => {
                assert!(d.is_pointer);
                assert!(matches!(d.init, Some(Init::Expr(Expr::Call { .. }))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reports_syntax_errors_with_line() {
        let err = parse_program("", "", "for (i = 0; i < 10) { }").unwrap_err();
        match err {
            VplError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        assert!(parse_program("", "", "i = 1 j = 2;").is_err());
    }

    #[test]
    fn bare_expression_statement_allowed() {
        let p = parse_program("", "", "a[i];").unwrap();
        assert!(matches!(&p.body[0], Stmt::Expr(Expr::Index { .. })));
    }
}
