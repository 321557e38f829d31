//! A human-readable bytecode listing, for diagnosing compiler bugs
//! (`dstress disasm`).
//!
//! The format is stable enough to diff across compiler changes: one
//! indexed line per op, global slots (`$n<name>`) and local registers
//! (`rn<name>`) annotated with their source-level names, and an explicit
//! header for the program's shape (slot/register counts, global backing
//! images). A `br.<cmp>` jumps when its comparison holds; the fused-loop
//! prologue and every other condition lower to one.

use crate::bytecode::{AluOp, Base, CompiledProgram, FusedBody, Offset, Op, Operand};
use std::fmt::Write as _;

/// Renders `program` as an indexed assembly-style listing.
pub fn disassemble(program: &CompiledProgram) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "; slots={} regs={} locals={} ops={}",
        program.names.len(),
        program.num_regs,
        program.local_slots.len(),
        program.ops.len()
    );
    for (slot, image) in &program.globals {
        let _ = writeln!(
            s,
            "; global {} = {} word{}",
            slot_name(program, *slot),
            image.len(),
            if image.len() == 1 { "" } else { "s" }
        );
    }
    for (i, op) in program.ops.iter().enumerate() {
        let _ = writeln!(s, "{i:4}  {}", render(program, op));
    }
    s
}

fn slot_name(program: &CompiledProgram, slot: u32) -> String {
    match program.names.get(slot as usize) {
        Some(name) => format!("${slot}<{name}>"),
        None => format!("${slot}"),
    }
}

fn reg(program: &CompiledProgram, r: u32) -> String {
    match program.local_slots.get(r as usize) {
        Some(&slot) => format!("r{r}<{}>", program.names[slot as usize]),
        None => format!("r{r}"),
    }
}

fn operand(program: &CompiledProgram, o: &Operand) -> String {
    match *o {
        Operand::Imm(v) => format!("#{v}"),
        Operand::Reg(r) => reg(program, r),
    }
}

fn base(program: &CompiledProgram, b: Base) -> String {
    match b {
        Base::Slot(slot) => slot_name(program, slot),
        Base::Reg(r) => reg(program, r),
    }
}

fn lower(op: AluOp) -> String {
    format!("{op:?}").to_lowercase()
}

fn render(program: &CompiledProgram, op: &Op) -> String {
    let o = |x: &Operand| operand(program, x);
    let r = |x: u32| reg(program, x);
    let slot = |x: u32| slot_name(program, x);
    match op {
        Op::Const { dst, value } => format!("const     {} = #{value}", r(*dst)),
        Op::Alu { op, dst, lhs, rhs } => {
            format!("alu.{:<5} {} = {}, {}", lower(*op), r(*dst), o(lhs), o(rhs))
        }
        Op::DivRem {
            rem,
            dst,
            lhs,
            rhs,
            charge,
        } => format!(
            "{}       {} = {}, {}  !{charge}",
            if *rem { "rem" } else { "div" },
            r(*dst),
            o(lhs),
            o(rhs)
        ),
        Op::LoadSlot {
            dst,
            slot: s,
            charge,
        } => format!("load      {} = {}  !{charge}", r(*dst), slot(*s)),
        Op::StoreSlot {
            slot: s,
            src,
            charge,
        } => format!("store     {} = {}  !{charge}", slot(*s), o(src)),
        Op::FoldSlot {
            op,
            slot: s,
            src,
            charge,
        } => format!(
            "fold.{:<4} {} <- {}  !{charge}",
            lower(*op),
            slot(*s),
            o(src)
        ),
        Op::DivSlot {
            slot: s,
            src,
            charge,
        } => format!("fold.div  {} <- {}  !{charge}", slot(*s), o(src)),
        Op::LoadIndex {
            dst,
            base: b,
            index,
            charge,
        } => format!(
            "loadx     {} = {}[{}]  !{charge}",
            r(*dst),
            slot(*b),
            o(index)
        ),
        Op::StoreIndex {
            base: b,
            index,
            src,
            charge,
        } => format!(
            "storex    {}[{}] = {}  !{charge}",
            slot(*b),
            o(index),
            o(src)
        ),
        Op::LoadPtr {
            dst,
            ptr,
            index,
            charge,
        } => format!(
            "loadp     {} = {}[{}]  !{charge}",
            r(*dst),
            r(*ptr),
            o(index)
        ),
        Op::StorePtr {
            ptr,
            index,
            src,
            charge,
        } => format!(
            "storep    {}[{}] = {}  !{charge}",
            r(*ptr),
            o(index),
            o(src)
        ),
        Op::Malloc { dst, bytes, charge } => {
            format!("malloc    {} = {} bytes  !{charge}", r(*dst), o(bytes))
        }
        Op::DeclSlot { slot: s, init } => format!("decl      {} = {}", slot(*s), o(init)),
        Op::Bump { n } => format!("bump      !{n}"),
        Op::Jump { target, charge } => format!("jump      @{target}  !{charge}"),
        Op::Branch {
            cmp,
            lhs,
            rhs,
            target,
            charge,
        } => {
            // Rendered as the condition under which the branch is taken.
            let taken = cmp.negated().map(lower).expect("a branch compares");
            format!(
                "br.{taken:<6} {}, {} -> @{target}  !{charge}",
                o(lhs),
                o(rhs)
            )
        }
        Op::FusedLoop { index, charge } => {
            let f = &program.fused[*index as usize];
            let var = r(f.var);
            let index = match f.body.offset() {
                None => var.clone(),
                Some(Offset { reg: x, imm: 0 }) => format!("{} + {var}", r(x)),
                Some(Offset { reg: x, imm }) if (imm as i64) < 0 => {
                    format!("{} - #{} + {var}", r(x), imm.wrapping_neg())
                }
                Some(Offset { reg: x, imm }) => format!("{} + #{imm} + {var}", r(x)),
            };
            let (body, c_write) = match f.body {
                FusedBody::StoreImm { base: b, value } => {
                    (format!("{}[{index}] = #{value}", base(program, b)), None)
                }
                FusedBody::Accumulate {
                    op, base: b, acc, ..
                } => (
                    format!("{} {op:?}= {}[{index}]", r(acc), base(program, b)),
                    None,
                ),
                FusedBody::Copy {
                    dst, src, c_write, ..
                } => (
                    format!(
                        "{}[{index}] = {}[{var}]",
                        base(program, dst),
                        base(program, src),
                    ),
                    Some(c_write),
                ),
                FusedBody::Gather(g) => {
                    let mut table = match g.stride {
                        1 => var.clone(),
                        k => format!("{var} * #{k}"),
                    };
                    if g.lane != Operand::Imm(0) {
                        table = format!("{table} + {}", o(&g.lane));
                    }
                    let (start, end) = g.invariant;
                    let invariant = if start < end {
                        format!(" inv @{start}..@{end}")
                    } else {
                        String::new()
                    };
                    (
                        format!(
                            "{} = {}[{table}]; {} {:?}= {}[{} + {}]{invariant}",
                            r(g.base),
                            base(program, g.table),
                            r(g.acc),
                            g.op,
                            base(program, g.array),
                            r(g.base),
                            o(&g.off),
                        ),
                        None,
                    )
                }
            };
            let write = c_write.map(|c| format!(",w={c}")).unwrap_or_default();
            format!(
                "fused     for {var} < #{}: {body}  !{charge} c={},a={}{write},b={} exit @{}",
                f.bound, f.c_cond, f.c_access, f.c_back, f.exit
            )
        }
        Op::Halt { charge } => format!("halt      !{charge}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::parser::parse_program;

    #[test]
    fn listing_renders_every_fused_body() {
        let program = parse_program(
            "volatile unsigned long long cpat[] = { 1, 2, 3, 4 };",
            "int i = 0; unsigned long long s = 2; unsigned long long acc = 0;",
            "unsigned long long buf = malloc(128); \
             for (i = 0; i < 8; i += 1) { buf[i] = 0; } \
             for (i = 0; i < 4; i += 1) { buf[s + i] = cpat[i]; } \
             for (i = 0; i < 4; i += 1) { buf[i + (s - 1)] = cpat[i]; } \
             for (i = 0; i < 8; i += 1) { acc += buf[i]; } \
             for (i = 0; i < 4; i += 1) { acc += buf[s + 3 + i]; } \
             unsigned long long b = 0; \
             for (i = 0; i < 2; i += 1) { b = cpat[i * 2 + s]; acc += buf[b + (cpat[s] * 3) % 8]; }",
        )
        .expect("parses");
        let listing = disassemble(&compile(&program).expect("compiles"));
        let fused: Vec<&str> = listing
            .lines()
            .filter_map(|l| l.split_once("fused     ").map(|(_, rest)| rest))
            .collect();
        // Locals are registers, the global a slot.
        let (i, s, cpat, acc, buf) = ("r0<i>", "r1<s>", "$0<cpat>", "r2<acc>", "r3<buf>");
        assert_eq!(fused.len(), 6, "{listing}");
        assert!(fused[0].starts_with(&format!("for {i} < #8: {buf}[{i}] = #0  !")));
        assert!(fused[1].starts_with(&format!(
            "for {i} < #4: {buf}[{s} + {i}] = {cpat}[{i}]  !3 c="
        )));
        assert!(
            fused[1].ends_with("!3 c=4,a=3,w=3,b=2 exit @18"),
            "{}",
            fused[1]
        );
        assert!(fused[2].contains(&format!("{buf}[{s} - #1 + {i}] = {cpat}[{i}]")));
        assert!(fused[3].contains(&format!("{acc} Add= {buf}[{i}]")));
        assert!(fused[4].contains(&format!("{acc} Add= {buf}[{s} + #3 + {i}]")));
        // The gather names its table read, its gather read and the op range
        // computing the offset between them.
        assert!(
            fused[5].starts_with(&format!(
                "for {i} < #2: r4<b> = {cpat}[{i} * #2 + {s}]; {acc} Add= {buf}[r4<b> + r"
            )),
            "{}",
            fused[5]
        );
        assert!(fused[5].contains("] inv @"), "{}", fused[5]);
    }
}
