//! A human-readable bytecode listing, for diagnosing compiler bugs
//! (`dstress disasm`).
//!
//! The format is stable enough to diff across compiler changes: one
//! indexed line per op, slot indices annotated with their source-level
//! names, and an explicit header for the program's shape (slot/register
//! counts, global backing images).

use crate::bytecode::{CompiledProgram, FusedBody, Offset, Op, Operand};
use std::fmt::Write as _;

/// Renders `program` as an indexed assembly-style listing.
pub fn disassemble(program: &CompiledProgram) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "; slots={} regs={} ops={}",
        program.num_slots,
        program.num_regs,
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

fn operand(o: &Operand) -> String {
    match o {
        Operand::Imm(v) => format!("#{v}"),
        Operand::Reg(r) => format!("r{r}"),
    }
}

fn render(program: &CompiledProgram, op: &Op) -> String {
    match op {
        Op::Const { dst, value } => format!("const     r{dst} = #{value}"),
        Op::Alu { op, dst, lhs, rhs } => format!(
            "alu.{:<5} r{dst} = {}, {}",
            format!("{op:?}").to_lowercase(),
            operand(lhs),
            operand(rhs)
        ),
        Op::DivRem {
            rem,
            dst,
            lhs,
            rhs,
            charge,
        } => format!(
            "divrem    r{dst}, r{rem} = {}, {}  !{charge}",
            operand(lhs),
            operand(rhs)
        ),
        Op::LoadSlot { dst, slot, charge } => {
            format!(
                "load      r{dst} = {}  !{charge}",
                slot_name(program, *slot)
            )
        }
        Op::StoreSlot { slot, src, charge } => {
            format!(
                "store     {} = {}  !{charge}",
                slot_name(program, *slot),
                operand(src)
            )
        }
        Op::FoldSlot {
            op,
            slot,
            src,
            charge,
        } => format!(
            "fold.{:<4} {} <- {}  !{charge}",
            format!("{op:?}").to_lowercase(),
            slot_name(program, *slot),
            operand(src)
        ),
        Op::LoadIndex {
            dst,
            base,
            index,
            charge,
        } => format!(
            "loadx     r{dst} = {}[{}]  !{charge}",
            slot_name(program, *base),
            operand(index)
        ),
        Op::StoreIndex {
            base,
            index,
            src,
            charge,
        } => format!(
            "storex    {}[{}] = {}  !{charge}",
            slot_name(program, *base),
            operand(index),
            operand(src)
        ),
        Op::Malloc { dst, bytes, charge } => {
            format!("malloc    r{dst} = {} bytes  !{charge}", operand(bytes))
        }
        Op::DeclSlot { slot, init } => {
            format!(
                "decl      {} = {}",
                slot_name(program, *slot),
                operand(init)
            )
        }
        Op::Bump { n } => format!("bump      !{n}"),
        Op::Jump { target, charge } => format!("jump      @{target}  !{charge}"),
        Op::JumpIfZero {
            cond,
            target,
            charge,
        } => format!("jz        {} -> @{target}  !{charge}", operand(cond)),
        Op::JumpIfNonZero {
            cond,
            target,
            charge,
        } => format!("jnz       {} -> @{target}  !{charge}", operand(cond)),
        Op::Nop => "nop".to_string(),
        Op::FusedLoop(k) => {
            let f = &program.fused[*k as usize];
            let var = slot_name(program, f.var);
            let index = match f.body.offset() {
                None => var.clone(),
                Some(Offset { slot, imm: 0 }) => format!("{} + {var}", slot_name(program, slot)),
                Some(Offset { slot, imm }) if (imm as i64) < 0 => format!(
                    "{} - #{} + {var}",
                    slot_name(program, slot),
                    imm.wrapping_neg()
                ),
                Some(Offset { slot, imm }) => {
                    format!("{} + #{imm} + {var}", slot_name(program, slot))
                }
            };
            let (body, c_write) = match f.body {
                FusedBody::StoreImm { base, value } => (
                    format!("{}[{index}] = #{value}", slot_name(program, base)),
                    None,
                ),
                FusedBody::Accumulate { op, base, acc, .. } => (
                    format!(
                        "{} {op:?}= {}[{index}]",
                        slot_name(program, acc),
                        slot_name(program, base),
                    ),
                    None,
                ),
                FusedBody::Copy {
                    dst, src, c_write, ..
                } => (
                    format!(
                        "{}[{index}] = {}[{var}]",
                        slot_name(program, dst),
                        slot_name(program, src),
                    ),
                    Some(c_write),
                ),
            };
            let write = c_write.map(|c| format!(",w={c}")).unwrap_or_default();
            format!(
                "fused     for {var} < #{}: {body}  !c={},a={}{write},b={} exit @{}",
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
             for (i = 0; i < 4; i += 1) { acc += buf[s + 3 + i]; }",
        )
        .expect("parses");
        let listing = disassemble(&compile(&program).expect("compiles"));
        let fused: Vec<&str> = listing
            .lines()
            .filter_map(|l| l.split_once("fused     ").map(|(_, rest)| rest))
            .collect();
        let (i, s, cpat, acc, buf) = ("$1<i>", "$2<s>", "$0<cpat>", "$3<acc>", "$4<buf>");
        assert_eq!(fused.len(), 5, "{listing}");
        assert!(fused[0].starts_with(&format!("for {i} < #8: {buf}[{i}] = #0  !")));
        assert!(fused[1].starts_with(&format!(
            "for {i} < #4: {buf}[{s} + {i}] = {cpat}[{i}]  !c="
        )));
        assert!(
            fused[1].ends_with("!c=4,a=3,w=3,b=2 exit @27"),
            "{}",
            fused[1]
        );
        assert!(fused[2].contains(&format!("{buf}[{s} - #1 + {i}] = {cpat}[{i}]")));
        assert!(fused[3].contains(&format!("{acc} Add= {buf}[{i}]")));
        assert!(fused[4].contains(&format!("{acc} Add= {buf}[{s} + #3 + {i}]")));
    }
}
