//! A human-readable bytecode listing, for diagnosing compiler bugs
//! (`dstress disasm`).
//!
//! The format is stable enough to diff across compiler changes: one
//! indexed line per op, slot indices annotated with their source-level
//! names, and an explicit header for the program's shape (slot/register
//! counts, global backing images).

use crate::bytecode::{CompiledProgram, FusedBody, Op, Operand};
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
        Op::FusedLoop(f) => {
            let body = match &f.body {
                FusedBody::StoreImm { base, value } => {
                    format!(
                        "{}[{}] = #{value}",
                        slot_name(program, *base),
                        slot_name(program, f.var)
                    )
                }
                FusedBody::Accumulate { op, base, acc } => format!(
                    "{} {:?}= {}[{}]",
                    slot_name(program, *acc),
                    op,
                    slot_name(program, *base),
                    slot_name(program, f.var)
                ),
            };
            format!(
                "fused     for {} < #{}: {body}  !c={},a={},b={} exit @{}",
                slot_name(program, f.var),
                f.bound,
                f.c_cond,
                f.c_access,
                f.c_back,
                f.exit
            )
        }
        Op::Halt { charge } => format!("halt      !{charge}"),
    }
}
