//! Property-based tests for the PicoBlaze substrate.

use proptest::prelude::*;

use sirtm_picoblaze::isa::{Address, Condition, Instruction, Operand, Register, ShiftOp};
use sirtm_picoblaze::vm::{Picoblaze, SparseIo, VmError};
use sirtm_picoblaze::{asm, disasm};

fn any_register() -> impl Strategy<Value = Register> {
    (0u8..16).prop_map(Register::new)
}

fn any_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        any_register().prop_map(Operand::Reg),
        any::<u8>().prop_map(Operand::Imm),
    ]
}

fn any_address() -> impl Strategy<Value = Address> {
    prop_oneof![
        any::<u8>().prop_map(Address::Direct),
        any_register().prop_map(Address::Indirect),
    ]
}

fn any_condition() -> impl Strategy<Value = Condition> {
    prop_oneof![
        Just(Condition::Always),
        Just(Condition::Zero),
        Just(Condition::NotZero),
        Just(Condition::Carry),
        Just(Condition::NotCarry),
    ]
}

fn any_shift() -> impl Strategy<Value = ShiftOp> {
    proptest::sample::select(ShiftOp::ALL.to_vec())
}

fn any_instruction() -> impl Strategy<Value = Instruction> {
    let target = 0u16..0x1000;
    prop_oneof![
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::Load(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::And(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::Or(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::Xor(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::Add(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::AddCy(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::Sub(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::SubCy(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::Compare(r, o)),
        (any_register(), any_operand()).prop_map(|(r, o)| Instruction::Test(r, o)),
        (any_shift(), any_register()).prop_map(|(s, r)| Instruction::Shift(s, r)),
        (any_register(), any_address()).prop_map(|(r, a)| Instruction::Store(r, a)),
        (any_register(), any_address()).prop_map(|(r, a)| Instruction::Fetch(r, a)),
        (any_register(), any_address()).prop_map(|(r, a)| Instruction::Input(r, a)),
        (any_register(), any_address()).prop_map(|(r, a)| Instruction::Output(r, a)),
        (any_condition(), target.clone()).prop_map(|(c, t)| Instruction::Jump(c, t)),
        (any_condition(), target).prop_map(|(c, t)| Instruction::Call(c, t)),
        any_condition().prop_map(Instruction::Return),
    ]
}

proptest! {
    /// Disassembly is valid assembler input and reproduces the program.
    #[test]
    fn disasm_asm_roundtrip(prog in proptest::collection::vec(any_instruction(), 1..64)) {
        let source = disasm::to_source(&prog);
        let round = asm::assemble(&source).expect("disassembly must re-assemble");
        prop_assert_eq!(prog, round);
    }

    /// The VM never panics on arbitrary programs: every step either
    /// succeeds or returns a structured error, and errors are sticky-safe
    /// (state remains inspectable).
    #[test]
    fn vm_is_panic_free(
        prog in proptest::collection::vec(any_instruction(), 1..48),
        steps in 1u64..2000,
        seed_inputs in proptest::collection::vec(any::<u8>(), 4),
    ) {
        let mut cpu = Picoblaze::new(prog);
        let mut io = SparseIo::new();
        for (i, v) in seed_inputs.iter().enumerate() {
            io.set_input(i as u8, *v);
        }
        for _ in 0..steps {
            match cpu.step(&mut io) {
                Ok(()) => {}
                Err(VmError::PcOutOfRange { .. })
                | Err(VmError::StackOverflow { .. })
                | Err(VmError::StackUnderflow { .. }) => break,
            }
        }
        // Flags are always a valid pair and instret never exceeds steps.
        prop_assert!(cpu.instret() <= steps);
    }

    /// ADD/SUB are exact mod-256 arithmetic.
    #[test]
    fn add_sub_mod256(a in any::<u8>(), b in any::<u8>()) {
        let r0 = Register::new(0);
        let mut cpu = Picoblaze::new(vec![
            Instruction::Add(r0, Operand::Imm(b)),
            Instruction::Sub(r0, Operand::Imm(b)),
        ]);
        cpu.set_reg(r0, a);
        let mut io = SparseIo::new();
        cpu.step(&mut io).expect("add");
        prop_assert_eq!(cpu.reg(r0), a.wrapping_add(b));
        cpu.step(&mut io).expect("sub");
        prop_assert_eq!(cpu.reg(r0), a);
    }

    /// COMPARE orders registers exactly like `u8` comparison.
    #[test]
    fn compare_matches_u8_ordering(a in any::<u8>(), b in any::<u8>()) {
        let r0 = Register::new(0);
        let mut cpu = Picoblaze::new(vec![Instruction::Compare(r0, Operand::Imm(b))]);
        cpu.set_reg(r0, a);
        cpu.step(&mut SparseIo::new()).expect("compare");
        let (z, c) = cpu.flags();
        prop_assert_eq!(z, a == b);
        prop_assert_eq!(c, a < b);
    }
}
