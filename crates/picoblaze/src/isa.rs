//! Instruction set of the SIRTM PicoBlaze-style core.
//!
//! The implemented subset covers everything the AIM firmware needs:
//! register/constant ALU operations, shifts and rotates, scratchpad
//! store/fetch, port input/output, and conditional jump/call/return.
//! Interrupts and register banking are intentionally out of scope — the
//! AIM runs a polled sense→decide→act loop (Fig. 2b of the paper).

use std::fmt;

/// One of the sixteen 8-bit registers `s0`–`sF`.
///
/// # Examples
///
/// ```
/// use sirtm_picoblaze::Register;
///
/// let r = Register::new(0xA);
/// assert_eq!(r.to_string(), "sA");
/// assert_eq!(r.index(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Register(u8);

impl Register {
    /// Creates a register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index > 15`.
    pub const fn new(index: u8) -> Self {
        assert!(index < 16, "register index must be 0..=15");
        Self(index)
    }

    /// Register index in `0..16`.
    pub const fn index(self) -> usize {
        // `new` guarantees `self.0 < 16`, so the mask changes nothing; it
        // shows the compiler the range, which drops the bounds check on
        // every register-file access in the interpreter.
        (self.0 & 0x0F) as usize
    }

    /// Raw 4-bit encoding.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Register {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{:X}", self.0)
    }
}

/// Branch conditions testing the zero (Z) and carry (C) flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condition {
    /// Unconditional.
    Always,
    /// Z set.
    Zero,
    /// Z clear.
    NotZero,
    /// C set.
    Carry,
    /// C clear.
    NotCarry,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Always => Ok(()),
            Condition::Zero => write!(f, "Z"),
            Condition::NotZero => write!(f, "NZ"),
            Condition::Carry => write!(f, "C"),
            Condition::NotCarry => write!(f, "NC"),
        }
    }
}

/// Shift and rotate sub-operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Shift left, LSB := 0.
    Sl0,
    /// Shift left, LSB := 1.
    Sl1,
    /// Shift left, LSB := old LSB (arithmetic-style extend).
    Slx,
    /// Shift left, LSB := carry.
    Sla,
    /// Rotate left through itself (MSB → LSB), carry := old MSB.
    Rl,
    /// Shift right, MSB := 0.
    Sr0,
    /// Shift right, MSB := 1.
    Sr1,
    /// Shift right, MSB := old MSB (sign extend).
    Srx,
    /// Shift right, MSB := carry.
    Sra,
    /// Rotate right, carry := old LSB.
    Rr,
}

impl ShiftOp {
    /// All shift ops, used by the encoder and property tests.
    pub const ALL: [ShiftOp; 10] = [
        ShiftOp::Sl0,
        ShiftOp::Sl1,
        ShiftOp::Slx,
        ShiftOp::Sla,
        ShiftOp::Rl,
        ShiftOp::Sr0,
        ShiftOp::Sr1,
        ShiftOp::Srx,
        ShiftOp::Sra,
        ShiftOp::Rr,
    ];
}

impl fmt::Display for ShiftOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ShiftOp::Sl0 => "SL0",
            ShiftOp::Sl1 => "SL1",
            ShiftOp::Slx => "SLX",
            ShiftOp::Sla => "SLA",
            ShiftOp::Rl => "RL",
            ShiftOp::Sr0 => "SR0",
            ShiftOp::Sr1 => "SR1",
            ShiftOp::Srx => "SRX",
            ShiftOp::Sra => "SRA",
            ShiftOp::Rr => "RR",
        };
        f.write_str(s)
    }
}

/// Second operand of ALU instructions: a register or an 8-bit constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand `sY`.
    Reg(Register),
    /// Immediate constant `kk`.
    Imm(u8),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(k) => write!(f, "0x{k:02X}"),
        }
    }
}

/// Scratchpad / port address: direct 8-bit or register-indirect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Address {
    /// Direct address `(kk)`.
    Direct(u8),
    /// Register-indirect address `(sY)`.
    Indirect(Register),
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Address::Direct(a) => write!(f, "(0x{a:02X})"),
            Address::Indirect(r) => write!(f, "({r})"),
        }
    }
}

/// A decoded instruction.
///
/// Program addresses are 12 bits (up to 4096 instructions), matching the
/// KCPSM6 program space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `LOAD sX, op` — copy operand into `sX`; flags unchanged.
    Load(Register, Operand),
    /// `AND sX, op` — bitwise AND; C := 0, Z updated.
    And(Register, Operand),
    /// `OR sX, op` — bitwise OR; C := 0, Z updated.
    Or(Register, Operand),
    /// `XOR sX, op` — bitwise XOR; C := 0, Z updated.
    Xor(Register, Operand),
    /// `ADD sX, op` — add; C and Z updated.
    Add(Register, Operand),
    /// `ADDCY sX, op` — add with carry; Z chains (Z := Z_prev & result==0).
    AddCy(Register, Operand),
    /// `SUB sX, op` — subtract; C (borrow) and Z updated.
    Sub(Register, Operand),
    /// `SUBCY sX, op` — subtract with borrow; Z chains.
    SubCy(Register, Operand),
    /// `COMPARE sX, op` — subtract without writeback; C/Z updated.
    Compare(Register, Operand),
    /// `TEST sX, op` — AND without writeback; Z updated, C := odd parity.
    Test(Register, Operand),
    /// Shift or rotate `sX`; C receives the shifted-out bit, Z updated.
    Shift(ShiftOp, Register),
    /// `STORE sX, addr` — write `sX` to scratchpad; flags unchanged.
    Store(Register, Address),
    /// `FETCH sX, addr` — read scratchpad into `sX`; flags unchanged.
    Fetch(Register, Address),
    /// `INPUT sX, addr` — read port into `sX`; flags unchanged.
    Input(Register, Address),
    /// `OUTPUT sX, addr` — write `sX` to port; flags unchanged.
    Output(Register, Address),
    /// `JUMP [cond,] aaa`.
    Jump(Condition, u16),
    /// `CALL [cond,] aaa` — pushes the return address (stack depth 30).
    Call(Condition, u16),
    /// `RETURN [cond]`.
    Return(Condition),
}

impl Instruction {
    /// Number of opcode families (the variant count of this enum).
    pub const COUNT: usize = 18;

    /// Opcode mnemonics in [`Instruction::opcode_index`] order.
    pub const MNEMONICS: [&'static str; Self::COUNT] = [
        "LOAD", "AND", "OR", "XOR", "ADD", "ADDCY", "SUB", "SUBCY", "COMPARE", "TEST", "SHIFT",
        "STORE", "FETCH", "INPUT", "OUTPUT", "JUMP", "CALL", "RETURN",
    ];

    /// Returns `true` for instructions that can change control flow.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Instruction::Jump(..) | Instruction::Call(..) | Instruction::Return(..)
        )
    }

    /// Dense opcode-family index in declaration order (`0..COUNT`);
    /// indexes [`Instruction::MNEMONICS`] and the VM's per-opcode
    /// profile counters.
    pub fn opcode_index(&self) -> usize {
        match self {
            Instruction::Load(..) => 0,
            Instruction::And(..) => 1,
            Instruction::Or(..) => 2,
            Instruction::Xor(..) => 3,
            Instruction::Add(..) => 4,
            Instruction::AddCy(..) => 5,
            Instruction::Sub(..) => 6,
            Instruction::SubCy(..) => 7,
            Instruction::Compare(..) => 8,
            Instruction::Test(..) => 9,
            Instruction::Shift(..) => 10,
            Instruction::Store(..) => 11,
            Instruction::Fetch(..) => 12,
            Instruction::Input(..) => 13,
            Instruction::Output(..) => 14,
            Instruction::Jump(..) => 15,
            Instruction::Call(..) => 16,
            Instruction::Return(..) => 17,
        }
    }

    /// The instruction's mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        Self::MNEMONICS[self.opcode_index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_display_is_hex() {
        assert_eq!(Register::new(15).to_string(), "sF");
        assert_eq!(Register::new(0).to_string(), "s0");
    }

    #[test]
    #[should_panic(expected = "register index")]
    fn register_out_of_range_panics() {
        Register::new(16);
    }

    #[test]
    fn condition_display() {
        assert_eq!(Condition::NotCarry.to_string(), "NC");
        assert_eq!(Condition::Always.to_string(), "");
    }

    #[test]
    fn branch_classification() {
        assert!(Instruction::Jump(Condition::Always, 0).is_branch());
        assert!(Instruction::Return(Condition::Zero).is_branch());
        assert!(!Instruction::Load(Register::new(0), Operand::Imm(1)).is_branch());
    }

    #[test]
    fn shift_all_is_complete_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for op in ShiftOp::ALL {
            assert!(seen.insert(format!("{op}")));
        }
        assert_eq!(seen.len(), 10);
    }
}
