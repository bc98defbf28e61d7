//! Deterministic interpreter for the PicoBlaze-style core.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::isa::{Address, Condition, Instruction, Operand, Register, ShiftOp};

/// Call-stack depth of the hardware core (KCPSM6 is 30 deep).
pub const STACK_DEPTH: usize = 30;

/// Scratchpad RAM size in bytes.
pub const SCRATCHPAD_LEN: usize = 256;

/// Memory-mapped I/O seen by the core: 256 input ports and 256 output
/// ports. In SIRTM the platform maps router/PE *monitors* onto input ports
/// and *knobs* onto output ports (Fig. 2a of the paper).
pub trait PortIo {
    /// Reads input port `port`.
    fn input(&mut self, port: u8) -> u8;
    /// Writes `value` to output port `port`.
    fn output(&mut self, port: u8, value: u8);
}

/// Port I/O backed by hash maps; handy for tests and firmware bring-up.
///
/// Unset input ports read as `0`. All writes are recorded per port.
#[derive(Debug, Clone, Default)]
pub struct SparseIo {
    inputs: HashMap<u8, u8>,
    outputs: HashMap<u8, Vec<u8>>,
}

impl SparseIo {
    /// Creates an empty I/O space (all inputs read 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value returned by input port `port`.
    pub fn set_input(&mut self, port: u8, value: u8) {
        self.inputs.insert(port, value);
    }

    /// Most recent value written to output port `port`.
    pub fn last_output(&self, port: u8) -> Option<u8> {
        self.outputs.get(&port).and_then(|v| v.last()).copied()
    }

    /// Full write history of output port `port` (oldest first).
    pub fn output_history(&self, port: u8) -> &[u8] {
        self.outputs.get(&port).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Clears recorded output history (inputs are kept).
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }
}

impl PortIo for SparseIo {
    fn input(&mut self, port: u8) -> u8 {
        self.inputs.get(&port).copied().unwrap_or(0)
    }

    fn output(&mut self, port: u8, value: u8) {
        self.outputs.entry(port).or_default().push(value);
    }
}

/// Runtime errors raised by the interpreter.
///
/// These correspond to conditions that would be silent wrap-around or
/// undefined behaviour on the real core; surfacing them loudly makes
/// firmware bugs debuggable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// The program counter left the program (missing terminal loop?).
    PcOutOfRange {
        /// Offending program counter value.
        pc: u16,
        /// Program length.
        len: usize,
    },
    /// More than [`STACK_DEPTH`] nested calls.
    StackOverflow {
        /// Program counter of the offending `CALL`.
        pc: u16,
    },
    /// `RETURN` with an empty call stack.
    StackUnderflow {
        /// Program counter of the offending `RETURN`.
        pc: u16,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::PcOutOfRange { pc, len } => {
                write!(
                    f,
                    "program counter 0x{pc:03X} outside program of {len} words"
                )
            }
            VmError::StackOverflow { pc } => {
                write!(f, "call stack overflow (depth {STACK_DEPTH}) at 0x{pc:03X}")
            }
            VmError::StackUnderflow { pc } => {
                write!(f, "return with empty call stack at 0x{pc:03X}")
            }
        }
    }
}

impl Error for VmError {}

/// Outcome of [`Picoblaze::run_until_port_write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The watched port was written after executing this many instructions.
    PortWritten(u64),
    /// The instruction budget ran out before the port was written.
    BudgetExhausted,
}

/// The PicoBlaze-style core: 16 registers, 256-byte scratchpad, 2 flags,
/// 30-deep call stack and a 12-bit program counter.
///
/// The program is shared, not copied: cores built from the same
/// `Arc<[Instruction]>` (or cloned from one another) hold one image.
///
/// # Examples
///
/// ```
/// use sirtm_picoblaze::isa::{Instruction, Operand, Register, Condition};
/// use sirtm_picoblaze::vm::{Picoblaze, SparseIo};
///
/// let s0 = Register::new(0);
/// let prog = vec![
///     Instruction::Load(s0, Operand::Imm(40)),
///     Instruction::Add(s0, Operand::Imm(2)),
///     Instruction::Jump(Condition::Always, 2), // spin
/// ];
/// let mut cpu = Picoblaze::new(prog);
/// cpu.step_n(2, &mut SparseIo::new())?;
/// assert_eq!(cpu.reg(s0), 42);
/// # Ok::<(), sirtm_picoblaze::VmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Picoblaze {
    program: Arc<[Instruction]>,
    regs: [u8; 16],
    scratch: [u8; SCRATCHPAD_LEN],
    stack: [u16; STACK_DEPTH],
    /// Number of live entries in `stack`.
    depth: usize,
    pc: u16,
    zero: bool,
    carry: bool,
    instret: u64,
    /// Retired instructions per opcode family, indexed by
    /// [`Instruction::opcode_index`]: per-opcode observability of what
    /// the firmware spends its instructions on.
    #[cfg(feature = "profile")]
    opcode_counts: [u64; Instruction::COUNT],
}

/// A `sync` port for [`Picoblaze::exec`] that no 8-bit port equals, so
/// the run only ends on its budget or a fault.
const NO_SYNC: u16 = 0x100;

fn operand_value(regs: &[u8; 16], op: Operand) -> u8 {
    match op {
        Operand::Reg(r) => regs[r.index()],
        Operand::Imm(k) => k,
    }
}

fn address_value(regs: &[u8; 16], a: Address) -> u8 {
    match a {
        Address::Direct(k) => k,
        Address::Indirect(r) => regs[r.index()],
    }
}

fn condition_met(c: Condition, zero: bool, carry: bool) -> bool {
    match c {
        Condition::Always => true,
        Condition::Zero => zero,
        Condition::NotZero => !zero,
        Condition::Carry => carry,
        Condition::NotCarry => !carry,
    }
}

impl Picoblaze {
    /// Creates a core with the given program loaded and all state zeroed.
    /// A `Vec` becomes a fresh image; an `Arc<[Instruction]>` is shared
    /// with its other holders.
    pub fn new(program: impl Into<Arc<[Instruction]>>) -> Self {
        Self {
            program: program.into(),
            regs: [0; 16],
            scratch: [0; SCRATCHPAD_LEN],
            stack: [0; STACK_DEPTH],
            depth: 0,
            pc: 0,
            zero: false,
            carry: false,
            instret: 0,
            #[cfg(feature = "profile")]
            opcode_counts: [0; Instruction::COUNT],
        }
    }

    /// Current value of register `r`.
    pub fn reg(&self, r: Register) -> u8 {
        self.regs[r.index()]
    }

    /// Sets register `r` (useful for test harnesses).
    pub fn set_reg(&mut self, r: Register, value: u8) {
        self.regs[r.index()] = value;
    }

    /// Reads a scratchpad byte.
    pub fn scratch(&self, addr: u8) -> u8 {
        self.scratch[addr as usize]
    }

    /// Writes a scratchpad byte (useful for preloading state).
    pub fn set_scratch(&mut self, addr: u8, value: u8) {
        self.scratch[addr as usize] = value;
    }

    /// Current program counter.
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// `(zero, carry)` flags.
    pub fn flags(&self) -> (bool, bool) {
        (self.zero, self.carry)
    }

    /// Number of instructions retired since construction.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Retired-instruction counts per opcode family, indexed by
    /// [`Instruction::opcode_index`] (pair with
    /// [`Instruction::MNEMONICS`]). Faulting instructions are not
    /// counted, so the histogram always sums to [`Picoblaze::instret`].
    #[cfg(feature = "profile")]
    pub fn opcode_counts(&self) -> &[u64; Instruction::COUNT] {
        &self.opcode_counts
    }

    /// The opcode histogram as `(mnemonic, count)` pairs, zero entries
    /// included, in [`Instruction::opcode_index`] order.
    #[cfg(feature = "profile")]
    pub fn opcode_profile(&self) -> Vec<(&'static str, u64)> {
        Instruction::MNEMONICS
            .iter()
            .zip(self.opcode_counts.iter())
            .map(|(&m, &c)| (m, c))
            .collect()
    }

    /// The loaded program.
    pub fn program(&self) -> &[Instruction] {
        &self.program
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on PC escape, stack overflow or underflow. The
    /// core state is left as it was *before* the faulting instruction, so
    /// errors are inspectable.
    pub fn step<P: PortIo + ?Sized>(&mut self, io: &mut P) -> Result<(), VmError> {
        self.exec(1, NO_SYNC, io).map(drop)
    }

    /// Executes up to `n` instructions.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first [`VmError`], with the core state as
    /// it was before the faulting instruction.
    pub fn step_n<P: PortIo + ?Sized>(&mut self, n: u64, io: &mut P) -> Result<(), VmError> {
        self.exec(n, NO_SYNC, io).map(drop)
    }

    /// Runs until the core writes to output `port` (the AIM's end-of-scan
    /// sync convention) or `budget` instructions have retired.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`], with the core state as it was
    /// before the faulting instruction.
    pub fn run_until_port_write<P: PortIo + ?Sized>(
        &mut self,
        port: u8,
        budget: u64,
        io: &mut P,
    ) -> Result<RunOutcome, VmError> {
        Ok(match self.exec(budget, u16::from(port), io)? {
            Some(executed) => RunOutcome::PortWritten(executed),
            None => RunOutcome::BudgetExhausted,
        })
    }

    /// The interpreter: the one body of instruction semantics behind
    /// [`Self::step`], [`Self::step_n`] and [`Self::run_until_port_write`].
    ///
    /// Retires up to `budget` instructions and stops early right after a
    /// write to output port `sync` ([`NO_SYNC`] never matches), returning
    /// the instructions retired up to and including that write. PC and
    /// flags live in locals and `instret` is credited once per call; on a
    /// fault everything the faulting instruction would have changed is
    /// left as it was.
    fn exec<P: PortIo + ?Sized>(
        &mut self,
        budget: u64,
        sync: u16,
        io: &mut P,
    ) -> Result<Option<u64>, VmError> {
        use Instruction::*;
        let program: &[Instruction] = &self.program;
        let regs = &mut self.regs;
        let mut pc = self.pc;
        let mut zero = self.zero;
        let mut carry = self.carry;
        let mut executed = 0u64;
        let mut synced = false;
        let mut fault = None;
        while executed < budget {
            let Some(&instr) = program.get(usize::from(pc)) else {
                fault = Some(VmError::PcOutOfRange {
                    pc,
                    len: program.len(),
                });
                break;
            };
            let mut next_pc = pc.wrapping_add(1);
            match instr {
                Load(x, op) => {
                    regs[x.index()] = operand_value(regs, op);
                }
                And(x, op) => {
                    let r = regs[x.index()] & operand_value(regs, op);
                    regs[x.index()] = r;
                    zero = r == 0;
                    carry = false;
                }
                Or(x, op) => {
                    let r = regs[x.index()] | operand_value(regs, op);
                    regs[x.index()] = r;
                    zero = r == 0;
                    carry = false;
                }
                Xor(x, op) => {
                    let r = regs[x.index()] ^ operand_value(regs, op);
                    regs[x.index()] = r;
                    zero = r == 0;
                    carry = false;
                }
                Add(x, op) => {
                    let (r, c) = regs[x.index()].overflowing_add(operand_value(regs, op));
                    regs[x.index()] = r;
                    zero = r == 0;
                    carry = c;
                }
                AddCy(x, op) => {
                    let sum =
                        regs[x.index()] as u16 + operand_value(regs, op) as u16 + carry as u16;
                    let r = (sum & 0xFF) as u8;
                    regs[x.index()] = r;
                    // Z chains across multi-byte adds, per KCPSM6.
                    zero = zero && r == 0;
                    carry = sum > 0xFF;
                }
                Sub(x, op) => {
                    let (r, b) = regs[x.index()].overflowing_sub(operand_value(regs, op));
                    regs[x.index()] = r;
                    zero = r == 0;
                    carry = b;
                }
                SubCy(x, op) => {
                    let diff =
                        regs[x.index()] as i16 - operand_value(regs, op) as i16 - carry as i16;
                    let r = (diff & 0xFF) as u8;
                    regs[x.index()] = r;
                    zero = zero && r == 0;
                    carry = diff < 0;
                }
                Compare(x, op) => {
                    let (r, b) = regs[x.index()].overflowing_sub(operand_value(regs, op));
                    zero = r == 0;
                    carry = b;
                }
                Test(x, op) => {
                    let r = regs[x.index()] & operand_value(regs, op);
                    zero = r == 0;
                    carry = r.count_ones() % 2 == 1;
                }
                Shift(op, x) => {
                    let v = regs[x.index()];
                    let (r, out_bit) = match op {
                        ShiftOp::Sl0 => (v << 1, v & 0x80 != 0),
                        ShiftOp::Sl1 => ((v << 1) | 1, v & 0x80 != 0),
                        ShiftOp::Slx => ((v << 1) | (v & 1), v & 0x80 != 0),
                        ShiftOp::Sla => ((v << 1) | carry as u8, v & 0x80 != 0),
                        ShiftOp::Rl => (v.rotate_left(1), v & 0x80 != 0),
                        ShiftOp::Sr0 => (v >> 1, v & 1 != 0),
                        ShiftOp::Sr1 => ((v >> 1) | 0x80, v & 1 != 0),
                        ShiftOp::Srx => ((v >> 1) | (v & 0x80), v & 1 != 0),
                        ShiftOp::Sra => ((v >> 1) | ((carry as u8) << 7), v & 1 != 0),
                        ShiftOp::Rr => (v.rotate_right(1), v & 1 != 0),
                    };
                    regs[x.index()] = r;
                    zero = r == 0;
                    carry = out_bit;
                }
                Store(x, a) => {
                    self.scratch[usize::from(address_value(regs, a))] = regs[x.index()];
                }
                Fetch(x, a) => {
                    regs[x.index()] = self.scratch[usize::from(address_value(regs, a))];
                }
                Input(x, a) => {
                    regs[x.index()] = io.input(address_value(regs, a));
                }
                Output(x, a) => {
                    let port = address_value(regs, a);
                    io.output(port, regs[x.index()]);
                    synced = u16::from(port) == sync;
                }
                Jump(c, addr) => {
                    if condition_met(c, zero, carry) {
                        next_pc = addr;
                    }
                }
                Call(c, addr) => {
                    if condition_met(c, zero, carry) {
                        let Some(slot) = self.stack.get_mut(self.depth) else {
                            fault = Some(VmError::StackOverflow { pc });
                            break;
                        };
                        *slot = pc.wrapping_add(1);
                        self.depth += 1;
                        next_pc = addr;
                    }
                }
                Return(c) => {
                    if condition_met(c, zero, carry) {
                        let Some(depth) = self.depth.checked_sub(1) else {
                            fault = Some(VmError::StackUnderflow { pc });
                            break;
                        };
                        self.depth = depth;
                        next_pc = self.stack[depth];
                    }
                }
            }
            pc = next_pc;
            executed += 1;
            #[cfg(feature = "profile")]
            {
                self.opcode_counts[instr.opcode_index()] += 1;
            }
            if synced {
                break;
            }
        }
        self.pc = pc;
        self.zero = zero;
        self.carry = carry;
        self.instret += executed;
        match fault {
            Some(e) => Err(e),
            None => Ok(synced.then_some(executed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Address, Condition, Instruction, Operand, Register, ShiftOp};
    use Instruction::*;

    fn r(i: u8) -> Register {
        Register::new(i)
    }

    fn run(prog: Vec<Instruction>, steps: u64) -> (Picoblaze, SparseIo) {
        let mut cpu = Picoblaze::new(prog);
        let mut io = SparseIo::new();
        cpu.step_n(steps, &mut io).expect("program runs");
        (cpu, io)
    }

    #[test]
    fn load_and_add_immediate() {
        let (cpu, _) = run(
            vec![Load(r(0), Operand::Imm(40)), Add(r(0), Operand::Imm(2))],
            2,
        );
        assert_eq!(cpu.reg(r(0)), 42);
        assert_eq!(cpu.flags(), (false, false));
    }

    #[test]
    fn add_sets_carry_and_zero_on_wrap() {
        let (cpu, _) = run(
            vec![Load(r(0), Operand::Imm(0xFF)), Add(r(0), Operand::Imm(1))],
            2,
        );
        assert_eq!(cpu.reg(r(0)), 0);
        assert_eq!(cpu.flags(), (true, true));
    }

    #[test]
    fn sixteen_bit_add_with_addcy() {
        // 0x01FF + 0x0001 = 0x0200 using (s1:s0) + (s3:s2).
        let (cpu, _) = run(
            vec![
                Load(r(0), Operand::Imm(0xFF)),
                Load(r(1), Operand::Imm(0x01)),
                Load(r(2), Operand::Imm(0x01)),
                Load(r(3), Operand::Imm(0x00)),
                Add(r(0), Operand::Reg(r(2))),
                AddCy(r(1), Operand::Reg(r(3))),
            ],
            6,
        );
        assert_eq!(cpu.reg(r(0)), 0x00);
        assert_eq!(cpu.reg(r(1)), 0x02);
        assert!(!cpu.flags().1, "no carry out of the high byte");
    }

    #[test]
    fn addcy_zero_flag_chains() {
        // 0xFF00 + 0x0100 = 0x0000 with carry out; Z must survive the chain.
        let (cpu, _) = run(
            vec![
                Load(r(0), Operand::Imm(0x00)),
                Load(r(1), Operand::Imm(0xFF)),
                Add(r(0), Operand::Imm(0x00)), // Z := true (low byte zero)
                AddCy(r(1), Operand::Imm(0x01)),
            ],
            4,
        );
        assert_eq!(cpu.reg(r(1)), 0x00);
        let (z, c) = cpu.flags();
        assert!(z, "16-bit result is zero so chained Z must be set");
        assert!(c, "carry out of the high byte");
    }

    #[test]
    fn sub_borrow_semantics() {
        let (cpu, _) = run(
            vec![Load(r(0), Operand::Imm(5)), Sub(r(0), Operand::Imm(7))],
            2,
        );
        assert_eq!(cpu.reg(r(0)), 0xFE);
        assert_eq!(cpu.flags(), (false, true));
    }

    #[test]
    fn subcy_borrow_chain() {
        // 0x0100 - 0x0001 = 0x00FF.
        let (cpu, _) = run(
            vec![
                Load(r(0), Operand::Imm(0x00)),
                Load(r(1), Operand::Imm(0x01)),
                Sub(r(0), Operand::Imm(0x01)),
                SubCy(r(1), Operand::Imm(0x00)),
            ],
            4,
        );
        assert_eq!(cpu.reg(r(0)), 0xFF);
        assert_eq!(cpu.reg(r(1)), 0x00);
        assert!(!cpu.flags().1);
    }

    #[test]
    fn compare_does_not_write_back() {
        let (cpu, _) = run(
            vec![Load(r(0), Operand::Imm(9)), Compare(r(0), Operand::Imm(9))],
            2,
        );
        assert_eq!(cpu.reg(r(0)), 9);
        assert_eq!(cpu.flags(), (true, false));
    }

    #[test]
    fn compare_sets_carry_when_less() {
        let (cpu, _) = run(
            vec![Load(r(0), Operand::Imm(3)), Compare(r(0), Operand::Imm(9))],
            2,
        );
        assert_eq!(cpu.flags(), (false, true));
    }

    #[test]
    fn test_sets_parity_in_carry() {
        // 0b0111 has odd parity when masked with 0xFF.
        let (cpu, _) = run(
            vec![
                Load(r(0), Operand::Imm(0x07)),
                Test(r(0), Operand::Imm(0xFF)),
            ],
            2,
        );
        assert_eq!(cpu.flags(), (false, true));
        let (cpu, _) = run(
            vec![
                Load(r(0), Operand::Imm(0x03)),
                Test(r(0), Operand::Imm(0xFF)),
            ],
            2,
        );
        assert_eq!(cpu.flags(), (false, false));
    }

    #[test]
    fn logic_ops_clear_carry() {
        let (cpu, _) = run(
            vec![
                Load(r(0), Operand::Imm(0xFF)),
                Add(r(0), Operand::Imm(1)), // sets carry
                Or(r(0), Operand::Imm(0)),  // clears carry, result 0 → Z
            ],
            3,
        );
        assert_eq!(cpu.flags(), (true, false));
    }

    #[test]
    fn shift_table() {
        let cases: &[(ShiftOp, u8, bool, u8, bool)] = &[
            // (op, input, carry_in, result, carry_out)
            (ShiftOp::Sl0, 0b1000_0001, false, 0b0000_0010, true),
            (ShiftOp::Sl1, 0b0000_0001, false, 0b0000_0011, false),
            (ShiftOp::Slx, 0b0000_0001, false, 0b0000_0011, false),
            (ShiftOp::Sla, 0b0000_0000, true, 0b0000_0001, false),
            (ShiftOp::Rl, 0b1000_0000, false, 0b0000_0001, true),
            (ShiftOp::Sr0, 0b0000_0001, false, 0b0000_0000, true),
            (ShiftOp::Sr1, 0b1000_0000, false, 0b1100_0000, false),
            (ShiftOp::Srx, 0b1000_0000, false, 0b1100_0000, false),
            (ShiftOp::Sra, 0b0000_0000, true, 0b1000_0000, false),
            (ShiftOp::Rr, 0b0000_0001, false, 0b1000_0000, true),
        ];
        for &(op, input, cin, want, cout) in cases {
            let mut cpu = Picoblaze::new(vec![
                // Establish carry_in via ADD trickery, then shift.
                Load(r(1), Operand::Imm(if cin { 0xFF } else { 0 })),
                Add(r(1), Operand::Imm(if cin { 1 } else { 0 })),
                Shift(op, r(0)),
            ]);
            cpu.set_reg(r(0), input);
            cpu.step_n(3, &mut SparseIo::new()).expect("runs");
            assert_eq!(cpu.reg(r(0)), want, "{op} result");
            assert_eq!(cpu.flags().1, cout, "{op} carry out");
            assert_eq!(cpu.flags().0, want == 0, "{op} zero flag");
        }
    }

    #[test]
    fn store_fetch_direct_and_indirect() {
        let (cpu, _) = run(
            vec![
                Load(r(0), Operand::Imm(0xAB)),
                Store(r(0), Address::Direct(0x10)),
                Load(r(1), Operand::Imm(0x10)),
                Fetch(r(2), Address::Indirect(r(1))),
            ],
            4,
        );
        assert_eq!(cpu.scratch(0x10), 0xAB);
        assert_eq!(cpu.reg(r(2)), 0xAB);
    }

    #[test]
    fn input_output_roundtrip() {
        let mut cpu = Picoblaze::new(vec![
            Input(r(0), Address::Direct(0x05)),
            Add(r(0), Operand::Imm(1)),
            Output(r(0), Address::Direct(0x06)),
        ]);
        let mut io = SparseIo::new();
        io.set_input(0x05, 99);
        cpu.step_n(3, &mut io).expect("runs");
        assert_eq!(io.last_output(0x06), Some(100));
        assert_eq!(io.output_history(0x06), &[100]);
    }

    #[test]
    fn conditional_jump_taken_and_not_taken() {
        let prog = vec![
            Load(r(0), Operand::Imm(0)),
            Compare(r(0), Operand::Imm(0)), // Z set
            Jump(Condition::Zero, 4),
            Load(r(1), Operand::Imm(0xEE)), // skipped
            Load(r(2), Operand::Imm(0x11)),
        ];
        let (cpu, _) = run(prog, 4);
        assert_eq!(cpu.reg(r(1)), 0);
        assert_eq!(cpu.reg(r(2)), 0x11);
    }

    #[test]
    fn call_and_return() {
        let prog = vec![
            Call(Condition::Always, 3),  // 0
            Load(r(1), Operand::Imm(7)), // 1 (after return)
            Jump(Condition::Always, 2),  // 2 spin
            Load(r(0), Operand::Imm(5)), // 3 subroutine
            Return(Condition::Always),   // 4
        ];
        let (cpu, _) = run(prog, 4);
        assert_eq!(cpu.reg(r(0)), 5);
        assert_eq!(cpu.reg(r(1)), 7);
    }

    #[test]
    fn conditional_return_not_taken_falls_through() {
        let prog = vec![
            Call(Condition::Always, 2),
            Jump(Condition::Always, 1),
            Load(r(0), Operand::Imm(1)), // 2: clears Z? (load keeps flags)
            Compare(r(0), Operand::Imm(9)), // 3: Z clear
            Return(Condition::Zero),     // 4: not taken
            Load(r(1), Operand::Imm(0xCC)), // 5: executed
            Return(Condition::Always),   // 6
        ];
        let (cpu, _) = run(prog, 7);
        assert_eq!(cpu.reg(r(1)), 0xCC);
    }

    #[test]
    fn stack_overflow_detected() {
        // CALL 0 forever → 30 pushes succeed, the 31st errors.
        let mut cpu = Picoblaze::new(vec![Call(Condition::Always, 0)]);
        let mut io = SparseIo::new();
        for _ in 0..STACK_DEPTH {
            cpu.step(&mut io).expect("within depth");
        }
        assert_eq!(cpu.step(&mut io), Err(VmError::StackOverflow { pc: 0 }));
    }

    #[test]
    fn stack_underflow_detected() {
        let mut cpu = Picoblaze::new(vec![Return(Condition::Always)]);
        assert_eq!(
            cpu.step(&mut SparseIo::new()),
            Err(VmError::StackUnderflow { pc: 0 })
        );
    }

    #[test]
    fn pc_escape_detected() {
        let mut cpu = Picoblaze::new(vec![Load(r(0), Operand::Imm(1))]);
        let mut io = SparseIo::new();
        cpu.step(&mut io).expect("first instruction fine");
        assert_eq!(
            cpu.step(&mut io),
            Err(VmError::PcOutOfRange { pc: 1, len: 1 })
        );
    }

    #[test]
    fn run_until_port_write_sync() {
        let prog = vec![
            Load(r(0), Operand::Imm(1)),
            Add(r(0), Operand::Imm(1)),
            Output(r(0), Address::Direct(0xFF)),
            Jump(Condition::Always, 0),
        ];
        let mut cpu = Picoblaze::new(prog);
        let mut io = SparseIo::new();
        let outcome = cpu
            .run_until_port_write(0xFF, 100, &mut io)
            .expect("no fault");
        assert_eq!(outcome, RunOutcome::PortWritten(3));
        assert_eq!(io.last_output(0xFF), Some(2));
    }

    #[test]
    fn run_until_port_write_budget() {
        let prog = vec![Jump(Condition::Always, 0)];
        let mut cpu = Picoblaze::new(prog);
        let outcome = cpu
            .run_until_port_write(0xFF, 50, &mut SparseIo::new())
            .expect("no fault");
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(cpu.instret(), 50);
    }

    #[cfg(feature = "profile")]
    #[test]
    fn opcode_profile_counts_retired_families() {
        let prog = vec![
            Load(r(0), Operand::Imm(1)),
            Add(r(0), Operand::Imm(1)),
            Add(r(0), Operand::Imm(1)),
            Output(r(0), Address::Direct(0x00)),
            Jump(Condition::Always, 1),
        ];
        let mut cpu = Picoblaze::new(prog);
        let mut io = SparseIo::new();
        cpu.step_n(9, &mut io).expect("runs");
        let profile = cpu.opcode_profile();
        let count = |m: &str| {
            profile
                .iter()
                .find(|(name, _)| *name == m)
                .map(|(_, c)| *c)
                .expect("known mnemonic")
        };
        assert_eq!(count("LOAD"), 1);
        assert_eq!(count("ADD"), 4);
        assert_eq!(count("OUTPUT"), 2);
        assert_eq!(count("JUMP"), 2);
        assert_eq!(count("AND"), 0);
        let total: u64 = cpu.opcode_counts().iter().sum();
        assert_eq!(total, cpu.instret(), "histogram sums to instret");
    }

    #[test]
    fn run_until_port_write_fault_keeps_the_state_before_it() {
        // 30 nested CALLs fill the stack; the 31st faults mid-run.
        let prog = vec![
            Add(r(0), Operand::Imm(1)), // 0
            Call(Condition::Always, 0), // 1
        ];
        let mut cpu = Picoblaze::new(prog);
        let outcome = cpu.run_until_port_write(0xFF, 1000, &mut SparseIo::new());
        assert_eq!(outcome, Err(VmError::StackOverflow { pc: 1 }));
        assert_eq!(cpu.pc(), 1, "PC stays on the faulting CALL");
        assert_eq!(cpu.instret(), 2 * STACK_DEPTH as u64 + 1);
        assert_eq!(cpu.reg(r(0)), STACK_DEPTH as u8 + 1);
        assert_eq!(cpu.flags(), (false, false));
    }

    #[cfg(feature = "profile")]
    #[test]
    fn opcode_profile_sums_to_instret_however_a_run_ends() {
        let prog = vec![
            Load(r(0), Operand::Imm(1)),         // 0
            Add(r(0), Operand::Imm(1)),          // 1
            Output(r(0), Address::Direct(0xFF)), // 2: sync
            Return(Condition::Always),           // 3: underflow fault
        ];
        let sums_to_instret = |cpu: &Picoblaze| {
            assert_eq!(cpu.opcode_counts().iter().sum::<u64>(), cpu.instret());
        };
        let mut cpu = Picoblaze::new(prog);
        let mut io = SparseIo::new();
        assert_eq!(
            cpu.run_until_port_write(0xFF, 100, &mut io),
            Ok(RunOutcome::PortWritten(3))
        );
        assert_eq!(cpu.instret(), 3);
        sums_to_instret(&cpu);
        assert_eq!(
            cpu.run_until_port_write(0xFF, 100, &mut io),
            Err(VmError::StackUnderflow { pc: 3 })
        );
        assert_eq!(cpu.instret(), 3, "the faulting RETURN is not retired");
        assert_eq!(cpu.pc(), 3);
        sums_to_instret(&cpu);
        let mut cpu = Picoblaze::new(cpu.program().to_vec());
        assert_eq!(
            cpu.run_until_port_write(0xFF, 2, &mut io),
            Ok(RunOutcome::BudgetExhausted)
        );
        assert_eq!(cpu.instret(), 2);
        sums_to_instret(&cpu);
    }

    #[test]
    fn vm_error_display() {
        assert!(VmError::StackOverflow { pc: 3 }
            .to_string()
            .contains("overflow"));
        assert!(VmError::PcOutOfRange { pc: 9, len: 4 }
            .to_string()
            .contains("outside"));
    }
}
