//! A PicoBlaze-style 8-bit soft microcontroller for SIRTM.
//!
//! The DATE 2020 paper implements each node's Artificial Intelligence
//! Module (AIM) as a Xilinx PicoBlaze running threshold-model firmware,
//! with the router's monitors and knobs memory-mapped onto its I/O ports.
//! This crate provides the equivalent substrate in software:
//!
//! * [`isa`] — the instruction set (a KCPSM6-flavoured subset),
//! * [`encode`] — a stable 18-bit binary encoding,
//! * [`vm`] — the interpreter ([`vm::Picoblaze`]), the one execution
//!   core: one `match` over the instruction per step,
//! * [`asm`] — a two-pass assembler for `.psm`-style sources,
//! * [`disasm`] — a disassembler (via [`std::fmt::Display`] on
//!   instructions).
//!
//! The core is *register-transfer compatible* with the published KCPSM6
//! semantics for the implemented subset (flag behaviour, stack depth,
//! scratchpad size) but uses its own instruction encoding; binary images
//! for real PicoBlaze hardware are out of scope.
//!
//! # Examples
//!
//! ```
//! use sirtm_picoblaze::{asm, vm::{Picoblaze, SparseIo}};
//!
//! let program = asm::assemble(
//!     "CONSTANT OUT_PORT, 0x07\n\
//!      start: LOAD s0, 21\n\
//!      ADD s0, s0\n\
//!      OUTPUT s0, (OUT_PORT)\n\
//!      done: JUMP done\n",
//! )?;
//! let mut cpu = Picoblaze::new(program);
//! let mut io = SparseIo::new();
//! cpu.step_n(8, &mut io)?;
//! assert_eq!(io.last_output(0x07), Some(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod asm;
pub mod disasm;
pub mod encode;
pub mod isa;
pub mod vm;

pub use asm::{assemble, AsmError};
pub use isa::{Condition, Instruction, Register, ShiftOp};
pub use vm::{Picoblaze, PortIo, SparseIo, VmError};
