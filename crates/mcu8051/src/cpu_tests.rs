//! CPU core tests: every instruction group, flags, interrupts, timers,
//! UART, and cycle accounting. Programs are built with the in-crate
//! assembler so the tests double as assembler/CPU cross-checks.

use crate::asm::assemble;
use crate::cpu::{psw, sfr, Cpu, ExternalBus, NullBus, UART_TX_CAPACITY};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

fn run(src: &str, steps: usize) -> Cpu {
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).expect("assembly failed"));
    let mut bus = NullBus;
    for _ in 0..steps {
        cpu.step(&mut bus);
    }
    cpu
}

#[test]
fn mov_immediate_and_registers() {
    let cpu = run("mov a, #0x5a\nmov r0, a\nmov r7, #0x11\n", 3);
    assert_eq!(cpu.acc(), 0x5a);
    assert_eq!(cpu.iram(0), 0x5a);
    assert_eq!(cpu.iram(7), 0x11);
}

#[test]
fn register_banks_switch_with_psw() {
    let cpu = run(
        "mov r0, #1\nmov psw, #0x08\nmov r0, #2\n", // bank 1
        3,
    );
    assert_eq!(cpu.iram(0x00), 1);
    assert_eq!(cpu.iram(0x08), 2);
}

#[test]
fn add_sets_carry_and_overflow() {
    let cpu = run("mov a, #0x7f\nadd a, #0x01\n", 2);
    assert_eq!(cpu.acc(), 0x80);
    assert!(cpu.sfr(sfr::PSW) & psw::OV != 0, "OV expected");
    assert!(cpu.sfr(sfr::PSW) & psw::CY == 0, "no carry expected");

    let cpu = run("mov a, #0xff\nadd a, #0x01\n", 2);
    assert_eq!(cpu.acc(), 0x00);
    assert!(cpu.sfr(sfr::PSW) & psw::CY != 0, "carry expected");
}

#[test]
fn addc_uses_carry() {
    let cpu = run("setb c\nmov a, #0x10\naddc a, #0x10\n", 3);
    assert_eq!(cpu.acc(), 0x21);
}

#[test]
fn subb_borrows() {
    let cpu = run("clr c\nmov a, #0x05\nsubb a, #0x06\n", 3);
    assert_eq!(cpu.acc(), 0xff);
    assert!(cpu.sfr(sfr::PSW) & psw::CY != 0, "borrow expected");
}

#[test]
fn auxiliary_carry_for_bcd() {
    let cpu = run("mov a, #0x0f\nadd a, #0x01\n", 2);
    assert!(cpu.sfr(sfr::PSW) & psw::AC != 0, "AC expected");
}

#[test]
fn da_adjusts_bcd_addition() {
    // 29 + 13 = 42 in BCD.
    let cpu = run("mov a, #0x29\nadd a, #0x13\nda a\n", 3);
    assert_eq!(cpu.acc(), 0x42);
}

#[test]
fn mul_and_div() {
    let cpu = run("mov a, #7\nmov b, #9\nmul ab\n", 3);
    assert_eq!(cpu.acc(), 63);
    assert_eq!(cpu.sfr(sfr::B), 0);

    let cpu = run("mov a, #250\nmov b, #7\ndiv ab\n", 3);
    assert_eq!(cpu.acc(), 35);
    assert_eq!(cpu.sfr(sfr::B), 5);

    let cpu = run("mov a, #1\nmov b, #0\ndiv ab\n", 3);
    assert!(cpu.sfr(sfr::PSW) & psw::OV != 0, "div by 0 sets OV");
}

#[test]
fn logic_ops() {
    let cpu = run("mov a, #0b1100\nanl a, #0b1010\n", 2);
    assert_eq!(cpu.acc(), 0b1000);
    let cpu = run("mov a, #0b1100\norl a, #0b1010\n", 2);
    assert_eq!(cpu.acc(), 0b1110);
    let cpu = run("mov a, #0b1100\nxrl a, #0b1010\n", 2);
    assert_eq!(cpu.acc(), 0b0110);
}

#[test]
fn rotates() {
    let cpu = run("mov a, #0x81\nrl a\n", 2);
    assert_eq!(cpu.acc(), 0x03);
    let cpu = run("mov a, #0x81\nrr a\n", 2);
    assert_eq!(cpu.acc(), 0xc0);
    let cpu = run("clr c\nmov a, #0x81\nrlc a\n", 3);
    assert_eq!(cpu.acc(), 0x02);
    let cpu2 = run("clr c\nmov a, #0x81\nrlc a\nrlc a\n", 4);
    assert_eq!(cpu2.acc(), 0x05, "carry re-enters bit 0");
}

#[test]
fn swap_nibbles() {
    let cpu = run("mov a, #0xa5\nswap a\n", 2);
    assert_eq!(cpu.acc(), 0x5a);
}

#[test]
fn stack_push_pop() {
    let cpu = run("mov a, #0x77\npush acc\nmov a, #0\npop 0x30\n", 4);
    assert_eq!(cpu.iram(0x30), 0x77);
    assert_eq!(cpu.sfr(sfr::SP), 0x07);
}

#[test]
fn lcall_ret() {
    let cpu = run(
        "lcall sub\nmov r0, a\nsjmp end\nsub: mov a, #9\nret\nend: nop\n",
        5,
    );
    assert_eq!(cpu.iram(0), 9);
}

#[test]
fn acall_within_page() {
    let cpu = run("acall sub\nsjmp done\nsub: mov a, #3\nret\ndone: nop\n", 5);
    assert_eq!(cpu.acc(), 3);
}

#[test]
fn conditional_jumps() {
    let cpu = run("mov a, #0\njz yes\nmov r0, #1\nyes: mov r1, #2\n", 3);
    assert_eq!(cpu.iram(0), 0, "JZ should skip");
    assert_eq!(cpu.iram(1), 2);

    let cpu = run("mov a, #1\njnz yes\nmov r0, #1\nyes: mov r1, #2\n", 3);
    assert_eq!(cpu.iram(0), 0);
    assert_eq!(cpu.iram(1), 2);
}

#[test]
fn cjne_sets_carry_on_less() {
    let cpu = run("mov a, #3\ncjne a, #5, diff\ndiff: nop\n", 3);
    assert!(cpu.sfr(sfr::PSW) & psw::CY != 0, "3 < 5 sets carry");
    let cpu = run("mov a, #7\ncjne a, #5, diff\ndiff: nop\n", 3);
    assert!(cpu.sfr(sfr::PSW) & psw::CY == 0);
}

#[test]
fn djnz_loops_exact_count() {
    let cpu = run(
        "mov r2, #5\nmov r3, #0\nloop: inc r3\ndjnz r2, loop\n",
        2 + 10,
    );
    assert_eq!(cpu.iram(3), 5);
    assert_eq!(cpu.iram(2), 0);
}

#[test]
fn bit_operations_on_iram() {
    let cpu = run("setb 0x20.3\nmov c, 0x20.3\nmov 0x21.0, c\n", 3);
    assert_eq!(cpu.iram(0x20), 0x08);
    assert_eq!(cpu.iram(0x21), 0x01);
}

#[test]
fn jb_jnb_jbc() {
    let cpu = run(
        "setb 0x20.0\njb 0x20.0, t1\nmov r0, #1\nt1: jbc 0x20.0, t2\nmov r1, #1\nt2: nop\n",
        4,
    );
    assert_eq!(cpu.iram(0), 0);
    assert_eq!(cpu.iram(1), 0);
    assert_eq!(cpu.iram(0x20), 0, "JBC clears the bit");
}

#[test]
fn xch_and_xchd() {
    let cpu = run("mov a, #0x12\nmov 0x30, #0x34\nxch a, 0x30\n", 3);
    assert_eq!(cpu.acc(), 0x34);
    assert_eq!(cpu.iram(0x30), 0x12);

    let cpu = run(
        "mov r0, #0x30\nmov 0x30, #0xab\nmov a, #0xcd\nxchd a, @r0\n",
        4,
    );
    assert_eq!(cpu.acc(), 0xcb);
    assert_eq!(cpu.iram(0x30), 0xad);
}

#[test]
fn indirect_addressing_reaches_upper_ram() {
    // 0x90 via @R0 is IRAM, not SFR P1.
    let cpu = run("mov r0, #0x90\nmov @r0, #0x66\nmov a, @r0\n", 3);
    assert_eq!(cpu.acc(), 0x66);
    assert_eq!(cpu.sfr(sfr::P1), 0xff, "P1 untouched");
}

#[test]
fn movc_reads_code_tables() {
    let cpu = run(
        "mov dptr, #table\nmov a, #2\nmovc a, @a+dptr\nsjmp end\ntable: db 10, 20, 30\nend: nop\n",
        4,
    );
    assert_eq!(cpu.acc(), 30);
}

#[test]
fn movx_goes_to_external_bus() {
    #[derive(Default)]
    struct Mem {
        data: std::collections::HashMap<u16, u8>,
    }
    impl ExternalBus for Mem {
        fn sfr_read(&mut self, _: u8) -> Option<u8> {
            None
        }
        fn sfr_write(&mut self, _: u8, _: u8) -> bool {
            false
        }
        fn xdata_read(&mut self, addr: u16) -> u8 {
            self.data.get(&addr).copied().unwrap_or(0)
        }
        fn xdata_write(&mut self, addr: u16, v: u8) {
            self.data.insert(addr, v);
        }
    }
    let mut cpu = Cpu::new();
    cpu.load_code(
        &assemble("mov dptr, #0x1234\nmov a, #0x99\nmovx @dptr, a\nclr a\nmovx a, @dptr\n")
            .unwrap(),
    );
    let mut bus = Mem::default();
    for _ in 0..5 {
        cpu.step(&mut bus);
    }
    assert_eq!(cpu.acc(), 0x99);
    assert_eq!(bus.data[&0x1234], 0x99);
}

#[test]
fn parity_flag_tracks_acc() {
    let cpu = run("mov a, #0b0000111\n", 1); // 3 ones -> odd parity -> P=1
    assert_eq!(cpu.sfr(sfr::PSW) & psw::P, 0, "raw PSW store unchanged");
    // Parity is computed on PSW *reads*:
    let cpu2 = run("mov a, #0b0000111\nmov 0x30, psw\n", 2);
    assert_eq!(cpu2.iram(0x30) & psw::P, 1);
}

#[test]
fn timer0_mode1_overflow_sets_tf0() {
    let src = "
        mov tmod, #0x01
        mov th0, #0xff
        mov tl0, #0xf0
        setb tr0
        spin: sjmp spin
    ";
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).unwrap());
    let mut bus = NullBus;
    for _ in 0..40 {
        cpu.step(&mut bus);
    }
    assert!(cpu.sfr(sfr::TCON) & 0x20 != 0, "TF0 should be set");
}

#[test]
fn timer_interrupt_vectors() {
    // Timer 0 ISR at 0x0B increments R7 and returns.
    let src = "
        ljmp main
        org 0x0b
        inc r7
        reti
        org 0x40
    main:
        mov tmod, #0x02      ; timer 0 mode 2 auto reload
        mov th0, #0xc0       ; reload 0xC0 -> overflow every 64 cycles
        mov tl0, #0xc0
        mov ie, #0x82        ; EA + ET0
        setb tr0
        spin: sjmp spin
    ";
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).unwrap());
    let mut bus = NullBus;
    cpu.run_cycles(2000, &mut bus);
    assert!(cpu.iram(7) >= 20, "ISR ran {} times", cpu.iram(7));
}

#[test]
fn uart_transmit_sets_ti_and_host_sees_bytes() {
    let src = "
        mov a, #'H'
        mov sbuf, a
        wait: jnb ti, wait
        clr ti
        mov a, #'i'
        mov sbuf, a
        wait2: jnb ti, wait2
        done: sjmp done
    ";
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).unwrap());
    let mut bus = NullBus;
    cpu.run_cycles(1000, &mut bus);
    assert_eq!(cpu.uart_take_tx(), b"Hi");
}

/// Past [`UART_TX_CAPACITY`] undrained bytes the queue keeps exactly the
/// newest ones, and a checkpoint carries them; an image whose queue is
/// over the cap is corrupt.
#[test]
fn uart_queue_keeps_the_newest_bytes_up_to_its_capacity() {
    let src = "
        clr a
        next: mov sbuf, a
        wait: jnb ti, wait
        clr ti
        inc a
        sjmp next
    ";
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).unwrap());
    // About 100 machine cycles per byte.
    cpu.run_cycles(110 * (UART_TX_CAPACITY as u64 + 300), &mut NullBus);
    let total = cpu.uart_tx_total();
    assert!(total > UART_TX_CAPACITY as u64 + 100, "{total} bytes sent");
    let newest: Vec<u8> = (total - UART_TX_CAPACITY as u64..total)
        .map(|k| k as u8)
        .collect();

    let mut w = StateWriter::new();
    cpu.save_state(&mut w);
    let image = w.into_bytes();
    let mut restored = Cpu::new();
    restored
        .load_state(&mut StateReader::new(&image))
        .expect("a capped queue loads");
    assert_eq!(restored.uart_take_tx(), newest);
    assert_eq!(cpu.uart_take_tx(), newest);

    // Re-encode the image with one byte too many in the queue.
    let mut r = StateReader::new(&image);
    let mut w = StateWriter::new();
    w.put_u16(r.take_u16().unwrap());
    for _ in 0..3 {
        w.put_u8_slice(&r.take_u8_vec().unwrap()); // IRAM, SFRs, code
    }
    for _ in 0..3 {
        w.put_u64(r.take_u64().unwrap()); // cycles, instructions, bytes sent
    }
    w.put_opt_u32(r.take_opt_u32().unwrap());
    r.take_u8_vec().unwrap();
    w.put_u8_slice(&[0; UART_TX_CAPACITY + 1]);
    let mut over = w.into_bytes();
    over.extend_from_slice(&image[image.len() - r.remaining()..]);
    let err = Cpu::new()
        .load_state(&mut StateReader::new(&over))
        .expect_err("an over-cap queue must not load");
    assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
}

#[test]
fn uart_receive_fires_ri() {
    let src = "
        mov scon, #0x50     ; mode 1, REN
        wait: jnb ri, wait
        mov a, sbuf
        clr ri
        mov r0, a
        done: sjmp done
    ";
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).unwrap());
    cpu.uart_inject_rx(0x7e);
    let mut bus = NullBus;
    cpu.run_cycles(1000, &mut bus);
    assert_eq!(cpu.iram(0), 0x7e);
    assert_eq!(cpu.uart_rx_pending(), 0);
}

#[test]
fn serial_interrupt() {
    let src = "
        ljmp main
        org 0x23
        clr ri
        mov a, sbuf
        mov r6, a
        reti
        org 0x40
    main:
        mov scon, #0x50
        mov ie, #0x90       ; EA + ES
        spin: sjmp spin
    ";
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).unwrap());
    cpu.uart_inject_rx(0x33);
    let mut bus = NullBus;
    cpu.run_cycles(1000, &mut bus);
    assert_eq!(cpu.iram(6), 0x33);
}

#[test]
fn external_interrupt_pin() {
    let src = "
        ljmp main
        org 0x03
        inc r5
        reti
        org 0x40
    main:
        mov ie, #0x81       ; EA + EX0
        spin: sjmp spin
    ";
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).unwrap());
    let mut bus = NullBus;
    cpu.run_cycles(50, &mut bus);
    assert_eq!(cpu.iram(5), 0);
    cpu.set_int_pins(true, false);
    cpu.run_cycles(20, &mut bus);
    cpu.set_int_pins(false, false);
    assert!(cpu.iram(5) >= 1);
}

#[test]
fn interrupt_priority_blocks_low_during_high() {
    // Both timer 0 (low) and external 0 (high) pending; EX0 must win.
    let src = "
        ljmp main
        org 0x03
        mov r4, #0xaa
        reti
        org 0x0b
        mov r3, #0xbb
        reti
        org 0x40
    main:
        mov ip, #0x01       ; EX0 high priority
        mov tmod, #0x02
        mov th0, #0xff
        mov tl0, #0xff
        mov ie, #0x83       ; EA + ET0 + EX0
        setb tr0
        spin: sjmp spin
    ";
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble(src).unwrap());
    cpu.set_int_pins(true, false);
    let mut bus = NullBus;
    // Step a few instructions: first taken interrupt must be EX0.
    let mut first = None;
    for _ in 0..200 {
        cpu.step(&mut bus);
        if first.is_none() {
            if cpu.iram(4) == 0xaa {
                first = Some("ext0");
            } else if cpu.iram(3) == 0xbb {
                first = Some("timer0");
            }
        }
    }
    assert_eq!(first, Some("ext0"));
}

#[test]
fn cycle_counting_basics() {
    // NOP = 1, SJMP = 2, MUL = 4.
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble("nop\nmul ab\nsjmp 0\n").unwrap());
    let mut bus = NullBus;
    assert_eq!(cpu.step(&mut bus), 1);
    assert_eq!(cpu.step(&mut bus), 4);
    assert_eq!(cpu.step(&mut bus), 2);
    assert_eq!(cpu.cycles(), 7);
}

#[test]
fn halt_via_pcon() {
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble("mov pcon, #0x02\nnop\n").unwrap());
    let mut bus = NullBus;
    cpu.step(&mut bus);
    assert!(cpu.is_halted());
    let pc = cpu.pc();
    cpu.step(&mut bus);
    assert_eq!(cpu.pc(), pc, "halted CPU must not advance");
}

#[test]
fn reset_restores_defaults() {
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble("mov a, #1\nmov sp, #0x40\n").unwrap());
    let mut bus = NullBus;
    cpu.step(&mut bus);
    cpu.step(&mut bus);
    cpu.reset();
    assert_eq!(cpu.pc(), 0);
    assert_eq!(cpu.acc(), 0);
    assert_eq!(cpu.sfr(sfr::SP), 0x07);
    assert_eq!(cpu.cycles(), 0);
}

#[test]
fn jmp_a_dptr_dispatch() {
    let src = "
        mov dptr, #table
        mov a, #2
        jmp @a+dptr
        table: sjmp c0
        sjmp c1
        c0: mov r0, #1
        sjmp end
        c1: mov r0, #2
        end: nop
    ";
    let cpu = run(src, 6);
    assert_eq!(cpu.iram(0), 2);
}

#[test]
fn sfr_writes_reach_external_bus() {
    struct Probe {
        seen: Option<(u8, u8)>,
    }
    impl ExternalBus for Probe {
        fn sfr_read(&mut self, addr: u8) -> Option<u8> {
            (addr == 0xc8).then_some(0x42)
        }
        fn sfr_write(&mut self, addr: u8, v: u8) -> bool {
            if addr == 0xc8 {
                self.seen = Some((addr, v));
                true
            } else {
                false
            }
        }
        fn xdata_read(&mut self, _: u16) -> u8 {
            0
        }
        fn xdata_write(&mut self, _: u16, _: u8) {}
    }
    let mut cpu = Cpu::new();
    cpu.load_code(&assemble("mov 0xc8, #0x77\nmov a, 0xc8\n").unwrap());
    let mut bus = Probe { seen: None };
    cpu.step(&mut bus);
    cpu.step(&mut bus);
    assert_eq!(bus.seen, Some((0xc8, 0x77)));
    assert_eq!(cpu.acc(), 0x42);
}
