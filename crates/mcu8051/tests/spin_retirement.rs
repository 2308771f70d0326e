//! `Cpu::retire_spin` against its oracle, `Cpu::step`: retiring `k`
//! executions of a busy-wait loop in one call must leave the same state
//! bytes, PC, instruction count and cycle count as `k` steps. A
//! deterministic sweep covers every retired form and every bail condition;
//! with `--features proptest` a property suite adds random states and
//! drives the `MONITOR` firmware's loops under random bounds.

use ascp_mcu8051::cpu::{sfr, Cpu, NullBus};
use ascp_sim::noise::Rng64;
use ascp_sim::snapshot::{StateReader, StateWriter};

/// `djnz r{n}, $`.
fn djnz(n: u8) -> Vec<u8> {
    vec![0xd8 | n, 0xfe]
}
const JNB_TI: [u8; 3] = [0x30, 0x99, 0xfd];
const JNB_RI: [u8; 3] = [0x30, 0x98, 0xfd];
const SJMP_SELF: [u8; 2] = [0x80, 0xfe];

fn state(cpu: &Cpu) -> Vec<u8> {
    let mut w = StateWriter::new();
    cpu.save_state(&mut w);
    w.into_bytes()
}

/// A reset CPU running `code` from address 0.
fn cpu_with(code: &[u8]) -> Cpu {
    let mut cpu = Cpu::new();
    cpu.load_code(code);
    cpu
}

/// `cpu` with its UART transmit countdown replaced through the state
/// codec. Stepping never leaves a countdown of 0 or of a whole byte time
/// at a busy-wait, but a restored checkpoint can.
fn with_tx_countdown(cpu: &Cpu, rem: Option<u32>) -> Cpu {
    let bytes = state(cpu);
    let mut r = StateReader::new(&bytes);
    let mut w = StateWriter::new();
    w.put_u16(r.take_u16().expect("pc"));
    for _ in 0..256 + 128 {
        w.put_u8(r.take_u8().expect("IRAM, SFRs"));
    }
    w.put_u8_slice(&r.take_u8_vec().expect("code memory"));
    for _ in 0..3 {
        // cycles, instructions, bytes transmitted
        w.put_u64(r.take_u64().expect("counter"));
    }
    r.take_opt_u32().expect("countdown");
    w.put_opt_u32(rem);
    let mut image = w.into_bytes();
    image.extend_from_slice(&bytes[bytes.len() - r.remaining()..]);
    let mut out = Cpu::new();
    out.load_state(&mut StateReader::new(&image))
        .expect("re-encoded state loads");
    out
}

/// Retires up to `max` executions on a copy of `cpu`, steps another copy
/// as many times, and compares them; returns the executions retired.
fn retire_matches_steps(cpu: &Cpu, max: u64) -> Result<u64, String> {
    let mut bulk = cpu.clone();
    let k = bulk.retire_spin(max);
    let mut oracle = cpu.clone();
    for _ in 0..k {
        oracle.step(&mut NullBus);
    }
    if k > max {
        return Err(format!("retired {k} > max {max}"));
    }
    if k < max && oracle.pc() == cpu.pc() && !cpu.is_hung() {
        return Err(format!(
            "retired {k} < max {max} but the loop has not exited"
        ));
    }
    let (b, o) = (&bulk, &oracle);
    if (b.pc(), b.instructions(), b.cycles()) != (o.pc(), o.instructions(), o.cycles()) {
        return Err(format!(
            "after {k}: pc/instructions/cycles {:#06x}/{}/{} vs step {:#06x}/{}/{}",
            b.pc(),
            b.instructions(),
            b.cycles(),
            o.pc(),
            o.instructions(),
            o.cycles()
        ));
    }
    if state(b) != state(o) {
        return Err(format!("after {k}: state bytes differ from {k} steps"));
    }
    Ok(k)
}

fn check(label: &str, cpu: &Cpu, max: u64) -> u64 {
    retire_matches_steps(cpu, max).unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// Bounds the sweep tries: the slice's per-tick range, a spin's natural
/// lengths and one past them.
fn maxima(rng: &mut Rng64) -> [u64; 6] {
    [1, 2, 3, 48, 257, 1 + rng.next_u64() % 600]
}

/// Transmit countdowns: none in flight, the edge cases, and a random one.
fn countdowns(rng: &mut Rng64) -> [Option<u32>; 7] {
    let random = 3 + (rng.next_u64() % 400) as u32;
    [
        None,
        Some(0),
        Some(1),
        Some(2),
        Some(95),
        Some(96),
        Some(random),
    ]
}

#[test]
fn djnz_self_loop_retires_exactly() {
    let mut rng = Rng64::new(0xd12);
    for n in 0..8u8 {
        for bank in 0..4u8 {
            let random = (rng.next_u64() % 256) as u8;
            for value in [0u8, 1, 2, 200, 255, random] {
                for rem in countdowns(&mut rng) {
                    let mut cpu = cpu_with(&djnz(n));
                    cpu.set_sfr(sfr::PSW, bank << 3);
                    cpu.set_iram(bank * 8 + n, value);
                    let cpu = with_tx_countdown(&cpu, rem);
                    for max in maxima(&mut rng) {
                        let label =
                            format!("djnz r{n} bank {bank} = {value}, rem {rem:?}, max {max}");
                        assert!(check(&label, &cpu, max) >= 1, "{label}: retired nothing");
                    }
                }
            }
        }
    }
}

#[test]
fn jnb_ti_self_loop_retires_exactly() {
    let mut rng = Rng64::new(0x771);
    for ti in [false, true] {
        for rem in countdowns(&mut rng) {
            let mut cpu = cpu_with(&JNB_TI);
            cpu.set_sfr(sfr::SCON, if ti { 0x52 } else { 0x50 });
            let cpu = with_tx_countdown(&cpu, rem);
            for max in maxima(&mut rng) {
                let label = format!("jnb ti, TI {ti}, rem {rem:?}, max {max}");
                let k = check(&label, &cpu, max);
                match (ti, rem) {
                    (true, _) => assert_eq!(k, 1, "{label}"),
                    (false, None) => assert_eq!(k, max, "{label}"),
                    (false, Some(r)) => {
                        assert_eq!(k, max.min(u64::from(r).div_ceil(2).max(1) + 1), "{label}");
                    }
                }
            }
        }
    }
}

#[test]
fn jnb_ri_and_sjmp_self_loops_retire_exactly() {
    let mut rng = Rng64::new(0x5e1f);
    // (SCON, queued RX bytes): RI set, REN clear with a byte queued, and
    // REN set with nothing queued — none of them can deliver a byte.
    let uarts = [(0x51, 0), (0x00, 1), (0x50, 0), (0x53, 2)];
    for (scon, queued) in uarts {
        for code in [&JNB_RI[..], &SJMP_SELF[..]] {
            for rem in countdowns(&mut rng) {
                let mut cpu = cpu_with(code);
                cpu.set_sfr(sfr::SCON, scon);
                for byte in 0..queued {
                    cpu.uart_inject_rx(byte);
                }
                let cpu = with_tx_countdown(&cpu, rem);
                for max in maxima(&mut rng) {
                    let label = format!("{code:02x?} SCON {scon:#04x}, rem {rem:?}, max {max}");
                    let exits = code == JNB_RI && scon & 0x01 != 0;
                    let k = check(&label, &cpu, max);
                    assert_eq!(k, if exits { 1 } else { max }, "{label}");
                }
            }
        }
    }
}

#[test]
fn hung_core_retires_single_cycle_steps() {
    let mut rng = Rng64::new(0x4a9);
    for code in [&JNB_TI[..], &[0x00, 0x00][..], &djnz(3)[..]] {
        let mut cpu = cpu_with(code);
        // A hang ignores everything the 2-cycle forms bail on.
        cpu.set_sfr(sfr::IE, 0x80);
        cpu.set_sfr(sfr::TCON, 0x50);
        cpu.set_int_pins(true, true);
        cpu.set_hung(true);
        let cpu = with_tx_countdown(&cpu, Some(40));
        for max in maxima(&mut rng) {
            let label = format!("hung at {code:02x?}, max {max}");
            assert_eq!(check(&label, &cpu, max), max, "{label}");
        }
    }
}

#[test]
fn bail_conditions_retire_nothing_and_change_nothing() {
    let spin = |setup: &dyn Fn(&mut Cpu)| {
        let mut cpu = cpu_with(&JNB_TI);
        cpu.set_sfr(sfr::SCON, 0x50);
        setup(&mut cpu);
        with_tx_countdown(&cpu, Some(40))
    };
    let mut halted = cpu_with(&[0x75, sfr::PCON, 0x02, 0x80, 0xfe]); // mov pcon, #2; sjmp $
    halted.step(&mut NullBus);
    assert!(halted.is_halted());
    let cases: Vec<(&str, Cpu)> = vec![
        ("EA set", spin(&|c| c.set_sfr(sfr::IE, 0x80))),
        ("timer 0 running", spin(&|c| c.set_sfr(sfr::TCON, 0x10))),
        ("timer 1 running", spin(&|c| c.set_sfr(sfr::TCON, 0x40))),
        ("INT0 high", spin(&|c| c.set_int_pins(true, false))),
        ("INT1 high", spin(&|c| c.set_int_pins(false, true))),
        ("RX byte deliverable", spin(&|c| c.uart_inject_rx(0x5a))),
        ("halted", halted),
        ("djnz to elsewhere", cpu_with(&[0xd8, 0xfd])),
        ("djnz direct", cpu_with(&[0xd5, 0x30, 0xfd])),
        ("jnb other bit", cpu_with(&[0x30, 0x9a, 0xfd])),
        ("jnb ti elsewhere", cpu_with(&[0x30, 0x99, 0xfe])),
        ("jb ti, $", cpu_with(&[0x20, 0x99, 0xfd])),
        ("sjmp elsewhere", cpu_with(&[0x80, 0xfd])),
        ("nop", cpu_with(&[0x00])),
    ];
    for (label, cpu) in cases {
        for max in [1, 5, 1_000] {
            let mut bulk = cpu.clone();
            assert_eq!(bulk.retire_spin(max), 0, "{label}");
            assert_eq!(state(&bulk), state(&cpu), "{label}: state changed");
        }
    }
    let mut cpu = cpu_with(&SJMP_SELF);
    assert_eq!(cpu.retire_spin(0), 0, "max 0");
    assert_eq!(state(&cpu), state(&cpu_with(&SJMP_SELF)), "max 0");
}

#[cfg(feature = "proptest")]
mod properties {
    use super::*;
    use ascp_mcu8051::asm::assemble;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random register banks, PSW, SCON flags, transmit countdown and
        /// bound under every retired form.
        #[test]
        fn random_spin_states_match_steps(
            form in 0u8..4,
            n in 0u8..8,
            psw in any::<u8>(),
            regs in proptest::collection::vec(any::<u8>(), 32),
            scon in any::<u8>(),
            rem in 0u32..300,
            in_flight in any::<bool>(),
            max in 1u64..700,
        ) {
            let code = match form {
                0 => djnz(n),
                1 => JNB_TI.to_vec(),
                2 => JNB_RI.to_vec(),
                _ => SJMP_SELF.to_vec(),
            };
            let mut cpu = cpu_with(&code);
            for (addr, v) in regs.iter().enumerate() {
                cpu.set_iram(addr as u8, *v);
            }
            cpu.set_sfr(sfr::PSW, psw);
            cpu.set_sfr(sfr::SCON, scon);
            let cpu = with_tx_countdown(&cpu, in_flight.then_some(rem));
            let k = retire_matches_steps(&cpu, max);
            prop_assert!(k.is_ok(), "{}", k.unwrap_err());
            prop_assert!(k.unwrap() >= 1);
        }

        /// The `MONITOR` firmware's shape — a UART frame, a transmit wait
        /// and a pacing loop — driven by bulk retirement under random
        /// bounds, in lockstep with a stepped copy.
        #[test]
        fn firmware_loops_match_steps_under_random_bounds(
            pace in any::<u8>(),
            bounds in proptest::collection::vec(1u64..12, 400),
        ) {
            let src = format!(
                "loop: mov a, #0xa5\nlcall tx\nmov a, r4\nlcall tx\n\
                 mov r7, #{pace}\npace: djnz r7, pace\ninc r4\nsjmp loop\n\
                 tx: mov sbuf, a\ntxw: jnb ti, txw\nclr ti\nret\n"
            );
            let mut bulk = cpu_with(&assemble(&src).expect("assembles"));
            let mut oracle = bulk.clone();
            for &max in &bounds {
                let k = bulk.retire_spin(max);
                if k == 0 {
                    bulk.step(&mut NullBus);
                }
                for _ in 0..k.max(1) {
                    oracle.step(&mut NullBus);
                }
                prop_assert_eq!(state(&bulk), state(&oracle));
            }
            prop_assert!(bulk.uart_tx_total() >= 2);
        }
    }
}
