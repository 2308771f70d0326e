//! 8051 instruction-set simulator.
//!
//! The platform's programmable section is the Oregano MC8051 core (paper
//! §4.2, ref \[9\]) — a classic 8051. This interpreter implements the full
//! instruction set (all 255 defined opcodes), the register banks,
//! bit-addressable space, stack, PSW flags, both timers, the serial port,
//! and the five-source interrupt system, with standard 12-clock machine
//! cycle counts — everything monitoring/communication firmware can observe.
//!
//! External hardware (the bridge to the 16-bit peripheral bus, the cache
//! controller, XDATA-mapped devices) attaches through the [`ExternalBus`]
//! trait passed to [`Cpu::step`].
//!
//! One file per seam: this one holds the state, reset, accessors and the
//! stepping loops; `access.rs` the operand spaces and code fetch;
//! `exec.rs` the instruction semantics; `onchip.rs` the timers, UART and
//! interrupts; `state.rs` the checkpoint. What each opcode encodes and
//! costs is its row of the crate's one opcode table, `decode.rs`.

mod access;
mod exec;
mod onchip;
mod state;

use crate::decode;
use ascp_sim::noise::Rng64;
use onchip::{IntSource, INTERRUPT_ENTRY_CYCLES};
use std::collections::VecDeque;

/// SFR addresses used by the core.
pub mod sfr {
    /// Port 0 latch.
    pub const P0: u8 = 0x80;
    /// Stack pointer.
    pub const SP: u8 = 0x81;
    /// Data pointer low byte.
    pub const DPL: u8 = 0x82;
    /// Data pointer high byte.
    pub const DPH: u8 = 0x83;
    /// Power control (SMOD in bit 7).
    pub const PCON: u8 = 0x87;
    /// Timer control.
    pub const TCON: u8 = 0x88;
    /// Timer mode.
    pub const TMOD: u8 = 0x89;
    /// Timer 0 low byte.
    pub const TL0: u8 = 0x8a;
    /// Timer 1 low byte.
    pub const TL1: u8 = 0x8b;
    /// Timer 0 high byte.
    pub const TH0: u8 = 0x8c;
    /// Timer 1 high byte.
    pub const TH1: u8 = 0x8d;
    /// Port 1 latch.
    pub const P1: u8 = 0x90;
    /// Serial control.
    pub const SCON: u8 = 0x98;
    /// Serial buffer.
    pub const SBUF: u8 = 0x99;
    /// Port 2 latch.
    pub const P2: u8 = 0xa0;
    /// Interrupt enable.
    pub const IE: u8 = 0xa8;
    /// Port 3 latch.
    pub const P3: u8 = 0xb0;
    /// Interrupt priority.
    pub const IP: u8 = 0xb8;
    /// Program status word.
    pub const PSW: u8 = 0xd0;
    /// Accumulator.
    pub const ACC: u8 = 0xe0;
    /// B register.
    pub const B: u8 = 0xf0;
}

/// The core's SFRs with their assembler names, one row each. The core
/// implements exactly these, the assembler knows the names as symbols and
/// the disassembler prints them.
pub(crate) const CORE_SFRS: [(u8, &str); 21] = [
    (sfr::P0, "p0"),
    (sfr::SP, "sp"),
    (sfr::DPL, "dpl"),
    (sfr::DPH, "dph"),
    (sfr::PCON, "pcon"),
    (sfr::TCON, "tcon"),
    (sfr::TMOD, "tmod"),
    (sfr::TL0, "tl0"),
    (sfr::TL1, "tl1"),
    (sfr::TH0, "th0"),
    (sfr::TH1, "th1"),
    (sfr::P1, "p1"),
    (sfr::SCON, "scon"),
    (sfr::SBUF, "sbuf"),
    (sfr::P2, "p2"),
    (sfr::IE, "ie"),
    (sfr::P3, "p3"),
    (sfr::IP, "ip"),
    (sfr::PSW, "psw"),
    (sfr::ACC, "acc"),
    (sfr::B, "b"),
];

/// PSW flag bits.
pub mod psw {
    /// Carry.
    pub const CY: u8 = 0x80;
    /// Auxiliary carry (BCD).
    pub const AC: u8 = 0x40;
    /// General-purpose flag 0.
    pub const F0: u8 = 0x20;
    /// Register-bank select bit 1.
    pub const RS1: u8 = 0x10;
    /// Register-bank select bit 0.
    pub const RS0: u8 = 0x08;
    /// Overflow.
    pub const OV: u8 = 0x04;
    /// Parity of ACC (hardware-maintained).
    pub const P: u8 = 0x01;
}

/// External hardware visible to the CPU: non-core SFRs (the paper's cache
/// controller and UART sit on the 8-bit SFR bus; SPI/timer/watchdog/SRAM
/// behind the bridge) and the XDATA space.
pub trait ExternalBus {
    /// Reads an SFR the core does not implement; `None` leaves 0xFF.
    fn sfr_read(&mut self, addr: u8) -> Option<u8>;

    /// Writes an SFR the core does not implement; return `true` if claimed.
    fn sfr_write(&mut self, addr: u8, value: u8) -> bool;

    /// MOVX read.
    fn xdata_read(&mut self, addr: u16) -> u8;

    /// MOVX write.
    fn xdata_write(&mut self, addr: u16, value: u8);
}

/// A bus with nothing attached (reads float to 0xFF).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullBus;

impl ExternalBus for NullBus {
    fn sfr_read(&mut self, _addr: u8) -> Option<u8> {
        None
    }
    fn sfr_write(&mut self, _addr: u8, _value: u8) -> bool {
        false
    }
    fn xdata_read(&mut self, _addr: u16) -> u8 {
        0xff
    }
    fn xdata_write(&mut self, _addr: u16, _value: u8) {}
}

/// Transmitted bytes the UART queue keeps until the host drains it with
/// [`Cpu::uart_take_tx`]; the oldest is dropped to make room for a new
/// one. 4 KiB holds about half a second of the gyro platform's monitor
/// frames (~7.9 kB per simulated second).
pub const UART_TX_CAPACITY: usize = 4096;

/// Machine cycles per UART byte: ~19200 baud at 20 MHz / 12.
const UART_CYCLES_PER_BYTE: u32 = 96;

/// The most machine cycles one [`Cpu::step`] charges: the longest
/// instruction (`MUL AB`, `DIV AB`) plus an interrupt entry.
pub const MAX_STEP_CYCLES: u32 = decode::MAX_CYCLES as u32 + INTERRUPT_ENTRY_CYCLES;

/// The 8051 core.
#[derive(Debug, Clone)]
pub struct Cpu {
    pc: u16,
    /// Internal RAM: 0x00–0x7F direct/indirect, 0x80–0xFF indirect only.
    iram: [u8; 256],
    /// SFR space 0x80–0xFF (index = addr − 0x80).
    sfrs: [u8; 128],
    code: Vec<u8>,
    cycles: u64,
    /// Instructions retired (telemetry).
    instructions: u64,
    /// Bytes ever written to SBUF for transmit (monotonic; `uart_take_tx`
    /// drains the queue but not this counter).
    uart_tx_total: u64,
    /// Machine cycles spent in the current UART transmission, if any.
    uart_tx_countdown: Option<u32>,
    /// The newest bytes the firmware has transmitted (host-visible), at
    /// most [`UART_TX_CAPACITY`].
    uart_tx: VecDeque<u8>,
    /// Bytes waiting to be received (host-injected).
    uart_rx: VecDeque<u8>,
    /// Cycle count at which the next RX byte is loaded.
    uart_rx_countdown: Option<u32>,
    /// Interrupt currently in service, with its priority (0/1).
    in_service: Vec<(IntSource, bool)>,
    /// External interrupt input pins.
    int0_pin: bool,
    int1_pin: bool,
    halted: bool,
    /// Injected latch-up: the core burns cycles without fetching, so only
    /// the (external) watchdog can recover it. Cleared by reset.
    hung: bool,
    /// Injected UART line fault: per-byte corruption probability and the
    /// deterministic bit-flip generator.
    uart_fault: Option<(f64, Rng64)>,
    /// Bytes the far-end framing/parity check flagged as corrupted
    /// (monotonic; models the receiving ECU's line-error counter, so a
    /// CPU reset does not clear it).
    uart_line_errors: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates a reset CPU with empty code memory.
    #[must_use]
    pub fn new() -> Self {
        let mut cpu = Self {
            pc: 0,
            iram: [0; 256],
            sfrs: [0; 128],
            code: Vec::new(),
            cycles: 0,
            instructions: 0,
            uart_tx_total: 0,
            uart_tx_countdown: None,
            uart_tx: VecDeque::new(),
            uart_rx: VecDeque::new(),
            uart_rx_countdown: None,
            in_service: Vec::new(),
            int0_pin: false,
            int1_pin: false,
            halted: false,
            hung: false,
            uart_fault: None,
            uart_line_errors: 0,
        };
        cpu.reset();
        cpu
    }

    /// Loads code memory (ROM image) and resets.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds 64 KiB.
    pub fn load_code(&mut self, image: &[u8]) {
        assert!(image.len() <= 0x1_0000, "code image exceeds 64 KiB");
        self.code = image.to_vec();
        self.reset();
    }

    /// Writes one byte of code memory, growing it if needed — the cache
    /// controller's program-download path ("newer software versions could
    /// be downloaded and tested", paper §4.2).
    pub fn code_write(&mut self, addr: u16, value: u8) {
        let idx = addr as usize;
        if self.code.len() <= idx {
            self.code.resize(idx + 1, 0);
        }
        self.code[idx] = value;
    }

    /// Hardware reset: PC = 0, SP = 7, ports high, everything else zero.
    pub fn reset(&mut self) {
        self.pc = 0;
        self.iram = [0; 256];
        self.sfrs = [0; 128];
        self.sfr_store(sfr::SP, 0x07);
        self.sfr_store(sfr::P0, 0xff);
        self.sfr_store(sfr::P1, 0xff);
        self.sfr_store(sfr::P2, 0xff);
        self.sfr_store(sfr::P3, 0xff);
        self.cycles = 0;
        self.instructions = 0;
        self.uart_tx_total = 0;
        self.uart_tx_countdown = None;
        self.uart_tx.clear();
        self.uart_rx.clear();
        self.uart_rx_countdown = None;
        self.in_service.clear();
        self.halted = false;
        // A hardware reset releases an injected latch-up; the platform
        // re-asserts it while the underlying fault stays active. The UART
        // line fault and error count live on the harness side and survive.
        self.hung = false;
    }

    /// Program counter.
    #[must_use]
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// Total machine cycles executed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired since reset.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total bytes the firmware has queued for UART transmit since reset
    /// (monotonic — unaffected by [`Cpu::uart_take_tx`] draining the queue).
    #[must_use]
    pub fn uart_tx_total(&self) -> u64 {
        self.uart_tx_total
    }

    /// `true` after executing the idle pseudo-halt (`SJMP $` detection is
    /// not used; halted means a `MOV PCON` power-down, bit 1).
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Accumulator value.
    #[must_use]
    pub fn acc(&self) -> u8 {
        self.sfr_load(sfr::ACC)
    }

    /// Direct-reads internal RAM (test/monitor access).
    #[must_use]
    pub fn iram(&self, addr: u8) -> u8 {
        self.iram[addr as usize]
    }

    /// Direct-writes internal RAM (test setup).
    pub fn set_iram(&mut self, addr: u8, value: u8) {
        self.iram[addr as usize] = value;
    }

    /// Reads an SFR as the firmware would (no external bus consulted).
    #[must_use]
    pub fn sfr(&self, addr: u8) -> u8 {
        self.sfr_load(addr)
    }

    /// Host-side write of an SFR (test setup).
    pub fn set_sfr(&mut self, addr: u8, value: u8) {
        self.sfr_store(addr, value);
    }

    /// Pops the bytes the firmware has written to the UART since the last
    /// call: the newest [`UART_TX_CAPACITY`] of them, as older ones were
    /// dropped ([`Cpu::uart_tx_total`] still counts them).
    pub fn uart_take_tx(&mut self) -> Vec<u8> {
        self.uart_tx.drain(..).collect()
    }

    /// Queues a byte for firmware reception (sets RI when delivered).
    pub fn uart_inject_rx(&mut self, byte: u8) {
        self.uart_rx.push_back(byte);
    }

    /// Number of RX bytes not yet delivered.
    #[must_use]
    pub fn uart_rx_pending(&self) -> usize {
        self.uart_rx.len()
    }

    /// Sets the external interrupt pins.
    pub fn set_int_pins(&mut self, int0: bool, int1: bool) {
        self.int0_pin = int0;
        self.int1_pin = int1;
    }

    /// Fault injection: latches (or releases) a CPU hang. A hung core
    /// consumes cycles without fetching instructions — the state a
    /// latch-up or runaway leaves — and does not kick the watchdog.
    pub fn set_hung(&mut self, hung: bool) {
        self.hung = hung;
    }

    /// `true` while an injected hang is latched.
    #[must_use]
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// Fault injection: corrupts transmitted UART bytes with per-byte
    /// probability `rate`, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]`.
    pub fn set_uart_fault(&mut self, rate: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&rate), "corruption rate {rate}");
        self.uart_fault = Some((rate, Rng64::new(seed)));
    }

    /// Removes an injected UART line fault.
    pub fn clear_uart_fault(&mut self) {
        self.uart_fault = None;
    }

    /// Transmitted bytes the receiving end flagged as corrupted
    /// (single-bit flips, always caught by the frame parity check).
    /// Monotonic across CPU resets.
    #[must_use]
    pub fn uart_line_errors(&self) -> u64 {
        self.uart_line_errors
    }

    /// Executes one instruction (servicing a pending interrupt first) and
    /// returns the machine cycles it took: the opcode table's cycles for
    /// the instruction plus, when an interrupt was entered, the entry's
    /// LCALL. The timers and the UART see the same cycles, and
    /// no step takes more than [`MAX_STEP_CYCLES`].
    #[inline]
    pub fn step(&mut self, bus: &mut dyn ExternalBus) -> u32 {
        if self.hung {
            // Latch-up: the clock runs but nothing fetches, no timers
            // tick, no watchdog kicks happen. Cycles still accumulate so
            // an external watchdog sees time passing.
            self.cycles += 1;
            return 1;
        }
        if self.halted {
            self.tick_peripherals(1);
            self.cycles += 1;
            return 1;
        }
        let mut cycles = 0;
        if let Some((src, high)) = self.pending_interrupt() {
            self.service_interrupt(src, high);
            cycles = INTERRUPT_ENTRY_CYCLES;
        }
        let (op, a, b, op_cycles) = self.fetch_decoded();
        self.execute_decoded(op, a, b, bus);
        cycles += u32::from(op_cycles);
        self.instructions += 1;
        self.cycles += u64::from(cycles);
        self.tick_peripherals(cycles);
        cycles
    }

    /// Retires up to `max` executions of the busy-wait loop at PC in one
    /// call and returns how many it retired. The state afterwards is
    /// exactly the one that many [`Cpu::step`] calls leave: registers,
    /// PC, TI, the UART transmit countdown, [`Cpu::instructions`] and
    /// [`Cpu::cycles`]. It retires fewer than `max` only when the loop
    /// exits; the last retired execution is then the one that falls
    /// through.
    ///
    /// Retired forms, 2 machine cycles per execution: `djnz Rn, $`,
    /// `jnb TI, $`, `jnb RI, $` and `sjmp $`. A hung core retires `max`
    /// 1-cycle steps. Anything that could make a loop's exit depend on
    /// more than elapsed cycles makes it return 0 and change nothing: EA
    /// set, a running timer, a high INT pin, a deliverable RX byte, a
    /// halted core, or any other instruction at PC.
    #[inline]
    pub fn retire_spin(&mut self, max: u64) -> u64 {
        if self.hung {
            self.cycles += max;
            return max;
        }
        if max == 0
            || self.halted
            || self.sfr_load(sfr::IE) & 0x80 != 0
            || self.sfr_load(sfr::TCON) & 0x50 != 0
            || self.int0_pin
            || self.int1_pin
            || self.rx_deliverable()
        {
            return 0;
        }
        let pc = self.pc;
        let scon = self.sfr_load(sfr::SCON);
        let [op, a, b] = [0, 1, 2].map(|i| self.code_at(pc.wrapping_add(i)));
        // The executions after which the loop falls through, with the
        // instruction length it then skips; `None` for a loop that never
        // exits.
        let exit = match (op, a, b) {
            (0xd8..=0xdf, 0xfe, _) => match self.reg(op & 7) {
                0 => Some((256, 2)),
                r => Some((u64::from(r), 2)),
            },
            // TI is read before the UART ticks, so the execution after
            // the one that completes the transmission falls through.
            (0x30, 0x99, 0xfd) => match (scon & 0x02 != 0, self.uart_tx_countdown) {
                (true, _) => Some((1, 3)),
                (false, Some(rem)) => Some((u64::from(rem).div_ceil(2).max(1) + 1, 3)),
                (false, None) => None,
            },
            // With no RX byte deliverable, RI keeps its value.
            (0x30, 0x98, 0xfd) => (scon & 0x01 != 0).then_some((1, 3)),
            (0x80, 0xfe, _) => None,
            _ => return 0,
        };
        let k = exit.map_or(max, |(n, _)| max.min(n));
        if let Some((n, len)) = exit {
            if k == n {
                self.pc = pc.wrapping_add(len);
            }
        }
        if op & 0xf8 == 0xd8 {
            let n = op & 7;
            self.set_reg(n, self.reg(n).wrapping_sub(k as u8));
        }
        self.instructions += k;
        self.cycles += 2 * k;
        if let Some(rem) = self.uart_tx_countdown {
            if u64::from(rem) <= 2 * k {
                self.uart_tx_countdown = None;
                self.sfr_store(sfr::SCON, scon | 0x02); // TI
            } else {
                self.uart_tx_countdown = Some(rem - 2 * k as u32);
            }
        }
        k
    }

    /// Steps until `cycles` machine cycles have elapsed; returns the
    /// cycles the executed instructions consumed.
    pub fn run_cycles(&mut self, cycles: u64, bus: &mut dyn ExternalBus) -> u64 {
        let target = self.cycles.saturating_add(cycles);
        let mut executed = 0u64;
        while self.cycles < target {
            executed += u64::from(self.step(bus));
        }
        executed
    }
}
