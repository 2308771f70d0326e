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

use crate::decode;
use ascp_sim::noise::Rng64;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
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

/// Interrupt sources in priority-vector order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntSource {
    Ext0,
    Timer0,
    Ext1,
    Timer1,
    Serial,
}

impl IntSource {
    fn vector(self) -> u16 {
        match self {
            Self::Ext0 => 0x0003,
            Self::Timer0 => 0x000b,
            Self::Ext1 => 0x0013,
            Self::Timer1 => 0x001b,
            Self::Serial => 0x0023,
        }
    }
    fn enable_mask(self) -> u8 {
        match self {
            Self::Ext0 => 0x01,
            Self::Timer0 => 0x02,
            Self::Ext1 => 0x04,
            Self::Timer1 => 0x08,
            Self::Serial => 0x10,
        }
    }

    /// Stable numeric code for serialization.
    fn code(self) -> u8 {
        match self {
            Self::Ext0 => 0,
            Self::Timer0 => 1,
            Self::Ext1 => 2,
            Self::Timer1 => 3,
            Self::Serial => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::Ext0,
            1 => Self::Timer0,
            2 => Self::Ext1,
            3 => Self::Timer1,
            4 => Self::Serial,
            _ => return None,
        })
    }
}

/// Transmitted bytes the UART queue keeps until the host drains it with
/// [`Cpu::uart_take_tx`]; the oldest is dropped to make room for a new
/// one. 4 KiB holds about half a second of the gyro platform's monitor
/// frames (~7.9 kB per simulated second).
pub const UART_TX_CAPACITY: usize = 4096;

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
    /// Machine cycles per UART byte (derived from a nominal baud).
    uart_cycles_per_byte: u32,
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
            uart_cycles_per_byte: 96, // ~19200 baud at 20 MHz / 12
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

    /// Serializes the complete core state: PC, IRAM, SFRs, code memory
    /// (runtime-mutable through the program-download path), counters, UART
    /// queues and timing, the interrupt in-service stack, pins, and
    /// injected-fault state.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u16(self.pc);
        w.put_u8_slice(&self.iram);
        w.put_u8_slice(&self.sfrs);
        w.put_u8_slice(&self.code);
        w.put_u64(self.cycles);
        w.put_u64(self.instructions);
        w.put_u64(self.uart_tx_total);
        w.put_opt_u32(self.uart_tx_countdown);
        w.put_u8_slice(self.uart_tx.iter().copied().collect::<Vec<u8>>().as_slice());
        w.put_u8_slice(self.uart_rx.iter().copied().collect::<Vec<u8>>().as_slice());
        w.put_u32(self.uart_cycles_per_byte);
        w.put_opt_u32(self.uart_rx_countdown);
        w.put_u32(self.in_service.len() as u32);
        for &(src, high) in &self.in_service {
            w.put_u8(src.code());
            w.put_bool(high);
        }
        w.put_bool(self.int0_pin);
        w.put_bool(self.int1_pin);
        w.put_bool(self.halted);
        w.put_bool(self.hung);
        match &self.uart_fault {
            Some((rate, rng)) => {
                w.put_bool(true);
                w.put_f64(*rate);
                rng.save_state(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.uart_line_errors);
    }

    /// Restores state saved by [`Cpu::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the IRAM/SFR images have the
    /// wrong size, the code image exceeds 64 KiB, the UART transmit queue
    /// exceeds [`UART_TX_CAPACITY`], an interrupt-source code is unknown,
    /// or the fault rate is outside `[0, 1]`; propagates other
    /// [`SnapshotError`]s on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let pc = r.take_u16()?;
        let iram = r.take_u8_vec()?;
        let sfrs = r.take_u8_vec()?;
        if iram.len() != 256 || sfrs.len() != 128 {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "CPU memory images {}B IRAM / {}B SFR (expected 256/128)",
                    iram.len(),
                    sfrs.len()
                ),
            });
        }
        let code = r.take_u8_vec()?;
        if code.len() > 0x1_0000 {
            return Err(SnapshotError::Corrupt {
                context: format!("CPU code image of {} bytes exceeds 64 KiB", code.len()),
            });
        }
        self.pc = pc;
        self.iram.copy_from_slice(&iram);
        self.sfrs.copy_from_slice(&sfrs);
        self.code = code;
        self.cycles = r.take_u64()?;
        self.instructions = r.take_u64()?;
        self.uart_tx_total = r.take_u64()?;
        self.uart_tx_countdown = r.take_opt_u32()?;
        let uart_tx = r.take_u8_vec()?;
        if uart_tx.len() > UART_TX_CAPACITY {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "UART transmit queue of {} bytes exceeds {UART_TX_CAPACITY}",
                    uart_tx.len()
                ),
            });
        }
        self.uart_tx = uart_tx.into();
        self.uart_rx = r.take_u8_vec()?.into();
        self.uart_cycles_per_byte = r.take_u32()?;
        self.uart_rx_countdown = r.take_opt_u32()?;
        let n = r.take_u32()? as usize;
        let mut in_service = Vec::with_capacity(n.min(16));
        for _ in 0..n {
            let code = r.take_u8()?;
            let src = IntSource::from_code(code).ok_or_else(|| SnapshotError::Corrupt {
                context: format!("unknown interrupt source code {code}"),
            })?;
            in_service.push((src, r.take_bool()?));
        }
        self.in_service = in_service;
        self.int0_pin = r.take_bool()?;
        self.int1_pin = r.take_bool()?;
        self.halted = r.take_bool()?;
        self.hung = r.take_bool()?;
        self.uart_fault = if r.take_bool()? {
            let rate = r.take_f64()?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(SnapshotError::Corrupt {
                    context: format!("UART fault rate {rate} outside [0, 1]"),
                });
            }
            let mut rng = Rng64::new(1);
            rng.load_state(r)?;
            Some((rate, rng))
        } else {
            None
        };
        self.uart_line_errors = r.take_u64()?;
        Ok(())
    }

    // ---- SFR raw accessors (no side effects) ----

    fn sfr_load(&self, addr: u8) -> u8 {
        debug_assert!(addr >= 0x80);
        self.sfrs[(addr - 0x80) as usize]
    }

    fn sfr_store(&mut self, addr: u8, value: u8) {
        debug_assert!(addr >= 0x80);
        self.sfrs[(addr - 0x80) as usize] = value;
    }

    fn is_core_sfr(addr: u8) -> bool {
        matches!(
            addr,
            sfr::P0
                | sfr::SP
                | sfr::DPL
                | sfr::DPH
                | sfr::PCON
                | sfr::TCON
                | sfr::TMOD
                | sfr::TL0
                | sfr::TL1
                | sfr::TH0
                | sfr::TH1
                | sfr::P1
                | sfr::SCON
                | sfr::SBUF
                | sfr::P2
                | sfr::IE
                | sfr::P3
                | sfr::IP
                | sfr::PSW
                | sfr::ACC
                | sfr::B
        )
    }

    // ---- direct address space (operand access) ----

    fn direct_read(&mut self, addr: u8, bus: &mut dyn ExternalBus) -> u8 {
        if addr < 0x80 {
            self.iram[addr as usize]
        } else if Self::is_core_sfr(addr) {
            if addr == sfr::PSW {
                self.psw_with_parity()
            } else {
                self.sfr_load(addr)
            }
        } else {
            bus.sfr_read(addr).unwrap_or(0xff)
        }
    }

    fn direct_write(&mut self, addr: u8, value: u8, bus: &mut dyn ExternalBus) {
        if addr < 0x80 {
            self.iram[addr as usize] = value;
        } else if Self::is_core_sfr(addr) {
            if addr == sfr::SBUF {
                // Writing SBUF starts a transmission. An injected line
                // fault flips one bit on the wire; the far end's parity
                // check flags the frame (single-bit errors always detect).
                let mut wire = value;
                if let Some((rate, rng)) = &mut self.uart_fault {
                    if rng.next_f64() < *rate {
                        wire ^= 1 << (rng.next_u64() % 8);
                        self.uart_line_errors += 1;
                    }
                }
                if self.uart_tx.len() == UART_TX_CAPACITY {
                    self.uart_tx.pop_front();
                }
                self.uart_tx.push_back(wire);
                self.uart_tx_total += 1;
                self.uart_tx_countdown = Some(self.uart_cycles_per_byte);
            }
            if addr == sfr::PCON && value & 0x02 != 0 {
                self.halted = true;
            }
            self.sfr_store(addr, value);
        } else if !bus.sfr_write(addr, value) {
            // Unclaimed writes land in the local shadow so read-back works
            // for software flags parked on spare addresses.
            self.sfr_store(addr, value);
        }
    }

    fn indirect_read(&self, addr: u8) -> u8 {
        // Indirect access reaches upper IRAM, never SFRs.
        self.iram[addr as usize]
    }

    fn indirect_write(&mut self, addr: u8, value: u8) {
        self.iram[addr as usize] = value;
    }

    // ---- registers and flags ----

    fn bank_base(&self) -> u8 {
        (self.sfr_load(sfr::PSW) >> 3) & 0x03
    }

    fn reg_addr(&self, n: u8) -> u8 {
        self.bank_base() * 8 + n
    }

    fn reg(&self, n: u8) -> u8 {
        self.iram[self.reg_addr(n) as usize]
    }

    fn set_reg(&mut self, n: u8, value: u8) {
        let a = self.reg_addr(n);
        self.iram[a as usize] = value;
    }

    fn psw_with_parity(&self) -> u8 {
        let acc = self.sfr_load(sfr::ACC);
        let p = (acc.count_ones() & 1) as u8;
        (self.sfr_load(sfr::PSW) & !psw::P) | p
    }

    fn get_flag(&self, mask: u8) -> bool {
        self.sfr_load(sfr::PSW) & mask != 0
    }

    fn set_flag(&mut self, mask: u8, on: bool) {
        let v = self.sfr_load(sfr::PSW);
        self.sfr_store(sfr::PSW, if on { v | mask } else { v & !mask });
    }

    fn dptr(&self) -> u16 {
        u16::from_le_bytes([self.sfr_load(sfr::DPL), self.sfr_load(sfr::DPH)])
    }

    fn set_dptr(&mut self, v: u16) {
        let [lo, hi] = v.to_le_bytes();
        self.sfr_store(sfr::DPL, lo);
        self.sfr_store(sfr::DPH, hi);
    }

    // ---- bit space ----

    fn bit_read(&mut self, bit: u8, bus: &mut dyn ExternalBus) -> bool {
        if bit < 0x80 {
            let byte = 0x20 + bit / 8;
            self.iram[byte as usize] & (1 << (bit % 8)) != 0
        } else {
            let addr = bit & 0xf8;
            self.direct_read(addr, bus) & (1 << (bit % 8)) != 0
        }
    }

    fn bit_write(&mut self, bit: u8, on: bool, bus: &mut dyn ExternalBus) {
        let mask = 1u8 << (bit % 8);
        if bit < 0x80 {
            let byte = (0x20 + bit / 8) as usize;
            if on {
                self.iram[byte] |= mask;
            } else {
                self.iram[byte] &= !mask;
            }
        } else {
            let addr = bit & 0xf8;
            let v = self.direct_read(addr, bus);
            self.direct_write(addr, if on { v | mask } else { v & !mask }, bus);
        }
    }

    // ---- stack ----

    fn push(&mut self, value: u8) {
        let sp = self.sfr_load(sfr::SP).wrapping_add(1);
        self.sfr_store(sfr::SP, sp);
        self.iram[sp as usize] = value;
    }

    fn pop(&mut self) -> u8 {
        let sp = self.sfr_load(sfr::SP);
        let v = self.iram[sp as usize];
        self.sfr_store(sfr::SP, sp.wrapping_sub(1));
        v
    }

    fn push_pc(&mut self) {
        let [lo, hi] = self.pc.to_le_bytes();
        self.push(lo);
        self.push(hi);
    }

    // ---- code fetch ----

    fn fetch(&mut self) -> u8 {
        let b = self.code_at(self.pc);
        self.pc = self.pc.wrapping_add(1);
        b
    }

    fn code_at(&self, addr: u16) -> u8 {
        self.code.get(addr as usize).copied().unwrap_or(0)
    }

    /// Fetches the opcode and its operand bytes, advancing PC past the
    /// instruction.
    #[inline]
    fn fetch_decoded(&mut self) -> (u8, u8, u8) {
        let op = self.fetch();
        let (operands, _) = decode::DECODE[op as usize];
        let a = if operands >= 1 { self.fetch() } else { 0 };
        let b = if operands >= 2 { self.fetch() } else { 0 };
        (op, a, b)
    }

    fn rel_jump(&mut self, offset: u8) {
        self.pc = self.pc.wrapping_add(offset as i8 as u16);
    }

    // ---- ALU helpers ----

    fn add(&mut self, operand: u8, with_carry: bool) {
        let a = self.sfr_load(sfr::ACC);
        let psw0 = self.sfr_load(sfr::PSW);
        let c = u16::from(with_carry && psw0 & psw::CY != 0);
        let sum = a as u16 + operand as u16 + c;
        let half = (a & 0x0f) as u16 + (operand & 0x0f) as u16 + c;
        let signed = (a as i8 as i16) + (operand as i8 as i16) + c as i16;
        // One PSW read-modify-write for all three flags (the per-flag
        // set_flag chain is a measurable store-forwarding stall in the
        // interpreter hot loop).
        let mut pswv = psw0 & !(psw::CY | psw::AC | psw::OV);
        if sum > 0xff {
            pswv |= psw::CY;
        }
        if half > 0x0f {
            pswv |= psw::AC;
        }
        if !(-128..=127).contains(&signed) {
            pswv |= psw::OV;
        }
        self.sfr_store(sfr::PSW, pswv);
        self.sfr_store(sfr::ACC, sum as u8);
    }

    fn subb(&mut self, operand: u8) {
        let a = self.sfr_load(sfr::ACC);
        let psw0 = self.sfr_load(sfr::PSW);
        let c = u16::from(psw0 & psw::CY != 0);
        let diff = (a as i16) - (operand as i16) - c as i16;
        let half = (a & 0x0f) as i16 - (operand & 0x0f) as i16 - c as i16;
        let signed = (a as i8 as i16) - (operand as i8 as i16) - c as i16;
        let mut pswv = psw0 & !(psw::CY | psw::AC | psw::OV);
        if diff < 0 {
            pswv |= psw::CY;
        }
        if half < 0 {
            pswv |= psw::AC;
        }
        if !(-128..=127).contains(&signed) {
            pswv |= psw::OV;
        }
        self.sfr_store(sfr::PSW, pswv);
        self.sfr_store(sfr::ACC, diff as u8);
    }

    fn cjne(&mut self, a: u8, b: u8, rel: u8) {
        self.set_flag(psw::CY, a < b);
        if a != b {
            self.rel_jump(rel);
        }
    }

    // ---- peripherals driven by elapsed cycles ----

    fn tick_timers(&mut self, machine_cycles: u32) {
        let tmod = self.sfr_load(sfr::TMOD);
        let tcon = self.sfr_load(sfr::TCON);
        // Timer 0 (TR0 = TCON.4).
        if tcon & 0x10 != 0 {
            self.tick_timer(0, tmod & 0x0f, machine_cycles);
        }
        // Timer 1 (TR1 = TCON.6).
        if tcon & 0x40 != 0 {
            self.tick_timer(1, (tmod >> 4) & 0x0f, machine_cycles);
        }
    }

    fn tick_timer(&mut self, which: u8, mode_bits: u8, machine_cycles: u32) {
        let (tl_a, th_a, tf_mask) = if which == 0 {
            (sfr::TL0, sfr::TH0, 0x20u8)
        } else {
            (sfr::TL1, sfr::TH1, 0x80u8)
        };
        // Gate/CT ignored (no external count inputs modelled).
        let mode = mode_bits & 0x03;
        let mut tl = self.sfr_load(tl_a) as u32;
        let mut th = self.sfr_load(th_a) as u32;
        let mut overflowed = false;
        match mode {
            0 => {
                // 13-bit: TL holds 5 bits.
                let mut count = (th << 5) | (tl & 0x1f);
                count += machine_cycles;
                if count > 0x1fff {
                    overflowed = true;
                    count &= 0x1fff;
                }
                th = count >> 5;
                tl = count & 0x1f;
            }
            1 => {
                let mut count = (th << 8) | tl;
                count += machine_cycles;
                if count > 0xffff {
                    overflowed = true;
                    count &= 0xffff;
                }
                th = count >> 8;
                tl = count & 0xff;
            }
            2 => {
                // 8-bit auto-reload from TH.
                let reload = th;
                let span = 256 - reload;
                let mut count = tl.wrapping_sub(reload) + machine_cycles;
                if count >= span {
                    overflowed = true;
                    count %= span.max(1);
                }
                tl = reload + count;
            }
            _ => {
                // Mode 3: treat as mode 1 for timer 0; timer 1 frozen.
                if which == 0 {
                    let mut count = (th << 8) | tl;
                    count += machine_cycles;
                    if count > 0xffff {
                        overflowed = true;
                        count &= 0xffff;
                    }
                    th = count >> 8;
                    tl = count & 0xff;
                }
            }
        }
        self.sfr_store(tl_a, tl as u8);
        self.sfr_store(th_a, th as u8);
        if overflowed {
            let tcon = self.sfr_load(sfr::TCON);
            self.sfr_store(sfr::TCON, tcon | tf_mask);
        }
    }

    fn tick_uart(&mut self, machine_cycles: u32) {
        // Transmit completion -> TI.
        if let Some(rem) = self.uart_tx_countdown {
            if rem <= machine_cycles {
                self.uart_tx_countdown = None;
                let scon = self.sfr_load(sfr::SCON);
                self.sfr_store(sfr::SCON, scon | 0x02); // TI
            } else {
                self.uart_tx_countdown = Some(rem - machine_cycles);
            }
        }
        // Receive delivery -> SBUF + RI (only when REN set and RI clear).
        let scon = self.sfr_load(sfr::SCON);
        if scon & 0x10 != 0 && scon & 0x01 == 0 && !self.uart_rx.is_empty() {
            match self.uart_rx_countdown {
                None => self.uart_rx_countdown = Some(self.uart_cycles_per_byte),
                Some(rem) if rem <= machine_cycles => {
                    self.uart_rx_countdown = None;
                    if let Some(byte) = self.uart_rx.pop_front() {
                        self.sfr_store(sfr::SBUF, byte);
                        let scon = self.sfr_load(sfr::SCON);
                        self.sfr_store(sfr::SCON, scon | 0x01); // RI
                    }
                }
                Some(rem) => self.uart_rx_countdown = Some(rem - machine_cycles),
            }
        }
        // External interrupt pins -> TCON IE0/IE1 (level-triggered model).
        let mut tcon = self.sfr_load(sfr::TCON);
        if self.int0_pin {
            tcon |= 0x02;
        }
        if self.int1_pin {
            tcon |= 0x08;
        }
        self.sfr_store(sfr::TCON, tcon);
    }

    /// Hot-path interrupt poll: one SFR load and a mask when interrupts
    /// are globally disabled (the common case between `EA` writes).
    #[inline]
    fn pending_interrupt(&self) -> Option<(IntSource, bool)> {
        if self.sfr_load(sfr::IE) & 0x80 == 0 {
            return None; // EA clear
        }
        self.pending_interrupt_enabled()
    }

    fn pending_interrupt_enabled(&self) -> Option<(IntSource, bool)> {
        let ie = self.sfr_load(sfr::IE);
        let ip = self.sfr_load(sfr::IP);
        let tcon = self.sfr_load(sfr::TCON);
        let scon = self.sfr_load(sfr::SCON);
        let candidates = [
            (IntSource::Ext0, tcon & 0x02 != 0),
            (IntSource::Timer0, tcon & 0x20 != 0),
            (IntSource::Ext1, tcon & 0x08 != 0),
            (IntSource::Timer1, tcon & 0x80 != 0),
            (IntSource::Serial, scon & 0x03 != 0),
        ];
        let active_high = self.in_service.iter().any(|&(_, high)| high);
        let active_any = !self.in_service.is_empty();
        // High priority first, then low, in vector order.
        for &want_high in &[true, false] {
            for &(src, flagged) in &candidates {
                if !flagged || ie & src.enable_mask() == 0 {
                    continue;
                }
                let is_high = ip & src.enable_mask() != 0;
                if is_high != want_high {
                    continue;
                }
                // A high-priority ISR blocks everything; a low-priority ISR
                // blocks other low-priority sources.
                if active_high || (active_any && !is_high) {
                    continue;
                }
                return Some((src, is_high));
            }
        }
        None
    }

    fn service_interrupt(&mut self, src: IntSource, high: bool) {
        // Clear the hardware-cleared flags (IE0/IE1/TF0/TF1); serial RI/TI
        // are cleared by software.
        let tcon = self.sfr_load(sfr::TCON);
        let cleared = match src {
            IntSource::Ext0 => tcon & !0x02,
            IntSource::Timer0 => tcon & !0x20,
            IntSource::Ext1 => tcon & !0x08,
            IntSource::Timer1 => tcon & !0x80,
            IntSource::Serial => tcon,
        };
        self.sfr_store(sfr::TCON, cleared);
        self.push_pc();
        self.pc = src.vector();
        self.in_service.push((src, high));
        self.cycles += 2;
    }

    /// Executes one instruction (servicing pending interrupts first);
    /// returns the machine cycles consumed.
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
        if let Some((src, high)) = self.pending_interrupt() {
            self.service_interrupt(src, high);
        }
        let (op, a, b) = self.fetch_decoded();
        let cycles = self.execute_decoded(op, a, b, bus);
        debug_assert_eq!(
            cycles,
            u32::from(decode::DECODE[op as usize].1),
            "decode table disagrees with execution for {op:#04x}"
        );
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

    /// `true` when the UART would deliver a queued RX byte: REN set, RI
    /// clear and a byte waiting.
    fn rx_deliverable(&self) -> bool {
        let scon = self.sfr_load(sfr::SCON);
        scon & 0x10 != 0 && scon & 0x01 == 0 && !self.uart_rx.is_empty()
    }

    /// Per-instruction peripheral tick with cheap idle fast paths. The
    /// guards skip only calls that would be observable no-ops: timers
    /// with TR0 and TR1 clear, and the UART with no transmission in
    /// flight, no deliverable RX byte and both interrupt pins low — so
    /// behaviour is exactly [`Cpu::tick_timers`] + [`Cpu::tick_uart`].
    #[inline]
    fn tick_peripherals(&mut self, machine_cycles: u32) {
        if self.sfr_load(sfr::TCON) & 0x50 != 0 {
            self.tick_timers(machine_cycles);
        }
        if self.uart_tx_countdown.is_some()
            || self.int0_pin
            || self.int1_pin
            || self.rx_deliverable()
        {
            self.tick_uart(machine_cycles);
        }
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

    /// One instruction's semantics, with the opcode and operand bytes
    /// already fetched by [`Cpu::fetch_decoded`] (PC points past the
    /// instruction).
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn execute_decoded(&mut self, op: u8, a: u8, b: u8, bus: &mut dyn ExternalBus) -> u32 {
        match op {
            0x00 => 1, // NOP
            // AJMP / ACALL (page encoded in opcode bits 7..5)
            0x01 | 0x21 | 0x41 | 0x61 | 0x81 | 0xa1 | 0xc1 | 0xe1 => {
                let page = (op >> 5) as u16;
                self.pc = (self.pc & 0xf800) | (page << 8) | a as u16;
                2
            }
            0x11 | 0x31 | 0x51 | 0x71 | 0x91 | 0xb1 | 0xd1 | 0xf1 => {
                let page = (op >> 5) as u16;
                self.push_pc();
                self.pc = (self.pc & 0xf800) | (page << 8) | a as u16;
                2
            }
            0x02 => {
                self.pc = u16::from_be_bytes([a, b]);
                2
            } // LJMP
            0x12 => {
                self.push_pc();
                self.pc = u16::from_be_bytes([a, b]);
                2
            } // LCALL
            0x03 => {
                let a = self.sfr_load(sfr::ACC);
                self.sfr_store(sfr::ACC, a.rotate_right(1));
                1
            } // RR A
            0x13 => {
                let a = self.sfr_load(sfr::ACC);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, a & 1 != 0);
                self.sfr_store(sfr::ACC, (a >> 1) | ((c as u8) << 7));
                1
            } // RRC A
            0x23 => {
                let a = self.sfr_load(sfr::ACC);
                self.sfr_store(sfr::ACC, a.rotate_left(1));
                1
            } // RL A
            0x33 => {
                let a = self.sfr_load(sfr::ACC);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, a & 0x80 != 0);
                self.sfr_store(sfr::ACC, (a << 1) | c as u8);
                1
            } // RLC A
            0x04 => {
                let a = self.sfr_load(sfr::ACC).wrapping_add(1);
                self.sfr_store(sfr::ACC, a);
                1
            } // INC A
            0x14 => {
                let a = self.sfr_load(sfr::ACC).wrapping_sub(1);
                self.sfr_store(sfr::ACC, a);
                1
            } // DEC A
            0x05 => {
                let v = self.direct_read(a, bus).wrapping_add(1);
                self.direct_write(a, v, bus);
                1
            } // INC dir
            0x15 => {
                let v = self.direct_read(a, bus).wrapping_sub(1);
                self.direct_write(a, v, bus);
                1
            } // DEC dir
            0x06 | 0x07 => {
                let a = self.reg(op & 1);
                let v = self.indirect_read(a).wrapping_add(1);
                self.indirect_write(a, v);
                1
            } // INC @Ri
            0x16 | 0x17 => {
                let a = self.reg(op & 1);
                let v = self.indirect_read(a).wrapping_sub(1);
                self.indirect_write(a, v);
                1
            } // DEC @Ri
            0x08..=0x0f => {
                let n = op & 7;
                let v = self.reg(n).wrapping_add(1);
                self.set_reg(n, v);
                1
            } // INC Rn
            0x18..=0x1f => {
                let n = op & 7;
                let v = self.reg(n).wrapping_sub(1);
                self.set_reg(n, v);
                1
            } // DEC Rn
            0xa3 => {
                self.set_dptr(self.dptr().wrapping_add(1));
                2
            } // INC DPTR
            0x10 => {
                if self.bit_read(a, bus) {
                    self.bit_write(a, false, bus);
                    self.rel_jump(b);
                }
                2
            } // JBC
            0x20 => {
                if self.bit_read(a, bus) {
                    self.rel_jump(b);
                }
                2
            } // JB
            0x30 => {
                if !self.bit_read(a, bus) {
                    self.rel_jump(b);
                }
                2
            } // JNB
            0x40 => {
                if self.get_flag(psw::CY) {
                    self.rel_jump(a);
                }
                2
            } // JC
            0x50 => {
                if !self.get_flag(psw::CY) {
                    self.rel_jump(a);
                }
                2
            } // JNC
            0x60 => {
                if self.sfr_load(sfr::ACC) == 0 {
                    self.rel_jump(a);
                }
                2
            } // JZ
            0x70 => {
                if self.sfr_load(sfr::ACC) != 0 {
                    self.rel_jump(a);
                }
                2
            } // JNZ
            0x80 => {
                self.rel_jump(a);
                2
            } // SJMP
            0x73 => {
                self.pc = self.dptr().wrapping_add(self.sfr_load(sfr::ACC) as u16);
                2
            } // JMP @A+DPTR
            0x22 => {
                let hi = self.pop();
                let lo = self.pop();
                self.pc = u16::from_le_bytes([lo, hi]);
                2
            } // RET
            0x32 => {
                let hi = self.pop();
                let lo = self.pop();
                self.pc = u16::from_le_bytes([lo, hi]);
                self.in_service.pop();
                2
            } // RETI
            // ADD / ADDC / SUBB
            0x24 => {
                self.add(a, false);
                1
            }
            0x25 => {
                let v = self.direct_read(a, bus);
                self.add(v, false);
                1
            }
            0x26 | 0x27 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.add(v, false);
                1
            }
            0x28..=0x2f => {
                let v = self.reg(op & 7);
                self.add(v, false);
                1
            }
            0x34 => {
                self.add(a, true);
                1
            }
            0x35 => {
                let v = self.direct_read(a, bus);
                self.add(v, true);
                1
            }
            0x36 | 0x37 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.add(v, true);
                1
            }
            0x38..=0x3f => {
                let v = self.reg(op & 7);
                self.add(v, true);
                1
            }
            0x94 => {
                self.subb(a);
                1
            }
            0x95 => {
                let v = self.direct_read(a, bus);
                self.subb(v);
                1
            }
            0x96 | 0x97 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.subb(v);
                1
            }
            0x98..=0x9f => {
                let v = self.reg(op & 7);
                self.subb(v);
                1
            }
            // Logic: ORL / ANL / XRL
            0x42 | 0x52 | 0x62 => {
                let d = a;
                let v = self.direct_read(d, bus);
                let a = self.sfr_load(sfr::ACC);
                let r = match op {
                    0x42 => v | a,
                    0x52 => v & a,
                    _ => v ^ a,
                };
                self.direct_write(d, r, bus);
                1
            }
            0x43 | 0x53 | 0x63 => {
                let d = a;
                let imm = b;
                let v = self.direct_read(d, bus);
                let r = match op {
                    0x43 => v | imm,
                    0x53 => v & imm,
                    _ => v ^ imm,
                };
                self.direct_write(d, r, bus);
                2
            }
            0x44 | 0x54 | 0x64 => {
                let imm = a;
                let a = self.sfr_load(sfr::ACC);
                let r = match op {
                    0x44 => a | imm,
                    0x54 => a & imm,
                    _ => a ^ imm,
                };
                self.sfr_store(sfr::ACC, r);
                1
            }
            0x45 | 0x55 | 0x65 => {
                let d = a;
                let v = self.direct_read(d, bus);
                let a = self.sfr_load(sfr::ACC);
                let r = match op {
                    0x45 => a | v,
                    0x55 => a & v,
                    _ => a ^ v,
                };
                self.sfr_store(sfr::ACC, r);
                1
            }
            0x46 | 0x47 | 0x56 | 0x57 | 0x66 | 0x67 => {
                let v = self.indirect_read(self.reg(op & 1));
                let a = self.sfr_load(sfr::ACC);
                let r = match op & 0xf0 {
                    0x40 => a | v,
                    0x50 => a & v,
                    _ => a ^ v,
                };
                self.sfr_store(sfr::ACC, r);
                1
            }
            0x48..=0x4f | 0x58..=0x5f | 0x68..=0x6f => {
                let v = self.reg(op & 7);
                let a = self.sfr_load(sfr::ACC);
                let r = match op & 0xf0 {
                    0x40 => a | v,
                    0x50 => a & v,
                    _ => a ^ v,
                };
                self.sfr_store(sfr::ACC, r);
                1
            }
            // Carry-bit logic
            0x72 => {
                let v = self.bit_read(a, bus);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, c | v);
                2
            } // ORL C,bit
            0xa0 => {
                let v = self.bit_read(a, bus);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, c | !v);
                2
            } // ORL C,/bit
            0x82 => {
                let v = self.bit_read(a, bus);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, c & v);
                2
            } // ANL C,bit
            0xb0 => {
                let v = self.bit_read(a, bus);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, c & !v);
                2
            } // ANL C,/bit
            // MOV immediate / register forms
            0x74 => {
                self.sfr_store(sfr::ACC, a);
                1
            }
            0x75 => {
                self.direct_write(a, b, bus);
                2
            }
            0x76 | 0x77 => {
                self.indirect_write(self.reg(op & 1), a);
                1
            }
            0x78..=0x7f => {
                self.set_reg(op & 7, a);
                1
            }
            0x85 => {
                // MOV dest,src is encoded src-first.
                let v = self.direct_read(a, bus);
                self.direct_write(b, v, bus);
                2
            }
            0x86 | 0x87 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.direct_write(a, v, bus);
                2
            }
            0x88..=0x8f => {
                let v = self.reg(op & 7);
                self.direct_write(a, v, bus);
                2
            }
            0x90 => {
                self.set_dptr(u16::from_be_bytes([a, b]));
                2
            } // MOV DPTR,#
            0xa6 | 0xa7 => {
                let v = self.direct_read(a, bus);
                self.indirect_write(self.reg(op & 1), v);
                2
            }
            0xa8..=0xaf => {
                let v = self.direct_read(a, bus);
                self.set_reg(op & 7, v);
                2
            }
            0xe5 => {
                let v = self.direct_read(a, bus);
                self.sfr_store(sfr::ACC, v);
                1
            }
            0xe6 | 0xe7 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.sfr_store(sfr::ACC, v);
                1
            }
            0xe8..=0xef => {
                let v = self.reg(op & 7);
                self.sfr_store(sfr::ACC, v);
                1
            }
            0xf5 => {
                let v = self.sfr_load(sfr::ACC);
                self.direct_write(a, v, bus);
                1
            }
            0xf6 | 0xf7 => {
                let v = self.sfr_load(sfr::ACC);
                self.indirect_write(self.reg(op & 1), v);
                1
            }
            0xf8..=0xff => {
                let v = self.sfr_load(sfr::ACC);
                self.set_reg(op & 7, v);
                1
            }
            // MOVC
            0x83 => {
                let a = self.sfr_load(sfr::ACC);
                let v = self.code_at(self.pc.wrapping_add(a as u16));
                self.sfr_store(sfr::ACC, v);
                2
            } // MOVC A,@A+PC
            0x93 => {
                let a = self.sfr_load(sfr::ACC);
                let v = self.code_at(self.dptr().wrapping_add(a as u16));
                self.sfr_store(sfr::ACC, v);
                2
            } // MOVC A,@A+DPTR
            // MOVX
            0xe0 => {
                let v = bus.xdata_read(self.dptr());
                self.sfr_store(sfr::ACC, v);
                2
            }
            0xe2 | 0xe3 => {
                let addr = u16::from_le_bytes([self.reg(op & 1), self.sfr_load(sfr::P2)]);
                let v = bus.xdata_read(addr);
                self.sfr_store(sfr::ACC, v);
                2
            }
            0xf0 => {
                bus.xdata_write(self.dptr(), self.sfr_load(sfr::ACC));
                2
            }
            0xf2 | 0xf3 => {
                let addr = u16::from_le_bytes([self.reg(op & 1), self.sfr_load(sfr::P2)]);
                bus.xdata_write(addr, self.sfr_load(sfr::ACC));
                2
            }
            // MUL / DIV / DA / SWAP / CPL / CLR A
            0xa4 => {
                let p = self.sfr_load(sfr::ACC) as u16 * self.sfr_load(sfr::B) as u16;
                self.sfr_store(sfr::ACC, p as u8);
                self.sfr_store(sfr::B, (p >> 8) as u8);
                self.set_flag(psw::CY, false);
                self.set_flag(psw::OV, p > 0xff);
                4
            }
            0x84 => {
                let a = self.sfr_load(sfr::ACC);
                let b = self.sfr_load(sfr::B);
                self.set_flag(psw::CY, false);
                if let Some(q) = a.checked_div(b) {
                    self.set_flag(psw::OV, false);
                    self.sfr_store(sfr::ACC, q);
                    self.sfr_store(sfr::B, a % b);
                } else {
                    self.set_flag(psw::OV, true);
                }
                4
            }
            0xd4 => {
                // DA A (decimal adjust after addition).
                let mut a = self.sfr_load(sfr::ACC) as u16;
                if a & 0x0f > 9 || self.get_flag(psw::AC) {
                    a += 0x06;
                }
                if a > 0x9f || self.get_flag(psw::CY) || (a >> 4) & 0x0f > 9 {
                    a += 0x60;
                }
                if a > 0xff {
                    self.set_flag(psw::CY, true);
                }
                self.sfr_store(sfr::ACC, a as u8);
                1
            }
            0xc4 => {
                let a = self.sfr_load(sfr::ACC);
                self.sfr_store(sfr::ACC, a.rotate_left(4));
                1
            } // SWAP
            0xe4 => {
                self.sfr_store(sfr::ACC, 0);
                1
            } // CLR A
            0xf4 => {
                let a = self.sfr_load(sfr::ACC);
                self.sfr_store(sfr::ACC, !a);
                1
            } // CPL A
            // Bit ops
            0xc2 => {
                self.bit_write(a, false, bus);
                1
            } // CLR bit
            0xc3 => {
                self.set_flag(psw::CY, false);
                1
            } // CLR C
            0xd2 => {
                self.bit_write(a, true, bus);
                1
            } // SETB bit
            0xd3 => {
                self.set_flag(psw::CY, true);
                1
            } // SETB C
            0xb2 => {
                let v = self.bit_read(a, bus);
                self.bit_write(a, !v, bus);
                1
            } // CPL bit
            0xb3 => {
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, !c);
                1
            } // CPL C
            0x92 => {
                let c = self.get_flag(psw::CY);
                self.bit_write(a, c, bus);
                2
            } // MOV bit,C
            0xa2 => {
                let v = self.bit_read(a, bus);
                self.set_flag(psw::CY, v);
                1
            } // MOV C,bit
            // PUSH / POP
            0xc0 => {
                let v = self.direct_read(a, bus);
                self.push(v);
                2
            }
            0xd0 => {
                let v = self.pop();
                self.direct_write(a, v, bus);
                2
            }
            // XCH / XCHD
            0xc5 => {
                let d = a;
                let v = self.direct_read(d, bus);
                let a = self.sfr_load(sfr::ACC);
                self.direct_write(d, a, bus);
                self.sfr_store(sfr::ACC, v);
                1
            }
            0xc6 | 0xc7 => {
                let r = self.reg(op & 1);
                let v = self.indirect_read(r);
                let a = self.sfr_load(sfr::ACC);
                self.indirect_write(r, a);
                self.sfr_store(sfr::ACC, v);
                1
            }
            0xc8..=0xcf => {
                let n = op & 7;
                let v = self.reg(n);
                let a = self.sfr_load(sfr::ACC);
                self.set_reg(n, a);
                self.sfr_store(sfr::ACC, v);
                1
            }
            0xd6 | 0xd7 => {
                let r = self.reg(op & 1);
                let v = self.indirect_read(r);
                let a = self.sfr_load(sfr::ACC);
                self.indirect_write(r, (v & 0xf0) | (a & 0x0f));
                self.sfr_store(sfr::ACC, (a & 0xf0) | (v & 0x0f));
                1
            }
            // CJNE
            0xb4 => {
                let imm = a;
                let a = self.sfr_load(sfr::ACC);
                self.cjne(a, imm, b);
                2
            }
            0xb5 => {
                let d = a;
                let a = self.sfr_load(sfr::ACC);
                let v = self.direct_read(d, bus);
                self.cjne(a, v, b);
                2
            }
            0xb6 | 0xb7 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.cjne(v, a, b);
                2
            }
            0xb8..=0xbf => {
                let v = self.reg(op & 7);
                self.cjne(v, a, b);
                2
            }
            // DJNZ
            0xd5 => {
                let v = self.direct_read(a, bus).wrapping_sub(1);
                self.direct_write(a, v, bus);
                if v != 0 {
                    self.rel_jump(b);
                }
                2
            }
            0xd8..=0xdf => {
                let n = op & 7;
                let v = self.reg(n).wrapping_sub(1);
                self.set_reg(n, v);
                if v != 0 {
                    self.rel_jump(a);
                }
                2
            }
            0xa5 => 1, // reserved opcode: NOP on this core
        }
    }
}
