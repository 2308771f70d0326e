//! Operand access: raw and firmware-visible SFRs, the direct, indirect
//! and bit address spaces, the register banks and PSW flags, the stack,
//! and code fetch.

use super::{psw, sfr, Cpu, ExternalBus, CORE_SFRS, UART_CYCLES_PER_BYTE, UART_TX_CAPACITY};
use crate::decode;

/// `IS_CORE_SFR[addr]` is `true` for exactly the registers of
/// [`CORE_SFRS`]: a lookup on the hot operand path, not a scan.
static IS_CORE_SFR: [bool; 256] = {
    let mut map = [false; 256];
    let mut i = 0;
    while i < CORE_SFRS.len() {
        map[CORE_SFRS[i].0 as usize] = true;
        i += 1;
    }
    map
};

impl Cpu {
    // ---- SFR raw accessors (no side effects) ----

    pub(super) fn sfr_load(&self, addr: u8) -> u8 {
        debug_assert!(addr >= 0x80);
        self.sfrs[(addr - 0x80) as usize]
    }

    pub(super) fn sfr_store(&mut self, addr: u8, value: u8) {
        debug_assert!(addr >= 0x80);
        self.sfrs[(addr - 0x80) as usize] = value;
    }

    fn is_core_sfr(addr: u8) -> bool {
        IS_CORE_SFR[addr as usize]
    }

    // ---- direct address space (operand access) ----

    pub(super) fn direct_read(&mut self, addr: u8, bus: &mut dyn ExternalBus) -> u8 {
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

    pub(super) fn direct_write(&mut self, addr: u8, value: u8, bus: &mut dyn ExternalBus) {
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
                self.uart_tx_countdown = Some(UART_CYCLES_PER_BYTE);
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

    pub(super) fn indirect_read(&self, addr: u8) -> u8 {
        // Indirect access reaches upper IRAM, never SFRs.
        self.iram[addr as usize]
    }

    pub(super) fn indirect_write(&mut self, addr: u8, value: u8) {
        self.iram[addr as usize] = value;
    }

    // ---- registers and flags ----

    fn bank_base(&self) -> u8 {
        (self.sfr_load(sfr::PSW) >> 3) & 0x03
    }

    fn reg_addr(&self, n: u8) -> u8 {
        self.bank_base() * 8 + n
    }

    pub(super) fn reg(&self, n: u8) -> u8 {
        self.iram[self.reg_addr(n) as usize]
    }

    pub(super) fn set_reg(&mut self, n: u8, value: u8) {
        let a = self.reg_addr(n);
        self.iram[a as usize] = value;
    }

    fn psw_with_parity(&self) -> u8 {
        let acc = self.sfr_load(sfr::ACC);
        let p = (acc.count_ones() & 1) as u8;
        (self.sfr_load(sfr::PSW) & !psw::P) | p
    }

    pub(super) fn get_flag(&self, mask: u8) -> bool {
        self.sfr_load(sfr::PSW) & mask != 0
    }

    pub(super) fn set_flag(&mut self, mask: u8, on: bool) {
        let v = self.sfr_load(sfr::PSW);
        self.sfr_store(sfr::PSW, if on { v | mask } else { v & !mask });
    }

    pub(super) fn dptr(&self) -> u16 {
        u16::from_le_bytes([self.sfr_load(sfr::DPL), self.sfr_load(sfr::DPH)])
    }

    pub(super) fn set_dptr(&mut self, v: u16) {
        let [lo, hi] = v.to_le_bytes();
        self.sfr_store(sfr::DPL, lo);
        self.sfr_store(sfr::DPH, hi);
    }

    // ---- bit space ----

    pub(super) fn bit_read(&mut self, bit: u8, bus: &mut dyn ExternalBus) -> bool {
        if bit < 0x80 {
            let byte = 0x20 + bit / 8;
            self.iram[byte as usize] & (1 << (bit % 8)) != 0
        } else {
            let addr = bit & 0xf8;
            self.direct_read(addr, bus) & (1 << (bit % 8)) != 0
        }
    }

    pub(super) fn bit_write(&mut self, bit: u8, on: bool, bus: &mut dyn ExternalBus) {
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

    pub(super) fn push(&mut self, value: u8) {
        let sp = self.sfr_load(sfr::SP).wrapping_add(1);
        self.sfr_store(sfr::SP, sp);
        self.iram[sp as usize] = value;
    }

    pub(super) fn pop(&mut self) -> u8 {
        let sp = self.sfr_load(sfr::SP);
        let v = self.iram[sp as usize];
        self.sfr_store(sfr::SP, sp.wrapping_sub(1));
        v
    }

    pub(super) fn push_pc(&mut self) {
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

    pub(super) fn code_at(&self, addr: u16) -> u8 {
        self.code.get(addr as usize).copied().unwrap_or(0)
    }

    /// Fetches the opcode and its operand bytes through the opcode's
    /// [`decode::DECODE`] row, advancing PC past the instruction, and
    /// returns them with the row's machine cycles.
    #[inline]
    pub(super) fn fetch_decoded(&mut self) -> (u8, u8, u8, u8) {
        let op = self.fetch();
        let (operands, cycles) = decode::DECODE[op as usize];
        let a = if operands >= 1 { self.fetch() } else { 0 };
        let b = if operands >= 2 { self.fetch() } else { 0 };
        (op, a, b, cycles)
    }
}
