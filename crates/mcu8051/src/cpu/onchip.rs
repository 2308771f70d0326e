//! The core's on-chip peripherals, driven by elapsed machine cycles: both
//! timers, the serial port and the five-source two-priority interrupt
//! system.

use super::{sfr, Cpu, UART_CYCLES_PER_BYTE};

/// Machine cycles of an interrupt entry: the hardware LCALL to the vector.
pub(super) const INTERRUPT_ENTRY_CYCLES: u32 = 2;

/// Interrupt sources in priority-vector order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum IntSource {
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
    pub(super) fn code(self) -> u8 {
        match self {
            Self::Ext0 => 0,
            Self::Timer0 => 1,
            Self::Ext1 => 2,
            Self::Timer1 => 3,
            Self::Serial => 4,
        }
    }

    pub(super) fn from_code(code: u8) -> Option<Self> {
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

impl Cpu {
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
                None => self.uart_rx_countdown = Some(UART_CYCLES_PER_BYTE),
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
    pub(super) fn pending_interrupt(&self) -> Option<(IntSource, bool)> {
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

    /// Enters `src`'s handler: the hardware LCALL to its vector, which
    /// costs [`INTERRUPT_ENTRY_CYCLES`]; [`Cpu::step`] charges them.
    pub(super) fn service_interrupt(&mut self, src: IntSource, high: bool) {
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
    }

    /// `true` when the UART would deliver a queued RX byte: REN set, RI
    /// clear and a byte waiting.
    pub(super) fn rx_deliverable(&self) -> bool {
        let scon = self.sfr_load(sfr::SCON);
        scon & 0x10 != 0 && scon & 0x01 == 0 && !self.uart_rx.is_empty()
    }

    /// Per-instruction peripheral tick with cheap idle fast paths. The
    /// guards skip only calls that would be observable no-ops: timers
    /// with TR0 and TR1 clear, and the UART with no transmission in
    /// flight, no deliverable RX byte and both interrupt pins low — so
    /// behaviour is exactly [`Cpu::tick_timers`] + [`Cpu::tick_uart`].
    #[inline]
    pub(super) fn tick_peripherals(&mut self, machine_cycles: u32) {
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
}
