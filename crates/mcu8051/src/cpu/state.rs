//! Checkpoint state of the core: [`Cpu::save_state`] and
//! [`Cpu::load_state`].

use super::onchip::IntSource;
use super::{Cpu, UART_CYCLES_PER_BYTE, UART_TX_CAPACITY};
use ascp_sim::noise::Rng64;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

impl Cpu {
    /// Serializes the complete core state: PC, IRAM, SFRs, code memory
    /// (runtime-mutable through the program-download path), counters, UART
    /// queues and countdowns, the interrupt in-service stack, pins, and
    /// injected-fault state. The UART byte time and the IRAM and SFR sizes
    /// are constants of the core and are not written.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u16(self.pc);
        self.iram
            .iter()
            .chain(&self.sfrs)
            .for_each(|&b| w.put_u8(b));
        w.put_u8_slice(&self.code);
        w.put_u64(self.cycles);
        w.put_u64(self.instructions);
        w.put_u64(self.uart_tx_total);
        w.put_opt_u32(self.uart_tx_countdown);
        w.put_u8_slice(self.uart_tx.iter().copied().collect::<Vec<u8>>().as_slice());
        w.put_u8_slice(self.uart_rx.iter().copied().collect::<Vec<u8>>().as_slice());
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
    /// Returns [`SnapshotError::Corrupt`] if the code image exceeds 64 KiB,
    /// the UART transmit queue exceeds [`UART_TX_CAPACITY`], an
    /// interrupt-source code is unknown, or the fault rate is outside
    /// `[0, 1]`; propagates other [`SnapshotError`]s on malformed input.
    /// The UART countdowns are taken as they are, since the core steps
    /// correctly from any; [`Cpu::check_uart_countdowns`] refuses the ones
    /// no run leaves.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.pc = r.take_u16()?;
        for b in self.iram.iter_mut().chain(&mut self.sfrs) {
            *b = r.take_u8()?;
        }
        let code = r.take_u8_vec()?;
        if code.len() > 0x1_0000 {
            return Err(SnapshotError::Corrupt {
                context: format!("CPU code image of {} bytes exceeds 64 KiB", code.len()),
            });
        }
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

    /// Checks the UART countdowns a restored state carries: a run never
    /// leaves a transmission or a reception in flight for longer than one
    /// 96-cycle byte time, and a longer one would silence the UART.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] for a countdown longer than a
    /// byte time.
    pub fn check_uart_countdowns(&self) -> Result<(), SnapshotError> {
        for (which, countdown) in [
            ("transmit", self.uart_tx_countdown),
            ("receive", self.uart_rx_countdown),
        ] {
            if let Some(c) = countdown.filter(|&c| c > UART_CYCLES_PER_BYTE) {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "UART {which} countdown {c} exceeds the {UART_CYCLES_PER_BYTE}-cycle byte time"
                    ),
                });
            }
        }
        Ok(())
    }
}
