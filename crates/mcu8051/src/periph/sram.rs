//! SRAM capture controller on the bridged 16-bit bus.

use super::Bus16Device;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// SRAM capture controller: stores a real-time stream of 16-bit DSP samples
/// into the 512 Kbit (64 KiB = 32 Ki-sample) prototype SRAM "with chance of
/// later read-back for analysis purposes" (§4.2).
///
/// Registers: 0 = CTRL (bit0 capture enable, bit1 reset write pointer),
/// 1 = COUNT (samples captured), 2 = READ_ADDR, 3 = READ_DATA.
#[derive(Debug, Clone)]
pub struct SramController {
    pub(super) memory: Vec<u16>,
    write_ptr: usize,
    capturing: bool,
    read_addr: u16,
    wrapped: bool,
}

impl Default for SramController {
    fn default() -> Self {
        Self::new()
    }
}

impl SramController {
    /// Number of 16-bit samples in the 512 Kbit SRAM.
    pub const CAPACITY: usize = 32 * 1024;

    /// Creates the controller with capture disabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            memory: vec![0; Self::CAPACITY],
            write_ptr: 0,
            capturing: false,
            read_addr: 0,
            wrapped: false,
        }
    }

    /// Hardware-side capture of one DSP sample (called at the DSP rate).
    pub fn capture(&mut self, sample: u16) {
        if !self.capturing {
            return;
        }
        self.memory[self.write_ptr] = sample;
        self.write_ptr += 1;
        if self.write_ptr == self.memory.len() {
            self.write_ptr = 0;
            self.wrapped = true;
        }
    }

    /// Number of valid samples.
    #[must_use]
    pub fn count(&self) -> usize {
        if self.wrapped {
            self.memory.len()
        } else {
            self.write_ptr
        }
    }

    /// Direct sample view (host-side analysis).
    #[must_use]
    pub fn samples(&self) -> &[u16] {
        &self.memory[..self.count()]
    }

    /// Raw byte view of the SRAM for MOVX access (address = sample*2).
    #[must_use]
    pub fn read_byte(&self, addr: u16) -> u8 {
        let sample = self.memory[(addr as usize / 2) % self.memory.len()];
        if addr.is_multiple_of(2) {
            sample as u8
        } else {
            (sample >> 8) as u8
        }
    }

    /// Serializes the SRAM words up to the last non-zero one (the rest
    /// reads zero) and the capture-pointer state.
    pub fn save_state(&self, w: &mut StateWriter) {
        let used = self
            .memory
            .iter()
            .rposition(|&x| x != 0)
            .map_or(0, |i| i + 1);
        w.put_u16_slice(&self.memory[..used]);
        w.put_u32(self.write_ptr as u32);
        w.put_bool(self.capturing);
        w.put_u16(self.read_addr);
        w.put_bool(self.wrapped);
    }

    /// Restores state saved by [`SramController::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] on more words than the SRAM
    /// holds or an out-of-range write pointer.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let used = r.take_u16_vec()?;
        if used.len() > self.memory.len() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "SRAM snapshot of {} samples, controller has {}",
                    used.len(),
                    self.memory.len()
                ),
            });
        }
        self.memory[..used.len()].copy_from_slice(&used);
        self.memory[used.len()..].fill(0);
        let write_ptr = r.take_u32()? as usize;
        if write_ptr >= self.memory.len() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "SRAM write pointer {write_ptr} outside capacity {}",
                    self.memory.len()
                ),
            });
        }
        self.write_ptr = write_ptr;
        self.capturing = r.take_bool()?;
        self.read_addr = r.take_u16()?;
        self.wrapped = r.take_bool()?;
        Ok(())
    }

    /// Byte write (MOVX path; general-purpose external RAM use).
    pub fn write_byte(&mut self, addr: u16, value: u8) {
        let idx = (addr as usize / 2) % self.memory.len();
        let cur = self.memory[idx];
        self.memory[idx] = if addr.is_multiple_of(2) {
            (cur & 0xff00) | value as u16
        } else {
            (cur & 0x00ff) | ((value as u16) << 8)
        };
    }
}

impl Bus16Device for SramController {
    fn read16(&mut self, reg: u8) -> u16 {
        match reg {
            0 => u16::from(self.capturing),
            1 => self.count().min(u16::MAX as usize) as u16,
            2 => self.read_addr,
            3 => self.memory[self.read_addr as usize % self.memory.len()],
            _ => 0xffff,
        }
    }

    fn write16(&mut self, reg: u8, value: u16) {
        match reg {
            0 => {
                self.capturing = value & 1 != 0;
                if value & 2 != 0 {
                    self.write_ptr = 0;
                    self.wrapped = false;
                }
            }
            2 => self.read_addr = value,
            _ => {}
        }
    }
}
