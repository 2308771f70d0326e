//! Safety watchdog on the bridged 16-bit bus.

use super::Bus16Device;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// Watchdog registers: 0 = CTRL (bit0 enable, bit1 *suppress* the
/// automatic CPU reset on expiry — clear by default so enabling with
/// `CTRL = 1` keeps the classic reset-on-expiry behaviour), 1 = RELOAD
/// (ticks), 2 = KICK (write anything), 3 = STATUS (bit0 expired,
/// write-1-to-clear).
#[derive(Debug, Clone)]
pub struct Watchdog {
    enabled: bool,
    reload: u16,
    counter: u32,
    expired: bool,
    expirations: u32,
    /// When `false` (CTRL bit1 set) an expiry only latches STATUS; the
    /// platform must not reset the CPU (interrupt-style watchdog).
    auto_reset: bool,
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl Watchdog {
    /// Creates a disabled watchdog with a 50 000-tick reload.
    #[must_use]
    pub fn new() -> Self {
        Self {
            enabled: false,
            reload: 50_000,
            counter: 50_000,
            expired: false,
            expirations: 0,
            auto_reset: true,
        }
    }

    /// Advances by `ticks` machine cycles; returns `true` on expiry.
    pub fn tick(&mut self, ticks: u32) -> bool {
        if !self.enabled {
            return false;
        }
        if self.counter <= ticks {
            self.counter = self.reload as u32;
            self.expired = true;
            self.expirations += 1;
            return true;
        }
        self.counter -= ticks;
        false
    }

    /// Machine cycles until the armed dog expires (a [`Watchdog::tick`]
    /// totalling this many returns `true`); `None` while disabled.
    #[must_use]
    pub fn cycles_left(&self) -> Option<u32> {
        self.enabled.then_some(self.counter)
    }

    /// `true` if an expiry is latched.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.expired
    }

    /// Number of expirations since construction.
    #[must_use]
    pub fn expirations(&self) -> u32 {
        self.expirations
    }

    /// Whether the dog is armed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether an expiry should hardware-reset the CPU (CTRL bit1 clear).
    #[must_use]
    pub fn auto_reset(&self) -> bool {
        self.auto_reset
    }

    /// Configured reload value (machine cycles per timeout).
    #[must_use]
    pub fn reload(&self) -> u16 {
        self.reload
    }

    /// Serializes the full watchdog state.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_bool(self.enabled);
        w.put_u16(self.reload);
        w.put_u32(self.counter);
        w.put_bool(self.expired);
        w.put_u32(self.expirations);
        w.put_bool(self.auto_reset);
    }

    /// Restores state saved by [`Watchdog::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] for a reload of 0 or a counter
    /// outside `1..=reload`, which no run leaves (one would reset the CPU
    /// every step, the other disarm the dog); propagates other
    /// [`SnapshotError`]s on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.enabled = r.take_bool()?;
        let reload = r.take_u16()?;
        let counter = r.take_u32()?;
        if reload == 0 || !(1..=u32::from(reload)).contains(&counter) {
            return Err(SnapshotError::Corrupt {
                context: format!("watchdog counter {counter} outside 1..=reload {reload}"),
            });
        }
        self.reload = reload;
        self.counter = counter;
        self.expired = r.take_bool()?;
        self.expirations = r.take_u32()?;
        self.auto_reset = r.take_bool()?;
        Ok(())
    }
}

impl Bus16Device for Watchdog {
    fn read16(&mut self, reg: u8) -> u16 {
        match reg {
            0 => u16::from(self.enabled) | (u16::from(!self.auto_reset) << 1),
            1 => self.reload,
            3 => u16::from(self.expired),
            _ => 0xffff,
        }
    }

    fn write16(&mut self, reg: u8, value: u16) {
        match reg {
            0 => {
                self.enabled = value & 1 != 0;
                self.auto_reset = value & 2 == 0;
                self.counter = self.reload as u32;
            }
            1 => {
                self.reload = value.max(1);
                self.counter = self.reload as u32;
            }
            2 => self.counter = self.reload as u32, // kick
            3 if value & 1 != 0 => {
                self.expired = false;
            }
            _ => {}
        }
    }
}
