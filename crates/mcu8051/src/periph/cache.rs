//! Cache / program-download controller on the SFR bus.

use super::cache_sfr;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use std::collections::VecDeque;

/// Cache / program-download controller on the SFR bus.
///
/// The 'prototype' platform variant boots from a 1 KiB ROM that downloads
/// application code over UART/SPI into program RAM (§4.2). Writes to
/// [`cache_sfr::DATA`] queue `(address, byte)` pairs; the platform applies
/// them to the CPU's code memory between instructions (the "2-wire
/// protocol" to external RAM abstracted to its effect).
#[derive(Debug, Clone, Default)]
pub struct CacheController {
    addr: u16,
    pending: VecDeque<(u16, u8)>,
    total_written: u32,
}

impl CacheController {
    /// Creates the controller.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains queued program-memory writes.
    #[inline]
    pub fn take_writes(&mut self) -> Vec<(u16, u8)> {
        self.pending.drain(..).collect()
    }

    /// Total bytes downloaded since reset.
    #[must_use]
    pub fn total_written(&self) -> u32 {
        self.total_written
    }

    /// Serializes the write address, pending queue and byte counter.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u16(self.addr);
        w.put_u32(self.pending.len() as u32);
        for &(addr, byte) in &self.pending {
            w.put_u16(addr);
            w.put_u8(byte);
        }
        w.put_u32(self.total_written);
    }

    /// Restores state saved by [`CacheController::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.addr = r.take_u16()?;
        // Each queued write is 3 bytes.
        let n = r.take_count(3, "cache-controller queue")?;
        let mut pending = VecDeque::with_capacity(n);
        for _ in 0..n {
            let addr = r.take_u16()?;
            let byte = r.take_u8()?;
            pending.push_back((addr, byte));
        }
        self.pending = pending;
        self.total_written = r.take_u32()?;
        Ok(())
    }

    pub(super) fn sfr_read(&mut self, addr: u8) -> Option<u8> {
        match addr {
            cache_sfr::ADDR_LO => Some(self.addr as u8),
            cache_sfr::ADDR_HI => Some((self.addr >> 8) as u8),
            cache_sfr::STATUS => Some(1),
            _ => None,
        }
    }

    pub(super) fn sfr_write(&mut self, addr: u8, value: u8) -> bool {
        match addr {
            cache_sfr::ADDR_LO => {
                self.addr = (self.addr & 0xff00) | value as u16;
                true
            }
            cache_sfr::ADDR_HI => {
                self.addr = (self.addr & 0x00ff) | ((value as u16) << 8);
                true
            }
            cache_sfr::DATA => {
                self.pending.push_back((self.addr, value));
                self.addr = self.addr.wrapping_add(1);
                self.total_written += 1;
                true
            }
            _ => false,
        }
    }
}
