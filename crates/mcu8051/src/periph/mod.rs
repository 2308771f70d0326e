//! Platform peripherals around the 8051 core.
//!
//! Paper §4.2 and Fig. 4: "Cache controller and UART are located on the
//! 8051 Special Function Register (SFR) Bus (8-bit), while the other
//! peripherals (SPI, timer, watchdog, and SRAM controller) are accessed via
//! a custom bridge by means of a 16-bit bus." The UART is inside
//! [`crate::cpu::Cpu`] (as on real 8051s); everything else lives here:
//!
//! - the bridge SFR window ([`bridge_sfr`]) onto the 16-bit bus;
//! - [`Spi`] — master port with pluggable [`SpiSlave`] (e.g. the boot
//!   [`SpiEeprom`]);
//! - [`Watchdog`] — safety timer with kick/expiry;
//! - [`SramController`] — captures real-time DSP samples into the 512 Kbit
//!   prototype SRAM for later read-back (§4.2);
//! - [`CacheController`] — program-memory write path for software download
//!   ("newer software versions could be downloaded and tested");
//! - [`SystemBus`] — composes all of the above into the CPU's
//!   [`crate::cpu::ExternalBus`].
//!
//! One file per device: `spi.rs`, `watchdog.rs`, `sram.rs` and `cache.rs`;
//! this one holds the bus trait, the address maps and the bus itself.

mod cache;
mod spi;
mod sram;
mod watchdog;

pub use cache::CacheController;
pub use spi::{Spi, SpiEeprom, SpiSlave};
pub use sram::SramController;
pub use watchdog::Watchdog;

use crate::cpu::ExternalBus;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// A device on the bridged 16-bit peripheral bus.
pub trait Bus16Device {
    /// Reads register `reg` (device-local address).
    fn read16(&mut self, reg: u8) -> u16;

    /// Writes register `reg`.
    fn write16(&mut self, reg: u8, value: u16);
}

/// SFR addresses of the bridge window.
pub mod bridge_sfr {
    /// Peripheral-bus address register.
    pub const ADDR: u8 = 0xa1;
    /// Data low byte.
    pub const DATA_LO: u8 = 0xa2;
    /// Data high byte.
    pub const DATA_HI: u8 = 0xa3;
    /// Control/strobe: write 1 = read strobe, 2 = write strobe.
    pub const CTRL: u8 = 0xa4;
}

/// SFR addresses of the cache/program-download controller.
pub mod cache_sfr {
    /// Program-memory write address, low byte.
    pub const ADDR_LO: u8 = 0x91;
    /// Program-memory write address, high byte.
    pub const ADDR_HI: u8 = 0x92;
    /// Data byte; writing strobes the program write and auto-increments.
    pub const DATA: u8 = 0x93;
    /// Status: bit 0 = ready.
    pub const STATUS: u8 = 0x94;
}

/// Peripheral-bus address map (high nibble of the bridge address).
pub mod map {
    /// SPI master: 0x00..=0x0f.
    pub const SPI_BASE: u8 = 0x00;
    /// Watchdog: 0x10..=0x1f.
    pub const WDOG_BASE: u8 = 0x10;
    /// SRAM controller: 0x20..=0x2f.
    pub const SRAM_BASE: u8 = 0x20;
    /// Platform/DSP registers: 0x40 and up (mapped by the platform crate).
    pub const DSP_BASE: u8 = 0x40;
}

/// The composed external bus: bridge + cache controller on the SFR side,
/// SRAM bytes on the XDATA side, SPI/watchdog/SRAM/DSP on the 16-bit bus.
pub struct SystemBus {
    /// SPI master (EEPROM attaches here).
    pub spi: Spi,
    /// Safety watchdog.
    pub watchdog: Watchdog,
    /// Prototype capture SRAM.
    pub sram: SramController,
    /// Program-download path.
    pub cache: CacheController,
    /// Platform/DSP register window (addresses ≥ [`map::DSP_BASE`]).
    pub dsp: Option<Box<dyn Bus16Device>>,
    bridge_addr: u8,
    bridge_data: u16,
}

impl std::fmt::Debug for SystemBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBus")
            .field("spi", &self.spi)
            .field("watchdog", &self.watchdog)
            .field("bridge_addr", &self.bridge_addr)
            .field("bridge_data", &self.bridge_data)
            .finish()
    }
}

impl Default for SystemBus {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBus {
    /// Creates the bus with default peripherals and no DSP window.
    #[must_use]
    pub fn new() -> Self {
        Self {
            spi: Spi::new(),
            watchdog: Watchdog::new(),
            sram: SramController::new(),
            cache: CacheController::new(),
            dsp: None,
            bridge_addr: 0,
            bridge_data: 0,
        }
    }

    /// Serializes the bridge latches and all owned peripherals.
    ///
    /// The DSP window ([`SystemBus::dsp`]) is platform-owned glue and is
    /// serialized by the platform alongside the DSP register bank itself,
    /// not here.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.leaf("brdg", |w| {
            w.put_u8(self.bridge_addr);
            w.put_u16(self.bridge_data);
        });
        w.leaf("spi ", |w| self.spi.save_state(w));
        w.leaf("wdog", |w| self.watchdog.save_state(w));
        w.leaf("sram", |w| self.sram.save_state(w));
        w.leaf("cach", |w| self.cache.save_state(w));
    }

    /// Restores state saved by [`SystemBus::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] from any peripheral section.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let (addr, data) = r.leaf("brdg", |r| Ok((r.take_u8()?, r.take_u16()?)))?;
        self.bridge_addr = addr;
        self.bridge_data = data;
        let spi = &mut self.spi;
        r.leaf("spi ", |r| spi.load_state(r))?;
        let watchdog = &mut self.watchdog;
        r.leaf("wdog", |r| watchdog.load_state(r))?;
        let sram = &mut self.sram;
        r.leaf("sram", |r| sram.load_state(r))?;
        let cache = &mut self.cache;
        r.leaf("cach", |r| cache.load_state(r))?;
        Ok(())
    }

    fn bus16_read(&mut self, addr: u8) -> u16 {
        let reg = addr & 0x0f;
        match addr & 0xf0 {
            0x00 => self.spi.read16(reg),
            0x10 => self.watchdog.read16(reg),
            0x20 => self.sram.read16(reg),
            _ if addr >= map::DSP_BASE => self
                .dsp
                .as_mut()
                .map_or(0xffff, |d| d.read16(addr - map::DSP_BASE)),
            _ => 0xffff,
        }
    }

    fn bus16_write(&mut self, addr: u8, value: u16) {
        let reg = addr & 0x0f;
        match addr & 0xf0 {
            0x00 => self.spi.write16(reg, value),
            0x10 => self.watchdog.write16(reg, value),
            0x20 => self.sram.write16(reg, value),
            _ if addr >= map::DSP_BASE => {
                if let Some(d) = self.dsp.as_mut() {
                    d.write16(addr - map::DSP_BASE, value);
                }
            }
            _ => {}
        }
    }
}

impl ExternalBus for SystemBus {
    fn sfr_read(&mut self, addr: u8) -> Option<u8> {
        match addr {
            bridge_sfr::ADDR => Some(self.bridge_addr),
            bridge_sfr::DATA_LO => Some(self.bridge_data as u8),
            bridge_sfr::DATA_HI => Some((self.bridge_data >> 8) as u8),
            bridge_sfr::CTRL => Some(0),
            _ => self.cache.sfr_read(addr),
        }
    }

    fn sfr_write(&mut self, addr: u8, value: u8) -> bool {
        match addr {
            bridge_sfr::ADDR => {
                self.bridge_addr = value;
                true
            }
            bridge_sfr::DATA_LO => {
                self.bridge_data = (self.bridge_data & 0xff00) | value as u16;
                true
            }
            bridge_sfr::DATA_HI => {
                self.bridge_data = (self.bridge_data & 0x00ff) | ((value as u16) << 8);
                true
            }
            bridge_sfr::CTRL => {
                match value {
                    1 => self.bridge_data = self.bus16_read(self.bridge_addr),
                    2 => self.bus16_write(self.bridge_addr, self.bridge_data),
                    _ => {}
                }
                true
            }
            _ => self.cache.sfr_write(addr, value),
        }
    }

    fn xdata_read(&mut self, addr: u16) -> u8 {
        self.sram.read_byte(addr)
    }

    fn xdata_write(&mut self, addr: u16, value: u8) {
        self.sram.write_byte(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_roundtrip_to_sram_controller() {
        let mut bus = SystemBus::new();
        // Write SRAM controller READ_ADDR (reg 2 at base 0x20) via bridge.
        bus.sfr_write(bridge_sfr::ADDR, 0x22);
        bus.sfr_write(bridge_sfr::DATA_LO, 0x34);
        bus.sfr_write(bridge_sfr::DATA_HI, 0x12);
        bus.sfr_write(bridge_sfr::CTRL, 2); // write strobe
                                            // Read it back.
        bus.sfr_write(bridge_sfr::CTRL, 1); // read strobe
        assert_eq!(bus.sfr_read(bridge_sfr::DATA_LO), Some(0x34));
        assert_eq!(bus.sfr_read(bridge_sfr::DATA_HI), Some(0x12));
    }

    #[test]
    fn sram_capture_and_readback() {
        let mut sram = SramController::new();
        sram.write16(0, 0b11); // enable + reset pointer
        for k in 0..100u16 {
            sram.capture(k * 3);
        }
        assert_eq!(sram.count(), 100);
        sram.write16(2, 42);
        assert_eq!(sram.read16(3), 126);
        assert_eq!(sram.samples()[99], 297);
    }

    #[test]
    fn sram_capture_disabled_by_default() {
        let mut sram = SramController::new();
        sram.capture(7);
        assert_eq!(sram.count(), 0);
    }

    #[test]
    fn sram_wraps_and_reports_full() {
        let mut sram = SramController::new();
        sram.write16(0, 0b11);
        for k in 0..(SramController::CAPACITY + 5) {
            sram.capture(k as u16);
        }
        assert_eq!(sram.count(), SramController::CAPACITY);
    }

    #[test]
    fn sram_byte_access() {
        let mut sram = SramController::new();
        sram.write_byte(10, 0xcd);
        sram.write_byte(11, 0xab);
        assert_eq!(sram.read_byte(10), 0xcd);
        assert_eq!(sram.read_byte(11), 0xab);
        assert_eq!(sram.memory[5], 0xabcd);
    }

    #[test]
    fn watchdog_expires_without_kick() {
        let mut w = Watchdog::new();
        w.write16(1, 100); // reload
        w.write16(0, 1); // enable
        assert!(!w.tick(50));
        assert!(w.tick(60));
        assert!(w.expired());
        assert_eq!(w.expirations(), 1);
    }

    #[test]
    fn watchdog_kick_prevents_expiry() {
        let mut w = Watchdog::new();
        w.write16(1, 100);
        w.write16(0, 1);
        for _ in 0..20 {
            assert!(!w.tick(50));
            w.write16(2, 0); // kick
        }
        assert!(!w.expired());
    }

    #[test]
    fn watchdog_clear_expired_flag() {
        let mut w = Watchdog::new();
        w.write16(1, 10);
        w.write16(0, 1);
        w.tick(20);
        assert!(w.expired());
        w.write16(3, 1);
        assert!(!w.expired());
    }

    #[test]
    fn watchdog_disabled_never_expires() {
        let mut w = Watchdog::new();
        w.write16(1, 1);
        assert!(!w.tick(1_000_000));
    }

    #[test]
    fn watchdog_auto_reset_default_and_ctrl_bit1() {
        let mut w = Watchdog::new();
        assert!(w.auto_reset());
        w.write16(0, 1); // classic enable keeps auto-reset
        assert!(w.auto_reset());
        assert_eq!(w.read16(0), 1);
        w.write16(0, 1 | 2); // bit1 suppresses the CPU reset
        assert!(w.is_enabled());
        assert!(!w.auto_reset());
        assert_eq!(w.read16(0), 3);
        w.write16(0, 1);
        assert!(w.auto_reset());
    }

    #[test]
    fn watchdog_counts_one_expiry_per_trip() {
        let mut w = Watchdog::new();
        w.write16(1, 100);
        w.write16(0, 1);
        // A single long stall trips the dog exactly once; the counter
        // reloads so the next trip needs another full timeout.
        assert!(w.tick(150));
        assert_eq!(w.expirations(), 1);
        assert!(!w.tick(50));
        assert_eq!(w.expirations(), 1);
        assert!(w.tick(60));
        assert_eq!(w.expirations(), 2);
    }

    #[test]
    fn spi_fault_corrupts_and_counts() {
        let mut spi = Spi::new();
        assert_eq!(spi.line_errors(), 0);
        spi.set_fault(1.0, 7);
        // No slave attached: clean bus reads 0xff, corruption flips a bit.
        assert_eq!(spi.probe(), Some(false));
        assert_eq!(spi.line_errors(), 1);
        spi.clear_fault();
        assert_eq!(spi.probe(), Some(true));
        assert_eq!(spi.line_errors(), 1);
    }

    #[test]
    fn eeprom_read_write_cycle() {
        let mut e = SpiEeprom::new(1024);
        e.load(&[0xaa, 0xbb, 0xcc]);
        // READ from address 1.
        e.set_selected(true);
        e.transfer(SpiEeprom::CMD_READ);
        e.transfer(0x00);
        e.transfer(0x01);
        assert_eq!(e.transfer(0), 0xbb);
        assert_eq!(e.transfer(0), 0xcc);
        e.set_selected(false);
        // WRITE without WREN is ignored.
        e.set_selected(true);
        e.transfer(SpiEeprom::CMD_WRITE);
        e.transfer(0x00);
        e.transfer(0x00);
        e.transfer(0x11);
        e.set_selected(false);
        assert_eq!(e.memory()[0], 0xaa);
        // WREN then WRITE works.
        e.set_selected(true);
        e.transfer(SpiEeprom::CMD_WREN);
        e.set_selected(false);
        e.set_selected(true);
        e.transfer(SpiEeprom::CMD_WRITE);
        e.transfer(0x00);
        e.transfer(0x00);
        e.transfer(0x11);
        e.set_selected(false);
        assert_eq!(e.memory()[0], 0x11);
    }

    #[test]
    fn eeprom_rdsr_reflects_wren() {
        let mut e = SpiEeprom::new(64);
        e.set_selected(true);
        e.transfer(SpiEeprom::CMD_RDSR);
        assert_eq!(e.transfer(0), 0, "status on the byte after the opcode");
        e.set_selected(false);
        e.set_selected(true);
        e.transfer(SpiEeprom::CMD_WREN);
        e.set_selected(false);
        e.set_selected(true);
        e.transfer(SpiEeprom::CMD_RDSR);
        assert_eq!(e.transfer(0), 0b10);
    }

    #[test]
    fn spi_master_talks_to_eeprom() {
        let mut spi = Spi::new();
        let mut rom = SpiEeprom::new(256);
        rom.load(&[0x42]);
        spi.attach(Box::new(rom));
        spi.write16(0, 1); // CS
        spi.write16(1, SpiEeprom::CMD_READ as u16);
        spi.write16(1, 0);
        spi.write16(1, 0);
        spi.write16(1, 0);
        assert_eq!(spi.read16(1), 0x42);
        spi.write16(0, 0);
        assert_eq!(spi.transfers(), 4);
    }

    #[test]
    fn spi_without_slave_floats_high() {
        let mut spi = Spi::new();
        spi.write16(0, 1);
        spi.write16(1, 0x55);
        assert_eq!(spi.read16(1), 0xff);
    }

    #[test]
    fn cache_controller_queues_writes() {
        let mut c = CacheController::new();
        c.sfr_write(cache_sfr::ADDR_LO, 0x00);
        c.sfr_write(cache_sfr::ADDR_HI, 0x10);
        c.sfr_write(cache_sfr::DATA, 0xde);
        c.sfr_write(cache_sfr::DATA, 0xad);
        let writes = c.take_writes();
        assert_eq!(writes, vec![(0x1000, 0xde), (0x1001, 0xad)]);
        assert_eq!(c.total_written(), 2);
        assert!(c.take_writes().is_empty());
    }

    #[test]
    fn xdata_maps_to_sram() {
        let mut bus = SystemBus::new();
        bus.xdata_write(100, 0x5a);
        assert_eq!(bus.xdata_read(100), 0x5a);
    }
}
