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

use crate::cpu::ExternalBus;
use ascp_sim::noise::Rng64;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use std::collections::VecDeque;

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

/// SPI slave device (e.g. an EEPROM) seen by the [`Spi`] master.
pub trait SpiSlave {
    /// Full-duplex byte transfer while selected.
    fn transfer(&mut self, mosi: u8) -> u8;

    /// Chip-select edge; `false` = deselected (command boundary).
    fn set_selected(&mut self, selected: bool);

    /// Serializes slave-internal state for platform checkpointing.
    ///
    /// The default writes nothing — correct only for stateless slaves.
    /// Slaves with memory or a command state machine (e.g. [`SpiEeprom`])
    /// must override both hooks symmetrically.
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }

    /// Restores state written by [`SpiSlave::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Ok(())
    }
}

/// SPI master registers (device-local): 0 = CTRL (bit0 CS), 1 = DATA
/// (write: start transfer; read: last response), 2 = STATUS (bit0 done).
#[derive(Default)]
pub struct Spi {
    slave: Option<Box<dyn SpiSlave>>,
    cs: bool,
    last_rx: u8,
    transfers: u64,
    /// Injected line fault: per-byte corruption probability and generator.
    fault: Option<(f64, Rng64)>,
    /// Transfers whose response byte the controller's parity/CRC check
    /// flagged (monotonic).
    line_errors: u64,
}

impl std::fmt::Debug for Spi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spi")
            .field("cs", &self.cs)
            .field("last_rx", &self.last_rx)
            .field("transfers", &self.transfers)
            .field("line_errors", &self.line_errors)
            .finish()
    }
}

impl Spi {
    /// Creates a master with no slave attached (reads float 0xFF).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a slave device.
    pub fn attach(&mut self, slave: Box<dyn SpiSlave>) {
        self.slave = Some(slave);
    }

    /// Total byte transfers performed.
    #[must_use]
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Fault injection: corrupts transferred bytes with per-byte
    /// probability `rate`, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]`.
    pub fn set_fault(&mut self, rate: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&rate), "corruption rate {rate}");
        self.fault = Some((rate, Rng64::new(seed)));
    }

    /// Removes an injected line fault.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Transfers flagged corrupt by the controller's parity check
    /// (single-bit flips always detect). Monotonic.
    #[must_use]
    pub fn line_errors(&self) -> u64 {
        self.line_errors
    }

    /// Supervisor line probe: when the bus is idle (CS deselected), clocks
    /// one harmless `0x00` byte through a transient select and checks the
    /// `0xff` fill the slave (or open bus) returns. Returns `None` when a
    /// firmware transaction is in flight (the probe never interferes), or
    /// `Some(clean)` with the probe verdict.
    pub fn probe(&mut self) -> Option<bool> {
        if self.cs {
            return None;
        }
        if let Some(s) = self.slave.as_mut() {
            s.set_selected(true);
        }
        let rx = self.raw_transfer(0x00);
        if let Some(s) = self.slave.as_mut() {
            s.set_selected(false);
        }
        Some(rx == 0xff)
    }

    /// Serializes controller state and (via its [`SpiSlave::save_state`]
    /// hook) the attached slave.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_bool(self.cs);
        w.put_u8(self.last_rx);
        w.put_u64(self.transfers);
        w.put_bool(self.fault.is_some());
        if let Some((rate, rng)) = &self.fault {
            w.put_f64(*rate);
            rng.save_state(w);
        }
        w.put_u64(self.line_errors);
        w.put_bool(self.slave.is_some());
        if let Some(slave) = &self.slave {
            slave.save_state(w);
        }
    }

    /// Restores state saved by [`Spi::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the snapshot's slave presence
    /// does not match this controller, or on out-of-range fields.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.cs = r.take_bool()?;
        self.last_rx = r.take_u8()?;
        self.transfers = r.take_u64()?;
        if r.take_bool()? {
            let rate = r.take_f64()?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(SnapshotError::Corrupt {
                    context: format!("SPI fault rate {rate} outside [0, 1]"),
                });
            }
            let mut rng = Rng64::new(1);
            rng.load_state(r)?;
            self.fault = Some((rate, rng));
        } else {
            self.fault = None;
        }
        self.line_errors = r.take_u64()?;
        let has_slave = r.take_bool()?;
        if has_slave != self.slave.is_some() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "SPI snapshot slave presence {has_slave}, controller has slave: {}",
                    self.slave.is_some()
                ),
            });
        }
        if let Some(slave) = self.slave.as_mut() {
            slave.load_state(r)?;
        }
        Ok(())
    }

    /// One byte on the wire, applying an injected fault to the response.
    fn raw_transfer(&mut self, mosi: u8) -> u8 {
        self.transfers += 1;
        let mut rx = self.slave.as_mut().map_or(0xff, |s| s.transfer(mosi));
        if let Some((rate, rng)) = &mut self.fault {
            if rng.next_f64() < *rate {
                rx ^= 1 << (rng.next_u64() % 8);
                self.line_errors += 1;
            }
        }
        self.last_rx = rx;
        rx
    }
}

impl Bus16Device for Spi {
    fn read16(&mut self, reg: u8) -> u16 {
        match reg {
            0 => u16::from(self.cs),
            1 => self.last_rx as u16,
            2 => 1, // transfers complete immediately in this model
            _ => 0xffff,
        }
    }

    fn write16(&mut self, reg: u8, value: u16) {
        match reg {
            0 => {
                let cs = value & 1 != 0;
                if cs != self.cs {
                    self.cs = cs;
                    if let Some(s) = self.slave.as_mut() {
                        s.set_selected(cs);
                    }
                }
            }
            1 if self.cs => {
                let _ = self.raw_transfer(value as u8);
            }
            _ => {}
        }
    }
}

/// 25xx-series SPI EEPROM (READ/WRITE/WREN/RDSR), used for "reboot directly
/// from EEPROM instead of downloading each time after reset" (§4.2).
#[derive(Debug, Clone)]
pub struct SpiEeprom {
    memory: Vec<u8>,
    /// Command state machine.
    state: EepromState,
    write_enabled: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EepromState {
    Idle,
    AddrHi(u8),
    AddrLo {
        cmd: u8,
        hi: u8,
    },
    Stream {
        cmd: u8,
        addr: u16,
    },
    /// RDSR selected: every following byte returns the status register.
    Status,
}

impl SpiEeprom {
    /// READ command.
    pub const CMD_READ: u8 = 0x03;
    /// WRITE command.
    pub const CMD_WRITE: u8 = 0x02;
    /// Write-enable command.
    pub const CMD_WREN: u8 = 0x06;
    /// Read-status command.
    pub const CMD_RDSR: u8 = 0x05;

    /// Creates an EEPROM of `size` bytes filled with 0xFF.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds 64 KiB.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size > 0 && size <= 0x1_0000, "EEPROM size out of range");
        Self {
            memory: vec![0xff; size],
            state: EepromState::Idle,
            write_enabled: false,
        }
    }

    /// Pre-loads an image at offset 0 (factory programming).
    ///
    /// # Panics
    ///
    /// Panics if the image is larger than the EEPROM.
    pub fn load(&mut self, image: &[u8]) {
        assert!(image.len() <= self.memory.len(), "image larger than EEPROM");
        self.memory[..image.len()].copy_from_slice(image);
    }

    /// Direct memory view (verification).
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        &self.memory
    }
}

impl SpiSlave for SpiEeprom {
    /// Serializes the memory array, command state machine and WREN latch.
    fn save_state(&self, w: &mut StateWriter) {
        w.put_u8_slice(&self.memory);
        match self.state {
            EepromState::Idle => w.put_u8(0),
            EepromState::AddrHi(cmd) => {
                w.put_u8(1);
                w.put_u8(cmd);
            }
            EepromState::AddrLo { cmd, hi } => {
                w.put_u8(2);
                w.put_u8(cmd);
                w.put_u8(hi);
            }
            EepromState::Stream { cmd, addr } => {
                w.put_u8(3);
                w.put_u8(cmd);
                w.put_u16(addr);
            }
            EepromState::Status => w.put_u8(4),
        }
        w.put_bool(self.write_enabled);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let memory = r.take_u8_vec()?;
        if memory.len() != self.memory.len() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "EEPROM snapshot of {} bytes, device has {}",
                    memory.len(),
                    self.memory.len()
                ),
            });
        }
        self.memory = memory;
        self.state = match r.take_u8()? {
            0 => EepromState::Idle,
            1 => EepromState::AddrHi(r.take_u8()?),
            2 => EepromState::AddrLo {
                cmd: r.take_u8()?,
                hi: r.take_u8()?,
            },
            3 => EepromState::Stream {
                cmd: r.take_u8()?,
                addr: r.take_u16()?,
            },
            4 => EepromState::Status,
            tag => {
                return Err(SnapshotError::Corrupt {
                    context: format!("unknown EEPROM state tag {tag}"),
                })
            }
        };
        self.write_enabled = r.take_bool()?;
        Ok(())
    }

    fn transfer(&mut self, mosi: u8) -> u8 {
        match self.state {
            EepromState::Idle => {
                match mosi {
                    Self::CMD_READ | Self::CMD_WRITE => {
                        self.state = EepromState::AddrHi(mosi);
                    }
                    Self::CMD_WREN => self.write_enabled = true,
                    // Real 25xx parts shift the status out on the byte
                    // *after* the RDSR opcode.
                    Self::CMD_RDSR => self.state = EepromState::Status,
                    _ => {}
                }
                0xff
            }
            EepromState::AddrHi(cmd) => {
                self.state = EepromState::AddrLo { cmd, hi: mosi };
                0xff
            }
            EepromState::AddrLo { cmd, hi } => {
                self.state = EepromState::Stream {
                    cmd,
                    addr: u16::from_be_bytes([hi, mosi]),
                };
                0xff
            }
            EepromState::Status => u8::from(self.write_enabled) << 1,
            EepromState::Stream { cmd, addr } => {
                let idx = addr as usize % self.memory.len();
                let out = if cmd == Self::CMD_READ {
                    self.memory[idx]
                } else {
                    if self.write_enabled {
                        self.memory[idx] = mosi;
                    }
                    0xff
                };
                self.state = EepromState::Stream {
                    cmd,
                    addr: addr.wrapping_add(1),
                };
                out
            }
        }
    }

    fn set_selected(&mut self, selected: bool) {
        if !selected {
            // Command boundary; WREN latches until a write completes.
            if matches!(
                self.state,
                EepromState::Stream {
                    cmd: Self::CMD_WRITE,
                    ..
                }
            ) {
                self.write_enabled = false;
            }
            self.state = EepromState::Idle;
        }
    }
}

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
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.enabled = r.take_bool()?;
        self.reload = r.take_u16()?;
        self.counter = r.take_u32()?;
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

/// SRAM capture controller: stores a real-time stream of 16-bit DSP samples
/// into the 512 Kbit (64 KiB = 32 Ki-sample) prototype SRAM "with chance of
/// later read-back for analysis purposes" (§4.2).
///
/// Registers: 0 = CTRL (bit0 capture enable, bit1 reset write pointer),
/// 1 = COUNT (samples captured), 2 = READ_ADDR, 3 = READ_DATA.
#[derive(Debug, Clone)]
pub struct SramController {
    memory: Vec<u16>,
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

    /// Serializes the SRAM contents and capture-pointer state.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u16_slice(&self.memory);
        w.put_u32(self.write_ptr as u32);
        w.put_bool(self.capturing);
        w.put_u16(self.read_addr);
        w.put_bool(self.wrapped);
    }

    /// Restores state saved by [`SramController::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] on a capacity mismatch or an
    /// out-of-range write pointer.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let memory = r.take_u16_vec()?;
        if memory.len() != self.memory.len() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "SRAM snapshot of {} samples, controller has {}",
                    memory.len(),
                    self.memory.len()
                ),
            });
        }
        self.memory = memory;
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

    fn sfr_read(&mut self, addr: u8) -> Option<u8> {
        match addr {
            cache_sfr::ADDR_LO => Some(self.addr as u8),
            cache_sfr::ADDR_HI => Some((self.addr >> 8) as u8),
            cache_sfr::STATUS => Some(1),
            _ => None,
        }
    }

    fn sfr_write(&mut self, addr: u8, value: u8) -> bool {
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
