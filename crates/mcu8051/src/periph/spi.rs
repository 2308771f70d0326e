//! SPI master on the bridged 16-bit bus and the boot EEPROM behind it.

use super::Bus16Device;
use ascp_sim::noise::Rng64;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

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
