//! AFE configuration register file.
//!
//! "Each analog cell in the front end is digitally controlled" (§4.2): the
//! AFE exposes a bank of 16-bit registers written and read back over JTAG.
//! This module holds the register storage and the typed field accessors;
//! the platform glue (ascp-core) applies the values to the component
//! models, and the JTAG chain (ascp-jtag) moves the bits.

use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use std::error::Error;
use std::fmt;

/// Register addresses of the AFE bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AfeReg {
    /// Primary-channel PGA gain code (0..=9).
    PgaPrimaryGain = 0x00,
    /// Secondary-channel PGA gain code (0..=9).
    PgaSecondaryGain = 0x01,
    /// ADC resolution in bits (8..=16).
    AdcBits = 0x02,
    /// Anti-alias corner frequency in units of 100 Hz.
    AafCorner = 0x03,
    /// Primary drive DAC enable (bit 0) / secondary DAC enable (bit 1).
    DacEnable = 0x04,
    /// Excitation amplitude for generic sensors, millivolts.
    Excitation = 0x05,
    /// Die-temperature sensor readout (read-only, 0.1 °C units, offset
    /// +50 °C so −40 °C reads 100).
    TempSensor = 0x06,
    /// Status: bit 0 = references settled, bit 1 = ADC busy.
    Status = 0x07,
}

impl AfeReg {
    /// All registers in address order.
    pub const ALL: [AfeReg; 8] = [
        AfeReg::PgaPrimaryGain,
        AfeReg::PgaSecondaryGain,
        AfeReg::AdcBits,
        AfeReg::AafCorner,
        AfeReg::DacEnable,
        AfeReg::Excitation,
        AfeReg::TempSensor,
        AfeReg::Status,
    ];

    /// Register address.
    #[must_use]
    pub fn addr(self) -> u8 {
        self as u8
    }

    /// `true` if the register is writable from the digital side.
    #[must_use]
    pub fn is_writable(self) -> bool {
        !matches!(self, AfeReg::TempSensor | AfeReg::Status)
    }
}

/// Error writing an AFE register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteRegError {
    /// Address does not exist.
    UnknownAddress(u8),
    /// Register is read-only.
    ReadOnly(u8),
    /// Value outside the field's legal range.
    ValueOutOfRange {
        /// Register address.
        addr: u8,
        /// Rejected value.
        value: u16,
    },
}

impl fmt::Display for WriteRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownAddress(a) => write!(f, "unknown AFE register address {a:#04x}"),
            Self::ReadOnly(a) => write!(f, "AFE register {a:#04x} is read-only"),
            Self::ValueOutOfRange { addr, value } => {
                write!(f, "value {value} out of range for AFE register {addr:#04x}")
            }
        }
    }
}

impl Error for WriteRegError {}

/// The AFE register bank with reset defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AfeRegisterFile {
    values: [u16; 8],
    /// Successful configuration writes (telemetry; hardware-side
    /// temperature updates are not counted).
    writes: u64,
}

impl Default for AfeRegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

impl AfeRegisterFile {
    /// Creates the bank at reset defaults (×1 gains, 12-bit ADC, 30 kHz
    /// corner, DACs off, 2.5 V excitation).
    #[must_use]
    pub fn new() -> Self {
        let mut values = [0u16; 8];
        values[AfeReg::AdcBits.addr() as usize] = 12;
        values[AfeReg::AafCorner.addr() as usize] = 300; // 30 kHz
        values[AfeReg::Excitation.addr() as usize] = 2500;
        values[AfeReg::TempSensor.addr() as usize] = 750; // 25 °C
        values[AfeReg::Status.addr() as usize] = 0x0001;
        Self { values, writes: 0 }
    }

    /// Reads a register by typed name.
    #[must_use]
    pub fn read(&self, reg: AfeReg) -> u16 {
        self.values[reg.addr() as usize]
    }

    /// Reads by raw address (the JTAG path).
    ///
    /// # Errors
    ///
    /// Returns [`WriteRegError::UnknownAddress`] for addresses ≥ 8.
    pub fn read_addr(&self, addr: u8) -> Result<u16, WriteRegError> {
        self.values
            .get(addr as usize)
            .copied()
            .ok_or(WriteRegError::UnknownAddress(addr))
    }

    /// Writes a register by typed name, validating the field range.
    ///
    /// # Errors
    ///
    /// Returns [`WriteRegError::ReadOnly`] or
    /// [`WriteRegError::ValueOutOfRange`].
    pub fn write(&mut self, reg: AfeReg, value: u16) -> Result<(), WriteRegError> {
        if !reg.is_writable() {
            return Err(WriteRegError::ReadOnly(reg.addr()));
        }
        if !Self::in_range(reg, value) {
            return Err(WriteRegError::ValueOutOfRange {
                addr: reg.addr(),
                value,
            });
        }
        self.values[reg.addr() as usize] = value;
        self.writes += 1;
        Ok(())
    }

    /// `true` if `value` is legal for the writable field `reg`.
    fn in_range(reg: AfeReg, value: u16) -> bool {
        match reg {
            AfeReg::PgaPrimaryGain | AfeReg::PgaSecondaryGain => value <= 9,
            AfeReg::AdcBits => (8..=16).contains(&value),
            AfeReg::AafCorner => (1..=5000).contains(&value),
            AfeReg::DacEnable => value <= 0b11,
            AfeReg::Excitation => value <= 5000,
            AfeReg::TempSensor | AfeReg::Status => false,
        }
    }

    /// Writes by raw address (the JTAG path).
    ///
    /// # Errors
    ///
    /// Same as [`AfeRegisterFile::write`], plus
    /// [`WriteRegError::UnknownAddress`].
    pub fn write_addr(&mut self, addr: u8, value: u16) -> Result<(), WriteRegError> {
        let reg = AfeReg::ALL
            .into_iter()
            .find(|r| r.addr() == addr)
            .ok_or(WriteRegError::UnknownAddress(addr))?;
        self.write(reg, value)
    }

    /// Hardware-side update of the die-temperature readout.
    pub fn set_temp_sensor(&mut self, celsius: f64) {
        let code = ((celsius + 50.0) * 10.0).clamp(0.0, u16::MAX as f64) as u16;
        self.values[AfeReg::TempSensor.addr() as usize] = code;
    }

    /// Successful configuration writes since reset (telemetry).
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Die temperature decoded from the sensor register (°C).
    #[must_use]
    pub fn temp_celsius(&self) -> f64 {
        self.read(AfeReg::TempSensor) as f64 / 10.0 - 50.0
    }

    /// Number of registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false — the bank has fixed registers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serializes the register values (the bank's size is a constant and
    /// is not written) and the write counter.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.values.iter().for_each(|&v| w.put_u16(v));
        w.put_u64(self.writes);
    }

    /// Restores state saved by [`AfeRegisterFile::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if a writable register holds a
    /// value [`AfeRegisterFile::write`] would reject; propagates other
    /// [`SnapshotError`]s on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let mut values = self.values;
        for v in &mut values {
            *v = r.take_u16()?;
        }
        for reg in AfeReg::ALL.into_iter().filter(|r| r.is_writable()) {
            let value = values[reg.addr() as usize];
            if !Self::in_range(reg, value) {
                return Err(SnapshotError::Corrupt {
                    context: format!("AFE register {:#04x} holds {value}", reg.addr()),
                });
            }
        }
        self.values = values;
        self.writes = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let r = AfeRegisterFile::new();
        assert_eq!(r.read(AfeReg::AdcBits), 12);
        assert_eq!(r.read(AfeReg::PgaPrimaryGain), 0);
        assert!((r.temp_celsius() - 25.0).abs() < 0.05);
    }

    #[test]
    fn write_and_read_back() {
        let mut r = AfeRegisterFile::new();
        r.write(AfeReg::PgaSecondaryGain, 7).unwrap();
        assert_eq!(r.read(AfeReg::PgaSecondaryGain), 7);
    }

    #[test]
    fn rejects_out_of_range_gain() {
        let mut r = AfeRegisterFile::new();
        let err = r.write(AfeReg::PgaPrimaryGain, 12).unwrap_err();
        assert!(matches!(err, WriteRegError::ValueOutOfRange { .. }));
    }

    #[test]
    fn rejects_read_only_writes() {
        let mut r = AfeRegisterFile::new();
        assert_eq!(
            r.write(AfeReg::Status, 0),
            Err(WriteRegError::ReadOnly(AfeReg::Status.addr()))
        );
    }

    #[test]
    fn raw_address_paths() {
        let mut r = AfeRegisterFile::new();
        r.write_addr(0x02, 14).unwrap();
        assert_eq!(r.read_addr(0x02).unwrap(), 14);
        assert_eq!(r.read_addr(0x55), Err(WriteRegError::UnknownAddress(0x55)));
        assert_eq!(
            r.write_addr(0x55, 0),
            Err(WriteRegError::UnknownAddress(0x55))
        );
    }

    #[test]
    fn temp_sensor_codec_round_trip() {
        let mut r = AfeRegisterFile::new();
        for t in [-40.0, 0.0, 25.0, 85.0, 125.0] {
            r.set_temp_sensor(t);
            assert!((r.temp_celsius() - t).abs() < 0.11, "T={t}");
        }
    }

    #[test]
    fn adc_bits_bounds() {
        let mut r = AfeRegisterFile::new();
        assert!(r.write(AfeReg::AdcBits, 8).is_ok());
        assert!(r.write(AfeReg::AdcBits, 16).is_ok());
        assert!(r.write(AfeReg::AdcBits, 7).is_err());
        assert!(r.write(AfeReg::AdcBits, 17).is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = WriteRegError::ValueOutOfRange {
            addr: 0x02,
            value: 99,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("0x02"));
    }
}
