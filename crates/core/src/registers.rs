//! Platform register fabric.
//!
//! The paper's monitoring model: "a routine constantly checks the system
//! status by accessing the several readable registers spread along the
//! processing chain (for example makes sure that the PLL is locked)" (§4.2).
//! Those registers live here. Two masters see them:
//!
//! - the **8051** through the bridge's 16-bit bus (address window
//!   [`ascp_mcu8051::periph::map::DSP_BASE`]);
//! - the **JTAG chain** through a register-access TAP (full read-back, and
//!   the path used by the PC GUI during prototyping).
//!
//! Shared single-threaded ownership is `Rc<RefCell<_>>` — the simulation
//! kernel is one thread, like the RTL it stands in for.

use ascp_afe::regs::AfeRegisterFile;
use ascp_jtag::device::RegisterBus;
use ascp_mcu8051::periph::Bus16Device;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use std::cell::RefCell;
use std::rc::Rc;

/// DSP/platform status+control register addresses (16-bit registers on the
/// bridged bus, device-local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DspReg {
    /// Bit 0 = PLL locked, bit 1 = AGC settled, bit 2 = output valid,
    /// bit 3 = closed-loop active.
    Status = 0,
    /// NCO frequency in Hz (low 16 bits).
    PllFreqLo = 1,
    /// NCO frequency, high bits.
    PllFreqHi = 2,
    /// AGC envelope, Q15 magnitude (unsigned).
    AgcEnvelope = 3,
    /// Compensated rate output, signed Q15 (FS = ±500 °/s).
    RateOut = 4,
    /// Quadrature channel, signed Q15.
    QuadOut = 5,
    /// Phase-detector average ×2¹⁵, signed.
    PhaseError = 6,
    /// Drive amplitude command ×2¹⁵.
    DriveAmp = 7,
    /// Die temperature, 0.1 °C units offset +50 °C.
    Temperature = 8,
    /// Control: bit 0 = chain enable, bit 1 = closed loop,
    /// bit 2 = compensation bypass.
    Control = 9,
    /// Heartbeat counter incremented every DSP output sample.
    Heartbeat = 10,
}

impl DspReg {
    /// Register address on the 16-bit bus (device-local).
    #[must_use]
    pub fn addr(self) -> u8 {
        self as u8
    }
}

/// Number of DSP registers.
pub const DSP_REG_COUNT: usize = 11;

/// The DSP register file contents (updated by the chain, read by CPU/JTAG).
#[derive(Debug, Clone, Default)]
pub struct DspRegs {
    values: [u16; DSP_REG_COUNT],
    /// Writes from the CPU/JTAG side that the chain must apply (control).
    control_dirty: bool,
    /// Successful bus-side writes (CPU/JTAG control traffic; telemetry).
    bus_writes: u64,
}

impl DspRegs {
    /// Creates zeroed registers with the chain enabled, open loop.
    #[must_use]
    pub fn new() -> Self {
        let mut r = Self::default();
        r.values[DspReg::Control.addr() as usize] = 0b001;
        r
    }

    /// Reads a register.
    #[must_use]
    pub fn read(&self, reg: DspReg) -> u16 {
        self.values[reg.addr() as usize]
    }

    /// Hardware-side write (chain updating status).
    pub fn set(&mut self, reg: DspReg, value: u16) {
        self.values[reg.addr() as usize] = value;
    }

    /// Bus-side write; only `Control` is writable.
    pub fn bus_write(&mut self, addr: u8, value: u16) -> bool {
        if addr == DspReg::Control.addr() {
            self.values[addr as usize] = value;
            self.control_dirty = true;
            self.bus_writes += 1;
            true
        } else {
            false
        }
    }

    /// Bus-side read by raw address.
    #[must_use]
    pub fn bus_read(&self, addr: u8) -> Option<u16> {
        self.values.get(addr as usize).copied()
    }

    /// Takes the control-dirty flag (chain applies new control bits).
    pub fn take_control_dirty(&mut self) -> bool {
        std::mem::take(&mut self.control_dirty)
    }

    /// Successful bus-side (CPU/JTAG) writes since construction (telemetry).
    #[must_use]
    pub fn bus_writes(&self) -> u64 {
        self.bus_writes
    }

    /// Serializes the register values (the file's size is a constant and
    /// is not written), the control-dirty latch and the bus-write counter.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.values.iter().for_each(|&v| w.put_u16(v));
        w.put_bool(self.control_dirty);
        w.put_u64(self.bus_writes);
    }

    /// Restores state saved by [`DspRegs::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        for v in &mut self.values {
            *v = r.take_u16()?;
        }
        self.control_dirty = r.take_bool()?;
        self.bus_writes = r.take_u64()?;
        Ok(())
    }
}

/// Shared handle to the DSP registers.
pub type SharedDspRegs = Rc<RefCell<DspRegs>>;

/// Creates a fresh shared register file.
#[must_use]
pub fn shared_dsp_regs() -> SharedDspRegs {
    Rc::new(RefCell::new(DspRegs::new()))
}

/// Bridge-bus adapter: lets the 8051's [`ascp_mcu8051::periph::SystemBus`]
/// reach the shared DSP registers.
#[derive(Debug, Clone)]
pub struct DspRegsBus16(pub SharedDspRegs);

impl Bus16Device for DspRegsBus16 {
    fn read16(&mut self, reg: u8) -> u16 {
        self.0.borrow().bus_read(reg).unwrap_or(0xffff)
    }

    fn write16(&mut self, reg: u8, value: u16) {
        self.0.borrow_mut().bus_write(reg, value);
    }
}

/// JTAG adapter over the shared DSP registers.
#[derive(Debug, Clone)]
pub struct DspRegsJtag(pub SharedDspRegs);

impl RegisterBus for DspRegsJtag {
    fn read(&mut self, addr: u8) -> Option<u16> {
        self.0.borrow().bus_read(addr)
    }

    fn write(&mut self, addr: u8, value: u16) -> bool {
        self.0.borrow_mut().bus_write(addr, value)
    }
}

/// Shared handle to the AFE register bank.
pub type SharedAfeRegs = Rc<RefCell<AfeRegisterFile>>;

/// Creates a fresh shared AFE register bank.
#[must_use]
pub fn shared_afe_regs() -> SharedAfeRegs {
    Rc::new(RefCell::new(AfeRegisterFile::new()))
}

/// JTAG adapter over the shared AFE register bank (the paper's digitally
/// controlled analog cells).
#[derive(Debug, Clone)]
pub struct AfeRegsJtag(pub SharedAfeRegs);

impl RegisterBus for AfeRegsJtag {
    fn read(&mut self, addr: u8) -> Option<u16> {
        self.0.borrow().read_addr(addr).ok()
    }

    fn write(&mut self, addr: u8, value: u16) -> bool {
        self.0.borrow_mut().write_addr(addr, value).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascp_afe::regs::AfeReg;

    #[test]
    fn status_registers_are_read_only_from_bus() {
        let regs = shared_dsp_regs();
        let mut bus = DspRegsBus16(regs.clone());
        assert!(!regs.borrow_mut().bus_write(DspReg::RateOut.addr(), 42));
        bus.write16(DspReg::RateOut.addr(), 42);
        assert_eq!(bus.read16(DspReg::RateOut.addr()), 0);
    }

    #[test]
    fn control_write_marks_dirty() {
        let regs = shared_dsp_regs();
        let mut bus = DspRegsBus16(regs.clone());
        bus.write16(DspReg::Control.addr(), 0b011);
        assert!(regs.borrow_mut().take_control_dirty());
        assert!(!regs.borrow_mut().take_control_dirty());
        assert_eq!(regs.borrow().read(DspReg::Control), 0b011);
    }

    #[test]
    fn chain_updates_visible_on_both_masters() {
        let regs = shared_dsp_regs();
        regs.borrow_mut().set(DspReg::RateOut, 0x1234);
        let mut cpu_view = DspRegsBus16(regs.clone());
        let mut jtag_view = DspRegsJtag(regs);
        assert_eq!(cpu_view.read16(DspReg::RateOut.addr()), 0x1234);
        assert_eq!(jtag_view.read(DspReg::RateOut.addr()), Some(0x1234));
    }

    #[test]
    fn unmapped_addresses() {
        let regs = shared_dsp_regs();
        let mut cpu_view = DspRegsBus16(regs.clone());
        assert_eq!(cpu_view.read16(99), 0xffff);
        let mut jtag_view = DspRegsJtag(regs);
        assert_eq!(jtag_view.read(99), None);
    }

    #[test]
    fn afe_jtag_adapter_respects_read_only() {
        let afe = shared_afe_regs();
        let mut j = AfeRegsJtag(afe.clone());
        assert!(j.write(AfeReg::PgaPrimaryGain.addr(), 5));
        assert_eq!(j.read(AfeReg::PgaPrimaryGain.addr()), Some(5));
        assert!(!j.write(AfeReg::Status.addr(), 0));
        assert!(!j.write(AfeReg::AdcBits.addr(), 99));
    }

    #[test]
    fn default_control_enables_chain() {
        let r = DspRegs::new();
        assert_eq!(r.read(DspReg::Control) & 1, 1);
    }
}
