//! Bit-level JTAG chain: shared TCK/TMS, TDI→TDO daisy chain.
//!
//! "It employs a short number of wires (only 4 per chain), thus resulting
//! easy to route also on very complex chips" (§4.2). The chain clocks all
//! TAPs from the same TMS; TDI enters the *last* device and TDO leaves the
//! first (devices are indexed 0 = closest to TDO).

use crate::device::JtagDevice;
use crate::state::TapState;
use ascp_sim::noise::Rng64;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use std::error::Error;
use std::fmt;

/// Error from a high-level chain transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Device index out of range.
    NoSuchDevice {
        /// Requested index.
        index: usize,
        /// Number of devices in the chain.
        len: usize,
    },
    /// The chain has no devices.
    Empty,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSuchDevice { index, len } => {
                write!(f, "no device {index} in a chain of {len}")
            }
            Self::Empty => write!(f, "JTAG chain has no devices"),
        }
    }
}

impl Error for ChainError {}

/// Per-device shift/instruction registers managed by the chain.
struct TapSlot {
    device: Box<dyn JtagDevice>,
    /// Latched instruction (Update-IR).
    ir: u64,
    /// IR shift register.
    ir_shift: u64,
    /// DR shift register (LSB = next bit out).
    dr_shift: u64,
    dr_len: usize,
}

impl fmt::Debug for TapSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TapSlot")
            .field("ir", &self.ir)
            .field("dr_len", &self.dr_len)
            .finish()
    }
}

/// A JTAG chain of devices sharing TMS/TCK.
#[derive(Debug)]
pub struct JtagChain {
    slots: Vec<TapSlot>,
    state: TapState,
    /// Total TCK cycles applied (diagnostics).
    cycles: u64,
    /// TCK cycles spent in Shift-IR/Shift-DR (telemetry: payload bits moved).
    shifts: u64,
    /// Optional chain corruption: (per-shift-bit flip probability, rng).
    /// Models a marginal TDO trace — only the serial read-back path is
    /// affected; TDI-driven register loads remain intact.
    fault: Option<(f64, Rng64)>,
    /// Shift bits whose TDO value was flipped by the injected fault.
    corrupted_bits: u64,
}

impl JtagChain {
    /// Builds a chain. Device 0 is nearest TDO.
    #[must_use]
    pub fn new(devices: Vec<Box<dyn JtagDevice>>) -> Self {
        let slots = devices
            .into_iter()
            .map(|device| {
                let bypass = (1u64 << device.ir_length()) - 1;
                TapSlot {
                    device,
                    ir: bypass,
                    ir_shift: 0,
                    dr_shift: 0,
                    dr_len: 1,
                }
            })
            .collect();
        let mut chain = Self {
            slots,
            state: TapState::TestLogicReset,
            cycles: 0,
            shifts: 0,
            fault: None,
            corrupted_bits: 0,
        };
        chain.reset();
        chain
    }

    /// Number of devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the chain has no devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current TAP state (all TAPs share it: common TMS).
    #[must_use]
    pub fn state(&self) -> TapState {
        self.state
    }

    /// TCK cycle counter.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Shift-state TCK cycles (IR + DR payload bits moved through the chain).
    #[must_use]
    pub fn shifts(&self) -> u64 {
        self.shifts
    }

    /// Injects TDO read-back corruption: each shifted-out bit flips with
    /// probability `rate`. Panics unless `rate` is in `[0, 1]`.
    pub fn set_fault(&mut self, rate: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        self.fault = Some((rate, Rng64::new(seed)));
    }

    /// Removes any injected TDO corruption.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Number of shifted-out bits flipped by the injected fault so far.
    #[must_use]
    pub fn corrupted_bits(&self) -> u64 {
        self.corrupted_bits
    }

    /// Applies 5 TMS-high clocks (hardware reset) and lands in
    /// Run-Test/Idle. All IRs revert to BYPASS (this core's reset value).
    pub fn reset(&mut self) {
        for _ in 0..5 {
            self.clock(true, false);
        }
        self.clock(false, false); // -> RunTestIdle
        for slot in &mut self.slots {
            slot.ir = (1u64 << slot.device.ir_length()) - 1;
        }
    }

    /// One TCK rising edge: returns TDO.
    ///
    /// Shift registers move LSB-first; TDI feeds the highest-index device.
    pub fn clock(&mut self, tms: bool, tdi: bool) -> bool {
        self.cycles += 1;
        let state = self.state;
        let mut tdo = false;
        match state {
            TapState::CaptureIr => {
                for slot in &mut self.slots {
                    // Standard: capture 0b...01 pattern; we capture the
                    // current IR which also satisfies read-back checks.
                    slot.ir_shift = slot.ir;
                }
            }
            TapState::ShiftIr => {
                self.shifts += 1;
                // Bit ripples from high-index device toward TDO (device 0).
                let mut carry = tdi;
                for slot in self.slots.iter_mut().rev() {
                    let out = slot.ir_shift & 1 != 0;
                    let len = slot.device.ir_length();
                    slot.ir_shift >>= 1;
                    if carry {
                        slot.ir_shift |= 1 << (len - 1);
                    }
                    carry = out;
                }
                tdo = carry;
            }
            TapState::UpdateIr => {
                for slot in &mut self.slots {
                    let mask = (1u64 << slot.device.ir_length()) - 1;
                    slot.ir = slot.ir_shift & mask;
                }
            }
            TapState::CaptureDr => {
                for slot in &mut self.slots {
                    slot.dr_len = slot.device.dr_length(slot.ir);
                    slot.dr_shift = slot.device.capture_dr(slot.ir);
                }
            }
            TapState::ShiftDr => {
                self.shifts += 1;
                let mut carry = tdi;
                for slot in self.slots.iter_mut().rev() {
                    let out = slot.dr_shift & 1 != 0;
                    slot.dr_shift >>= 1;
                    if carry {
                        slot.dr_shift |= 1 << (slot.dr_len - 1);
                    }
                    carry = out;
                }
                tdo = carry;
            }
            TapState::UpdateDr => {
                for slot in &mut self.slots {
                    let mask = if slot.dr_len >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << slot.dr_len) - 1
                    };
                    let value = slot.dr_shift & mask;
                    slot.device.update_dr(slot.ir, value);
                }
            }
            _ => {}
        }
        if matches!(state, TapState::ShiftIr | TapState::ShiftDr) {
            if let Some((rate, rng)) = &mut self.fault {
                if rng.next_f64() < *rate {
                    tdo = !tdo;
                    self.corrupted_bits += 1;
                }
            }
        }
        self.state = state.next(tms);
        tdo
    }

    /// Navigates from Run-Test/Idle through a full IR scan, loading
    /// `instructions[i]` into device `i`. Returns to Run-Test/Idle.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Empty`] if the chain has no devices, or
    /// [`ChainError::NoSuchDevice`] if the instruction count mismatches.
    pub fn scan_ir(&mut self, instructions: &[u64]) -> Result<(), ChainError> {
        if self.slots.is_empty() {
            return Err(ChainError::Empty);
        }
        if instructions.len() != self.slots.len() {
            return Err(ChainError::NoSuchDevice {
                index: instructions.len(),
                len: self.slots.len(),
            });
        }
        // RunTestIdle -> SelectDr -> SelectIr -> CaptureIr -> ShiftIr
        self.clock(true, false);
        self.clock(true, false);
        self.clock(false, false);
        self.clock(false, false);
        // Shift all bits, device 0's instruction goes out... TDI feeds the
        // highest-index device, and bits ripple toward device 0. To leave
        // instruction[i] in device i after (total-1) more shifts plus exit,
        // send device 0's bits FIRST (they must travel furthest).
        let total: usize = self.slots.iter().map(|s| s.device.ir_length()).sum();
        let mut bits = Vec::with_capacity(total);
        for (slot, &inst) in self.slots.iter().zip(instructions) {
            for b in 0..slot.device.ir_length() {
                bits.push(inst >> b & 1 != 0);
            }
        }
        for (i, &bit) in bits.iter().enumerate() {
            let last = i == bits.len() - 1;
            self.clock(last, bit); // exit on the final bit
        }
        self.clock(true, false); // Exit1 -> UpdateIr
        self.clock(false, false); // -> RunTestIdle
        Ok(())
    }

    /// Full DR scan: shifts `value` into device `index` (all others must be
    /// in BYPASS), returning the bits captured from that device.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::NoSuchDevice`] for a bad index.
    pub fn scan_dr(&mut self, index: usize, value: u64) -> Result<u64, ChainError> {
        if index >= self.slots.len() {
            return Err(ChainError::NoSuchDevice {
                index,
                len: self.slots.len(),
            });
        }
        // RunTestIdle -> SelectDr -> CaptureDr -> ShiftDr
        self.clock(true, false);
        self.clock(false, false);
        self.clock(false, false);
        // Chain layout: TDI -> [n-1] -> ... -> [0] -> TDO. Devices before
        // `index` in TDI order (i > index) are 1-bit bypass; devices after
        // (i < index) are also bypass.
        let lead: usize = self.slots[index + 1..]
            .iter()
            .map(|s| s.dr_len)
            .sum::<usize>();
        let trail: usize = self.slots[..index].iter().map(|s| s.dr_len).sum::<usize>();
        let target_len = self.slots[index].dr_len;
        let total = lead + target_len + trail;
        let _ = lead; // total accounts for it; windows below are trail-based
        let mut captured: u64 = 0;
        let mut out_count = 0usize;
        for i in 0..total {
            // With `total` shift clocks, a bit injected at clock j ends at
            // chain position j (position 0 = TDO end), so the target's
            // window is [trail, trail + target_len) for input and output.
            let bit_idx = i as i64 - trail as i64;
            let tdi = if (0..target_len as i64).contains(&bit_idx) {
                value >> bit_idx & 1 != 0
            } else {
                false
            };
            let last = i == total - 1;
            let tdo = self.clock(last, tdi);
            // Bits from the target device appear after `trail` leading bits.
            let cap_idx = i as i64 - trail as i64;
            if (0..target_len as i64).contains(&cap_idx) && out_count < 64 {
                if tdo {
                    captured |= 1 << cap_idx;
                }
                out_count += 1;
            }
        }
        self.clock(true, false); // Exit1 -> UpdateDr
        self.clock(false, false); // -> RunTestIdle
        Ok(captured)
    }

    /// Loads `instruction` into device `index` and BYPASS into the others.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::NoSuchDevice`] for a bad index.
    pub fn select(&mut self, index: usize, instruction: u64) -> Result<(), ChainError> {
        if index >= self.slots.len() {
            return Err(ChainError::NoSuchDevice {
                index,
                len: self.slots.len(),
            });
        }
        let irs: Vec<u64> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == index {
                    instruction
                } else {
                    (1u64 << s.device.ir_length()) - 1
                }
            })
            .collect();
        self.scan_ir(&irs)
    }

    /// Reads every device's IDCODE through real scans.
    ///
    /// # Errors
    ///
    /// Propagates scan errors (empty chain).
    pub fn read_idcodes(&mut self) -> Result<Vec<u32>, ChainError> {
        let mut out = Vec::with_capacity(self.slots.len());
        for i in 0..self.slots.len() {
            self.select(i, crate::device::instructions::IDCODE)?;
            let id = self.scan_dr(i, 0)?;
            out.push(id as u32);
        }
        Ok(out)
    }

    /// Serializes the TAP FSM state, counters, injected fault, and every
    /// slot's shift/instruction registers plus the device's own state (via
    /// [`JtagDevice::save_state`]). The number of slots is fixed when the
    /// chain is built and is not written.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u8(self.state.code());
        w.put_u64(self.cycles);
        w.put_u64(self.shifts);
        match &self.fault {
            Some((rate, rng)) => {
                w.put_bool(true);
                w.put_f64(*rate);
                rng.save_state(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.corrupted_bits);
        for slot in &self.slots {
            w.put_u64(slot.ir);
            w.put_u64(slot.ir_shift);
            w.put_u64(slot.dr_shift);
            w.put_u32(slot.dr_len as u32);
            slot.device.save_state(w);
        }
    }

    /// Restores state saved by [`JtagChain::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the TAP state code is invalid;
    /// propagates other [`SnapshotError`]s on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let code = r.take_u8()?;
        let state = TapState::from_code(code).ok_or_else(|| SnapshotError::Corrupt {
            context: format!("TAP state code {code} out of range"),
        })?;
        let cycles = r.take_u64()?;
        let shifts = r.take_u64()?;
        let fault = if r.take_bool()? {
            let rate = r.take_f64()?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(SnapshotError::Corrupt {
                    context: format!("JTAG fault rate {rate} outside [0, 1]"),
                });
            }
            let mut rng = Rng64::new(1);
            rng.load_state(r)?;
            Some((rate, rng))
        } else {
            None
        };
        let corrupted_bits = r.take_u64()?;
        self.state = state;
        self.cycles = cycles;
        self.shifts = shifts;
        self.fault = fault;
        self.corrupted_bits = corrupted_bits;
        for slot in &mut self.slots {
            slot.ir = r.take_u64()?;
            slot.ir_shift = r.take_u64()?;
            slot.dr_shift = r.take_u64()?;
            slot.dr_len = r.take_u32()? as usize;
            slot.device.load_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{instructions, BypassDevice, RegAccessDevice, RegisterBus};
    use std::collections::HashMap;

    #[derive(Debug, Default)]
    struct MapBus {
        regs: HashMap<u8, u16>,
    }

    impl RegisterBus for MapBus {
        fn read(&mut self, addr: u8) -> Option<u16> {
            self.regs.get(&addr).copied()
        }
        fn write(&mut self, addr: u8, value: u16) -> bool {
            self.regs.insert(addr, value);
            true
        }
    }

    fn reg_chain() -> JtagChain {
        JtagChain::new(vec![
            Box::new(RegAccessDevice::new(0x0000_0a01, MapBus::default())),
            Box::new(BypassDevice::new(0x0000_0b01)),
            Box::new(RegAccessDevice::new(0x0000_0c01, MapBus::default())),
        ])
    }

    #[test]
    fn idcodes_read_back_through_the_wire() {
        let mut chain = reg_chain();
        let ids = chain.read_idcodes().unwrap();
        assert_eq!(ids, vec![0x0000_0a01, 0x0000_0b01, 0x0000_0c01]);
    }

    #[test]
    fn register_write_read_roundtrip_device0() {
        let mut chain = reg_chain();
        chain.select(0, instructions::REG_ACCESS).unwrap();
        chain
            .scan_dr(0, RegAccessDevice::<MapBus>::pack_write(0x07, 0x1234))
            .unwrap();
        chain
            .scan_dr(0, RegAccessDevice::<MapBus>::pack_read(0x07))
            .unwrap();
        let dr = chain.scan_dr(0, 0).unwrap();
        assert_eq!(RegAccessDevice::<MapBus>::unpack_data(dr), 0x1234);
    }

    #[test]
    fn register_write_read_roundtrip_device2() {
        let mut chain = reg_chain();
        chain.select(2, instructions::REG_ACCESS).unwrap();
        chain
            .scan_dr(2, RegAccessDevice::<MapBus>::pack_write(0x01, 0xbeef))
            .unwrap();
        chain
            .scan_dr(2, RegAccessDevice::<MapBus>::pack_read(0x01))
            .unwrap();
        let dr = chain.scan_dr(2, 0).unwrap();
        assert_eq!(RegAccessDevice::<MapBus>::unpack_data(dr), 0xbeef);
    }

    #[test]
    fn devices_are_isolated() {
        let mut chain = reg_chain();
        chain.select(0, instructions::REG_ACCESS).unwrap();
        chain
            .scan_dr(0, RegAccessDevice::<MapBus>::pack_write(0x03, 0xaaaa))
            .unwrap();
        // Device 2 must not have register 3.
        chain.select(2, instructions::REG_ACCESS).unwrap();
        chain
            .scan_dr(2, RegAccessDevice::<MapBus>::pack_read(0x03))
            .unwrap();
        let dr = chain.scan_dr(2, 0).unwrap();
        assert_eq!(RegAccessDevice::<MapBus>::unpack_data(dr), 0xffff);
    }

    #[test]
    fn reset_lands_in_idle_with_bypass() {
        let mut chain = reg_chain();
        chain.reset();
        assert_eq!(chain.state(), TapState::RunTestIdle);
    }

    #[test]
    fn bad_index_is_error() {
        let mut chain = reg_chain();
        assert!(matches!(
            chain.select(9, instructions::IDCODE),
            Err(ChainError::NoSuchDevice { index: 9, len: 3 })
        ));
        assert!(chain.scan_dr(9, 0).is_err());
    }

    #[test]
    fn empty_chain_is_error() {
        let mut chain = JtagChain::new(Vec::new());
        assert_eq!(chain.scan_ir(&[]), Err(ChainError::Empty));
        assert!(chain.is_empty());
    }

    #[test]
    fn cycle_counter_advances() {
        let mut chain = reg_chain();
        let c0 = chain.cycles();
        chain.read_idcodes().unwrap();
        assert!(chain.cycles() > c0 + 100);
    }

    #[test]
    fn shift_counter_counts_payload_cycles() {
        let mut chain = reg_chain();
        assert_eq!(chain.shifts(), 0, "reset path never enters shift states");
        chain.read_idcodes().unwrap();
        let shifts = chain.shifts();
        // Each scan moves real payload bits, but far fewer than total TCK.
        assert!(shifts > 0);
        assert!(shifts < chain.cycles());
    }

    #[test]
    fn tdo_fault_corrupts_idcode_readback() {
        let mut chain = reg_chain();
        chain.set_fault(0.25, 42);
        let ids = chain.read_idcodes().unwrap();
        assert_ne!(
            ids,
            vec![0x0000_0a01, 0x0000_0b01, 0x0000_0c01],
            "a 25% flip rate over 96 IDCODE bits must corrupt the read-back"
        );
        assert!(chain.corrupted_bits() > 0);
        // Only the TDO path is faulty: clearing the fault restores reads
        // because the internal registers were never corrupted.
        chain.clear_fault();
        let ids = chain.read_idcodes().unwrap();
        assert_eq!(ids, vec![0x0000_0a01, 0x0000_0b01, 0x0000_0c01]);
    }

    #[test]
    fn tdo_fault_rate_zero_is_harmless() {
        let mut chain = reg_chain();
        chain.set_fault(0.0, 1);
        let ids = chain.read_idcodes().unwrap();
        assert_eq!(ids, vec![0x0000_0a01, 0x0000_0b01, 0x0000_0c01]);
        assert_eq!(chain.corrupted_bits(), 0);
    }
}
