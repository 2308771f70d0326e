//! # ascp-mcu8051 — 8051 microcontroller subsystem
//!
//! The programmable digital section of the ASCP platform (reproduction of
//! *Platform Based Design for Automotive Sensor Conditioning*, DATE 2005).
//! The paper's CPU core is the LGPL Oregano MC8051 (§4.2, Fig. 4),
//! surrounded by ROM/RAM, a cache controller and UART on the 8-bit SFR bus,
//! and SPI / timer / watchdog / SRAM controller behind a bridge on a 16-bit
//! bus. This crate rebuilds that subsystem as an instruction-set simulation:
//!
//! - [`cpu`] — full 8051 interpreter (all opcodes, flags, banks, stack,
//!   timers, serial port, five-source two-priority interrupts, machine-cycle
//!   accounting);
//! - [`asm`] — two-pass assembler so firmware lives as readable source;
//! - [`disasm`] — the matching disassembler (debug views, round-trip tests);
//! - [`periph`] — bridge, SPI master + EEPROM, watchdog, capture SRAM,
//!   program-download (cache) controller, and the composed
//!   [`periph::SystemBus`].
//!
//! # Example: assemble and run firmware
//!
//! ```
//! use ascp_mcu8051::{asm::assemble, cpu::{Cpu, NullBus}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rom = assemble("mov a, #21\nadd a, acc\nhalt: sjmp halt\n")?;
//! let mut cpu = Cpu::new();
//! cpu.load_code(&rom);
//! let mut bus = NullBus;
//! for _ in 0..3 { cpu.step(&mut bus); }
//! assert_eq!(cpu.acc(), 42);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod cpu;
mod decode;
pub mod disasm;
pub mod periph;

#[cfg(test)]
mod cpu_tests;
