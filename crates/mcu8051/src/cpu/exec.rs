//! Instruction semantics: [`Cpu::execute_decoded`] and its ALU helpers.
//! What an instruction costs is its [`crate::decode::DECODE`] row, which
//! [`Cpu::step`] charges; nothing here counts cycles.

use super::{psw, sfr, Cpu, ExternalBus};

impl Cpu {
    /// A relative branch by `offset` when `taken`.
    fn branch(&mut self, taken: bool, offset: u8) {
        if taken {
            self.pc = self.pc.wrapping_add(offset as i8 as u16);
        }
    }

    // ---- ALU helpers ----

    fn add(&mut self, operand: u8, with_carry: bool) {
        let a = self.sfr_load(sfr::ACC);
        let psw0 = self.sfr_load(sfr::PSW);
        let c = u16::from(with_carry && psw0 & psw::CY != 0);
        let sum = a as u16 + operand as u16 + c;
        let half = (a & 0x0f) as u16 + (operand & 0x0f) as u16 + c;
        let signed = (a as i8 as i16) + (operand as i8 as i16) + c as i16;
        // One PSW read-modify-write for all three flags (the per-flag
        // set_flag chain is a measurable store-forwarding stall in the
        // interpreter hot loop).
        let mut pswv = psw0 & !(psw::CY | psw::AC | psw::OV);
        if sum > 0xff {
            pswv |= psw::CY;
        }
        if half > 0x0f {
            pswv |= psw::AC;
        }
        if !(-128..=127).contains(&signed) {
            pswv |= psw::OV;
        }
        self.sfr_store(sfr::PSW, pswv);
        self.sfr_store(sfr::ACC, sum as u8);
    }

    fn subb(&mut self, operand: u8) {
        let a = self.sfr_load(sfr::ACC);
        let psw0 = self.sfr_load(sfr::PSW);
        let c = u16::from(psw0 & psw::CY != 0);
        let diff = (a as i16) - (operand as i16) - c as i16;
        let half = (a & 0x0f) as i16 - (operand & 0x0f) as i16 - c as i16;
        let signed = (a as i8 as i16) - (operand as i8 as i16) - c as i16;
        let mut pswv = psw0 & !(psw::CY | psw::AC | psw::OV);
        if diff < 0 {
            pswv |= psw::CY;
        }
        if half < 0 {
            pswv |= psw::AC;
        }
        if !(-128..=127).contains(&signed) {
            pswv |= psw::OV;
        }
        self.sfr_store(sfr::PSW, pswv);
        self.sfr_store(sfr::ACC, diff as u8);
    }

    fn cjne(&mut self, a: u8, b: u8, rel: u8) {
        self.set_flag(psw::CY, a < b);
        self.branch(a != b, rel);
    }

    /// One instruction's semantics, with the opcode and operand bytes
    /// already fetched by [`Cpu::fetch_decoded`] (PC points past the
    /// instruction).
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    pub(super) fn execute_decoded(&mut self, op: u8, a: u8, b: u8, bus: &mut dyn ExternalBus) {
        match op {
            0x00 => {} // NOP
            // AJMP / ACALL (page encoded in opcode bits 7..5)
            0x01 | 0x21 | 0x41 | 0x61 | 0x81 | 0xa1 | 0xc1 | 0xe1 => {
                let page = (op >> 5) as u16;
                self.pc = (self.pc & 0xf800) | (page << 8) | a as u16;
            }
            0x11 | 0x31 | 0x51 | 0x71 | 0x91 | 0xb1 | 0xd1 | 0xf1 => {
                let page = (op >> 5) as u16;
                self.push_pc();
                self.pc = (self.pc & 0xf800) | (page << 8) | a as u16;
            }
            0x02 => self.pc = u16::from_be_bytes([a, b]), // LJMP
            0x12 => {
                self.push_pc();
                self.pc = u16::from_be_bytes([a, b]);
            } // LCALL
            0x03 => {
                let a = self.sfr_load(sfr::ACC);
                self.sfr_store(sfr::ACC, a.rotate_right(1));
            } // RR A
            0x13 => {
                let a = self.sfr_load(sfr::ACC);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, a & 1 != 0);
                self.sfr_store(sfr::ACC, (a >> 1) | ((c as u8) << 7));
            } // RRC A
            0x23 => {
                let a = self.sfr_load(sfr::ACC);
                self.sfr_store(sfr::ACC, a.rotate_left(1));
            } // RL A
            0x33 => {
                let a = self.sfr_load(sfr::ACC);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, a & 0x80 != 0);
                self.sfr_store(sfr::ACC, (a << 1) | c as u8);
            } // RLC A
            0x04 => {
                let a = self.sfr_load(sfr::ACC).wrapping_add(1);
                self.sfr_store(sfr::ACC, a);
            } // INC A
            0x14 => {
                let a = self.sfr_load(sfr::ACC).wrapping_sub(1);
                self.sfr_store(sfr::ACC, a);
            } // DEC A
            0x05 => {
                let v = self.direct_read(a, bus).wrapping_add(1);
                self.direct_write(a, v, bus);
            } // INC dir
            0x15 => {
                let v = self.direct_read(a, bus).wrapping_sub(1);
                self.direct_write(a, v, bus);
            } // DEC dir
            0x06 | 0x07 => {
                let a = self.reg(op & 1);
                let v = self.indirect_read(a).wrapping_add(1);
                self.indirect_write(a, v);
            } // INC @Ri
            0x16 | 0x17 => {
                let a = self.reg(op & 1);
                let v = self.indirect_read(a).wrapping_sub(1);
                self.indirect_write(a, v);
            } // DEC @Ri
            0x08..=0x0f => {
                let n = op & 7;
                let v = self.reg(n).wrapping_add(1);
                self.set_reg(n, v);
            } // INC Rn
            0x18..=0x1f => {
                let n = op & 7;
                let v = self.reg(n).wrapping_sub(1);
                self.set_reg(n, v);
            } // DEC Rn
            0xa3 => self.set_dptr(self.dptr().wrapping_add(1)), // INC DPTR
            0x10 => {
                if self.bit_read(a, bus) {
                    self.bit_write(a, false, bus);
                    self.branch(true, b);
                }
            } // JBC
            0x20 => {
                let set = self.bit_read(a, bus);
                self.branch(set, b);
            } // JB
            0x30 => {
                let set = self.bit_read(a, bus);
                self.branch(!set, b);
            } // JNB
            0x40 => self.branch(self.get_flag(psw::CY), a), // JC
            0x50 => self.branch(!self.get_flag(psw::CY), a), // JNC
            0x60 => self.branch(self.sfr_load(sfr::ACC) == 0, a), // JZ
            0x70 => self.branch(self.sfr_load(sfr::ACC) != 0, a), // JNZ
            0x80 => self.branch(true, a),                 // SJMP
            // JMP @A+DPTR
            0x73 => self.pc = self.dptr().wrapping_add(self.sfr_load(sfr::ACC) as u16),
            0x22 => {
                let hi = self.pop();
                let lo = self.pop();
                self.pc = u16::from_le_bytes([lo, hi]);
            } // RET
            0x32 => {
                let hi = self.pop();
                let lo = self.pop();
                self.pc = u16::from_le_bytes([lo, hi]);
                self.in_service.pop();
            } // RETI
            // ADD / ADDC / SUBB
            0x24 => self.add(a, false),
            0x25 => {
                let v = self.direct_read(a, bus);
                self.add(v, false);
            }
            0x26 | 0x27 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.add(v, false);
            }
            0x28..=0x2f => {
                let v = self.reg(op & 7);
                self.add(v, false);
            }
            0x34 => self.add(a, true),
            0x35 => {
                let v = self.direct_read(a, bus);
                self.add(v, true);
            }
            0x36 | 0x37 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.add(v, true);
            }
            0x38..=0x3f => {
                let v = self.reg(op & 7);
                self.add(v, true);
            }
            0x94 => self.subb(a),
            0x95 => {
                let v = self.direct_read(a, bus);
                self.subb(v);
            }
            0x96 | 0x97 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.subb(v);
            }
            0x98..=0x9f => {
                let v = self.reg(op & 7);
                self.subb(v);
            }
            // Logic: ORL / ANL / XRL
            0x42 | 0x52 | 0x62 => {
                let d = a;
                let v = self.direct_read(d, bus);
                let a = self.sfr_load(sfr::ACC);
                let r = match op {
                    0x42 => v | a,
                    0x52 => v & a,
                    _ => v ^ a,
                };
                self.direct_write(d, r, bus);
            }
            0x43 | 0x53 | 0x63 => {
                let d = a;
                let imm = b;
                let v = self.direct_read(d, bus);
                let r = match op {
                    0x43 => v | imm,
                    0x53 => v & imm,
                    _ => v ^ imm,
                };
                self.direct_write(d, r, bus);
            }
            0x44 | 0x54 | 0x64 => {
                let imm = a;
                let a = self.sfr_load(sfr::ACC);
                let r = match op {
                    0x44 => a | imm,
                    0x54 => a & imm,
                    _ => a ^ imm,
                };
                self.sfr_store(sfr::ACC, r);
            }
            0x45 | 0x55 | 0x65 => {
                let d = a;
                let v = self.direct_read(d, bus);
                let a = self.sfr_load(sfr::ACC);
                let r = match op {
                    0x45 => a | v,
                    0x55 => a & v,
                    _ => a ^ v,
                };
                self.sfr_store(sfr::ACC, r);
            }
            0x46 | 0x47 | 0x56 | 0x57 | 0x66 | 0x67 => {
                let v = self.indirect_read(self.reg(op & 1));
                let a = self.sfr_load(sfr::ACC);
                let r = match op & 0xf0 {
                    0x40 => a | v,
                    0x50 => a & v,
                    _ => a ^ v,
                };
                self.sfr_store(sfr::ACC, r);
            }
            0x48..=0x4f | 0x58..=0x5f | 0x68..=0x6f => {
                let v = self.reg(op & 7);
                let a = self.sfr_load(sfr::ACC);
                let r = match op & 0xf0 {
                    0x40 => a | v,
                    0x50 => a & v,
                    _ => a ^ v,
                };
                self.sfr_store(sfr::ACC, r);
            }
            // Carry-bit logic
            0x72 => {
                let v = self.bit_read(a, bus);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, c | v);
            } // ORL C,bit
            0xa0 => {
                let v = self.bit_read(a, bus);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, c | !v);
            } // ORL C,/bit
            0x82 => {
                let v = self.bit_read(a, bus);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, c & v);
            } // ANL C,bit
            0xb0 => {
                let v = self.bit_read(a, bus);
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, c & !v);
            } // ANL C,/bit
            // MOV immediate / register forms
            0x74 => self.sfr_store(sfr::ACC, a),
            0x75 => self.direct_write(a, b, bus),
            0x76 | 0x77 => self.indirect_write(self.reg(op & 1), a),
            0x78..=0x7f => self.set_reg(op & 7, a),
            0x85 => {
                // MOV dest,src is encoded src-first.
                let v = self.direct_read(a, bus);
                self.direct_write(b, v, bus);
            }
            0x86 | 0x87 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.direct_write(a, v, bus);
            }
            0x88..=0x8f => {
                let v = self.reg(op & 7);
                self.direct_write(a, v, bus);
            }
            0x90 => self.set_dptr(u16::from_be_bytes([a, b])), // MOV DPTR,#
            0xa6 | 0xa7 => {
                let v = self.direct_read(a, bus);
                self.indirect_write(self.reg(op & 1), v);
            }
            0xa8..=0xaf => {
                let v = self.direct_read(a, bus);
                self.set_reg(op & 7, v);
            }
            0xe5 => {
                let v = self.direct_read(a, bus);
                self.sfr_store(sfr::ACC, v);
            }
            0xe6 | 0xe7 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.sfr_store(sfr::ACC, v);
            }
            0xe8..=0xef => {
                let v = self.reg(op & 7);
                self.sfr_store(sfr::ACC, v);
            }
            0xf5 => {
                let v = self.sfr_load(sfr::ACC);
                self.direct_write(a, v, bus);
            }
            0xf6 | 0xf7 => {
                let v = self.sfr_load(sfr::ACC);
                self.indirect_write(self.reg(op & 1), v);
            }
            0xf8..=0xff => {
                let v = self.sfr_load(sfr::ACC);
                self.set_reg(op & 7, v);
            }
            // MOVC
            0x83 => {
                let a = self.sfr_load(sfr::ACC);
                let v = self.code_at(self.pc.wrapping_add(a as u16));
                self.sfr_store(sfr::ACC, v);
            } // MOVC A,@A+PC
            0x93 => {
                let a = self.sfr_load(sfr::ACC);
                let v = self.code_at(self.dptr().wrapping_add(a as u16));
                self.sfr_store(sfr::ACC, v);
            } // MOVC A,@A+DPTR
            // MOVX
            0xe0 => {
                let v = bus.xdata_read(self.dptr());
                self.sfr_store(sfr::ACC, v);
            }
            0xe2 | 0xe3 => {
                let addr = u16::from_le_bytes([self.reg(op & 1), self.sfr_load(sfr::P2)]);
                let v = bus.xdata_read(addr);
                self.sfr_store(sfr::ACC, v);
            }
            0xf0 => bus.xdata_write(self.dptr(), self.sfr_load(sfr::ACC)),
            0xf2 | 0xf3 => {
                let addr = u16::from_le_bytes([self.reg(op & 1), self.sfr_load(sfr::P2)]);
                bus.xdata_write(addr, self.sfr_load(sfr::ACC));
            }
            // MUL / DIV / DA / SWAP / CPL / CLR A
            0xa4 => {
                let p = self.sfr_load(sfr::ACC) as u16 * self.sfr_load(sfr::B) as u16;
                self.sfr_store(sfr::ACC, p as u8);
                self.sfr_store(sfr::B, (p >> 8) as u8);
                self.set_flag(psw::CY, false);
                self.set_flag(psw::OV, p > 0xff);
            }
            0x84 => {
                let a = self.sfr_load(sfr::ACC);
                let b = self.sfr_load(sfr::B);
                self.set_flag(psw::CY, false);
                if let Some(q) = a.checked_div(b) {
                    self.set_flag(psw::OV, false);
                    self.sfr_store(sfr::ACC, q);
                    self.sfr_store(sfr::B, a % b);
                } else {
                    self.set_flag(psw::OV, true);
                }
            }
            0xd4 => {
                // DA A (decimal adjust after addition).
                let mut a = self.sfr_load(sfr::ACC) as u16;
                if a & 0x0f > 9 || self.get_flag(psw::AC) {
                    a += 0x06;
                }
                if a > 0x9f || self.get_flag(psw::CY) || (a >> 4) & 0x0f > 9 {
                    a += 0x60;
                }
                if a > 0xff {
                    self.set_flag(psw::CY, true);
                }
                self.sfr_store(sfr::ACC, a as u8);
            }
            0xc4 => {
                let a = self.sfr_load(sfr::ACC);
                self.sfr_store(sfr::ACC, a.rotate_left(4));
            } // SWAP
            0xe4 => self.sfr_store(sfr::ACC, 0), // CLR A
            0xf4 => {
                let a = self.sfr_load(sfr::ACC);
                self.sfr_store(sfr::ACC, !a);
            } // CPL A
            // Bit ops
            0xc2 => self.bit_write(a, false, bus), // CLR bit
            0xc3 => self.set_flag(psw::CY, false), // CLR C
            0xd2 => self.bit_write(a, true, bus),  // SETB bit
            0xd3 => self.set_flag(psw::CY, true),  // SETB C
            0xb2 => {
                let v = self.bit_read(a, bus);
                self.bit_write(a, !v, bus);
            } // CPL bit
            0xb3 => {
                let c = self.get_flag(psw::CY);
                self.set_flag(psw::CY, !c);
            } // CPL C
            0x92 => {
                let c = self.get_flag(psw::CY);
                self.bit_write(a, c, bus);
            } // MOV bit,C
            0xa2 => {
                let v = self.bit_read(a, bus);
                self.set_flag(psw::CY, v);
            } // MOV C,bit
            // PUSH / POP
            0xc0 => {
                let v = self.direct_read(a, bus);
                self.push(v);
            }
            0xd0 => {
                let v = self.pop();
                self.direct_write(a, v, bus);
            }
            // XCH / XCHD
            0xc5 => {
                let d = a;
                let v = self.direct_read(d, bus);
                let a = self.sfr_load(sfr::ACC);
                self.direct_write(d, a, bus);
                self.sfr_store(sfr::ACC, v);
            }
            0xc6 | 0xc7 => {
                let r = self.reg(op & 1);
                let v = self.indirect_read(r);
                let a = self.sfr_load(sfr::ACC);
                self.indirect_write(r, a);
                self.sfr_store(sfr::ACC, v);
            }
            0xc8..=0xcf => {
                let n = op & 7;
                let v = self.reg(n);
                let a = self.sfr_load(sfr::ACC);
                self.set_reg(n, a);
                self.sfr_store(sfr::ACC, v);
            }
            0xd6 | 0xd7 => {
                let r = self.reg(op & 1);
                let v = self.indirect_read(r);
                let a = self.sfr_load(sfr::ACC);
                self.indirect_write(r, (v & 0xf0) | (a & 0x0f));
                self.sfr_store(sfr::ACC, (a & 0xf0) | (v & 0x0f));
            }
            // CJNE
            0xb4 => {
                let imm = a;
                let a = self.sfr_load(sfr::ACC);
                self.cjne(a, imm, b);
            }
            0xb5 => {
                let d = a;
                let a = self.sfr_load(sfr::ACC);
                let v = self.direct_read(d, bus);
                self.cjne(a, v, b);
            }
            0xb6 | 0xb7 => {
                let v = self.indirect_read(self.reg(op & 1));
                self.cjne(v, a, b);
            }
            0xb8..=0xbf => {
                let v = self.reg(op & 7);
                self.cjne(v, a, b);
            }
            // DJNZ
            0xd5 => {
                let v = self.direct_read(a, bus).wrapping_sub(1);
                self.direct_write(a, v, bus);
                self.branch(v != 0, b);
            }
            0xd8..=0xdf => {
                let n = op & 7;
                let v = self.reg(n).wrapping_sub(1);
                self.set_reg(n, v);
                self.branch(v != 0, a);
            }
            0xa5 => {} // reserved opcode: NOP on this core
        }
    }
}
