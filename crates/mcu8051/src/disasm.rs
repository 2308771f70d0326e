//! 8051 disassembler.
//!
//! The inverse of [`crate::asm`]: turns a ROM image back into readable
//! mnemonics. Used by the firmware-debug tooling (the paper's prototyping
//! phase pipes "all intermediate data of the chain" to a PC GUI — this is
//! the instruction-side equivalent) and by round-trip tests that pin the
//! assembler and interpreter to the same encoding. Each instruction's
//! length is its opcode's row of the crate's opcode table, and SFR
//! operands print under the core's register names.

use crate::cpu::CORE_SFRS;
use crate::decode::DECODE;
use std::fmt;

/// One decoded instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction {
    /// Address of the first byte.
    pub address: u16,
    /// Raw encoding (1–3 bytes).
    pub bytes: Vec<u8>,
    /// Canonical mnemonic text, lowercase, e.g. `mov a, #0x5a`.
    pub text: String,
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: Vec<String> = self.bytes.iter().map(|b| format!("{b:02x}")).collect();
        write!(
            f,
            "{:04x}:  {:<9} {}",
            self.address,
            hex.join(" "),
            self.text
        )
    }
}

/// SFR names for pretty direct addresses.
fn direct_name(addr: u8) -> String {
    CORE_SFRS
        .iter()
        .find(|&&(a, _)| a == addr)
        .map_or_else(|| format!("0x{addr:02x}"), |&(_, name)| name.to_owned())
}

fn bit_name(bit: u8) -> String {
    if bit < 0x80 {
        format!("0x{:02x}.{}", 0x20 + bit / 8, bit % 8)
    } else {
        format!("{}.{}", direct_name(bit & 0xf8), bit % 8)
    }
}

/// Decodes the instruction at `addr` in `code`. Returns the instruction;
/// unknown/truncated encodings decode as `db 0x..` placeholders so the
/// walker always advances.
#[must_use]
pub fn decode(code: &[u8], addr: u16) -> Instruction {
    let at = |o: u16| {
        code.get((addr.wrapping_add(o)) as usize)
            .copied()
            .unwrap_or(0)
    };
    let op = at(0);
    let b1 = at(1);
    let b2 = at(2);
    let r = op & 0x07;
    let ri = op & 0x01;
    let len = 1 + u16::from(DECODE[op as usize].0);
    let next = addr.wrapping_add(len);
    // Absolute target of a relative branch.
    let rel = |offset: u8| next.wrapping_add(offset as i8 as u16);

    let text: String = match op {
        0x00 => "nop".into(),
        0x01 | 0x21 | 0x41 | 0x61 | 0x81 | 0xa1 | 0xc1 | 0xe1 => {
            let page = u16::from(op >> 5);
            let target = (next & 0xf800) | (page << 8) | u16::from(b1);
            format!("ajmp 0x{target:04x}")
        }
        0x11 | 0x31 | 0x51 | 0x71 | 0x91 | 0xb1 | 0xd1 | 0xf1 => {
            let page = u16::from(op >> 5);
            let target = (next & 0xf800) | (page << 8) | u16::from(b1);
            format!("acall 0x{target:04x}")
        }
        0x02 => format!("ljmp 0x{:04x}", u16::from_be_bytes([b1, b2])),
        0x12 => format!("lcall 0x{:04x}", u16::from_be_bytes([b1, b2])),
        0x03 => "rr a".into(),
        0x13 => "rrc a".into(),
        0x23 => "rl a".into(),
        0x33 => "rlc a".into(),
        0x04 => "inc a".into(),
        0x14 => "dec a".into(),
        0x05 => format!("inc {}", direct_name(b1)),
        0x15 => format!("dec {}", direct_name(b1)),
        0x06 | 0x07 => format!("inc @r{ri}"),
        0x16 | 0x17 => format!("dec @r{ri}"),
        0x08..=0x0f => format!("inc r{r}"),
        0x18..=0x1f => format!("dec r{r}"),
        0xa3 => "inc dptr".into(),
        0x10 => format!("jbc {}, 0x{:04x}", bit_name(b1), rel(b2)),
        0x20 => format!("jb {}, 0x{:04x}", bit_name(b1), rel(b2)),
        0x30 => format!("jnb {}, 0x{:04x}", bit_name(b1), rel(b2)),
        0x40 => format!("jc 0x{:04x}", rel(b1)),
        0x50 => format!("jnc 0x{:04x}", rel(b1)),
        0x60 => format!("jz 0x{:04x}", rel(b1)),
        0x70 => format!("jnz 0x{:04x}", rel(b1)),
        0x80 => format!("sjmp 0x{:04x}", rel(b1)),
        0x73 => "jmp @a+dptr".into(),
        0x22 => "ret".into(),
        0x32 => "reti".into(),
        0x24 => format!("add a, #0x{b1:02x}"),
        0x25 => format!("add a, {}", direct_name(b1)),
        0x26 | 0x27 => format!("add a, @r{ri}"),
        0x28..=0x2f => format!("add a, r{r}"),
        0x34 => format!("addc a, #0x{b1:02x}"),
        0x35 => format!("addc a, {}", direct_name(b1)),
        0x36 | 0x37 => format!("addc a, @r{ri}"),
        0x38..=0x3f => format!("addc a, r{r}"),
        0x94 => format!("subb a, #0x{b1:02x}"),
        0x95 => format!("subb a, {}", direct_name(b1)),
        0x96 | 0x97 => format!("subb a, @r{ri}"),
        0x98..=0x9f => format!("subb a, r{r}"),
        0x42 => format!("orl {}, a", direct_name(b1)),
        0x52 => format!("anl {}, a", direct_name(b1)),
        0x62 => format!("xrl {}, a", direct_name(b1)),
        0x43 => format!("orl {}, #0x{b2:02x}", direct_name(b1)),
        0x53 => format!("anl {}, #0x{b2:02x}", direct_name(b1)),
        0x63 => format!("xrl {}, #0x{b2:02x}", direct_name(b1)),
        0x44 => format!("orl a, #0x{b1:02x}"),
        0x54 => format!("anl a, #0x{b1:02x}"),
        0x64 => format!("xrl a, #0x{b1:02x}"),
        0x45 => format!("orl a, {}", direct_name(b1)),
        0x55 => format!("anl a, {}", direct_name(b1)),
        0x65 => format!("xrl a, {}", direct_name(b1)),
        0x46 | 0x47 => format!("orl a, @r{ri}"),
        0x56 | 0x57 => format!("anl a, @r{ri}"),
        0x66 | 0x67 => format!("xrl a, @r{ri}"),
        0x48..=0x4f => format!("orl a, r{r}"),
        0x58..=0x5f => format!("anl a, r{r}"),
        0x68..=0x6f => format!("xrl a, r{r}"),
        0x72 => format!("orl c, {}", bit_name(b1)),
        0xa0 => format!("orl c, /{}", bit_name(b1)),
        0x82 => format!("anl c, {}", bit_name(b1)),
        0xb0 => format!("anl c, /{}", bit_name(b1)),
        0x74 => format!("mov a, #0x{b1:02x}"),
        0x75 => format!("mov {}, #0x{b2:02x}", direct_name(b1)),
        0x76 | 0x77 => format!("mov @r{ri}, #0x{b1:02x}"),
        0x78..=0x7f => format!("mov r{r}, #0x{b1:02x}"),
        0x85 => format!("mov {}, {}", direct_name(b2), direct_name(b1)),
        0x86 | 0x87 => format!("mov {}, @r{ri}", direct_name(b1)),
        0x88..=0x8f => format!("mov {}, r{r}", direct_name(b1)),
        0x90 => format!("mov dptr, #0x{:04x}", u16::from_be_bytes([b1, b2])),
        0x92 => format!("mov {}, c", bit_name(b1)),
        0xa2 => format!("mov c, {}", bit_name(b1)),
        0xa6 | 0xa7 => format!("mov @r{ri}, {}", direct_name(b1)),
        0xa8..=0xaf => format!("mov r{r}, {}", direct_name(b1)),
        0xe5 => format!("mov a, {}", direct_name(b1)),
        0xe6 | 0xe7 => format!("mov a, @r{ri}"),
        0xe8..=0xef => format!("mov a, r{r}"),
        0xf5 => format!("mov {}, a", direct_name(b1)),
        0xf6 | 0xf7 => format!("mov @r{ri}, a"),
        0xf8..=0xff => format!("mov r{r}, a"),
        0x83 => "movc a, @a+pc".into(),
        0x93 => "movc a, @a+dptr".into(),
        0xe0 => "movx a, @dptr".into(),
        0xe2 | 0xe3 => format!("movx a, @r{ri}"),
        0xf0 => "movx @dptr, a".into(),
        0xf2 | 0xf3 => format!("movx @r{ri}, a"),
        0xa4 => "mul ab".into(),
        0x84 => "div ab".into(),
        0xd4 => "da a".into(),
        0xc4 => "swap a".into(),
        0xe4 => "clr a".into(),
        0xf4 => "cpl a".into(),
        0xc2 => format!("clr {}", bit_name(b1)),
        0xc3 => "clr c".into(),
        0xd2 => format!("setb {}", bit_name(b1)),
        0xd3 => "setb c".into(),
        0xb2 => format!("cpl {}", bit_name(b1)),
        0xb3 => "cpl c".into(),
        0xc0 => format!("push {}", direct_name(b1)),
        0xd0 => format!("pop {}", direct_name(b1)),
        0xc5 => format!("xch a, {}", direct_name(b1)),
        0xc6 | 0xc7 => format!("xch a, @r{ri}"),
        0xc8..=0xcf => format!("xch a, r{r}"),
        0xd6 | 0xd7 => format!("xchd a, @r{ri}"),
        0xb4 => format!("cjne a, #0x{b1:02x}, 0x{:04x}", rel(b2)),
        0xb5 => format!("cjne a, {}, 0x{:04x}", direct_name(b1), rel(b2)),
        0xb6 | 0xb7 => format!("cjne @r{ri}, #0x{b1:02x}, 0x{:04x}", rel(b2)),
        0xb8..=0xbf => format!("cjne r{r}, #0x{b1:02x}, 0x{:04x}", rel(b2)),
        0xd5 => format!("djnz {}, 0x{:04x}", direct_name(b1), rel(b2)),
        0xd8..=0xdf => format!("djnz r{r}, 0x{:04x}", rel(b1)),
        0xa5 => "db 0xa5".into(), // reserved opcode
    };

    let bytes = (0..len).map(at).collect();
    Instruction {
        address: addr,
        bytes,
        text,
    }
}

/// Disassembles `[start, end)` linearly (no flow analysis).
#[must_use]
pub fn disassemble(code: &[u8], start: u16, end: u16) -> Vec<Instruction> {
    let mut out = Vec::new();
    let mut pc = start;
    while pc < end && (pc as usize) < code.len() {
        let inst = decode(code, pc);
        let len = inst.bytes.len() as u16;
        out.push(inst);
        pc = pc.wrapping_add(len);
        if len == 0 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn decodes_basic_block() {
        let img = assemble("mov a, #0x5a\nmov r0, a\nsjmp 0\n").unwrap();
        let insts = disassemble(&img, 0, img.len() as u16);
        assert_eq!(insts[0].text, "mov a, #0x5a");
        assert_eq!(insts[1].text, "mov r0, a");
        assert_eq!(insts[2].text, "sjmp 0x0000");
    }

    #[test]
    fn sfr_names_appear() {
        let img = assemble("mov sbuf, a\nmov a, p1\nsetb p1.3\n").unwrap();
        let insts = disassemble(&img, 0, img.len() as u16);
        assert_eq!(insts[0].text, "mov sbuf, a");
        assert_eq!(insts[1].text, "mov a, p1");
        assert_eq!(insts[2].text, "setb p1.3");
    }

    #[test]
    fn relative_targets_are_absolute() {
        let img = assemble("nop\nhere: sjmp here\n").unwrap();
        let insts = disassemble(&img, 0, img.len() as u16);
        assert_eq!(insts[1].text, "sjmp 0x0001");
    }

    #[test]
    fn mov_direct_direct_order() {
        // assembler: MOV dst, src encodes src first; disassembly restores.
        let img = assemble("mov 0x40, 0x30\n").unwrap();
        let inst = decode(&img, 0);
        assert_eq!(inst.text, "mov 0x40, 0x30");
    }

    #[test]
    fn ajmp_target_reconstruction() {
        let img = assemble("org 0x0100\najmp 0x0234\n").unwrap();
        let inst = decode(&img, 0x0100);
        assert_eq!(inst.text, "ajmp 0x0234");
    }

    #[test]
    fn display_format() {
        let img = assemble("mov a, #0x12\n").unwrap();
        let inst = decode(&img, 0);
        assert_eq!(inst.to_string(), "0000:  74 12     mov a, #0x12");
    }

    #[test]
    fn every_opcode_decodes_to_nonempty_text() {
        // All 256 opcodes with dummy operands must produce a non-empty,
        // advancing decode.
        for op in 0..=255u8 {
            let code = [op, 0x10, 0x10];
            let inst = decode(&code, 0);
            assert!(!inst.text.is_empty(), "opcode {op:#x}");
            assert!(!inst.bytes.is_empty(), "opcode {op:#x}");
        }
    }

    #[test]
    fn monitor_firmware_disassembles_cleanly() {
        // The real monitor firmware must contain no reserved opcodes along
        // its linear encoding (sanity of both tools).
        let img =
            assemble("start: mov a, #1\nadd a, acc\njnz start\nlcall sub\nsjmp start\nsub: ret\n")
                .unwrap();
        let insts = disassemble(&img, 0, img.len() as u16);
        assert!(insts.iter().all(|i| !i.text.starts_with("db ")));
    }
}
