//! Two-pass 8051 assembler.
//!
//! The paper's platform firmware (monitoring, communication, boot loaders)
//! is written in low-level code developed alongside the hardware (§2,
//! "low level drivers are provided just after the first stable VHDL").
//! This assembler lets ASCP firmware live as readable source in examples
//! and tests instead of opaque hex arrays.
//!
//! Supported syntax: one instruction per line, `label:` definitions,
//! `;` comments, `ORG addr`, `DB b, b, ...`, `DW w, ...`,
//! `NAME EQU value`, character literals `'x'`, hex `0xNN`/`0NNh`, binary
//! `0bNNNN`, decimal, and `SFR.n` bit notation. All 8051 mnemonics are
//! implemented.
//!
//! # Example
//!
//! ```
//! use ascp_mcu8051::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = assemble(
//!     "start:  mov a, #0x5a\n        mov r0, a\n        sjmp start\n",
//! )?;
//! assert_eq!(image, vec![0x74, 0x5a, 0xf8, 0x80, 0xfb]);
//! # Ok(())
//! # }
//! ```

use crate::cpu::CORE_SFRS;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Assembly error with source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

/// Built-in bit symbols.
fn bit_symbols() -> HashMap<&'static str, u16> {
    [
        ("IT0", 0x88),
        ("IE0", 0x89),
        ("IT1", 0x8a),
        ("IE1", 0x8b),
        ("TR0", 0x8c),
        ("TF0", 0x8d),
        ("TR1", 0x8e),
        ("TF1", 0x8f),
        ("RI", 0x98),
        ("TI", 0x99),
        ("RB8", 0x9a),
        ("TB8", 0x9b),
        ("REN", 0x9c),
        ("SM2", 0x9d),
        ("SM1", 0x9e),
        ("SM0", 0x9f),
        ("EX0", 0xa8),
        ("ET0", 0xa9),
        ("EX1", 0xaa),
        ("ET1", 0xab),
        ("ES", 0xac),
        ("EA", 0xaf),
        ("P", 0xd0),
        ("OV", 0xd2),
        ("RS0", 0xd3),
        ("RS1", 0xd4),
        ("F0", 0xd5),
        ("AC", 0xd6),
        ("CY", 0xd7),
    ]
    .into_iter()
    .collect()
}

/// One parsed operand.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    A,
    Ab,
    C,
    Dptr,
    AtDptr,
    AtAPlusDptr,
    AtAPlusPc,
    Reg(u8),
    AtReg(u8),
    Immediate(String),
    /// `/bit` complement form for ANL/ORL C.
    NotBit(String),
    /// Anything else: a direct address, bit reference or label, resolved
    /// in pass 2 according to the instruction context.
    Expr(String),
}

fn parse_operand(tok: &str) -> Operand {
    let t = tok.trim();
    let u = t.to_ascii_uppercase();
    match u.as_str() {
        "A" => return Operand::A,
        "AB" => return Operand::Ab,
        "C" => return Operand::C,
        "DPTR" => return Operand::Dptr,
        "@DPTR" => return Operand::AtDptr,
        "@A+DPTR" => return Operand::AtAPlusDptr,
        "@A+PC" => return Operand::AtAPlusPc,
        "@R0" => return Operand::AtReg(0),
        "@R1" => return Operand::AtReg(1),
        _ => {}
    }
    if u.len() == 2 && u.starts_with('R') {
        if let Some(d) = u[1..].parse::<u8>().ok().filter(|&d| d < 8) {
            return Operand::Reg(d);
        }
    }
    if let Some(rest) = t.strip_prefix('#') {
        return Operand::Immediate(rest.to_owned());
    }
    if let Some(rest) = t.strip_prefix('/') {
        return Operand::NotBit(rest.to_owned());
    }
    Operand::Expr(t.to_owned())
}

/// Numeric literal / symbol evaluator.
fn eval(
    expr: &str,
    symbols: &HashMap<String, u16>,
    bits: bool,
    line: usize,
) -> Result<u16, AsmError> {
    let t = expr.trim();
    // SFR.bit / symbol.bit notation.
    if bits {
        if let Some((base, bitn)) = t.rsplit_once('.') {
            let bit: u16 = bitn.trim().parse().map_err(|_| AsmError {
                line,
                message: format!("bad bit number in `{t}`"),
            })?;
            if bit > 7 {
                return err(line, format!("bit number {bit} > 7 in `{t}`"));
            }
            let byte = eval(base, symbols, false, line)?;
            return if byte >= 0x80 {
                if byte % 8 != 0 {
                    err(line, format!("SFR {byte:#x} is not bit-addressable"))
                } else {
                    Ok(byte | bit)
                }
            } else if (0x20..0x30).contains(&byte) {
                Ok((byte - 0x20) * 8 + bit)
            } else {
                err(line, format!("address {byte:#x} is not bit-addressable"))
            };
        }
        if let Some(&b) = bit_symbols().get(t.to_ascii_uppercase().as_str()) {
            return Ok(b);
        }
    }
    if let Some(&v) = symbols.get(&t.to_ascii_uppercase()) {
        return Ok(v);
    }
    if let Some(&(addr, _)) = CORE_SFRS
        .iter()
        .find(|(_, name)| name.eq_ignore_ascii_case(t))
    {
        return Ok(u16::from(addr));
    }
    // Character literal.
    if t.len() == 3 && t.starts_with('\'') && t.ends_with('\'') {
        return Ok(t.as_bytes()[1] as u16);
    }
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(b) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (b, 2)
    } else if t.len() > 1 && (t.ends_with('h') || t.ends_with('H')) {
        (&t[..t.len() - 1], 16)
    } else {
        (t, 10)
    };
    u16::from_str_radix(digits, radix).map_or_else(
        |_| err(line, format!("undefined symbol or bad literal `{t}`")),
        Ok,
    )
}

/// A source line after tokenization.
#[derive(Debug)]
struct Item {
    line: usize,
    mnemonic: String,
    operands: Vec<Operand>,
    /// Raw operand strings (needed for DB/DW expressions).
    raw: Vec<String>,
}

/// Splits operands on commas that are not inside character literals.
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_char = false;
    for ch in s.chars() {
        match ch {
            '\'' => {
                in_char = !in_char;
                cur.push(ch);
            }
            ',' if !in_char => {
                out.push(cur.trim().to_owned());
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_owned());
    }
    out
}

/// Encodes instructions against a symbol table, or, without one (pass 1,
/// when later labels are still unknown), with every operand left
/// unresolved as 0: an encoding's length depends only on its mnemonic and
/// operand shapes, so that sizes it.
struct Encoder<'a> {
    symbols: Option<&'a HashMap<String, u16>>,
}

impl Encoder<'_> {
    /// The value of `s`, or `None` while operands are unresolved.
    fn value(&self, s: &str, bits: bool, line: usize) -> Result<Option<u16>, AsmError> {
        self.symbols.map(|sym| eval(s, sym, bits, line)).transpose()
    }

    fn word(&self, s: &str, line: usize) -> Result<u16, AsmError> {
        Ok(self.value(s, false, line)?.unwrap_or(0))
    }

    fn byte(&self, s: &str, line: usize) -> Result<u8, AsmError> {
        let v = self.word(s, line)?;
        if v > 0xff {
            return err(line, format!("value {v:#x} does not fit in a byte"));
        }
        Ok(v as u8)
    }

    fn bit(&self, s: &str, line: usize) -> Result<u8, AsmError> {
        let v = self.value(s, true, line)?.unwrap_or(0);
        if v > 0xff {
            return err(line, format!("bit address {v:#x} out of range"));
        }
        Ok(v as u8)
    }

    fn rel(&self, s: &str, pc_after: u16, line: usize) -> Result<u8, AsmError> {
        let Some(target) = self.value(s, false, line)? else {
            return Ok(0);
        };
        // The 8051 PC wraps at 64 KiB, so the shortest signed distance is
        // taken modulo 2^16 (a branch at 0x0002 can legally target 0xFFF0).
        let delta = i32::from(target.wrapping_sub(pc_after) as i16);
        if !(-128..=127).contains(&delta) {
            return err(
                line,
                format!("branch target {delta} bytes away exceeds ±128 (use LJMP)"),
            );
        }
        Ok(delta as u8)
    }

    #[allow(clippy::too_many_lines)]
    fn encode(&self, item: &Item, pc: u16) -> Result<Vec<u8>, AsmError> {
        use Operand::*;
        let m = item.mnemonic.as_str();
        let ops = &item.operands;
        let ln = item.line;
        // The PC after an instruction of `n` bytes, wrapping at 64 KiB as
        // the core's does.
        let after = |n: u16| pc.wrapping_add(n);
        let out: Vec<u8> = match (m, ops.as_slice()) {
            ("NOP", _) => vec![0x00],
            ("RET", _) => vec![0x22],
            ("RETI", _) => vec![0x32],
            ("RR", [A]) => vec![0x03],
            ("RRC", [A]) => vec![0x13],
            ("RL", [A]) => vec![0x23],
            ("RLC", [A]) => vec![0x33],
            ("SWAP", [A]) => vec![0xc4],
            ("DA", [A]) => vec![0xd4],
            ("CLR", [A]) => vec![0xe4],
            ("CLR", [C]) => vec![0xc3],
            ("CLR", [Expr(b)]) => vec![0xc2, self.bit(b, ln)?],
            ("CPL", [A]) => vec![0xf4],
            ("CPL", [C]) => vec![0xb3],
            ("CPL", [Expr(b)]) => vec![0xb2, self.bit(b, ln)?],
            ("SETB", [C]) => vec![0xd3],
            ("SETB", [Expr(b)]) => vec![0xd2, self.bit(b, ln)?],
            ("INC", [A]) => vec![0x04],
            ("INC", [Dptr]) => vec![0xa3],
            ("INC", [Reg(r)]) => vec![0x08 | r],
            ("INC", [AtReg(r)]) => vec![0x06 | r],
            ("INC", [Expr(d)]) => vec![0x05, self.byte(d, ln)?],
            ("DEC", [A]) => vec![0x14],
            ("DEC", [Reg(r)]) => vec![0x18 | r],
            ("DEC", [AtReg(r)]) => vec![0x16 | r],
            ("DEC", [Expr(d)]) => vec![0x15, self.byte(d, ln)?],
            ("MUL", [Ab]) => vec![0xa4],
            ("DIV", [Ab]) => vec![0x84],
            ("LJMP", [Expr(t)]) => {
                let a = self.word(t, ln)?;
                vec![0x02, (a >> 8) as u8, a as u8]
            }
            ("LCALL", [Expr(t)]) => {
                let a = self.word(t, ln)?;
                vec![0x12, (a >> 8) as u8, a as u8]
            }
            ("AJMP", [Expr(t)]) => self.a11(0x01, t, after(2), ln)?,
            ("ACALL", [Expr(t)]) => self.a11(0x11, t, after(2), ln)?,
            ("SJMP", [Expr(t)]) => vec![0x80, self.rel(t, after(2), ln)?],
            ("JC", [Expr(t)]) => vec![0x40, self.rel(t, after(2), ln)?],
            ("JNC", [Expr(t)]) => vec![0x50, self.rel(t, after(2), ln)?],
            ("JZ", [Expr(t)]) => vec![0x60, self.rel(t, after(2), ln)?],
            ("JNZ", [Expr(t)]) => vec![0x70, self.rel(t, after(2), ln)?],
            ("JMP", [AtAPlusDptr]) => vec![0x73],
            ("JB", [Expr(b), Expr(t)]) => {
                vec![0x20, self.bit(b, ln)?, self.rel(t, after(3), ln)?]
            }
            ("JNB", [Expr(b), Expr(t)]) => {
                vec![0x30, self.bit(b, ln)?, self.rel(t, after(3), ln)?]
            }
            ("JBC", [Expr(b), Expr(t)]) => {
                vec![0x10, self.bit(b, ln)?, self.rel(t, after(3), ln)?]
            }
            ("ADD", [A, rhs]) => self.alu(0x24, rhs, ln)?,
            ("ADDC", [A, rhs]) => self.alu(0x34, rhs, ln)?,
            ("SUBB", [A, rhs]) => self.alu(0x94, rhs, ln)?,
            ("ORL", [A, rhs]) => self.alu(0x44, rhs, ln)?,
            ("ANL", [A, rhs]) => self.alu(0x54, rhs, ln)?,
            ("XRL", [A, rhs]) => self.alu(0x64, rhs, ln)?,
            ("ORL", [Expr(d), A]) => vec![0x42, self.byte(d, ln)?],
            ("ANL", [Expr(d), A]) => vec![0x52, self.byte(d, ln)?],
            ("XRL", [Expr(d), A]) => vec![0x62, self.byte(d, ln)?],
            ("ORL", [Expr(d), Immediate(i)]) => {
                vec![0x43, self.byte(d, ln)?, self.byte(i, ln)?]
            }
            ("ANL", [Expr(d), Immediate(i)]) => {
                vec![0x53, self.byte(d, ln)?, self.byte(i, ln)?]
            }
            ("XRL", [Expr(d), Immediate(i)]) => {
                vec![0x63, self.byte(d, ln)?, self.byte(i, ln)?]
            }
            ("ORL", [C, Expr(b)]) => vec![0x72, self.bit(b, ln)?],
            ("ORL", [C, NotBit(b)]) => vec![0xa0, self.bit(b, ln)?],
            ("ANL", [C, Expr(b)]) => vec![0x82, self.bit(b, ln)?],
            ("ANL", [C, NotBit(b)]) => vec![0xb0, self.bit(b, ln)?],
            ("MOV", [A, Immediate(i)]) => vec![0x74, self.byte(i, ln)?],
            ("MOV", [A, Reg(r)]) => vec![0xe8 | r],
            ("MOV", [A, AtReg(r)]) => vec![0xe6 | r],
            ("MOV", [A, Expr(d)]) => vec![0xe5, self.byte(d, ln)?],
            ("MOV", [Reg(r), A]) => vec![0xf8 | r],
            ("MOV", [AtReg(r), A]) => vec![0xf6 | r],
            ("MOV", [Expr(d), A]) => vec![0xf5, self.byte(d, ln)?],
            ("MOV", [Reg(r), Immediate(i)]) => vec![0x78 | r, self.byte(i, ln)?],
            ("MOV", [AtReg(r), Immediate(i)]) => vec![0x76 | r, self.byte(i, ln)?],
            ("MOV", [Reg(r), Expr(d)]) => vec![0xa8 | r, self.byte(d, ln)?],
            ("MOV", [AtReg(r), Expr(d)]) => vec![0xa6 | r, self.byte(d, ln)?],
            ("MOV", [Expr(d), Reg(r)]) => vec![0x88 | r, self.byte(d, ln)?],
            ("MOV", [Expr(d), AtReg(r)]) => vec![0x86 | r, self.byte(d, ln)?],
            ("MOV", [Expr(d), Immediate(i)]) => {
                vec![0x75, self.byte(d, ln)?, self.byte(i, ln)?]
            }
            // MOV dest,src encodes src first.
            ("MOV", [Expr(dst), Expr(src)]) => {
                vec![0x85, self.byte(src, ln)?, self.byte(dst, ln)?]
            }
            ("MOV", [Dptr, Immediate(i)]) => {
                let v = self.word(i, ln)?;
                vec![0x90, (v >> 8) as u8, v as u8]
            }
            ("MOV", [C, Expr(b)]) => vec![0xa2, self.bit(b, ln)?],
            ("MOV", [Expr(b), C]) => vec![0x92, self.bit(b, ln)?],
            ("MOVC", [A, AtAPlusDptr]) => vec![0x93],
            ("MOVC", [A, AtAPlusPc]) => vec![0x83],
            ("MOVX", [A, AtDptr]) => vec![0xe0],
            ("MOVX", [A, AtReg(r)]) => vec![0xe2 | r],
            ("MOVX", [AtDptr, A]) => vec![0xf0],
            ("MOVX", [AtReg(r), A]) => vec![0xf2 | r],
            ("PUSH", [Expr(d)]) => vec![0xc0, self.byte(d, ln)?],
            ("POP", [Expr(d)]) => vec![0xd0, self.byte(d, ln)?],
            ("XCH", [A, Reg(r)]) => vec![0xc8 | r],
            ("XCH", [A, AtReg(r)]) => vec![0xc6 | r],
            ("XCH", [A, Expr(d)]) => vec![0xc5, self.byte(d, ln)?],
            ("XCHD", [A, AtReg(r)]) => vec![0xd6 | r],
            ("CJNE", [A, Immediate(i), Expr(t)]) => {
                vec![0xb4, self.byte(i, ln)?, self.rel(t, after(3), ln)?]
            }
            ("CJNE", [A, Expr(d), Expr(t)]) => {
                vec![0xb5, self.byte(d, ln)?, self.rel(t, after(3), ln)?]
            }
            ("CJNE", [AtReg(r), Immediate(i), Expr(t)]) => {
                vec![0xb6 | r, self.byte(i, ln)?, self.rel(t, after(3), ln)?]
            }
            ("CJNE", [Reg(r), Immediate(i), Expr(t)]) => {
                vec![0xb8 | r, self.byte(i, ln)?, self.rel(t, after(3), ln)?]
            }
            ("DJNZ", [Reg(r), Expr(t)]) => vec![0xd8 | r, self.rel(t, after(2), ln)?],
            ("DJNZ", [Expr(d), Expr(t)]) => {
                vec![0xd5, self.byte(d, ln)?, self.rel(t, after(3), ln)?]
            }
            _ => {
                return err(
                    ln,
                    format!("unsupported instruction `{m}` with these operands"),
                )
            }
        };
        Ok(out)
    }

    fn alu(&self, base: u8, rhs: &Operand, line: usize) -> Result<Vec<u8>, AsmError> {
        Ok(match rhs {
            Operand::Immediate(i) => vec![base, self.byte(i, line)?],
            Operand::Expr(d) => vec![base | 0x01, self.byte(d, line)?],
            Operand::AtReg(r) => vec![base | 0x02 | r],
            // Register forms live at (row | 0x08 | r): plain OR with the
            // 0x.4 immediate base would collide r0..r3 with r4..r7.
            Operand::Reg(r) => vec![(base & 0xf0) | 0x08 | r],
            _ => return err(line, "bad ALU operand"),
        })
    }

    fn a11(&self, base: u8, t: &str, pc_after: u16, line: usize) -> Result<Vec<u8>, AsmError> {
        let Some(target) = self.value(t, false, line)? else {
            return Ok(vec![base, 0]);
        };
        if target & 0xf800 != pc_after & 0xf800 {
            return err(
                line,
                format!("AJMP/ACALL target {target:#06x} outside the 2 KiB page"),
            );
        }
        let page = ((target >> 8) & 0x07) as u8;
        Ok(vec![base | (page << 5), target as u8])
    }
}

/// The end of an item of `size` bytes placed at `at`, or an error when it
/// runs past code memory's last address, 0xFFFF.
fn item_end(at: u32, size: usize, line: usize) -> Result<u32, AsmError> {
    let end = at + size as u32;
    if end > 0x1_0000 {
        return err(line, format!("code at {at:#06x} runs past 0xFFFF"));
    }
    Ok(end)
}

/// Assembles 8051 source into a ROM image (origin 0).
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the 1-based line number for syntax
/// errors, undefined symbols, range violations (branch too far, byte
/// overflow, code or a label past 0xFFFF) and unsupported operand
/// combinations.
pub fn assemble(source: &str) -> Result<Vec<u8>, AsmError> {
    let mut symbols: HashMap<String, u16> = HashMap::new();
    let mut items: Vec<(u16, Item)> = Vec::new();
    // Wider than an address, so that code running past 0xFFFF is seen
    // instead of wrapping to 0x0000.
    let mut pc: u32 = 0;

    // Pass 1: labels, EQU, and each instruction's size, from encoding it
    // with its operands unresolved.
    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw_line;
        if let Some(p) = find_comment(text) {
            text = &text[..p];
        }
        let mut text = text.trim();
        // Labels (possibly several).
        while let Some(colon) = find_label_colon(text) {
            let label = text[..colon].trim();
            if label.is_empty() || !is_ident(label) {
                return err(line_no, format!("bad label `{label}`"));
            }
            let Ok(at) = u16::try_from(pc) else {
                return err(line_no, format!("label `{label}` past 0xFFFF"));
            };
            if symbols.insert(label.to_ascii_uppercase(), at).is_some() {
                return err(line_no, format!("duplicate label `{label}`"));
            }
            text = text[colon + 1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m.to_ascii_uppercase(), r.trim()),
            None => (text.to_ascii_uppercase(), ""),
        };
        // EQU: `NAME EQU value` (the first token is the symbol name).
        let upper_rest = rest.to_ascii_uppercase();
        if upper_rest == "EQU" {
            return err(line_no, "EQU requires `NAME EQU value` form");
        }
        if let Some(value_str) = upper_rest
            .strip_prefix("EQU")
            .filter(|r| r.starts_with(char::is_whitespace))
            .map(|_| rest[3..].trim())
        {
            let value = eval(value_str, &symbols, false, line_no)?;
            symbols.insert(mnemonic, value);
            continue;
        }
        match mnemonic.as_str() {
            "ORG" => {
                pc = eval(rest, &symbols, false, line_no)?.into();
                continue;
            }
            "DB" | "DW" => {
                let raw = split_operands(rest);
                let size = raw.len() * if mnemonic == "DB" { 1 } else { 2 };
                let end = item_end(pc, size, line_no)?;
                items.push((
                    pc as u16,
                    Item {
                        line: line_no,
                        mnemonic,
                        operands: Vec::new(),
                        raw,
                    },
                ));
                pc = end;
                continue;
            }
            _ => {}
        }
        let operands: Vec<Operand> = split_operands(rest)
            .iter()
            .map(|s| parse_operand(s))
            .collect();
        let item = Item {
            line: line_no,
            mnemonic,
            operands,
            raw: Vec::new(),
        };
        // An instruction starting at 0x10000 is refused below by its size;
        // its unresolved encoding only needs some address.
        let size = Encoder { symbols: None }.encode(&item, pc as u16)?.len();
        let end = item_end(pc, size, line_no)?;
        items.push((pc as u16, item));
        pc = end;
    }

    // Pass 2: encode.
    let enc = Encoder {
        symbols: Some(&symbols),
    };
    let mut image = Vec::new();
    for (addr, item) in &items {
        let bytes = match item.mnemonic.as_str() {
            "DB" => {
                let mut v = Vec::new();
                for r in &item.raw {
                    v.push(enc.byte(r, item.line)?);
                }
                v
            }
            "DW" => {
                let mut v = Vec::new();
                for r in &item.raw {
                    let w = eval(r, &symbols, false, item.line)?;
                    v.push((w >> 8) as u8);
                    v.push(w as u8);
                }
                v
            }
            _ => enc.encode(item, *addr)?,
        };
        let end = item_end((*addr).into(), bytes.len(), item.line)? as usize;
        if image.len() < end {
            image.resize(end, 0);
        }
        image[*addr as usize..end].copy_from_slice(&bytes);
    }
    Ok(image)
}

fn find_comment(s: &str) -> Option<usize> {
    let mut in_char = false;
    for (i, ch) in s.char_indices() {
        match ch {
            '\'' => in_char = !in_char,
            ';' if !in_char => return Some(i),
            _ => {}
        }
    }
    None
}

fn find_label_colon(s: &str) -> Option<usize> {
    // A label is `ident:` at the start of the line.
    let head: String = s.chars().take_while(|c| *c != ':').collect();
    if s.len() > head.len() && is_ident(head.trim()) && !head.trim().is_empty() {
        Some(head.len())
    } else {
        None
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_instructions() {
        let img = assemble("nop\nret\nclr a\ncpl c\n").unwrap();
        assert_eq!(img, vec![0x00, 0x22, 0xe4, 0xb3]);
    }

    #[test]
    fn mov_forms() {
        let img = assemble(
            "mov a, #0x12\nmov r3, a\nmov a, r3\nmov 0x30, #0x55\nmov a, @r0\nmov dptr, #0x1234\n",
        )
        .unwrap();
        assert_eq!(
            img,
            vec![0x74, 0x12, 0xfb, 0xeb, 0x75, 0x30, 0x55, 0xe6, 0x90, 0x12, 0x34]
        );
    }

    #[test]
    fn mov_direct_direct_encodes_src_first() {
        let img = assemble("mov 0x40, 0x30\n").unwrap();
        assert_eq!(img, vec![0x85, 0x30, 0x40]);
    }

    #[test]
    fn labels_and_branches() {
        let img = assemble("start: djnz r2, start\n sjmp start\n").unwrap();
        assert_eq!(img, vec![0xda, 0xfe, 0x80, 0xfc]);
    }

    #[test]
    fn forward_references() {
        let img = assemble("sjmp done\nnop\ndone: ret\n").unwrap();
        assert_eq!(img, vec![0x80, 0x01, 0x00, 0x22]);
    }

    #[test]
    fn sfr_names_resolve() {
        let img = assemble("mov sbuf, a\nmov a, p1\n").unwrap();
        assert_eq!(img, vec![0xf5, 0x99, 0xe5, 0x90]);
    }

    #[test]
    fn bit_notation() {
        let img = assemble("setb p1.3\nclr ti\njb ri, $0\n$0: ret\n");
        // `$0` is not a valid identifier — use a plain label instead.
        assert!(img.is_err());
        let img = assemble("setb p1.3\nclr ti\nhere: jb ri, here\nret\n").unwrap();
        assert_eq!(img, vec![0xd2, 0x93, 0xc2, 0x99, 0x20, 0x98, 0xfd, 0x22]);
    }

    #[test]
    fn iram_bit_addressing() {
        // Bit 5 of IRAM byte 0x2f = bit address (0x2f-0x20)*8+5 = 0x7d.
        let img = assemble("setb 0x2f.5\n").unwrap();
        assert_eq!(img, vec![0xd2, 0x7d]);
    }

    /// Code memory ends at 0xFFFF. An instruction that fits below it
    /// assembles, with the PC after it wrapping to 0x0000 as the core's
    /// does; one that runs past it, or starts past it, is an error rather
    /// than an image over 64 KiB or bytes wrapped to 0x0000.
    #[test]
    fn code_past_0xffff_is_an_error() {
        let image = assemble("org 0xfffe\nsjmp 0\n").expect("ends at 0xFFFF");
        assert_eq!(image.len(), 0x1_0000);
        assert_eq!(&image[0xfffe..], &[0x80, 0x00]);
        for (src, line) in [
            ("org 0xfffe\nljmp 0\n", 2),
            ("org 0xffff\nnop\nnop\n", 3),
            ("org 0xffff\ndb 1, 2\n", 2),
            ("org 0xffff\nnop\nend:\n", 3),
        ] {
            let e = assemble(src).expect_err(src);
            assert_eq!(e.line, line, "{src}: {e}");
        }
    }

    #[test]
    fn org_and_db_dw() {
        let img = assemble("org 0x10\ndb 1, 2, 'A'\ndw 0x1234\n").unwrap();
        assert_eq!(img.len(), 0x10 + 5);
        assert_eq!(&img[0x10..], &[1, 2, 0x41, 0x12, 0x34]);
    }

    #[test]
    fn equ_defines_symbols() {
        let img = assemble("LED EQU 0x90\nmov LED, #1\n").unwrap();
        assert_eq!(img, vec![0x75, 0x90, 0x01]);
    }

    #[test]
    fn ljmp_lcall() {
        let img = assemble("ljmp 0x1234\nlcall 0x0100\n").unwrap();
        assert_eq!(img, vec![0x02, 0x12, 0x34, 0x12, 0x01, 0x00]);
    }

    #[test]
    fn ajmp_page_check() {
        let err = assemble("org 0x07f0\najmp 0x1000\n").unwrap_err();
        assert!(err.message.contains("page"), "{err}");
    }

    #[test]
    fn branch_out_of_range_is_error() {
        let src = "start: nop\norg 0x200\nsjmp start\n";
        let err = assemble(src).unwrap_err();
        assert!(err.message.contains("±128"), "{err}");
        assert_eq!(err.line, 3);
    }

    #[test]
    fn undefined_symbol_reports_line() {
        let err = assemble("nop\nmov a, nosuch\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("nosuch"));
    }

    #[test]
    fn duplicate_label_is_error() {
        let err = assemble("x: nop\nx: nop\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn comments_ignored() {
        let img = assemble("; full line\nnop ; trailing\n").unwrap();
        assert_eq!(img, vec![0x00]);
    }

    #[test]
    fn alu_encodings() {
        let img = assemble("add a, #5\nadd a, 0x30\nadd a, @r1\nadd a, r7\nsubb a, #1\n").unwrap();
        assert_eq!(img, vec![0x24, 5, 0x25, 0x30, 0x27, 0x2f, 0x94, 1]);
    }

    #[test]
    fn cjne_forms() {
        let img = assemble("loop: cjne a, #3, loop\ncjne r0, #1, loop\n").unwrap();
        assert_eq!(img, vec![0xb4, 3, 0xfd, 0xb8, 1, 0xfa]);
    }

    #[test]
    fn movx_and_movc() {
        let img =
            assemble("movx a, @dptr\nmovx @dptr, a\nmovc a, @a+dptr\nmovc a, @a+pc\n").unwrap();
        assert_eq!(img, vec![0xe0, 0xf0, 0x93, 0x83]);
    }

    #[test]
    fn hex_suffix_and_binary_literals() {
        let img = assemble("mov a, #0ffh\nmov a, #0b1010\n").unwrap();
        assert_eq!(img, vec![0x74, 0xff, 0x74, 0x0a]);
    }
}
