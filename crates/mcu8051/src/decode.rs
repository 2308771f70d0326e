//! Opcode decode table of the 8051 interpreter.
//!
//! One row per opcode: how many operand bytes follow it and how many
//! machine cycles it costs (fixed per opcode on this core, branch taken or
//! not). [`crate::cpu::Cpu`] fetches operands through [`DECODE`] and
//! debug-checks every executed instruction's cycle count against it.

/// `(operand bytes, machine cycles)` of one opcode.
const fn decode_meta(op: u8) -> (u8, u8) {
    match op {
        0x00 => (0, 1),                                                  // NOP
        0x01 | 0x21 | 0x41 | 0x61 | 0x81 | 0xa1 | 0xc1 | 0xe1 => (1, 2), // AJMP
        0x11 | 0x31 | 0x51 | 0x71 | 0x91 | 0xb1 | 0xd1 | 0xf1 => (1, 2), // ACALL
        0x02 | 0x12 => (2, 2),                                           // LJMP / LCALL
        0x03 | 0x13 | 0x23 | 0x33 => (0, 1),                             // RR/RRC/RL/RLC
        0x04 | 0x14 => (0, 1),                                           // INC/DEC A
        0x05 | 0x15 => (1, 1),                                           // INC/DEC dir
        0x06 | 0x07 | 0x16 | 0x17 => (0, 1),                             // INC/DEC @Ri
        0x08..=0x0f | 0x18..=0x1f => (0, 1),                             // INC/DEC Rn
        0xa3 => (0, 2),                                                  // INC DPTR
        0x10 => (2, 2),                                                  // JBC
        0x20 | 0x30 => (2, 2),                                           // JB / JNB
        0x40 | 0x50 | 0x60 | 0x70 => (1, 2),                             // JC/JNC/JZ/JNZ
        0x80 => (1, 2),                                                  // SJMP
        0x73 => (0, 2),                                                  // JMP @A+DPTR
        0x22 | 0x32 => (0, 2),                                           // RET / RETI
        0x24 | 0x34 | 0x94 => (1, 1),                                    // ADD/ADDC/SUBB #
        0x25 | 0x35 | 0x95 => (1, 1),                                    // ADD/ADDC/SUBB dir
        0x26 | 0x27 | 0x36 | 0x37 | 0x96 | 0x97 => (0, 1),               // ... @Ri
        0x28..=0x2f | 0x38..=0x3f | 0x98..=0x9f => (0, 1),               // ... Rn
        0x42 | 0x52 | 0x62 => (1, 1),                                    // ORL/ANL/XRL dir,A
        0x43 | 0x53 | 0x63 => (2, 2),                                    // ORL/ANL/XRL dir,#
        0x44 | 0x54 | 0x64 => (1, 1),                                    // ORL/ANL/XRL A,#
        0x45 | 0x55 | 0x65 => (1, 1),                                    // ORL/ANL/XRL A,dir
        0x46 | 0x47 | 0x56 | 0x57 | 0x66 | 0x67 => (0, 1),               // ... A,@Ri
        0x48..=0x4f | 0x58..=0x5f | 0x68..=0x6f => (0, 1),               // ... A,Rn
        0x72 | 0xa0 | 0x82 | 0xb0 => (1, 2),                             // ORL/ANL C,(/)bit
        0x74 => (1, 1),                                                  // MOV A,#
        0x75 => (2, 2),                                                  // MOV dir,#
        0x76 | 0x77 => (1, 1),                                           // MOV @Ri,#
        0x78..=0x7f => (1, 1),                                           // MOV Rn,#
        0x85 => (2, 2),                                                  // MOV dir,dir
        0x86 | 0x87 => (1, 2),                                           // MOV dir,@Ri
        0x88..=0x8f => (1, 2),                                           // MOV dir,Rn
        0x90 => (2, 2),                                                  // MOV DPTR,#
        0xa6 | 0xa7 => (1, 2),                                           // MOV @Ri,dir
        0xa8..=0xaf => (1, 2),                                           // MOV Rn,dir
        0xe5 => (1, 1),                                                  // MOV A,dir
        0xe6..=0xef => (0, 1),                                           // MOV A,@Ri/Rn
        0xf5 => (1, 1),                                                  // MOV dir,A
        0xf6..=0xff => (0, 1),                                           // MOV @Ri/Rn,A
        0x83 | 0x93 => (0, 2),                                           // MOVC
        0xe0 | 0xe2 | 0xe3 | 0xf0 | 0xf2 | 0xf3 => (0, 2),               // MOVX
        0xa4 | 0x84 => (0, 4),                                           // MUL / DIV
        0xd4 | 0xc4 | 0xe4 | 0xf4 => (0, 1),                             // DA/SWAP/CLR/CPL A
        0xc2 | 0xd2 | 0xb2 => (1, 1),                                    // CLR/SETB/CPL bit
        0xc3 | 0xd3 | 0xb3 => (0, 1),                                    // CLR/SETB/CPL C
        0x92 => (1, 2),                                                  // MOV bit,C
        0xa2 => (1, 1),                                                  // MOV C,bit
        0xc0 | 0xd0 => (1, 2),                                           // PUSH / POP
        0xc5 => (1, 1),                                                  // XCH A,dir
        0xc6 | 0xc7 | 0xc8..=0xcf | 0xd6 | 0xd7 => (0, 1),               // XCH/XCHD
        0xb4 | 0xb5 => (2, 2),                                           // CJNE A,#/dir
        0xb6..=0xbf => (2, 2),                                           // CJNE @Ri/Rn,#
        0xd5 => (2, 2),                                                  // DJNZ dir
        0xd8..=0xdf => (1, 2),                                           // DJNZ Rn
        0xa5 => (0, 1),                                                  // reserved (NOP)
    }
}

const fn table() -> [(u8, u8); 256] {
    let mut t = [(0u8, 0u8); 256];
    let mut op = 0usize;
    while op < 256 {
        t[op] = decode_meta(op as u8);
        op += 1;
    }
    t
}

/// `(operand bytes, machine cycles)` per opcode.
pub(crate) static DECODE: [(u8, u8); 256] = table();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_meta_covers_every_opcode() {
        for (op, &(operands, cycles)) in DECODE.iter().enumerate() {
            assert!(operands <= 2, "opcode {op:#04x} operands");
            assert!((1..=4).contains(&cycles), "opcode {op:#04x} cycles");
        }
    }
}
