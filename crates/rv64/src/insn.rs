//! RV64I + M instruction encoding and decoding.
//!
//! Real RISC-V encodings (the unprivileged ISA spec, v2.2 — the
//! version the paper cites): 32-bit instructions, R/I/S/B/U/J formats.
//! Only the subset used by bare-metal drivers is implemented; decode
//! returns `None` for anything else rather than guessing.

/// A register index (x0..x31).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Return address (x1).
    pub const RA: Reg = Reg(1);
    /// Stack pointer (x2).
    pub const SP: Reg = Reg(2);

    /// Argument register `a0..a7` → x10..x17.
    pub const fn a(n: u8) -> Reg {
        Reg(10 + n)
    }

    /// Temporary `t0..t6` → x5..x7, x28..x31.
    pub const fn t(n: u8) -> Reg {
        if n < 3 {
            Reg(5 + n)
        } else {
            Reg(28 + n - 3)
        }
    }

    /// Saved `s0..s11` → x8, x9, x18..x27.
    pub const fn s(n: u8) -> Reg {
        match n {
            0 => Reg(8),
            1 => Reg(9),
            _ => Reg(18 + n - 2),
        }
    }
}

/// ALU operations shared by register and immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Set-less-than (signed).
    Slt,
    /// Set-less-than (unsigned).
    Sltu,
    /// Bitwise XOR.
    Xor,
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
    /// Logical left shift.
    Sll,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed).
    Lt,
    /// Greater or equal (signed).
    Ge,
    /// Less than (unsigned).
    Ltu,
    /// Greater or equal (unsigned).
    Geu,
}

/// Memory access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// Byte.
    B,
    /// Half-word (16-bit).
    H,
    /// Word (32-bit).
    W,
    /// Double-word (64-bit).
    D,
}

impl Width {
    /// Access size in bytes.
    pub fn bytes(self) -> u8 {
        match self {
            Width::B => 1,
            Width::H => 2,
            Width::W => 4,
            Width::D => 8,
        }
    }
}

/// M-extension operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulOp {
    /// Low 64 bits of the product.
    Mul,
    /// High 64 bits of the unsigned product.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

/// CSR access operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrOp {
    /// Atomic read/write.
    Rw,
    /// Atomic read and set bits.
    Rs,
    /// Atomic read and clear bits.
    Rc,
}

/// The decoded instruction set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// Load upper immediate.
    Lui { rd: Reg, imm: i32 },
    /// PC-relative upper immediate.
    Auipc { rd: Reg, imm: i32 },
    /// Jump and link (imm is a byte offset).
    Jal { rd: Reg, imm: i32 },
    /// Indirect jump and link.
    Jalr { rd: Reg, rs1: Reg, imm: i32 },
    /// Conditional branch.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    /// Load (signed extension unless `unsigned`).
    Load {
        rd: Reg,
        rs1: Reg,
        imm: i32,
        width: Width,
        unsigned: bool,
    },
    /// Store.
    Store {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
        width: Width,
    },
    /// ALU with immediate (`word` = 32-bit W-form).
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
        word: bool,
    },
    /// ALU register-register (`word` = 32-bit W-form).
    AluReg {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        word: bool,
    },
    /// M-extension (`word` = 32-bit W-form).
    MulDiv {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        word: bool,
    },
    /// Read the cycle CSR (`rdcycle rd`).
    RdCycle { rd: Reg },
    /// CSR access (`csrrw`/`csrrs`/`csrrc`).
    Csr {
        op: CsrOp,
        rd: Reg,
        rs1: Reg,
        csr: u16,
    },
    /// Return from machine-mode trap.
    Mret,
    /// Wait for interrupt.
    Wfi,
    /// Memory fence (a timing no-op here).
    Fence,
    /// Instruction fence — synchronizes the front end with stores to
    /// code memory. A 1-cycle no-op like `fence`: the interpreter's
    /// program is a separate instruction store that no store reaches.
    FenceI,
    /// Environment call — halts the interpreter.
    Ecall,
    /// Breakpoint — halts the interpreter.
    Ebreak,
}

fn rd(word: u32) -> Reg {
    Reg(((word >> 7) & 0x1F) as u8)
}
fn rs1(word: u32) -> Reg {
    Reg(((word >> 15) & 0x1F) as u8)
}
fn rs2(word: u32) -> Reg {
    Reg(((word >> 20) & 0x1F) as u8)
}
fn funct3(word: u32) -> u32 {
    (word >> 12) & 0x7
}
fn funct7(word: u32) -> u32 {
    word >> 25
}
fn imm_i(word: u32) -> i32 {
    (word as i32) >> 20
}
fn imm_s(word: u32) -> i32 {
    (((word & 0xFE00_0000) as i32) >> 20) | (((word >> 7) & 0x1F) as i32)
}
fn imm_b(word: u32) -> i32 {
    (((word & 0x8000_0000) as i32) >> 19)
        | (((word >> 7) & 0x1) as i32) << 11
        | (((word >> 25) & 0x3F) as i32) << 5
        | (((word >> 8) & 0xF) as i32) << 1
}
fn imm_u(word: u32) -> i32 {
    (word & 0xFFFF_F000) as i32
}
fn imm_j(word: u32) -> i32 {
    (((word & 0x8000_0000) as i32) >> 11)
        | (((word >> 12) & 0xFF) as i32) << 12
        | (((word >> 20) & 0x1) as i32) << 11
        | (((word >> 21) & 0x3FF) as i32) << 1
}

/// Decode one instruction word.
pub fn decode(word: u32) -> Option<Insn> {
    let opcode = word & 0x7F;
    Some(match opcode {
        0b0110111 => Insn::Lui {
            rd: rd(word),
            imm: imm_u(word),
        },
        0b0010111 => Insn::Auipc {
            rd: rd(word),
            imm: imm_u(word),
        },
        0b1101111 => Insn::Jal {
            rd: rd(word),
            imm: imm_j(word),
        },
        0b1100111 if funct3(word) == 0 => Insn::Jalr {
            rd: rd(word),
            rs1: rs1(word),
            imm: imm_i(word),
        },
        0b1100011 => {
            let cond = match funct3(word) {
                0b000 => BranchCond::Eq,
                0b001 => BranchCond::Ne,
                0b100 => BranchCond::Lt,
                0b101 => BranchCond::Ge,
                0b110 => BranchCond::Ltu,
                0b111 => BranchCond::Geu,
                _ => return None,
            };
            Insn::Branch {
                cond,
                rs1: rs1(word),
                rs2: rs2(word),
                imm: imm_b(word),
            }
        }
        0b0000011 => {
            let (width, unsigned) = match funct3(word) {
                0b000 => (Width::B, false),
                0b001 => (Width::H, false),
                0b010 => (Width::W, false),
                0b011 => (Width::D, false),
                0b100 => (Width::B, true),
                0b101 => (Width::H, true),
                0b110 => (Width::W, true),
                _ => return None,
            };
            Insn::Load {
                rd: rd(word),
                rs1: rs1(word),
                imm: imm_i(word),
                width,
                unsigned,
            }
        }
        0b0100011 => {
            let width = match funct3(word) {
                0b000 => Width::B,
                0b001 => Width::H,
                0b010 => Width::W,
                0b011 => Width::D,
                _ => return None,
            };
            Insn::Store {
                rs1: rs1(word),
                rs2: rs2(word),
                imm: imm_s(word),
                width,
            }
        }
        0b0010011 | 0b0011011 => {
            let word_form = opcode == 0b0011011;
            let shamt_mask = if word_form { 0x1F } else { 0x3F };
            let (op, imm) = match funct3(word) {
                0b000 => (AluOp::Add, imm_i(word)),
                0b010 if !word_form => (AluOp::Slt, imm_i(word)),
                0b011 if !word_form => (AluOp::Sltu, imm_i(word)),
                0b100 if !word_form => (AluOp::Xor, imm_i(word)),
                0b110 if !word_form => (AluOp::Or, imm_i(word)),
                0b111 if !word_form => (AluOp::And, imm_i(word)),
                0b001 => (AluOp::Sll, (imm_i(word)) & shamt_mask),
                0b101 => {
                    if funct7(word) & 0x20 != 0 {
                        (AluOp::Sra, imm_i(word) & shamt_mask)
                    } else {
                        (AluOp::Srl, imm_i(word) & shamt_mask)
                    }
                }
                _ => return None,
            };
            Insn::AluImm {
                op,
                rd: rd(word),
                rs1: rs1(word),
                imm,
                word: word_form,
            }
        }
        0b0110011 | 0b0111011 => {
            let word_form = opcode == 0b0111011;
            if funct7(word) == 1 {
                let op = match funct3(word) {
                    0b000 => MulOp::Mul,
                    0b011 if !word_form => MulOp::Mulhu,
                    0b100 => MulOp::Div,
                    0b101 => MulOp::Divu,
                    0b110 => MulOp::Rem,
                    0b111 => MulOp::Remu,
                    _ => return None,
                };
                return Some(Insn::MulDiv {
                    op,
                    rd: rd(word),
                    rs1: rs1(word),
                    rs2: rs2(word),
                    word: word_form,
                });
            }
            let op = match (funct3(word), funct7(word)) {
                (0b000, 0x00) => AluOp::Add,
                (0b000, 0x20) => AluOp::Sub,
                (0b001, 0x00) => AluOp::Sll,
                (0b010, 0x00) if !word_form => AluOp::Slt,
                (0b011, 0x00) if !word_form => AluOp::Sltu,
                (0b100, 0x00) if !word_form => AluOp::Xor,
                (0b101, 0x00) => AluOp::Srl,
                (0b101, 0x20) => AluOp::Sra,
                (0b110, 0x00) if !word_form => AluOp::Or,
                (0b111, 0x00) if !word_form => AluOp::And,
                _ => return None,
            };
            Insn::AluReg {
                op,
                rd: rd(word),
                rs1: rs1(word),
                rs2: rs2(word),
                word: word_form,
            }
        }
        0b0001111 => {
            if funct3(word) == 0b001 {
                Insn::FenceI
            } else {
                Insn::Fence
            }
        }
        0b1110011 => {
            // SYSTEM: ECALL/EBREAK and rdcycle (csrrs rd, cycle, x0).
            if word == 0x0000_0073 {
                Insn::Ecall
            } else if word == 0x0010_0073 {
                Insn::Ebreak
            } else if word == 0x3020_0073 {
                Insn::Mret
            } else if word == 0x1050_0073 {
                Insn::Wfi
            } else if funct3(word) == 0b010 && rs1(word).0 == 0 && (word >> 20) == 0xC00 {
                Insn::RdCycle { rd: rd(word) }
            } else {
                let csr = (word >> 20) as u16;
                let op = match funct3(word) {
                    0b001 => CsrOp::Rw,
                    0b010 => CsrOp::Rs,
                    0b011 => CsrOp::Rc,
                    _ => return None,
                };
                Insn::Csr {
                    op,
                    rd: rd(word),
                    rs1: rs1(word),
                    csr,
                }
            }
        }
        _ => return None,
    })
}

/// Encode an instruction into its 32-bit word.
pub fn encode(insn: Insn) -> u32 {
    fn r(op: u32, f3: u32, f7: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
        op | ((rd.0 as u32) << 7)
            | (f3 << 12)
            | ((rs1.0 as u32) << 15)
            | ((rs2.0 as u32) << 20)
            | (f7 << 25)
    }
    fn i(op: u32, f3: u32, rd: Reg, rs1: Reg, imm: i32) -> u32 {
        op | ((rd.0 as u32) << 7)
            | (f3 << 12)
            | ((rs1.0 as u32) << 15)
            | (((imm as u32) & 0xFFF) << 20)
    }
    fn s(op: u32, f3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
        let imm = imm as u32;
        op | ((imm & 0x1F) << 7)
            | (f3 << 12)
            | ((rs1.0 as u32) << 15)
            | ((rs2.0 as u32) << 20)
            | ((imm & 0xFE0) << 20)
    }
    fn b(op: u32, f3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
        let imm = imm as u32;
        op | (((imm >> 11) & 1) << 7)
            | (((imm >> 1) & 0xF) << 8)
            | (f3 << 12)
            | ((rs1.0 as u32) << 15)
            | ((rs2.0 as u32) << 20)
            | (((imm >> 5) & 0x3F) << 25)
            | (((imm >> 12) & 1) << 31)
    }
    fn u(op: u32, rd: Reg, imm: i32) -> u32 {
        op | ((rd.0 as u32) << 7) | ((imm as u32) & 0xFFFF_F000)
    }
    fn j(op: u32, rd: Reg, imm: i32) -> u32 {
        let imm = imm as u32;
        op | ((rd.0 as u32) << 7)
            | (((imm >> 12) & 0xFF) << 12)
            | (((imm >> 11) & 1) << 20)
            | (((imm >> 1) & 0x3FF) << 21)
            | (((imm >> 20) & 1) << 31)
    }

    match insn {
        Insn::Lui { rd, imm } => u(0b0110111, rd, imm),
        Insn::Auipc { rd, imm } => u(0b0010111, rd, imm),
        Insn::Jal { rd, imm } => j(0b1101111, rd, imm),
        Insn::Jalr { rd, rs1, imm } => i(0b1100111, 0, rd, rs1, imm),
        Insn::Branch {
            cond,
            rs1,
            rs2,
            imm,
        } => {
            let f3 = match cond {
                BranchCond::Eq => 0b000,
                BranchCond::Ne => 0b001,
                BranchCond::Lt => 0b100,
                BranchCond::Ge => 0b101,
                BranchCond::Ltu => 0b110,
                BranchCond::Geu => 0b111,
            };
            b(0b1100011, f3, rs1, rs2, imm)
        }
        Insn::Load {
            rd,
            rs1,
            imm,
            width,
            unsigned,
        } => {
            let f3 = match (width, unsigned) {
                (Width::B, false) => 0b000,
                (Width::H, false) => 0b001,
                (Width::W, false) => 0b010,
                (Width::D, false) => 0b011,
                (Width::B, true) => 0b100,
                (Width::H, true) => 0b101,
                (Width::W, true) => 0b110,
                (Width::D, true) => panic!("ldu does not exist"),
            };
            i(0b0000011, f3, rd, rs1, imm)
        }
        Insn::Store {
            rs1,
            rs2,
            imm,
            width,
        } => {
            let f3 = match width {
                Width::B => 0b000,
                Width::H => 0b001,
                Width::W => 0b010,
                Width::D => 0b011,
            };
            s(0b0100011, f3, rs1, rs2, imm)
        }
        Insn::AluImm {
            op,
            rd,
            rs1,
            imm,
            word,
        } => {
            let opc = if word { 0b0011011 } else { 0b0010011 };
            match op {
                AluOp::Add => i(opc, 0b000, rd, rs1, imm),
                AluOp::Slt => i(opc, 0b010, rd, rs1, imm),
                AluOp::Sltu => i(opc, 0b011, rd, rs1, imm),
                AluOp::Xor => i(opc, 0b100, rd, rs1, imm),
                AluOp::Or => i(opc, 0b110, rd, rs1, imm),
                AluOp::And => i(opc, 0b111, rd, rs1, imm),
                AluOp::Sll => i(opc, 0b001, rd, rs1, imm & 0x3F),
                AluOp::Srl => i(opc, 0b101, rd, rs1, imm & 0x3F),
                AluOp::Sra => i(opc, 0b101, rd, rs1, (imm & 0x3F) | 0x400),
                AluOp::Sub => panic!("subi does not exist"),
            }
        }
        Insn::AluReg {
            op,
            rd,
            rs1,
            rs2,
            word,
        } => {
            let opc = if word { 0b0111011 } else { 0b0110011 };
            match op {
                AluOp::Add => r(opc, 0b000, 0x00, rd, rs1, rs2),
                AluOp::Sub => r(opc, 0b000, 0x20, rd, rs1, rs2),
                AluOp::Sll => r(opc, 0b001, 0x00, rd, rs1, rs2),
                AluOp::Slt => r(opc, 0b010, 0x00, rd, rs1, rs2),
                AluOp::Sltu => r(opc, 0b011, 0x00, rd, rs1, rs2),
                AluOp::Xor => r(opc, 0b100, 0x00, rd, rs1, rs2),
                AluOp::Srl => r(opc, 0b101, 0x00, rd, rs1, rs2),
                AluOp::Sra => r(opc, 0b101, 0x20, rd, rs1, rs2),
                AluOp::Or => r(opc, 0b110, 0x00, rd, rs1, rs2),
                AluOp::And => r(opc, 0b111, 0x00, rd, rs1, rs2),
            }
        }
        Insn::MulDiv {
            op,
            rd,
            rs1,
            rs2,
            word,
        } => {
            let opc = if word { 0b0111011 } else { 0b0110011 };
            let f3 = match op {
                MulOp::Mul => 0b000,
                MulOp::Mulhu => 0b011,
                MulOp::Div => 0b100,
                MulOp::Divu => 0b101,
                MulOp::Rem => 0b110,
                MulOp::Remu => 0b111,
            };
            r(opc, f3, 0x01, rd, rs1, rs2)
        }
        Insn::RdCycle { rd } => 0b1110011 | ((rd.0 as u32) << 7) | (0b010 << 12) | (0xC00 << 20),
        Insn::Csr { op, rd, rs1, csr } => {
            let f3 = match op {
                CsrOp::Rw => 0b001,
                CsrOp::Rs => 0b010,
                CsrOp::Rc => 0b011,
            };
            0b1110011
                | ((rd.0 as u32) << 7)
                | (f3 << 12)
                | ((rs1.0 as u32) << 15)
                | ((csr as u32) << 20)
        }
        Insn::Mret => 0x3020_0073,
        Insn::Wfi => 0x1050_0073,
        Insn::Fence => 0x0000_000F,
        Insn::FenceI => 0x0000_100F,
        Insn::Ecall => 0x0000_0073,
        Insn::Ebreak => 0x0010_0073,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        // addi a0, a0, 1  == 0x00150513
        assert_eq!(
            encode(Insn::AluImm {
                op: AluOp::Add,
                rd: Reg::a(0),
                rs1: Reg::a(0),
                imm: 1,
                word: false
            }),
            0x0015_0513
        );
        // sw a1, 0(a0) == 0x00b52023
        assert_eq!(
            encode(Insn::Store {
                rs1: Reg::a(0),
                rs2: Reg::a(1),
                imm: 0,
                width: Width::W
            }),
            0x00B5_2023
        );
        // jal ra, 8 == 0x008000ef
        assert_eq!(
            encode(Insn::Jal {
                rd: Reg::RA,
                imm: 8
            }),
            0x0080_00EF
        );
        // ecall
        assert_eq!(encode(Insn::Ecall), 0x0000_0073);
    }

    #[test]
    fn branch_immediate_round_trip() {
        for imm in [-4096, -2048, -4, -2, 2, 4, 1024, 4094] {
            let i = Insn::Branch {
                cond: BranchCond::Ne,
                rs1: Reg(5),
                rs2: Reg(6),
                imm,
            };
            assert_eq!(decode(encode(i)), Some(i), "imm={imm}");
        }
    }

    #[test]
    fn jal_immediate_round_trip() {
        for imm in [-1048576, -2, 2, 100, 1048574] {
            let i = Insn::Jal { rd: Reg::RA, imm };
            assert_eq!(decode(encode(i)), Some(i), "imm={imm}");
        }
    }

    #[test]
    fn unknown_word_decodes_none() {
        assert_eq!(decode(0xFFFF_FFFF), None);
        assert_eq!(decode(0x0000_0000), None);
    }

    #[test]
    fn system_instructions_round_trip() {
        assert_eq!(decode(0x3020_0073), Some(Insn::Mret));
        assert_eq!(decode(0x1050_0073), Some(Insn::Wfi));
        assert_eq!(decode(0x0000_000F), Some(Insn::Fence));
        assert_eq!(decode(0x0000_100F), Some(Insn::FenceI));
        assert_eq!(decode(encode(Insn::FenceI)), Some(Insn::FenceI));
        for op in [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc] {
            let i = Insn::Csr {
                op,
                rd: Reg(5),
                rs1: Reg(6),
                csr: 0x304,
            };
            assert_eq!(decode(encode(i)), Some(i));
        }
        // csrrs rd, cycle, x0 stays the RdCycle alias.
        let rdcycle = Insn::RdCycle { rd: Reg(10) };
        assert_eq!(decode(encode(rdcycle)), Some(rdcycle));
    }

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u8..32).prop_map(Reg)
    }

    proptest! {
        #[test]
        fn prop_alu_imm_round_trip(rd in arb_reg(), rs1 in arb_reg(), imm in -2048i32..2048, word in any::<bool>()) {
            for op in [AluOp::Add, AluOp::Xor, AluOp::Or, AluOp::And] {
                if word && op != AluOp::Add { continue; }
                let i = Insn::AluImm { op, rd, rs1, imm, word };
                prop_assert_eq!(decode(encode(i)), Some(i));
            }
        }

        #[test]
        fn prop_loads_stores_round_trip(rd in arb_reg(), rs1 in arb_reg(), imm in -2048i32..2048) {
            for width in [Width::B, Width::H, Width::W, Width::D] {
                let l = Insn::Load { rd, rs1, imm, width, unsigned: false };
                prop_assert_eq!(decode(encode(l)), Some(l));
                let s = Insn::Store { rs1, rs2: rd, imm, width };
                prop_assert_eq!(decode(encode(s)), Some(s));
            }
        }

        #[test]
        fn prop_alu_reg_round_trip(rd in arb_reg(), rs1 in arb_reg(), rs2 in arb_reg()) {
            for op in [AluOp::Add, AluOp::Sub, AluOp::Sll, AluOp::Srl, AluOp::Sra,
                       AluOp::Slt, AluOp::Sltu, AluOp::Xor, AluOp::Or, AluOp::And] {
                let i = Insn::AluReg { op, rd, rs1, rs2, word: false };
                prop_assert_eq!(decode(encode(i)), Some(i));
            }
        }

        #[test]
        fn prop_muldiv_round_trip(rd in arb_reg(), rs1 in arb_reg(), rs2 in arb_reg(), word in any::<bool>()) {
            for op in [MulOp::Mul, MulOp::Div, MulOp::Divu, MulOp::Rem, MulOp::Remu] {
                let i = Insn::MulDiv { op, rd, rs1, rs2, word };
                prop_assert_eq!(decode(encode(i)), Some(i));
            }
        }
    }
}
