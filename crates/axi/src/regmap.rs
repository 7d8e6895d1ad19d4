//! Typed register maps: one declaration per register, shared by
//! device models, drivers, and documentation.
//!
//! Every MMIO device in the reproduction used to hand-roll a
//! `match offset` decode against free-floating `pub const` offsets,
//! and the drivers imported those constants piecemeal — a drifted
//! offset silently became a wrong-register access that only the
//! crossbar's decode-error counter could notice. This module turns the
//! memory map into a checked contract:
//!
//! * a [`RegisterMap`] declares each register once — name, offset,
//!   width, access policy, reset value, one-line description — via the
//!   [`register_map!`](crate::register_map) macro, which also emits the offset constants
//!   the drivers already import;
//! * a [`RegisterFile`] performs the device-side decode of raw
//!   [`MmReq`]s against the map, rejecting unmapped, misaligned,
//!   overwide, wrong-direction, and burst accesses with a bus error
//!   instead of silently absorbing them;
//! * every access is audited ([`MmioAudit`], surfaced through the
//!   simulation kernel's `KernelStats`), and the map renders itself to
//!   markdown for the generated `REGISTERS.md`.
//!
//! Decode policy (AXI4-Lite register space):
//!
//! * The request offset must *exactly* equal a declared register
//!   offset. An offset inside a register's byte span but not at its
//!   base is **misaligned**; anything else is **unmapped**.
//! * Accesses narrower than the register are allowed (AXI-Lite strobes
//!   — the SPI and UART drivers do byte accesses to 32-bit registers);
//!   accesses wider than the register are **overwide** and rejected.
//! * Reads of write-only registers and writes to read-only registers
//!   are rejected. [`Access::W1C`] registers accept both directions;
//!   the write-one-to-clear semantics stay in the device hook.
//! * Burst operations never target register space.
//!
//! Rejections produce [`Decoded::Reject`]; the device answers with
//! [`MmResp::err`](crate::mm::MmResp::err) and must leave its state untouched (the regmap
//! proptests pin this for every registered map).

use rvcap_sim::state::{StateBlob, StateError, StateValue};
use rvcap_sim::MmioAudit;

use crate::mm::{MmOp, MmReq};

/// Software access policy for one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read-only: writes are rejected.
    RO,
    /// Write-only: reads are rejected.
    WO,
    /// Read-write.
    RW,
    /// Read / write-one-to-clear: decodes like [`Access::RW`]; the
    /// clear-on-one semantics live in the device's write hook.
    W1C,
}

impl Access {
    /// Short name for tables (`RO`, `WO`, `RW`, `W1C`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Access::RO => "RO",
            Access::WO => "WO",
            Access::RW => "RW",
            Access::W1C => "W1C",
        }
    }

    /// True if the policy admits reads.
    pub fn readable(&self) -> bool {
        !matches!(self, Access::WO)
    }

    /// True if the policy admits writes.
    pub fn writable(&self) -> bool {
        !matches!(self, Access::RO)
    }
}

/// One register declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegDef {
    /// Constant-style name (`MM2S_DMACR`), as the drivers import it.
    pub name: &'static str,
    /// Byte offset within the device window.
    pub offset: u64,
    /// Register width in bytes (4 or 8 here).
    pub width: u8,
    /// Access policy.
    pub access: Access,
    /// Value after reset.
    pub reset: u64,
    /// One-line description for the generated memory map.
    pub doc: &'static str,
}

impl RegDef {
    /// Mask selecting the register's valid bits.
    pub fn mask(&self) -> u64 {
        if self.width >= 8 {
            u64::MAX
        } else {
            (1u64 << (8 * self.width as u32)) - 1
        }
    }

    /// True if `offset` lies within this register's byte span.
    pub fn spans(&self, offset: u64) -> bool {
        (self.offset..self.offset + self.width as u64).contains(&offset)
    }
}

/// A device's complete register map: the single source of truth the
/// device decode, the driver constants, and the documentation all
/// derive from.
#[derive(Debug)]
pub struct RegisterMap {
    /// Device name (`dma`, `hwicap`, ...).
    pub device: &'static str,
    /// Window size in bytes (power of two; the decode masks request
    /// addresses with `size - 1`, so it accepts both window-relative
    /// offsets and full bus addresses of an aligned window).
    pub size: u64,
    /// The registers, in offset order.
    pub regs: &'static [RegDef],
}

impl RegisterMap {
    /// Find the register declared at exactly `offset`.
    pub fn lookup(&self, offset: u64) -> Option<(usize, &'static RegDef)> {
        self.regs
            .iter()
            .position(|r| r.offset == offset)
            .map(|i| (i, &self.regs[i]))
    }

    /// Find the register by its constant-style name.
    pub fn by_name(&self, name: &str) -> Option<&'static RegDef> {
        self.regs.iter().find(|r| r.name == name)
    }

    /// True if `offset` falls inside any register's byte span.
    pub fn spanned(&self, offset: u64) -> bool {
        self.regs.iter().any(|r| r.spans(offset))
    }

    /// Check the map's internal consistency; panics on a bad
    /// declaration (this is a wiring bug, caught at construction).
    pub fn validate(&self) {
        assert!(
            self.size.is_power_of_two(),
            "{}: window size {:#x} must be a power of two",
            self.device,
            self.size
        );
        for (i, r) in self.regs.iter().enumerate() {
            assert!(
                r.width == 4 || r.width == 8,
                "{}.{}: width {} not 4 or 8",
                self.device,
                r.name,
                r.width
            );
            assert!(
                r.offset + r.width as u64 <= self.size,
                "{}.{}: register exceeds the {:#x}-byte window",
                self.device,
                r.name,
                self.size
            );
            assert_eq!(
                r.reset,
                r.reset & r.mask(),
                "{}.{}: reset value wider than the register",
                self.device,
                r.name
            );
            for other in &self.regs[i + 1..] {
                assert!(
                    r.name != other.name,
                    "{}: duplicate register name {}",
                    self.device,
                    r.name
                );
                assert!(
                    !r.spans(other.offset) && !other.spans(r.offset),
                    "{}: {} and {} overlap",
                    self.device,
                    r.name,
                    other.name
                );
            }
        }
    }

    /// Render the map as a markdown table (one section of the
    /// generated `REGISTERS.md`).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### `{}` — {} registers, {:#x}-byte window\n\n",
            self.device,
            self.regs.len(),
            self.size
        ));
        out.push_str("| Offset | Name | Width | Access | Reset | Description |\n");
        out.push_str("|-------:|------|------:|--------|------:|-------------|\n");
        for r in self.regs {
            out.push_str(&format!(
                "| `{:#06x}` | `{}` | {} | {} | `{:#x}` | {} |\n",
                r.offset,
                r.name,
                r.width,
                r.access.as_str(),
                r.reset,
                r.doc
            ));
        }
        out
    }
}

/// A decoded register access, ready for the device's semantic hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// An accepted read: answer with the register's value in the
    /// requested number of bytes.
    Read {
        /// The register being read.
        def: &'static RegDef,
        /// Requested beat size (≤ the register width).
        bytes: u8,
    },
    /// An accepted write of `value` (already masked to the accessed
    /// byte lanes — which for a narrow access is a subset of the
    /// register's bits).
    Write {
        /// The register being written.
        def: &'static RegDef,
        /// Write data, masked to the accessed byte lanes and the
        /// register's valid bits.
        value: u64,
        /// Accessed beat size (≤ the register width). Device hooks
        /// with read-modify-write semantics beyond W1C can use this to
        /// preserve the untouched lanes.
        bytes: u8,
    },
    /// A rejected access: respond with [`crate::mm::MmResp::err`] and
    /// change no state. The reason is recorded in the audit.
    Reject,
}

/// The runtime face of a [`RegisterMap`]: decodes raw bus requests and
/// keeps per-register and per-violation counters.
#[derive(Debug)]
pub struct RegisterFile {
    map: &'static RegisterMap,
    reads: Vec<u64>,
    writes: Vec<u64>,
    audit: MmioAudit,
}

impl RegisterFile {
    /// Instantiate the decode for `map` (validates the map).
    pub fn new(map: &'static RegisterMap) -> Self {
        map.validate();
        RegisterFile {
            map,
            reads: vec![0; map.regs.len()],
            writes: vec![0; map.regs.len()],
            audit: MmioAudit::default(),
        }
    }

    /// The underlying map.
    pub fn map(&self) -> &'static RegisterMap {
        self.map
    }

    /// Snapshot of the access audit.
    pub fn audit(&self) -> MmioAudit {
        self.audit
    }

    /// Per-register access counts: `(register, reads, writes)`.
    pub fn per_register(&self) -> impl Iterator<Item = (&'static RegDef, u64, u64)> + '_ {
        self.map
            .regs
            .iter()
            .enumerate()
            .map(|(i, r)| (r, self.reads[i], self.writes[i]))
    }

    /// The window-relative offset of a request address.
    pub fn offset_of(&self, addr: u64) -> u64 {
        addr & (self.map.size - 1)
    }

    /// Decode one request against the map, updating the audit.
    ///
    /// Accepts both window-relative offsets and full bus addresses
    /// (the window is power-of-two sized and aligned, so the offset is
    /// `addr & (size - 1)` either way).
    pub fn decode(&mut self, req: &MmReq) -> Decoded {
        let offset = self.offset_of(req.addr);
        match req.op {
            MmOp::ReadBurst { .. } => {
                self.audit.bursts += 1;
                Decoded::Reject
            }
            MmOp::Read { bytes } => match self.map.lookup(offset) {
                Some((i, def)) => {
                    if !def.access.readable() {
                        self.audit.wo_reads += 1;
                        Decoded::Reject
                    } else if bytes > def.width {
                        self.audit.overwide += 1;
                        Decoded::Reject
                    } else {
                        self.reads[i] += 1;
                        self.audit.reads += 1;
                        Decoded::Read { def, bytes }
                    }
                }
                None => {
                    self.reject_undecoded(offset);
                    Decoded::Reject
                }
            },
            MmOp::Write { data, bytes, .. } => match self.map.lookup(offset) {
                Some((i, def)) => {
                    if !def.access.writable() {
                        self.audit.ro_writes += 1;
                        Decoded::Reject
                    } else if bytes > def.width {
                        self.audit.overwide += 1;
                        Decoded::Reject
                    } else {
                        self.writes[i] += 1;
                        self.audit.writes += 1;
                        // Mask to the accessed byte lanes, not just the
                        // register width: a 1-byte store must not carry
                        // data into lanes it never drove — a W1C device
                        // hook would otherwise clear bits the bus never
                        // addressed. (Narrow accesses always start at
                        // the register base — a mid-register offset is
                        // rejected as misaligned above — so the
                        // accessed lanes are the low `bytes` bytes.)
                        Decoded::Write {
                            def,
                            value: data & lane_mask(bytes) & def.mask(),
                            bytes,
                        }
                    }
                }
                None => {
                    self.reject_undecoded(offset);
                    Decoded::Reject
                }
            },
        }
    }

    fn reject_undecoded(&mut self, offset: u64) {
        if self.map.spanned(offset) {
            self.audit.misaligned += 1;
        } else {
            self.audit.unmapped += 1;
        }
    }

    /// Checkpoint the decode counters (devices embed this in their own
    /// state blob — the register *values* live in the device).
    pub fn save_state(&self) -> StateValue {
        let mut b = StateBlob::new("axi.regfile", 1);
        b.put_str("device", self.map.device);
        b.put_list(
            "reads",
            self.reads.iter().map(|n| StateValue::U64(*n)).collect(),
        );
        b.put_list(
            "writes",
            self.writes.iter().map(|n| StateValue::U64(*n)).collect(),
        );
        let a = &self.audit;
        for (field, v) in [
            ("audit_reads", a.reads),
            ("audit_writes", a.writes),
            ("audit_unmapped", a.unmapped),
            ("audit_misaligned", a.misaligned),
            ("audit_ro_writes", a.ro_writes),
            ("audit_wo_reads", a.wo_reads),
            ("audit_overwide", a.overwide),
            ("audit_bursts", a.bursts),
            ("audit_protocol", a.protocol),
        ] {
            b.put_u64(field, v);
        }
        StateValue::Blob(Box::new(b))
    }

    /// Inverse of [`RegisterFile::save_state`]; verifies the state was
    /// written by the same device map.
    pub fn restore_state(&mut self, v: &StateValue) -> Result<(), StateError> {
        let b = v.as_blob("axi.regfile")?;
        b.expect("axi.regfile", 1)?;
        let device = b.get_str("device")?;
        if device != self.map.device {
            return Err(b.structure_error(format!(
                "state written by device {device}, this file decodes {}",
                self.map.device
            )));
        }
        let counters = |field: &str, len: usize| -> Result<Vec<u64>, StateError> {
            let vals = b.get_list(field)?;
            if vals.len() != len {
                return Err(b.structure_error(format!(
                    "{field} has {} counters, map declares {len} registers",
                    vals.len()
                )));
            }
            vals.iter()
                .map(|v| match v {
                    StateValue::U64(n) => Ok(*n),
                    other => Err(b.structure_error(format!(
                        "{field} counter is {}, expected u64",
                        other.kind()
                    ))),
                })
                .collect()
        };
        self.reads = counters("reads", self.map.regs.len())?;
        self.writes = counters("writes", self.map.regs.len())?;
        self.audit = MmioAudit {
            reads: b.get_u64("audit_reads")?,
            writes: b.get_u64("audit_writes")?,
            unmapped: b.get_u64("audit_unmapped")?,
            misaligned: b.get_u64("audit_misaligned")?,
            ro_writes: b.get_u64("audit_ro_writes")?,
            wo_reads: b.get_u64("audit_wo_reads")?,
            overwide: b.get_u64("audit_overwide")?,
            bursts: b.get_u64("audit_bursts")?,
            protocol: b.get_u64("audit_protocol")?,
        };
        Ok(())
    }
}

/// Mask selecting the low `bytes` byte lanes of an access.
pub fn lane_mask(bytes: u8) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * bytes as u32)) - 1
    }
}

/// Declare a device [`RegisterMap`] and its offset constants in one
/// place.
///
/// Emits one `pub const NAME: u64` per register — the exact constants
/// driver code imports today — plus a `static` [`RegisterMap`] tying
/// the declarations together. Syntax:
///
/// ```
/// rvcap_axi::register_map! {
///     /// Example device.
///     pub static EXAMPLE_MAP: "example", size 0x1000 {
///         /// Control register.
///         EX_CTRL @ 0x00: 4 RW reset 0x1, "control";
///         /// Status register (read-only).
///         EX_STATUS @ 0x04: 4 RO reset 0x0, "status";
///     }
/// }
/// assert_eq!(EX_CTRL, 0x00);
/// assert_eq!(EXAMPLE_MAP.regs.len(), 2);
/// ```
#[macro_export]
macro_rules! register_map {
    (
        $(#[$mapdoc:meta])*
        $vis:vis static $map:ident : $device:literal, size $size:literal {
            $(
                $(#[$doc:meta])*
                $name:ident @ $offset:literal : $width:literal $access:ident reset $reset:literal , $desc:literal ;
            )*
        }
    ) => {
        $(
            $(#[$doc])*
            $vis const $name: u64 = $offset;
        )*
        $(#[$mapdoc])*
        $vis static $map: $crate::regmap::RegisterMap = $crate::regmap::RegisterMap {
            device: $device,
            size: $size,
            regs: &[
                $(
                    $crate::regmap::RegDef {
                        name: stringify!($name),
                        offset: $offset,
                        width: $width,
                        access: $crate::regmap::Access::$access,
                        reset: $reset,
                        doc: $desc,
                    },
                )*
            ],
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::MmResp;

    crate::register_map! {
        /// A little map exercising every access class.
        static TEST_MAP: "testdev", size 0x100 {
            /// Control.
            T_CTRL @ 0x00: 4 RW reset 0x0, "control";
            /// Status.
            T_STATUS @ 0x04: 4 RO reset 0x1, "status";
            /// Data in.
            T_DIN @ 0x08: 4 WO reset 0x0, "data in";
            /// Interrupt flags.
            T_ISR @ 0x0C: 4 W1C reset 0x0, "interrupt flags";
            /// Wide counter.
            T_COUNT @ 0x10: 8 RO reset 0x0, "wide counter";
        }
    }

    #[test]
    fn macro_emits_offset_constants_and_map() {
        assert_eq!(T_CTRL, 0x00);
        assert_eq!(T_COUNT, 0x10);
        assert_eq!(TEST_MAP.device, "testdev");
        assert_eq!(TEST_MAP.regs.len(), 5);
        TEST_MAP.validate();
        assert_eq!(TEST_MAP.by_name("T_STATUS").unwrap().offset, T_STATUS);
        assert_eq!(TEST_MAP.lookup(0x04).unwrap().1.access, Access::RO);
        assert!(TEST_MAP.lookup(0x02).is_none());
    }

    fn file() -> RegisterFile {
        RegisterFile::new(&TEST_MAP)
    }

    #[test]
    fn accepts_reads_and_writes_within_policy() {
        let mut f = file();
        match f.decode(&MmReq::write(T_CTRL, 0xFFFF_FFFF_DEAD_BEEF, 4)) {
            Decoded::Write { def, value, bytes } => {
                assert_eq!(def.name, "T_CTRL");
                assert_eq!(value, 0xDEAD_BEEF, "masked to the register width");
                assert_eq!(bytes, 4);
            }
            other => panic!("{other:?}"),
        }
        match f.decode(&MmReq::read(T_STATUS, 4)) {
            Decoded::Read { def, bytes } => {
                assert_eq!(def.name, "T_STATUS");
                assert_eq!(bytes, 4);
            }
            other => panic!("{other:?}"),
        }
        // Narrow access to a wide register is fine (AXI-Lite strobes).
        assert!(matches!(
            f.decode(&MmReq::read(T_COUNT, 4)),
            Decoded::Read { .. }
        ));
        let a = f.audit();
        assert_eq!((a.reads, a.writes, a.violations()), (2, 1, 0));
    }

    #[test]
    fn full_addresses_and_raw_offsets_decode_identically() {
        let mut f = file();
        let base = 0x4000_0300; // any aligned window
        assert!(matches!(
            f.decode(&MmReq::read(base + T_STATUS, 4)),
            Decoded::Read { .. }
        ));
        assert!(matches!(
            f.decode(&MmReq::read(T_STATUS, 4)),
            Decoded::Read { .. }
        ));
    }

    #[test]
    fn rejects_every_violation_class() {
        let mut f = file();
        assert_eq!(f.decode(&MmReq::read(0x40, 4)), Decoded::Reject); // unmapped
        assert_eq!(f.decode(&MmReq::read(0x02, 4)), Decoded::Reject); // misaligned
        assert_eq!(f.decode(&MmReq::write(T_STATUS, 1, 4)), Decoded::Reject); // RO write
        assert_eq!(f.decode(&MmReq::read(T_DIN, 4)), Decoded::Reject); // WO read
        assert_eq!(f.decode(&MmReq::read(T_CTRL, 8)), Decoded::Reject); // overwide
        assert_eq!(f.decode(&MmReq::read_burst(T_CTRL, 4, 8)), Decoded::Reject); // burst
        let a = f.audit();
        assert_eq!(a.unmapped, 1);
        assert_eq!(a.misaligned, 1);
        assert_eq!(a.ro_writes, 1);
        assert_eq!(a.wo_reads, 1);
        assert_eq!(a.overwide, 1);
        assert_eq!(a.bursts, 1);
        assert_eq!(a.violations(), 6);
        assert_eq!((a.reads, a.writes), (0, 0));
    }

    #[test]
    fn w1c_admits_both_directions() {
        let mut f = file();
        assert!(matches!(
            f.decode(&MmReq::read(T_ISR, 4)),
            Decoded::Read { .. }
        ));
        assert!(matches!(
            f.decode(&MmReq::write(T_ISR, 0x1000, 4)),
            Decoded::Write { .. }
        ));
    }

    #[test]
    fn narrow_writes_mask_to_the_accessed_byte_lanes() {
        let mut f = file();
        // A 1-byte store to a W1C register: bit 12 of the data lies
        // outside the accessed lane and must not survive the decode —
        // a device hook would otherwise clear an interrupt flag the
        // bus never addressed. (Pre-fix, `data & def.mask()` leaked
        // every register-width bit through.)
        match f.decode(&MmReq::write(T_ISR, 0x1000, 1)) {
            Decoded::Write { value, bytes, .. } => {
                assert_eq!(bytes, 1);
                assert_eq!(value, 0, "bit 12 is outside the accessed byte lane");
            }
            other => panic!("{other:?}"),
        }
        // A 2-byte store drives lanes 0..2: bits 0..16 survive.
        match f.decode(&MmReq::write(T_ISR, 0xFFFF_1234, 2)) {
            Decoded::Write { value, bytes, .. } => {
                assert_eq!(bytes, 2);
                assert_eq!(value, 0x1234);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(lane_mask(8), u64::MAX);
    }

    #[test]
    fn per_register_counters_track_traffic() {
        let mut f = file();
        f.decode(&MmReq::read(T_STATUS, 4));
        f.decode(&MmReq::read(T_STATUS, 4));
        f.decode(&MmReq::write(T_CTRL, 1, 4));
        let counts: Vec<_> = f
            .per_register()
            .map(|(r, rd, wr)| (r.name, rd, wr))
            .collect();
        assert!(counts.contains(&("T_STATUS", 2, 0)));
        assert!(counts.contains(&("T_CTRL", 0, 1)));
    }

    #[test]
    fn markdown_lists_every_register() {
        let md = TEST_MAP.to_markdown();
        for r in TEST_MAP.regs {
            assert!(md.contains(r.name), "missing {} in:\n{md}", r.name);
        }
        assert!(md.contains("W1C"));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn validate_catches_overlap() {
        static BAD: RegisterMap = RegisterMap {
            device: "bad",
            size: 0x100,
            regs: &[
                RegDef {
                    name: "A",
                    offset: 0x0,
                    width: 8,
                    access: Access::RW,
                    reset: 0,
                    doc: "",
                },
                RegDef {
                    name: "B",
                    offset: 0x4,
                    width: 4,
                    access: Access::RW,
                    reset: 0,
                    doc: "",
                },
            ],
        };
        BAD.validate();
    }

    /// The reject path must also be what a device turns into a bus
    /// error — spot-check the intended pairing.
    #[test]
    fn reject_pairs_with_mm_resp_err() {
        let mut f = file();
        let resp = match f.decode(&MmReq::read(0xF0, 4)) {
            Decoded::Reject => MmResp::err(),
            _ => panic!("expected reject"),
        };
        assert!(resp.error);
    }
}
