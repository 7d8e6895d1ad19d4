//! Typed, versioned component state for checkpoint/restore.
//!
//! Every ticked component can externalize its mutable state as a
//! [`StateBlob`] — a tagged, versioned list of named, typed fields —
//! and later restore itself from one
//! ([`crate::Component::save_state`] /
//! [`crate::Component::restore_state`]). The format is deliberately
//! structured rather than a serde free-for-all:
//!
//! * Every blob carries a **tag** (the component kind that wrote it)
//!   and a **version** number. Restore verifies both before touching
//!   any field, so a blob from the wrong component kind — or from an
//!   older layout of the same kind — fails loudly instead of silently
//!   misinterpreting bytes.
//! * Fields are name/value pairs over a closed set of value shapes
//!   ([`StateValue`]). Typed accessors return [`StateError`] on a
//!   missing field or a shape mismatch, naming the blob and field.
//! * Bulk memory (DDR, the SD card's flash, the boot ROM, the
//!   configuration memory) travels as [`StateValue::Paged`]: a
//!   copy-on-write [`PagedBytes`] store whose pages the checkpoint
//!   shares with the live memory. Capturing or restoring a checkpoint
//!   copies page tables, never the pages, and comparing two forks of
//!   one checkpoint reads only the pages either side dirtied.
//!
//! On top of the per-component blobs, [`SimState`] is the
//! whole-simulator checkpoint captured by
//! [`crate::Simulator::checkpoint`]: the cycle, every component's blob
//! plus its kernel tick accounting, the sanitizer's observation state,
//! and the kernel's policy counters. [`SimState::parity_diff`] defines
//! *replay parity*: two states are equivalent when their cycle,
//! component state, tick accounting and sanitizer verdicts all match —
//! scheduler policy counters (jump bookkeeping) are excluded,
//! because a restored run legitimately re-plans its jumps from a cold
//! scheduler while producing bit-identical simulated behavior.

use std::fmt;
use std::sync::Arc;

use crate::paged::PagedBytes;
use crate::time::Cycle;

/// One field value inside a [`StateBlob`]. A closed set of shapes —
/// components pick the narrowest one that fits, and the typed
/// accessors on [`StateBlob`] enforce the shape on the way back out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateValue {
    /// A flag.
    Bool(bool),
    /// An unsigned counter, cycle number, register value, or small id.
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// An optional cycle/counter (`None` ≠ 0 — FIFO rate marks and
    /// busy-until deadlines genuinely distinguish "never" from "at 0").
    OptU64(Option<u64>),
    /// A short identifying string (an RM name, a channel name).
    Str(String),
    /// A small byte buffer (the filter's received prefix, the SD
    /// frame, the UART log), shared so cloning a blob does not copy
    /// it. Capturing one still copies the buffer: bulk memory uses
    /// [`StateValue::Paged`].
    Bytes(Arc<Vec<u8>>),
    /// A bulk memory image: page-shared with the memory it was
    /// captured from, so capture, clone and restore copy page tables
    /// only. Equal when byte-equal.
    Paged(PagedBytes),
    /// A word buffer (configuration frames, FIFO word queues).
    Words(Vec<u32>),
    /// An ordered sequence of values (FIFO queues, pipelines).
    List(Vec<StateValue>),
    /// A nested blob (sub-structures with their own tag/version).
    Blob(Box<StateBlob>),
}

impl StateValue {
    /// Borrow this value as a nested blob, or fail with a
    /// [`StateError::Structure`] attributed to `ctx` — the common first
    /// step when decoding list elements that carry sub-structures.
    pub fn as_blob(&self, ctx: &str) -> Result<&StateBlob, StateError> {
        match self {
            StateValue::Blob(b) => Ok(b),
            other => Err(StateError::Structure {
                tag: ctx.into(),
                detail: format!("value is {}, expected blob", other.kind()),
            }),
        }
    }

    /// Short shape name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            StateValue::Bool(_) => "bool",
            StateValue::U64(_) => "u64",
            StateValue::I64(_) => "i64",
            StateValue::OptU64(_) => "opt-u64",
            StateValue::Str(_) => "str",
            StateValue::Bytes(_) => "bytes",
            StateValue::Paged(_) => "paged",
            StateValue::Words(_) => "words",
            StateValue::List(_) => "list",
            StateValue::Blob(_) => "blob",
        }
    }
}

/// Why a save/restore failed. Restore paths fail loudly and
/// specifically: checkpointing is a debugging tool, and a vague error
/// in the tool is worse than the bug being chased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The component does not implement checkpointing.
    Unsupported {
        /// Component instance name.
        component: String,
    },
    /// A blob's tag was not the one the restorer expected.
    TagMismatch {
        /// Expected tag.
        want: String,
        /// Tag found in the blob.
        got: String,
    },
    /// A blob's layout version was not the one the restorer expects.
    VersionMismatch {
        /// Blob tag.
        tag: String,
        /// Version the restorer implements.
        want: u32,
        /// Version found in the blob.
        got: u32,
    },
    /// A named field was absent.
    MissingField {
        /// Blob tag.
        tag: String,
        /// Field name.
        field: String,
    },
    /// A named field had the wrong shape.
    TypeMismatch {
        /// Blob tag.
        tag: String,
        /// Field name.
        field: String,
        /// Shape the accessor expected.
        expected: &'static str,
        /// Shape actually present.
        got: &'static str,
    },
    /// The state does not fit the restoring structure (wrong component
    /// count, wrong channel name, wrong element count, …).
    Structure {
        /// Blob tag (or "simulator" for whole-checkpoint problems).
        tag: String,
        /// Human-readable evidence.
        detail: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Unsupported { component } => {
                write!(
                    f,
                    "component {component} does not support checkpoint/restore"
                )
            }
            StateError::TagMismatch { want, got } => {
                write!(f, "state blob tagged {got}, expected {want}")
            }
            StateError::VersionMismatch { tag, want, got } => {
                write!(
                    f,
                    "{tag} state version {got}, this build restores version {want}"
                )
            }
            StateError::MissingField { tag, field } => {
                write!(f, "{tag} state is missing field {field}")
            }
            StateError::TypeMismatch {
                tag,
                field,
                expected,
                got,
            } => write!(f, "{tag} field {field} is {got}, expected {expected}"),
            StateError::Structure { tag, detail } => write!(f, "{tag} state mismatch: {detail}"),
        }
    }
}

impl std::error::Error for StateError {}

/// A tagged, versioned bag of named, typed state fields — the unit of
/// component checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBlob {
    tag: String,
    version: u32,
    fields: Vec<(String, StateValue)>,
}

impl StateBlob {
    /// An empty blob for component kind `tag`, layout `version`.
    pub fn new(tag: impl Into<String>, version: u32) -> Self {
        StateBlob {
            tag: tag.into(),
            version,
            fields: Vec::new(),
        }
    }

    /// The component kind that wrote this blob.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The layout version the writer used.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Verify tag and version before reading any field — the first
    /// call of every restore path.
    pub fn expect(&self, tag: &str, version: u32) -> Result<(), StateError> {
        if self.tag != tag {
            return Err(StateError::TagMismatch {
                want: tag.into(),
                got: self.tag.clone(),
            });
        }
        if self.version != version {
            return Err(StateError::VersionMismatch {
                tag: tag.into(),
                want: version,
                got: self.version,
            });
        }
        Ok(())
    }

    /// Append a field. Field names are unique by convention (the typed
    /// getters return the first match).
    pub fn put(&mut self, field: impl Into<String>, value: StateValue) {
        self.fields.push((field.into(), value));
    }

    /// Append a [`StateValue::Bool`] field.
    pub fn put_bool(&mut self, field: impl Into<String>, v: bool) {
        self.put(field, StateValue::Bool(v));
    }

    /// Append a [`StateValue::U64`] field.
    pub fn put_u64(&mut self, field: impl Into<String>, v: u64) {
        self.put(field, StateValue::U64(v));
    }

    /// Append a [`StateValue::I64`] field.
    pub fn put_i64(&mut self, field: impl Into<String>, v: i64) {
        self.put(field, StateValue::I64(v));
    }

    /// Append a [`StateValue::OptU64`] field.
    pub fn put_opt_u64(&mut self, field: impl Into<String>, v: Option<u64>) {
        self.put(field, StateValue::OptU64(v));
    }

    /// Append a [`StateValue::Str`] field.
    pub fn put_str(&mut self, field: impl Into<String>, v: impl Into<String>) {
        self.put(field, StateValue::Str(v.into()));
    }

    /// Append a [`StateValue::Bytes`] field (shared, O(1) to clone).
    pub fn put_bytes(&mut self, field: impl Into<String>, v: Arc<Vec<u8>>) {
        self.put(field, StateValue::Bytes(v));
    }

    /// Append a [`StateValue::Paged`] field (page-shared, cheap to
    /// capture and clone).
    pub fn put_paged(&mut self, field: impl Into<String>, v: PagedBytes) {
        self.put(field, StateValue::Paged(v));
    }

    /// Append a [`StateValue::Words`] field.
    pub fn put_words(&mut self, field: impl Into<String>, v: Vec<u32>) {
        self.put(field, StateValue::Words(v));
    }

    /// Append a [`StateValue::List`] field.
    pub fn put_list(&mut self, field: impl Into<String>, v: Vec<StateValue>) {
        self.put(field, StateValue::List(v));
    }

    /// Append a nested [`StateValue::Blob`] field.
    pub fn put_blob(&mut self, field: impl Into<String>, v: StateBlob) {
        self.put(field, StateValue::Blob(Box::new(v)));
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when no fields were written.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate the fields in insertion order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &StateValue)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Raw field lookup.
    pub fn get(&self, field: &str) -> Result<&StateValue, StateError> {
        self.fields
            .iter()
            .find(|(n, _)| n == field)
            .map(|(_, v)| v)
            .ok_or_else(|| StateError::MissingField {
                tag: self.tag.clone(),
                field: field.into(),
            })
    }

    fn mismatch(&self, field: &str, expected: &'static str, got: &StateValue) -> StateError {
        StateError::TypeMismatch {
            tag: self.tag.clone(),
            field: field.into(),
            expected,
            got: got.kind(),
        }
    }

    /// Read a [`StateValue::Bool`] field.
    pub fn get_bool(&self, field: &str) -> Result<bool, StateError> {
        match self.get(field)? {
            StateValue::Bool(v) => Ok(*v),
            other => Err(self.mismatch(field, "bool", other)),
        }
    }

    /// Read a [`StateValue::U64`] field.
    pub fn get_u64(&self, field: &str) -> Result<u64, StateError> {
        match self.get(field)? {
            StateValue::U64(v) => Ok(*v),
            other => Err(self.mismatch(field, "u64", other)),
        }
    }

    /// Read a [`StateValue::U64`] field that must fit `u32`.
    pub fn get_u32(&self, field: &str) -> Result<u32, StateError> {
        let v = self.get_u64(field)?;
        u32::try_from(v).map_err(|_| StateError::Structure {
            tag: self.tag.clone(),
            detail: format!("field {field} value {v} does not fit u32"),
        })
    }

    /// Read a [`StateValue::I64`] field.
    pub fn get_i64(&self, field: &str) -> Result<i64, StateError> {
        match self.get(field)? {
            StateValue::I64(v) => Ok(*v),
            other => Err(self.mismatch(field, "i64", other)),
        }
    }

    /// Read a [`StateValue::OptU64`] field.
    pub fn get_opt_u64(&self, field: &str) -> Result<Option<u64>, StateError> {
        match self.get(field)? {
            StateValue::OptU64(v) => Ok(*v),
            other => Err(self.mismatch(field, "opt-u64", other)),
        }
    }

    /// Read a [`StateValue::Str`] field.
    pub fn get_str(&self, field: &str) -> Result<&str, StateError> {
        match self.get(field)? {
            StateValue::Str(v) => Ok(v),
            other => Err(self.mismatch(field, "str", other)),
        }
    }

    /// Read a [`StateValue::Bytes`] field (the shared handle).
    pub fn get_bytes(&self, field: &str) -> Result<&Arc<Vec<u8>>, StateError> {
        match self.get(field)? {
            StateValue::Bytes(v) => Ok(v),
            other => Err(self.mismatch(field, "bytes", other)),
        }
    }

    /// Read a [`StateValue::Paged`] field.
    pub fn get_paged(&self, field: &str) -> Result<&PagedBytes, StateError> {
        match self.get(field)? {
            StateValue::Paged(v) => Ok(v),
            other => Err(self.mismatch(field, "paged", other)),
        }
    }

    /// Read a [`StateValue::Words`] field.
    pub fn get_words(&self, field: &str) -> Result<&[u32], StateError> {
        match self.get(field)? {
            StateValue::Words(v) => Ok(v),
            other => Err(self.mismatch(field, "words", other)),
        }
    }

    /// Read a [`StateValue::List`] field.
    pub fn get_list(&self, field: &str) -> Result<&[StateValue], StateError> {
        match self.get(field)? {
            StateValue::List(v) => Ok(v),
            other => Err(self.mismatch(field, "list", other)),
        }
    }

    /// Read a nested [`StateValue::Blob`] field.
    pub fn get_blob(&self, field: &str) -> Result<&StateBlob, StateError> {
        match self.get(field)? {
            StateValue::Blob(v) => Ok(v),
            other => Err(self.mismatch(field, "blob", other)),
        }
    }

    /// A [`StateError::Structure`] attributed to this blob's tag —
    /// sugar for restore paths validating element counts and names.
    pub fn structure_error(&self, detail: impl Into<String>) -> StateError {
        StateError::Structure {
            tag: self.tag.clone(),
            detail: detail.into(),
        }
    }
}

/// FIFO element encodings: how one queued element round-trips through
/// a [`StateValue`]. Implemented for the primitive channel payloads
/// here and for the AXI beat/transaction types in `rvcap-axi`.
pub trait StateItem: Sized {
    /// Encode one element.
    fn to_state(&self) -> StateValue;

    /// Decode one element; `ctx` names the owning structure for error
    /// attribution.
    fn from_state(v: &StateValue, ctx: &str) -> Result<Self, StateError>;
}

macro_rules! uint_state_item {
    ($($t:ty),*) => {
        $(impl StateItem for $t {
            fn to_state(&self) -> StateValue {
                StateValue::U64(*self as u64)
            }
            fn from_state(v: &StateValue, ctx: &str) -> Result<Self, StateError> {
                match v {
                    StateValue::U64(x) => <$t>::try_from(*x).map_err(|_| StateError::Structure {
                        tag: ctx.into(),
                        detail: format!("element {x} does not fit {}", stringify!($t)),
                    }),
                    other => Err(StateError::Structure {
                        tag: ctx.into(),
                        detail: format!("element is {}, expected u64", other.kind()),
                    }),
                }
            }
        })*
    };
}
uint_state_item!(u8, u16, u32, u64, usize);

impl StateItem for bool {
    fn to_state(&self) -> StateValue {
        StateValue::Bool(*self)
    }
    fn from_state(v: &StateValue, ctx: &str) -> Result<Self, StateError> {
        match v {
            StateValue::Bool(b) => Ok(*b),
            other => Err(StateError::Structure {
                tag: ctx.into(),
                detail: format!("element is {}, expected bool", other.kind()),
            }),
        }
    }
}

/// One component's entry in a [`SimState`]: its blob plus the kernel's
/// per-component tick accounting, which the acceptance criteria pin as
/// part of replay parity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentState {
    /// Component instance name (restore verifies it positionally).
    pub name: String,
    /// Cycle the component was registered at (or the last
    /// [`crate::Simulator::reset_stats`] boundary).
    pub registered_at: Cycle,
    /// Executed-tick count at checkpoint time.
    pub ticks: u64,
    /// The component's own state.
    pub blob: StateBlob,
}

/// Kernel scheduling-policy state carried through a checkpoint but
/// **excluded from replay parity**.
///
/// The counters keep [`crate::KernelStats`] continuous: a restored run
/// re-plans its clock jumps from a cold scheduler, so they
/// legitimately differ from a straight run while every simulated
/// observable stays bit-identical. The dense-window end and streak are
/// restored by an active-set simulator, because they decide which
/// ticks execute — parity checks those through the per-component tick
/// counts. A [`crate::Scheduler::Naive`] simulator ignores them on
/// restore and saves zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Whole-system clock jumps taken.
    pub jumps: u64,
    /// Cycles covered by those jumps.
    pub jumped_cycles: Cycle,
    /// Cycles executed inside dense windows.
    pub dense_cycles: Cycle,
    /// End (exclusive) of the open dense window; at or below the
    /// checkpoint cycle when none is open.
    pub dense_until: Cycle,
    /// Consecutive dense stepped cycles toward the next window.
    pub dense_streak: u32,
}

/// A whole-simulator checkpoint ([`crate::Simulator::checkpoint`]).
///
/// Restorable into any simulator built by the same construction code
/// (same components, same registration order, same wiring) — which is
/// exactly how warm-boot forking works: rebuild the structure, restore
/// the state.
#[derive(Debug, Clone)]
pub struct SimState {
    /// The cycle the checkpoint was captured at.
    pub cycle: Cycle,
    /// Per-component state, in registration order.
    pub components: Vec<ComponentState>,
    /// The attached sanitizer's observation state, when one was
    /// attached.
    pub sanitizer: Option<StateBlob>,
    /// Scheduler policy counters (not part of replay parity).
    pub counters: KernelCounters,
}

impl SimState {
    /// The first replay-parity difference between two checkpoints, or
    /// `None` when they are equivalent.
    ///
    /// Parity covers the cycle, every component's name, tick
    /// accounting and state blob, and the sanitizer verdict — the
    /// exact set the replay harness pins. [`KernelCounters`] are
    /// deliberately not compared (see its docs).
    pub fn parity_diff(&self, other: &SimState) -> Option<String> {
        if self.cycle != other.cycle {
            return Some(format!("cycle: {} vs {}", self.cycle, other.cycle));
        }
        if self.components.len() != other.components.len() {
            return Some(format!(
                "component count: {} vs {}",
                self.components.len(),
                other.components.len()
            ));
        }
        for (a, b) in self.components.iter().zip(&other.components) {
            if a.name != b.name {
                return Some(format!("component name: {} vs {}", a.name, b.name));
            }
            if a.ticks != b.ticks {
                return Some(format!("{}: ticks {} vs {}", a.name, a.ticks, b.ticks));
            }
            if a.registered_at != b.registered_at {
                return Some(format!(
                    "{}: registered_at {} vs {}",
                    a.name, a.registered_at, b.registered_at
                ));
            }
            if a.blob != b.blob {
                return Some(Self::blob_diff(&a.name, &a.blob, &b.blob));
            }
        }
        match (&self.sanitizer, &other.sanitizer) {
            (Some(a), Some(b)) if a != b => Some(Self::blob_diff("sanitizer", a, b)),
            (Some(_), None) | (None, Some(_)) => Some("sanitizer presence differs".into()),
            _ => None,
        }
    }

    /// True when [`SimState::parity_diff`] finds nothing.
    pub fn parity_eq(&self, other: &SimState) -> bool {
        self.parity_diff(other).is_none()
    }

    /// Name the first differing field of two same-tag blobs.
    fn blob_diff(owner: &str, a: &StateBlob, b: &StateBlob) -> String {
        if a.tag != b.tag {
            return format!("{owner}: blob tag {} vs {}", a.tag, b.tag);
        }
        if a.fields.len() != b.fields.len() {
            return format!(
                "{owner}: field count {} vs {}",
                a.fields.len(),
                b.fields.len()
            );
        }
        for ((an, av), (bn, bv)) in a.fields.iter().zip(&b.fields) {
            if an != bn {
                return format!("{owner}: field name {an} vs {bn}");
            }
            if av != bv {
                // Recurse into nested blobs so the report names the
                // innermost differing field, not just the top one.
                if let (StateValue::Blob(ab), StateValue::Blob(bb)) = (av, bv) {
                    return Self::blob_diff(&format!("{owner}.{an}"), ab, bb);
                }
                return format!("{owner}.{an}: {}", value_diff(av, bv));
            }
        }
        format!(
            "{owner}: blobs differ (version {} vs {})",
            a.version, b.version
        )
    }
}

/// Describe how two unequal values differ. Buffers report their first
/// differing offset, the value on each side of it (`end` past a
/// shorter buffer) and, when they differ, the two lengths — never the
/// whole contents, which for a memory image runs to hundreds of MB.
fn value_diff(a: &StateValue, b: &StateValue) -> String {
    fn first_mismatch<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        a.iter()
            .zip(b)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()))
    }
    let (unit, at, va, vb, la, lb) = match (a, b) {
        (StateValue::Bytes(a), StateValue::Bytes(b)) => {
            let at = first_mismatch(&a[..], &b[..]);
            let (va, vb) = (a.get(at).map(|&v| v.into()), b.get(at).map(|&v| v.into()));
            ("byte", at, va, vb, a.len(), b.len())
        }
        (StateValue::Words(a), StateValue::Words(b)) => {
            let at = first_mismatch(&a[..], &b[..]);
            let (va, vb) = (a.get(at).map(|&v| v.into()), b.get(at).map(|&v| v.into()));
            ("word", at, va, vb, a.len(), b.len())
        }
        (StateValue::Paged(a), StateValue::Paged(b)) => {
            let at = a.first_difference(b).unwrap_or(0);
            let (va, vb) = (a.get(at).map(u64::from), b.get(at).map(u64::from));
            ("byte", at, va, vb, a.len(), b.len())
        }
        _ => return format!("{a:?} vs {b:?}"),
    };
    let show = |v: Option<u64>| v.map_or("end".to_string(), |v| format!("{v:#x}"));
    let mut s = format!(
        "first difference at {unit} {at:#x}: {} vs {}",
        show(va),
        show(vb)
    );
    if la != lb {
        s += &format!(" (lengths {la} vs {lb})");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_blob() -> StateBlob {
        let mut b = StateBlob::new("fifo", 1);
        b.put_u64("pushed", 7);
        b.put_opt_u64("mark", None);
        b.put_bool("busy", true);
        b.put_str("name", "p2c");
        b.put_list("queue", vec![StateValue::U64(1), StateValue::U64(2)]);
        b
    }

    #[test]
    fn typed_accessors_round_trip() {
        let b = sample_blob();
        assert_eq!(b.get_u64("pushed").unwrap(), 7);
        assert_eq!(b.get_opt_u64("mark").unwrap(), None);
        assert!(b.get_bool("busy").unwrap());
        assert_eq!(b.get_str("name").unwrap(), "p2c");
        assert_eq!(b.get_list("queue").unwrap().len(), 2);
    }

    #[test]
    fn missing_field_names_blob_and_field() {
        let b = sample_blob();
        let err = b.get_u64("absent").unwrap_err();
        assert_eq!(
            err,
            StateError::MissingField {
                tag: "fifo".into(),
                field: "absent".into()
            }
        );
        assert!(err.to_string().contains("fifo"));
        assert!(err.to_string().contains("absent"));
    }

    #[test]
    fn type_mismatch_names_expected_and_got() {
        let b = sample_blob();
        let err = b.get_bool("pushed").unwrap_err();
        assert_eq!(
            err,
            StateError::TypeMismatch {
                tag: "fifo".into(),
                field: "pushed".into(),
                expected: "bool",
                got: "u64",
            }
        );
    }

    #[test]
    fn expect_checks_tag_then_version() {
        let b = sample_blob();
        b.expect("fifo", 1).unwrap();
        assert!(matches!(
            b.expect("dma", 1).unwrap_err(),
            StateError::TagMismatch { .. }
        ));
        assert!(matches!(
            b.expect("fifo", 2).unwrap_err(),
            StateError::VersionMismatch {
                want: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn state_items_round_trip() {
        for v in [0u64, 1, u64::MAX] {
            let enc = v.to_state();
            assert_eq!(u64::from_state(&enc, "t").unwrap(), v);
        }
        let enc = 300u64.to_state();
        assert!(u8::from_state(&enc, "t").is_err(), "300 does not fit u8");
        assert!(bool::from_state(&StateValue::U64(1), "t").is_err());
        assert!(bool::from_state(&StateValue::Bool(true), "t").unwrap());
    }

    #[test]
    fn parity_diff_ignores_kernel_counters() {
        let state = |jumps| SimState {
            cycle: 10,
            components: vec![ComponentState {
                name: "a".into(),
                registered_at: 0,
                ticks: 10,
                blob: sample_blob(),
            }],
            sanitizer: None,
            counters: KernelCounters {
                jumps,
                ..KernelCounters::default()
            },
        };
        assert!(state(0).parity_eq(&state(99)));
    }

    #[test]
    fn parity_diff_names_the_divergent_field() {
        let mk = |pushed| {
            let mut blob = StateBlob::new("fifo", 1);
            blob.put_u64("pushed", pushed);
            SimState {
                cycle: 10,
                components: vec![ComponentState {
                    name: "a".into(),
                    registered_at: 0,
                    ticks: 10,
                    blob,
                }],
                sanitizer: None,
                counters: KernelCounters::default(),
            }
        };
        let diff = mk(1).parity_diff(&mk(2)).unwrap();
        assert!(diff.contains("a.pushed"), "got: {diff}");
        assert!(mk(3).parity_eq(&mk(3)));
    }

    /// A one-component checkpoint holding `value` as field `mem`.
    fn state_with(value: StateValue) -> SimState {
        let mut blob = StateBlob::new("ddr", 2);
        blob.put("mem", value);
        SimState {
            cycle: 10,
            components: vec![ComponentState {
                name: "ddr".into(),
                registered_at: 0,
                ticks: 10,
                blob,
            }],
            sanitizer: None,
            counters: KernelCounters::default(),
        }
    }

    #[test]
    fn buffer_diffs_name_the_first_offset_not_the_contents() {
        let mut big = PagedBytes::new(64 << 20);
        let base = state_with(StateValue::Paged(big.clone()));
        big.write(0x12_3456, &[0x5A]);
        let diff = base
            .parity_diff(&state_with(StateValue::Paged(big)))
            .unwrap();
        assert_eq!(
            diff,
            "ddr.mem: first difference at byte 0x123456: 0x0 vs 0x5a"
        );

        let bytes = |v: Vec<u8>| StateValue::Bytes(Arc::new(v));
        let diff = state_with(bytes(vec![1, 2, 3]))
            .parity_diff(&state_with(bytes(vec![1, 2, 3, 4])))
            .unwrap();
        assert_eq!(
            diff,
            "ddr.mem: first difference at byte 0x3: end vs 0x4 (lengths 3 vs 4)"
        );

        let words = |v: Vec<u32>| StateValue::Words(v);
        let diff = state_with(words(vec![7; 1 << 20]))
            .parity_diff(&state_with(words(vec![7, 8])))
            .unwrap();
        assert_eq!(
            diff,
            "ddr.mem: first difference at word 0x1: 0x7 vs 0x8 (lengths 1048576 vs 2)"
        );
    }

    #[test]
    fn paged_fields_share_pages_and_compare_by_bytes() {
        let mut mem = PagedBytes::new(1 << 20);
        mem.write(100, &[1, 2, 3]);
        let mut b = StateBlob::new("ddr", 2);
        b.put_paged("mem", mem.clone());
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(c.get_paged("mem").unwrap().resident_pages(), 1);
        assert!(matches!(
            b.get_bytes("mem").unwrap_err(),
            StateError::TypeMismatch { got: "paged", .. }
        ));
        // The live memory moves on; the captured field does not.
        mem.write(100, &[9]);
        assert_eq!(c.get_paged("mem").unwrap().get(100), Some(1));
        assert_ne!(c.get_paged("mem").unwrap(), &mem);
    }

    #[test]
    fn checkpoints_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimState>();
    }

    #[test]
    fn bytes_share_storage_across_clones() {
        let payload = Arc::new(vec![0u8; 1024]);
        let mut b = StateBlob::new("ddr", 1);
        b.put_bytes("mem", payload.clone());
        let c = b.clone();
        match (b.get("mem").unwrap(), c.get("mem").unwrap()) {
            (StateValue::Bytes(x), StateValue::Bytes(y)) => {
                assert!(Arc::ptr_eq(x, y), "clone must share the bytes");
            }
            _ => unreachable!(),
        }
    }
}
