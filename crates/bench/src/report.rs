//! Table rendering and result records for the experiment harness.
//!
//! Every harness binary prints a human-readable table (paper value
//! next to measured value) and, when `RVCAP_RESULTS_DIR` is set,
//! writes a JSON record so EXPERIMENTS.md can be regenerated from
//! machine-readable data. The directory is created if missing; if the
//! file cannot be written the record is printed to stdout instead of
//! aborting the experiment.
//!
//! JSON encoding is hand-rolled (the build environment has no registry
//! access for serde): the [`Json`] trait covers the primitive types,
//! collections and tuples the binaries use, and
//! [`impl_json_struct!`](crate::impl_json_struct) derives object
//! encoding for row structs.

/// Types that can encode themselves as a JSON value.
pub trait Json {
    /// Append this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);

    /// Encode to a fresh string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// Escape and quote a JSON string.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_via_display {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

json_via_display!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl Json for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // Shortest round-trip representation, always with enough
            // precision to reproduce the measurement.
            out.push_str(&format!("{self}"));
        } else {
            // JSON has no NaN/Inf; null is the conventional stand-in.
            out.push_str("null");
        }
    }
}

impl Json for str {
    fn write_json(&self, out: &mut String) {
        push_json_str(out, self);
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        push_json_str(out, self);
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

impl<T: Json> Json for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Json> Json for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Json, const N: usize> Json for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

macro_rules! json_tuple {
    ($(($($t:ident . $idx:tt),+)),*) => {$(
        impl<$($t: Json),+> Json for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$idx.write_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )*};
}

json_tuple!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5)
);

/// Derive [`Json`] object encoding for a plain struct's named fields.
#[macro_export]
macro_rules! impl_json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::report::Json for $name {
            fn write_json(&self, out: &mut String) {
                out.push('{');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    out.push('"');
                    out.push_str(stringify!($field));
                    out.push_str("\":");
                    $crate::report::Json::write_json(&self.$field, out);
                )+
                out.push('}');
            }
        }
    };
}

/// Encode the standard record envelope `{"experiment": ..., "data": ...}`.
pub fn record_json<T: Json + ?Sized>(experiment: &str, data: &T) -> String {
    let mut s = String::new();
    s.push_str("{\"experiment\":");
    push_json_str(&mut s, experiment);
    s.push_str(",\"data\":");
    data.write_json(&mut s);
    s.push('}');
    s
}

/// Write a JSON record to `$RVCAP_RESULTS_DIR/<experiment>.json` if the
/// variable is set; otherwise do nothing. The directory is created if
/// it does not exist. On any write failure the record goes to stdout —
/// a full experiment run must never die on a filesystem error.
pub fn dump_json<T: Json + ?Sized>(experiment: &'static str, data: &T) {
    let Ok(dir) = std::env::var("RVCAP_RESULTS_DIR") else {
        return;
    };
    let json = record_json(experiment, data);
    let path = std::path::Path::new(&dir).join(format!("{experiment}.json"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json.as_bytes()))
    {
        eprintln!(
            "warning: could not write {}: {e}; emitting record to stdout",
            path.display()
        );
        println!("{json}");
    }
}

/// Render a fixed-width table: header + rows of equal arity.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Relative deviation in percent (measured vs reference).
pub fn deviation_pct(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (measured - reference) / reference * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            "T",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().skip(1).collect();
        // All data lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        render_table("T", &["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn deviation() {
        assert_eq!(deviation_pct(110.0, 100.0), 10.0);
        assert_eq!(deviation_pct(5.0, 0.0), 0.0);
    }

    #[test]
    fn json_primitives_and_containers() {
        assert_eq!(42u32.to_json(), "42");
        assert_eq!((-3i32).to_json(), "-3");
        assert_eq!(true.to_json(), "true");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!("a\"b\\c\n".to_json(), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(Option::<u32>::None.to_json(), "null");
        assert_eq!(Some(7u32).to_json(), "7");
        assert_eq!(vec![1u8, 2, 3].to_json(), "[1,2,3]");
        assert_eq!([1.0f64, 2.5].to_json(), "[1,2.5]");
        assert_eq!((1u32, "x".to_string(), false).to_json(), "[1,\"x\",false]");
    }

    #[test]
    fn struct_macro_encodes_objects() {
        struct Row {
            name: String,
            mbs: f64,
            ok: bool,
        }
        crate::impl_json_struct!(Row { name, mbs, ok });
        let r = Row {
            name: "rv-cap".into(),
            mbs: 398.1,
            ok: true,
        };
        assert_eq!(
            r.to_json(),
            "{\"name\":\"rv-cap\",\"mbs\":398.1,\"ok\":true}"
        );
    }

    #[test]
    fn record_envelope() {
        assert_eq!(
            record_json("t1", &vec![1u8]),
            "{\"experiment\":\"t1\",\"data\":[1]}"
        );
    }

    #[test]
    fn f64_round_trips_measurement_precision() {
        let v = 156.44999999999987f64;
        let s = v.to_json();
        assert_eq!(s.parse::<f64>().unwrap(), v);
    }
}
