//! A minimal JSON writer (the workspace builds offline, without serde) and
//! the metric-name rule of `BENCHMARK.json`.

use std::fmt;

/// A JSON value. Objects keep insertion order, so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Written with Rust's shortest round-trip formatting, i.e. every digit
    /// the measurement has. Non-finite values have no JSON form and are
    /// written as `null`.
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write `s` as a JSON string literal.
pub fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// `BENCHMARK.json`'s rule for a metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric: `name -> {"value": v, "unit": u}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line the driver parses: exactly `correct`, `attempted`,
/// `failed` and `metrics`. Panics on a metric name outside the rule — the
/// names are constants of this program.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics.iter().map(|m| {
        assert!(valid_metric_name(m.name), "bad metric name {:?}", m.name);
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names() {
        for ok in [
            "batch_s",
            "runtime.net.uds_rtt_us",
            "a",
            "9lives",
            "x-y.z_0",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let too_long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", "a%", &too_long] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn writes_values_and_escapes() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\n\u{1}")),
            ("n", Json::Num(1.25)),
            ("i", Json::Int(7)),
            ("nan", Json::Num(f64::NAN)),
            ("b", Json::Bool(true)),
            ("o", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"s": "a\"b\\c\n\u0001", "n": 1.25, "i": 7, "nan": null, "b": true, "o": {}}"#
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        let x = 0.123456789012345_f64;
        assert_eq!(Json::Num(x).to_string().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            30,
            0,
            &[Metric {
                name: "batch_s",
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 30, "failed": 0, "metrics": {"batch_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn result_line_rejects_bad_names() {
        result_line(
            true,
            1,
            0,
            &[Metric {
                name: "bad name",
                value: 1.0,
                unit: "s",
            }],
        );
    }
}
