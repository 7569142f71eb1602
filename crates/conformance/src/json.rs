//! A minimal JSON writer — enough for `CONFORMANCE.json`, no external
//! crates (offline builds cannot fetch serde).

use recdb_obs::esc;

/// A `"key": "value"` pair with an escaped string value.
pub fn kv_str(key: &str, value: &str) -> String {
    format!("\"{}\": \"{}\"", esc(key), esc(value))
}

/// A `"key": value` pair with a raw (number/bool/array) value.
pub fn kv_raw(key: &str, value: impl std::fmt::Display) -> String {
    format!("\"{}\": {}", esc(key), value)
}

/// A JSON array of escaped strings.
pub fn str_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!("[{}]", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("Vⁿᵣ"), "Vⁿᵣ");
        assert_eq!(esc("\u{01}"), "\\u0001");
    }

    #[test]
    fn builds_pairs_and_arrays() {
        assert_eq!(kv_str("id", "T2.1"), "\"id\": \"T2.1\"");
        assert_eq!(kv_raw("seed", 7), "\"seed\": 7");
        assert_eq!(
            str_array(&["a".into(), "b\"c".into()]),
            "[\"a\", \"b\\\"c\"]"
        );
    }
}
