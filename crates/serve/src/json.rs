//! The wire protocol's JSON: the workspace's one reader and escaper,
//! which live in the leaf crate `pta-obs` (see [`pta_obs::json`]).
//! Requests parse with [`parse`]; responses are built by direct string
//! construction with every program-derived name passed through
//! [`escape`].

pub use pta_obs::json::{escape, escape_into, parse, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_requests_and_rejects_garbage() {
        let v = parse(r#"{"id":3,"op":"points_to","var":"x","deadline_ms":250}"#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("op").and_then(Value::as_str), Some("points_to"));
        assert_eq!(v.get("deadline_ms").and_then(Value::as_u64), Some(250));
        assert!(parse("{\"id\":").is_err());
        assert!(parse("not json").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"id\":1e999}").is_err());
    }
}
