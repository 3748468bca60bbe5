//! Structured event log entries.

use serde::{DeError, Deserialize, Number, Parser, Serialize, Writer};

/// One field value on a structured event. Serialises as the bare JSON
/// value (no enum tagging) so event logs stay human-readable.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl Serialize for FieldValue {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            FieldValue::U64(v) => w.u64(*v),
            FieldValue::I64(v) => w.i64(*v),
            FieldValue::F64(v) => w.f64(*v),
            FieldValue::Str(s) => w.str(s),
            FieldValue::Bool(b) => w.bool(*b),
        }
    }
}

impl Deserialize for FieldValue {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        Ok(match p.peek() {
            Some(b't' | b'f') => FieldValue::Bool(p.bool()?),
            Some(b'"') => FieldValue::Str(p.string()?.into_owned()),
            _ => match p.number()? {
                Number::PosInt(n) => FieldValue::U64(n),
                Number::NegInt(n) => FieldValue::I64(n),
                Number::Float(f) => FieldValue::F64(f),
            },
        })
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One entry in the event log, timestamped in virtual milliseconds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Virtual time the event was recorded (for spans: the end time).
    pub at_ms: u64,
    /// Event name, dotted-path style (`"coordinator.job_assigned"`).
    pub name: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Field lookup by key (first match).
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_values_roundtrip_as_bare_json() {
        for fv in [
            FieldValue::U64(42),
            FieldValue::I64(-7),
            FieldValue::F64(1.5),
            FieldValue::Str("es".into()),
            FieldValue::Bool(true),
        ] {
            let json = serde_json::to_string(&fv).unwrap();
            assert_eq!(serde_json::from_str::<FieldValue>(&json).unwrap(), fv);
        }
        // Bare value, not an enum-tagged object.
        assert_eq!(serde_json::to_string(&FieldValue::U64(1)).unwrap(), "1");
        assert!(serde_json::from_str::<FieldValue>("null").is_err());
    }

    #[test]
    fn event_roundtrips_through_json() {
        let e = Event {
            at_ms: 99,
            name: "db.store".into(),
            fields: vec![("bytes".into(), FieldValue::U64(1024))],
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.field("bytes"), Some(&FieldValue::U64(1024)));
    }
}
