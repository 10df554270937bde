//! The flight-recorder event vocabulary.
//!
//! Events are plain-old-data so the recorder can store them in fixed atomic words:
//! a monotonic timestamp, an optional shard, a [`EventKind`] discriminant and two
//! kind-specific payload words (`value`, `extra`). The per-kind meaning of the
//! payload is documented on each variant and tabulated in `docs/observability.md`.

use serde::{DeError, Deserialize, Serialize, Value};

/// What a flight-recorder [`Event`] describes.
///
/// Serialized (JSON, journal, `/debug/trace`) as the kebab-case code returned by
/// [`EventKind::code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A shard worker published one conditioned batch.
    /// `value` = batch wall-clock nanoseconds, `extra` = published output bytes.
    BatchGenerated,
    /// One conditioning stage processed one batch.
    /// `value` = stage nanoseconds, `extra` = stage index within the chain.
    StageApplied,
    /// The shard's health verdict changed.
    /// `value` = new state code (0 startup, 1 healthy, 2 suspect, 3 alarmed),
    /// `extra` = previous state code.
    HealthVerdict,
    /// An audit window completed its estimator battery.
    /// `value` = battery nanoseconds, `extra` = audit lane index.
    AuditWindow,
    /// A consumer blocked on [`EntropyTap::draw`]-style call.
    /// `value` = blocking-wait nanoseconds, `extra` = bytes drawn.
    ///
    /// [`EntropyTap::draw`]: https://docs.rs/ptrng-engine
    TapWait,
    /// One HTTP request was served end to end.
    /// `value` = request nanoseconds, `extra` = HTTP status code.
    HttpRequest,
    /// A shard health alarm fired. `value` = alarm-kind code index, `extra` = 0.
    Alarm,
    /// The DRBG expansion tier (re)seeded from ledger-accounted entropy.
    /// `value` = reseed wall-clock nanoseconds (seed draw + Hash_df),
    /// `extra` = DRBG output bytes emitted since the previous (re)seed.
    DrbgReseed,
}

impl EventKind {
    /// Every kind, in stable discriminant order (append-only: serialized
    /// discriminants must keep meaning across versions).
    pub const ALL: [EventKind; 8] = [
        EventKind::BatchGenerated,
        EventKind::StageApplied,
        EventKind::HealthVerdict,
        EventKind::AuditWindow,
        EventKind::TapWait,
        EventKind::HttpRequest,
        EventKind::Alarm,
        EventKind::DrbgReseed,
    ];

    /// Stable kebab-case code used in every serialized form.
    pub fn code(self) -> &'static str {
        match self {
            EventKind::BatchGenerated => "batch-generated",
            EventKind::StageApplied => "stage-applied",
            EventKind::HealthVerdict => "health-verdict",
            EventKind::AuditWindow => "audit-window",
            EventKind::TapWait => "tap-wait",
            EventKind::HttpRequest => "http-request",
            EventKind::Alarm => "alarm",
            EventKind::DrbgReseed => "drbg-reseed",
        }
    }

    /// Small integer discriminant used inside recorder slots.
    pub(crate) fn discriminant(self) -> u64 {
        self as u64
    }

    /// Inverse of [`EventKind::discriminant`].
    pub(crate) fn from_discriminant(d: u64) -> Option<Self> {
        Self::ALL.get(d as usize).copied()
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

impl Serialize for EventKind {
    fn to_value(&self) -> Value {
        Value::Str(self.code().to_string())
    }
}

impl Deserialize for EventKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(code) => Self::ALL
                .into_iter()
                .find(|kind| kind.code() == code)
                .ok_or_else(|| DeError::custom(format!("unknown event kind `{code}`"))),
            _ => Err(DeError::custom("event kind must be a string")),
        }
    }
}

/// One decoded flight-recorder entry.
///
/// `shard` is `None` for events that are not tied to a producer shard (consumer tap
/// waits, HTTP requests). The meaning of `value`/`extra` depends on [`Event::kind`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Monotonic nanoseconds since the process's [`ObsClock`] epoch.
    ///
    /// [`ObsClock`]: crate::recorder::ObsClock
    pub t_ns: u64,
    /// Producer shard the event belongs to, when applicable.
    pub shard: Option<u32>,
    /// What happened.
    pub kind: EventKind,
    /// Primary payload word (usually a duration in nanoseconds).
    pub value: u64,
    /// Secondary payload word (kind-specific).
    pub extra: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        // Distinct codes, so each code names exactly one kind on the wire.
        let codes: std::collections::HashSet<&str> =
            EventKind::ALL.iter().map(|kind| kind.code()).collect();
        assert_eq!(codes.len(), EventKind::ALL.len());
        for kind in EventKind::ALL {
            let json = serde_json::to_string(&kind).expect("serializes");
            assert_eq!(serde_json::from_str::<EventKind>(&json).ok(), Some(kind));
            assert_eq!(
                EventKind::from_discriminant(kind.discriminant()),
                Some(kind)
            );
        }
        assert!(serde_json::from_str::<EventKind>("\"no-such-kind\"").is_err());
        assert_eq!(EventKind::from_discriminant(999), None);
    }

    #[test]
    fn event_serializes_with_kebab_kind() {
        let event = Event {
            t_ns: 42,
            shard: Some(3),
            kind: EventKind::BatchGenerated,
            value: 1000,
            extra: 128,
        };
        let json = serde_json::to_string(&event).expect("serializes");
        assert!(json.contains("\"kind\":\"batch-generated\""), "{json}");
        let back: Event = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, event);
    }

    #[test]
    fn shardless_event_round_trips() {
        let event = Event {
            t_ns: 7,
            shard: None,
            kind: EventKind::TapWait,
            value: 5,
            extra: 0,
        };
        let json = serde_json::to_string(&event).expect("serializes");
        let back: Event = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, event);
    }
}
