//! Append-only JSONL journal behind `--journal <path>`.
//!
//! Every line is one self-contained JSON object:
//!
//! ```json
//! {"event":"alarm-postmortem","t_ns":123456789,"data":{…}}
//! ```
//!
//! `event` names the record type, `t_ns` is the shared monotonic observability
//! clock, and `data` is the record payload. Lines are flushed as they are written
//! so a crash loses at most the line being formatted.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::Serialize;

use crate::recorder::ObsClock;

/// A shared, line-buffered JSONL sink.
pub struct Journal {
    path: PathBuf,
    clock: ObsClock,
    writer: Mutex<BufWriter<File>>,
}

impl Journal {
    /// Creates (truncating) the journal file and stamps records against `clock`.
    pub fn create(path: impl AsRef<Path>, clock: ObsClock) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            path,
            clock,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Appends one `{"event":…,"t_ns":…,"data":…}` line and flushes it.
    ///
    /// I/O errors are swallowed: the journal is diagnostics, and a full disk must
    /// not take the entropy pipeline down with it.
    pub fn append(&self, event: &str, data: &impl Serialize) {
        let (Ok(name), Ok(payload)) = (
            serde_json::to_string(&event.to_string()),
            serde_json::to_string(data),
        ) else {
            return;
        };
        let line = format!(
            "{{\"event\":{name},\"t_ns\":{},\"data\":{payload}}}\n",
            self.clock.now_ns()
        );
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.write_all(line.as_bytes());
            let _ = writer.flush();
        }
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn lines_parse_back_as_json() {
        let path =
            std::env::temp_dir().join(format!("ptrng-obs-journal-{}.jsonl", std::process::id()));
        let journal = Journal::create(&path, ObsClock::new()).expect("journal opens");
        journal.append("engine-start", &Value::Object(vec![]));
        journal.append(
            "note",
            &Value::Str("with \"quotes\" and\nnewline".to_string()),
        );
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let value: Value = serde_json::from_str(line).expect("line parses");
            let entries = value.as_object().expect("line is an object");
            assert!(entries.iter().any(|(k, _)| k == "event"));
            assert!(entries.iter().any(|(k, _)| k == "t_ns"));
            assert!(entries.iter().any(|(k, _)| k == "data"));
        }
        let first: Value = serde_json::from_str(lines[0]).expect("parses");
        let event = first
            .as_object()
            .and_then(|obj| obj.iter().find(|(k, _)| k == "event"))
            .map(|(_, v)| v.clone());
        assert_eq!(event, Some(Value::Str("engine-start".to_string())));
        let _ = std::fs::remove_file(&path);
    }
}
