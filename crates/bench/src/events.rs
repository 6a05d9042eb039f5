//! Structured JSONL event stream for experiment runs.
//!
//! The former binaries narrated progress with ad-hoc `eprintln!` lines that
//! were impossible to post-process. [`EventSink`] writes one JSON object per
//! line to `<out_dir>/EVENTS_<experiment>.jsonl` (and mirrors a short human
//! form to stderr), so a run leaves a machine-readable trace: which cells
//! were computed vs. served from cache, how long each took, and what failed.
//!
//! The sink is safe to share by reference across parallel sweep workers:
//! the file handle and clock sit behind an internal [`Mutex`], every event
//! is written as one whole line under that lock (no interleaved fragments),
//! and timestamps are taken under the lock so file order is timestamp
//! order. The JSONL file always receives every event; only the stderr
//! mirror is filtered, by the [`LogLevel`] from `RIL_LOG`.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use ril_attacks::json::escape;

/// Stderr verbosity for the human-readable event mirror (`RIL_LOG`).
///
/// Levels are cumulative: `note` shows errors and notes, `debug` shows
/// everything including per-cell progress. The JSONL event file is *not*
/// affected — it always records every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing on stderr.
    Off,
    /// Only `error` events.
    Error,
    /// Errors plus run lifecycle and notes (the default).
    Note,
    /// Everything, including per-cell completion events.
    Debug,
}

impl LogLevel {
    /// Parses a `RIL_LOG` value. `None` for anything but the four level
    /// names (callers treat that as a hard configuration error).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "note" => Some(LogLevel::Note),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    /// The level's `RIL_LOG` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Note => "note",
            LogLevel::Debug => "debug",
        }
    }
}

/// Event severity / kind tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Run lifecycle (start / finish).
    Run,
    /// A sweep cell completed (computed or cached).
    Cell,
    /// Informational note.
    Note,
    /// A recoverable failure (the run continues).
    Error,
}

impl EventKind {
    fn tag(self) -> &'static str {
        match self {
            EventKind::Run => "run",
            EventKind::Cell => "cell",
            EventKind::Note => "note",
            EventKind::Error => "error",
        }
    }

    /// The minimum stderr [`LogLevel`] at which this kind is mirrored.
    fn level(self) -> LogLevel {
        match self {
            EventKind::Error => LogLevel::Error,
            EventKind::Run | EventKind::Note => LogLevel::Note,
            EventKind::Cell => LogLevel::Debug,
        }
    }
}

/// The lock-protected mutable half of an [`EventSink`]: clock and file
/// handle together, so a timestamp and its line hit the file in the same
/// critical section.
struct SinkInner {
    file: Option<File>,
    started: Instant,
}

/// A JSONL event writer scoped to one experiment run.
///
/// Events carry a monotonic timestamp (seconds since the sink was opened)
/// taken under the sink's internal lock, so line order in the file is
/// timestamp order even when parallel sweep workers share the sink.
pub struct EventSink {
    inner: Mutex<SinkInner>,
    experiment: String,
    stderr_level: LogLevel,
}

impl EventSink {
    /// Opens (appends to) `<dir>/EVENTS_<experiment>.jsonl` with the
    /// default stderr verbosity ([`LogLevel::Note`]). A sink that cannot
    /// be opened degrades to stderr-only rather than failing the run.
    pub fn open(dir: &Path, experiment: &str) -> EventSink {
        EventSink::open_with_level(dir, experiment, LogLevel::Note)
    }

    /// [`EventSink::open`] with an explicit stderr verbosity (from
    /// `RIL_LOG`). The JSONL file always receives every event regardless
    /// of level.
    pub fn open_with_level(dir: &Path, experiment: &str, level: LogLevel) -> EventSink {
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("EVENTS_{experiment}.jsonl"));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .ok();
        EventSink {
            inner: Mutex::new(SinkInner {
                file,
                started: Instant::now(),
            }),
            experiment: experiment.to_string(),
            stderr_level: level,
        }
    }

    /// A sink that discards everything — for tests and `describe`.
    pub fn null() -> EventSink {
        EventSink {
            inner: Mutex::new(SinkInner {
                file: None,
                started: Instant::now(),
            }),
            experiment: String::new(),
            stderr_level: LogLevel::Off,
        }
    }

    /// Emits one event. `fields` is a pre-rendered JSON fragment
    /// (`"k":v,...`) appended to the standard envelope; pass `""` for
    /// none. The whole line is written inside one lock acquisition, so
    /// concurrent emitters never interleave within a line and timestamps
    /// are monotonic in file order.
    pub fn emit(&self, kind: EventKind, message: &str, fields: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let t = inner.started.elapsed().as_secs_f64();
        if let Some(f) = &mut inner.file {
            let extra = if fields.is_empty() {
                String::new()
            } else {
                format!(",{fields}")
            };
            let line = format!(
                r#"{{"t":{t:.6},"kind":"{}","experiment":"{}","message":"{}"{extra}}}"#,
                kind.tag(),
                escape(&self.experiment),
                escape(message),
            );
            let _ = writeln!(f, "{line}");
        }
        drop(inner);
        if kind.level() <= self.stderr_level && self.stderr_level != LogLevel::Off {
            eprintln!("[{}] {} {}", self.experiment, kind.tag(), message);
        }
    }

    /// Convenience: a `Note` event with no extra fields.
    pub fn note(&self, message: &str) {
        self.emit(EventKind::Note, message, "");
    }

    /// Convenience: an `Error` event with no extra fields.
    pub fn error(&self, message: &str) {
        self.emit(EventKind::Error, message, "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_attacks::json::JsonValue;

    #[test]
    fn events_are_valid_jsonl() {
        let dir = std::env::temp_dir().join(format!("ril_events_test_{}", std::process::id()));
        let sink = EventSink::open_with_level(&dir, "unit", LogLevel::Off);
        sink.note("hello \"world\"");
        sink.emit(
            EventKind::Cell,
            "cell done",
            r#""cell":"2x2","cached":true"#,
        );
        drop(sink);
        let text = std::fs::read_to_string(dir.join("EVENTS_unit.jsonl")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            JsonValue::parse(line).unwrap();
        }
        let second = JsonValue::parse(lines[1]).unwrap();
        assert_eq!(second.get("kind").unwrap().as_str(), Some("cell"));
        assert_eq!(second.get("cached").unwrap().as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn null_sink_is_silent() {
        let sink = EventSink::null();
        sink.note("nothing happens");
        assert!(sink.inner.lock().unwrap().file.is_none());
    }

    #[test]
    fn log_levels_parse_and_order() {
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse("error"), Some(LogLevel::Error));
        assert_eq!(LogLevel::parse("note"), Some(LogLevel::Note));
        assert_eq!(LogLevel::parse("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("verbose"), None);
        assert_eq!(LogLevel::parse("NOTE"), None);
        assert!(LogLevel::Error < LogLevel::Note);
        assert!(LogLevel::Note < LogLevel::Debug);
        assert_eq!(LogLevel::Debug.as_str(), "debug");
    }

    #[test]
    fn concurrent_emitters_keep_lines_whole_and_timestamps_monotonic() {
        let dir = std::env::temp_dir().join(format!("ril_events_mt_{}", std::process::id()));
        let sink = EventSink::open_with_level(&dir, "mt", LogLevel::Off);
        std::thread::scope(|s| {
            for w in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..50 {
                        sink.emit(
                            EventKind::Cell,
                            &format!("worker {w} item {i}"),
                            &format!(r#""worker":{w},"item":{i}"#),
                        );
                    }
                });
            }
        });
        drop(sink);
        let text = std::fs::read_to_string(dir.join("EVENTS_mt.jsonl")).unwrap();
        let mut last_t = -1.0;
        let mut n = 0;
        for line in text.lines() {
            let v = JsonValue::parse(line).expect("interleaved/torn line");
            let t = v.get("t").unwrap().as_f64().unwrap();
            assert!(t >= last_t, "timestamps must be monotonic in file order");
            last_t = t;
            n += 1;
        }
        assert_eq!(n, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
