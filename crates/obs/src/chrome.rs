//! Chrome trace-event export: `OBS_profile.trace.json`.
//!
//! Converts a [`TraceDocument`] into the Chrome trace-event JSON format
//! (the object form, `{"traceEvents": [...]}`) loadable in Perfetto or
//! `chrome://tracing`. Every emitted event is a complete `ph: "X"` duration
//! event:
//!
//! * `pid` — the study index (one process row per paper study),
//! * `tid 0` — the coordinator lane: one event per span of the stage tree,
//! * `tid w+1` — worker lane `w`: one event per chunk interval, named
//!   `stage#chunk`.
//!
//! [`validate`] checks an arbitrary JSON string against that shape — the CI
//! profile job runs it (via `repro check-trace`) on the freshly written
//! artifact so a schema regression fails the build, not the person opening
//! the trace.

use serde::{Serialize, Value};

use crate::report::TraceDocument;

/// The trace-event JSON object form. The field name is the format's, not
/// ours, hence the non-snake-case exception.
#[allow(non_snake_case)]
#[derive(Debug, Serialize)]
struct TraceEventDocument {
    traceEvents: Vec<TraceEvent>,
}

/// One complete duration event.
#[derive(Debug, Serialize)]
struct TraceEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
}

/// Renders `doc` as Chrome trace-event JSON.
#[must_use]
pub fn to_chrome_trace(doc: &TraceDocument) -> String {
    let mut events = Vec::new();
    for (study, s) in doc.studies.iter().enumerate() {
        let pid = study as u64;
        for span in &s.trace.spans {
            events.push(TraceEvent {
                name: format!("{}:{}", s.label, span.name),
                cat: "span".to_owned(),
                ph: "X".to_owned(),
                ts: span.start_us as f64,
                dur: span.duration_us.max(1) as f64,
                pid,
                tid: 0,
            });
        }
        for lane_set in &s.trace.lanes {
            for iv in &lane_set.intervals {
                events.push(TraceEvent {
                    name: format!("{}#{}", lane_set.stage, iv.chunk),
                    cat: "lane".to_owned(),
                    ph: "X".to_owned(),
                    ts: iv.begin_us,
                    dur: iv.duration_us().max(1e-3),
                    pid,
                    tid: u64::from(iv.worker) + 1,
                });
            }
        }
    }
    serde_json::to_string(&TraceEventDocument {
        traceEvents: events,
    })
    .unwrap_or_else(|_| r#"{"traceEvents":[]}"#.to_owned())
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::UInt(_) | Value::Float(_))
}

/// Validates Chrome trace-event JSON shape: a top-level `traceEvents` array
/// whose every element is a complete duration event (`ph: "X"` with numeric
/// `ts`/`dur`/`pid`/`tid` and string `name`/`cat`). Returns the event count.
///
/// # Errors
///
/// Returns a description of the first violation: unparseable JSON, a
/// missing/NaN field, or a non-`"X"` phase.
pub fn validate(json: &str) -> Result<usize, String> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let Some(events) = value.get("traceEvents") else {
        return Err("missing top-level traceEvents field".to_owned());
    };
    let Value::Array(events) = events else {
        return Err("traceEvents is not an array".to_owned());
    };
    for (i, event) in events.iter().enumerate() {
        if !matches!(event, Value::Object(_)) {
            return Err(format!("event {i} is not an object"));
        }
        match event.get("ph") {
            Some(Value::Str(ph)) if ph == "X" => {}
            other => return Err(format!("event {i}: ph must be \"X\", got {other:?}")),
        }
        for field in ["ts", "dur", "pid", "tid"] {
            match event.get(field) {
                Some(v) if is_number(v) => {}
                other => {
                    return Err(format!(
                        "event {i}: {field} must be a number, got {other:?}"
                    ))
                }
            }
        }
        for field in ["name", "cat"] {
            if !matches!(event.get(field), Some(Value::Str(_))) {
                return Err(format!("event {i}: missing string field {field}"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{StudyTrace, TraceDocument};
    use crate::{Collector, LaneBuf};

    fn sample_document() -> TraceDocument {
        let c = Collector::enabled();
        {
            let _root = c.span("pipeline");
            let _som = c.span("pipeline.som");
            let mut buf = LaneBuf::with_capacity(2);
            buf.record(0, 0, 5.0, 9.0);
            buf.record(1, 1, 5.0, 11.0);
            buf.end_run();
            c.attach_lanes("som.bmu_batch", 2, &buf);
        }
        TraceDocument::new(
            2,
            vec![StudyTrace {
                label: "study_a".into(),
                trace: c.report().expect("enabled"),
            }],
        )
    }

    #[test]
    fn export_validates_and_counts_lanes() {
        let doc = sample_document();
        let json = to_chrome_trace(&doc);
        let n = validate(&json).expect("well-formed trace");
        // 2 spans on the coordinator lane + 2 lane intervals.
        assert_eq!(n, 4);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("som.bmu_batch#0"));
        assert!(json.contains("study_a:pipeline"));
    }

    #[test]
    fn worker_lanes_get_distinct_tids() {
        let json = to_chrome_trace(&sample_document());
        let value: Value = serde_json::from_str(&json).expect("valid json");
        let Some(Value::Array(events)) = value.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        let mut tids: Vec<i64> = events
            .iter()
            .filter_map(|e| match e.get("tid") {
                Some(Value::Int(t)) => Some(*t),
                Some(Value::UInt(t)) => i64::try_from(*t).ok(),
                _ => None,
            })
            .collect();
        tids.sort_unstable();
        tids.dedup();
        // Coordinator lane 0 plus worker lanes 1 and 2.
        assert_eq!(tids, vec![0, 1, 2]);
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        assert!(validate("not json").is_err());
        assert!(validate(r#"{"other": []}"#).is_err());
        assert!(validate(r#"{"traceEvents": [{}]}"#).is_err());
        assert!(validate(
            r#"{"traceEvents": [{"ph": "B", "ts": 0, "dur": 0, "pid": 0, "tid": 0}]}"#
        )
        .is_err());
        assert!(validate(
            r#"{"traceEvents": [{"name": "n", "cat": "c", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]}"#
        )
        .is_err());
        assert_eq!(validate(r#"{"traceEvents": []}"#), Ok(0));
    }
}
