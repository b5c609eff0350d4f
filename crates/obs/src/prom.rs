//! Prometheus text-exposition export of trace metrics.
//!
//! `repro trace --prom <file>` writes this rendering alongside the JSON
//! artifact so scrape-style tooling can consume counters and histograms
//! without a JSON post-processing step. One time series per paper study,
//! labelled `study="<label>"`; histogram buckets are cumulative with an
//! explicit `+Inf` bucket, per the exposition-format convention.

use std::fmt::Write as _;

use crate::metrics::HistogramExport;
use crate::report::TraceDocument;

const PREFIX: &str = "hiermeans_";

/// Renders every study's counters, histograms, and lane parallel-efficiency
/// gauges in Prometheus text exposition format.
#[must_use]
pub fn to_prometheus(doc: &TraceDocument) -> String {
    let mut out = String::new();
    let Some(first) = doc.studies.first() else {
        return out;
    };
    for (i, counter) in first.trace.counters.iter().enumerate() {
        let _ = writeln!(out, "# TYPE {PREFIX}{} counter", counter.name);
        for s in &doc.studies {
            if let Some(c) = s.trace.counters.get(i) {
                let _ = writeln!(
                    out,
                    "{PREFIX}{}{{study=\"{}\"}} {}",
                    c.name,
                    escape(&s.label),
                    c.value
                );
            }
        }
    }
    for (i, histogram) in first.trace.histograms.iter().enumerate() {
        let _ = writeln!(out, "# TYPE {PREFIX}{} histogram", histogram.name);
        for s in &doc.studies {
            if let Some(h) = s.trace.histograms.get(i) {
                render_histogram(&mut out, h, &s.label);
            }
        }
    }
    let mut wrote_gauge_type = false;
    for s in &doc.studies {
        for lane_set in &s.trace.lanes {
            if !wrote_gauge_type {
                let _ = writeln!(out, "# TYPE {PREFIX}parallel_efficiency gauge");
                wrote_gauge_type = true;
            }
            let _ = writeln!(
                out,
                "{PREFIX}parallel_efficiency{{study=\"{}\",stage=\"{}\"}} {}",
                escape(&s.label),
                escape(&lane_set.stage),
                fmt_f64(lane_set.parallel_efficiency)
            );
        }
    }
    let mut wrote_rss_type = false;
    for s in &doc.studies {
        if let Some(memory) = &s.trace.memory {
            if !wrote_rss_type {
                let _ = writeln!(out, "# TYPE {PREFIX}process_peak_rss_kb gauge");
                wrote_rss_type = true;
            }
            let _ = writeln!(
                out,
                "{PREFIX}process_peak_rss_kb{{study=\"{}\"}} {}",
                escape(&s.label),
                memory.peak_rss_kb
            );
        }
    }
    let mut wrote_peak_type = false;
    for s in &doc.studies {
        if let Some(memory) = &s.trace.memory {
            for stage in &memory.stages {
                if !wrote_peak_type {
                    let _ = writeln!(out, "# TYPE {PREFIX}memory_peak_bytes gauge");
                    wrote_peak_type = true;
                }
                let _ = writeln!(
                    out,
                    "{PREFIX}memory_peak_bytes{{study=\"{}\",stage=\"{}\"}} {}",
                    escape(&s.label),
                    escape(&stage.stage),
                    stage.peak_bytes
                );
            }
        }
    }
    out
}

fn render_histogram(out: &mut String, h: &HistogramExport, study: &str) {
    let study = escape(study);
    let mut cumulative = 0u64;
    for (bucket, count) in h.counts.iter().enumerate() {
        cumulative += count;
        let le = match h.boundaries.get(bucket) {
            Some(b) => fmt_f64(*b),
            None => "+Inf".to_owned(),
        };
        let _ = writeln!(
            out,
            "{PREFIX}{}_bucket{{study=\"{study}\",le=\"{le}\"}} {cumulative}",
            h.name
        );
    }
    let _ = writeln!(
        out,
        "{PREFIX}{}_sum{{study=\"{study}\"}} {}",
        h.name,
        fmt_f64(h.sum)
    );
    let _ = writeln!(
        out,
        "{PREFIX}{}_count{{study=\"{study}\"}} {}",
        h.name, h.total
    );
}

/// Prometheus floats: plain decimal, no exponent needed for our ranges;
/// integral values render without a trailing `.0` either way is accepted,
/// so the default `Display` is fine.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Escapes a label value per the exposition format: backslash first (so
/// introduced escapes are not re-escaped), then double quote, then
/// newline.
fn escape(label: &str) -> String {
    label
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{StudyTrace, TraceDocument};
    use crate::{Collector, Counter, HistogramId, LaneBuf};

    fn sample_document() -> TraceDocument {
        let c = Collector::enabled();
        {
            let _root = c.span("pipeline");
            c.add(Counter::BmuSearches, 13);
            c.record(HistogramId::MergeDistance, 0.3);
            c.record(HistogramId::MergeDistance, 3.0);
            let mut buf = LaneBuf::new();
            buf.record(0, 0, 0.0, 10.0);
            buf.end_run();
            c.attach_lanes("score.sweep", 1, &buf);
        }
        TraceDocument::new(
            1,
            vec![StudyTrace {
                label: "sar_machine_a".into(),
                trace: c.report().expect("enabled"),
            }],
        )
    }

    #[test]
    fn renders_counters_histograms_and_gauges() {
        let text = to_prometheus(&sample_document());
        assert!(text.contains("# TYPE hiermeans_bmu_searches counter"));
        assert!(text.contains("hiermeans_bmu_searches{study=\"sar_machine_a\"} 13"));
        assert!(text.contains("# TYPE hiermeans_merge_distance histogram"));
        // 0.3 <= 0.5 and 3.0 <= 4.0: cumulative buckets end at 2.
        assert!(
            text.contains("hiermeans_merge_distance_bucket{study=\"sar_machine_a\",le=\"0.25\"} 0")
        );
        assert!(
            text.contains("hiermeans_merge_distance_bucket{study=\"sar_machine_a\",le=\"0.5\"} 1")
        );
        assert!(
            text.contains("hiermeans_merge_distance_bucket{study=\"sar_machine_a\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("hiermeans_merge_distance_count{study=\"sar_machine_a\"} 2"));
        assert!(text.contains("# TYPE hiermeans_parallel_efficiency gauge"));
        assert!(text.contains(
            "hiermeans_parallel_efficiency{study=\"sar_machine_a\",stage=\"score.sweep\"} 1"
        ));
    }

    #[test]
    fn cumulative_buckets_are_monotonic() {
        let text = to_prometheus(&sample_document());
        let mut last = 0;
        for line in text
            .lines()
            .filter(|l| l.contains("merge_distance_bucket{"))
        {
            let value: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap();
            assert!(value >= last, "{line}");
            last = value;
        }
        assert_eq!(last, 2);
    }

    #[test]
    fn empty_document_renders_empty() {
        assert!(to_prometheus(&TraceDocument::new(1, vec![])).is_empty());
    }

    #[test]
    fn memory_gauges_follow_the_exposition_shape() {
        let mut doc = sample_document();
        doc.studies[0].trace.memory = Some(crate::report::MemoryReport {
            peak_rss_kb: 54321,
            stages: vec![crate::report::StageMemory {
                span: 0,
                stage: "pipeline.som".into(),
                allocs: 10,
                bytes: 2048,
                peak_bytes: 1536,
            }],
        });
        let text = to_prometheus(&doc);
        assert!(text.contains("# TYPE hiermeans_process_peak_rss_kb gauge"));
        assert!(text.contains("hiermeans_process_peak_rss_kb{study=\"sar_machine_a\"} 54321"));
        assert!(text.contains("# TYPE hiermeans_memory_peak_bytes gauge"));
        assert!(text.contains(
            "hiermeans_memory_peak_bytes{study=\"sar_machine_a\",stage=\"pipeline.som\"} 1536"
        ));
        // Every TYPE declaration precedes its first sample, and every
        // non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(series.starts_with("hiermeans_"), "{line}");
            assert!(series.contains("{study=\""), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
        // Memory gauges are absent when telemetry was off.
        let off = to_prometheus(&sample_document());
        assert!(!off.contains("process_peak_rss_kb"));
        assert!(!off.contains("memory_peak_bytes"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        // Newlines must escape to the two characters `\n`, or the sample
        // line splits and the exposition stops parsing.
        assert_eq!(escape("line1\nline2"), "line1\\nline2");
        // Backslash escapes first: a literal `\n` in the label must not
        // collapse into an escaped newline.
        assert_eq!(escape("raw\\nseq"), "raw\\\\nseq");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn hostile_study_label_stays_one_line_per_sample() {
        let c = Collector::enabled();
        c.add(Counter::BmuSearches, 5);
        let doc = TraceDocument::new(
            1,
            vec![StudyTrace {
                label: "evil\"study\\with\nnewline".into(),
                trace: c.report().unwrap(),
            }],
        );
        let text = to_prometheus(&doc);
        assert!(
            text.contains("{study=\"evil\\\"study\\\\with\\nnewline\"}"),
            "{text}"
        );
        // The hostile label must not have produced an unparseable line:
        // every non-comment line still splits into `series value`.
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(series.starts_with("hiermeans_"), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }
}
