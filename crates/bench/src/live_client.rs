//! `repro watch <addr>`: a terminal client for the live telemetry plane.
//!
//! Connects to a hosting run's `GET /events` SSE stream (see
//! [`hiermeans_obs::live`]) and renders each progress record as one row of
//! a progress table — per-epoch quality and ETA, streaming strip advances,
//! and store-ingestion totals. The client is read-only and can attach and
//! detach at any time without touching the run; it exits when the hosting
//! run shuts the plane down or the stream goes silent past the read
//! timeout.

use std::io::Write;

use hiermeans_obs::live::{http_get, ProgressEvent, SseClient};

/// Consumes an optional address operand after a `--live`/`watch` style
/// flag: the next argument is taken when it looks like `host:port`
/// (contains `:`, does not start with `-`), otherwise
/// [`hiermeans_obs::live::DEFAULT_ADDR`] is used.
pub fn take_live_addr<I: Iterator<Item = String>>(args: &mut std::iter::Peekable<I>) -> String {
    match args.peek() {
        Some(next) if !next.starts_with('-') && next.contains(':') => {
            args.next().expect("peeked argument")
        }
        _ => hiermeans_obs::live::DEFAULT_ADDR.to_owned(),
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else {
        format!("{}ms", us / 1_000)
    }
}

/// Renders one SSE `data:` payload as a progress-table row. Payloads that
/// do not parse as a [`ProgressEvent`] (a newer server, say) pass through
/// raw rather than killing the watch.
#[must_use]
pub fn render_event(payload: &str) -> String {
    match serde_json::from_str::<ProgressEvent>(payload) {
        Ok(ProgressEvent::Epoch {
            study,
            epoch,
            total_epochs,
            quantization_error,
            epoch_duration_us,
            eta_us,
        }) => {
            let qe = quantization_error.map_or_else(|| "-".to_owned(), |v| format!("{v:.4}"));
            let eta = eta_us.map_or_else(|| "-".to_owned(), fmt_us);
            format!(
                "{study:<20} epoch {:>4}/{total_epochs:<4} qe {qe:>8} took {:>7} eta {eta:>7}",
                epoch + 1,
                fmt_us(epoch_duration_us),
            )
        }
        Ok(ProgressEvent::Strip {
            study,
            epoch,
            strip,
            total_strips,
        }) => format!(
            "{study:<20} epoch {:>4} strip {:>5}/{total_strips}",
            epoch + 1,
            strip + 1,
        ),
        Ok(ProgressEvent::Ingest {
            store,
            accepted,
            rejected,
        }) => format!("{store:<20} ingest accepted {accepted} rejected {rejected}"),
        Err(_) => payload.to_owned(),
    }
}

/// Attaches to `addr` and renders the SSE stream to `out`, one row per
/// event, until the stream ends. Returns a one-line summary.
///
/// # Errors
///
/// Returns a message when the server is unreachable, fails its health
/// probe, or the stream breaks mid-transport.
pub fn watch(addr: &str, out: &mut dyn Write) -> Result<String, String> {
    let (status, _) = http_get(addr, "/healthz")?;
    if status != 200 {
        return Err(format!("watch {addr}: /healthz answered {status}"));
    }
    writeln!(
        out,
        "watching {addr} (ctrl-c to detach; the run is unaffected)"
    )
    .map_err(|e| format!("watch: stdout write failed: {e}"))?;
    let mut client = SseClient::connect(addr)?;
    let mut events = 0usize;
    while let Some(payload) = client.next_event()? {
        writeln!(out, "{}", render_event(&payload))
            .map_err(|e| format!("watch: stdout write failed: {e}"))?;
        let _ = out.flush();
        events += 1;
    }
    Ok(format!("watch {addr}: stream ended after {events} events"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_live_addr_consumes_host_port_operands_only() {
        let mut args = ["127.0.0.1:9999".to_owned(), "next".to_owned()]
            .into_iter()
            .peekable();
        assert_eq!(take_live_addr(&mut args), "127.0.0.1:9999");
        assert_eq!(args.next().as_deref(), Some("next"));

        // A following flag or plain operand is left alone.
        let mut args = ["--baseline".to_owned()].into_iter().peekable();
        assert_eq!(take_live_addr(&mut args), hiermeans_obs::live::DEFAULT_ADDR);
        assert_eq!(args.next().as_deref(), Some("--baseline"));
        let mut args = ["subs.jsonl".to_owned()].into_iter().peekable();
        assert_eq!(take_live_addr(&mut args), hiermeans_obs::live::DEFAULT_ADDR);
        assert_eq!(args.next().as_deref(), Some("subs.jsonl"));
    }

    #[test]
    fn render_event_formats_each_kind() {
        let epoch = serde_json::to_string(&ProgressEvent::Epoch {
            study: "sar_machine_a".into(),
            epoch: 2,
            total_epochs: 96,
            quantization_error: Some(0.1234),
            epoch_duration_us: 1_500,
            eta_us: Some(2_300_000),
        })
        .unwrap();
        let row = render_event(&epoch);
        assert!(row.contains("sar_machine_a"), "{row}");
        assert!(row.contains("epoch    3/96"), "{row}");
        assert!(row.contains("0.1234"), "{row}");
        assert!(row.contains("1ms"), "{row}");
        assert!(row.contains("2.3s"), "{row}");

        let strip = serde_json::to_string(&ProgressEvent::Strip {
            study: "bench_som_stream".into(),
            epoch: 0,
            strip: 41,
            total_strips: 245,
        })
        .unwrap();
        let row = render_event(&strip);
        assert!(row.contains("strip    42/245"), "{row}");

        let ingest = serde_json::to_string(&ProgressEvent::Ingest {
            store: "fleet.jsonl".into(),
            accepted: 12,
            rejected: 3,
        })
        .unwrap();
        let row = render_event(&ingest);
        assert!(row.contains("accepted 12 rejected 3"), "{row}");

        // Unknown payloads pass through raw.
        assert_eq!(render_event("{\"Future\":{}}"), "{\"Future\":{}}");
    }

    #[test]
    fn watch_streams_until_server_shutdown() {
        let mut server = hiermeans_obs::LiveServer::bind("127.0.0.1:0", 1).expect("bind");
        let addr = server.addr().to_string();
        let publisher = server.publisher("s");
        publisher.publish_strip(0, 0, 2);
        publisher.publish_strip(0, 1, 2);
        let handle = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let summary = watch(&addr, &mut out).expect("watch succeeds");
                (String::from_utf8(out).unwrap(), summary)
            })
        };
        // Give the client time to attach and drain the backlog, then end
        // the stream by shutting the plane down.
        std::thread::sleep(std::time::Duration::from_millis(300));
        server.shutdown();
        let (rendered, summary) = handle.join().unwrap();
        assert!(rendered.contains("strip     1/2"), "{rendered}");
        assert!(rendered.contains("strip     2/2"), "{rendered}");
        assert!(summary.contains("stream ended after 2 events"), "{summary}");
    }
}
