//! End-to-end tests for the live telemetry plane: a hosted run answers
//! `/metrics`, `/healthz`, and `/events` with real telemetry, and hosting
//! the plane changes no training output — codebooks and trace fingerprints
//! are bitwise identical with the plane on and off.

use hiermeans_linalg::Matrix;
use hiermeans_obs::live::{http_get, SseClient};
use hiermeans_obs::{Collector, LiveServer, ObsConfig, ProgressEvent};
use hiermeans_som::{SomBuilder, TrainingMode};

/// Deterministic five-blob data: the same bytes on every call, so paired
/// live-on/live-off runs see identical inputs.
fn blobs(n: usize, dim: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    let x = (i * dim + j) as f64;
                    (x * 0.618_033_9).sin() * 3.0 + (i % 5) as f64
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).expect("finite deterministic data")
}

fn builder(epochs: usize) -> SomBuilder {
    SomBuilder::new(6, 5)
        .seed(7)
        .epochs(epochs)
        .mode(TrainingMode::Batch)
}

#[test]
fn live_plane_serves_endpoints_without_perturbing_training() {
    let data = blobs(400, 4);

    // Plane off: the reference output.
    let off = Collector::enabled_with(ObsConfig::default());
    let som_off = builder(12).train_traced(&data, &off).expect("off run");
    let report_off = off.report().expect("enabled collector reports");

    // Plane on: same build, same data, publishing to a live server.
    let mut server = LiveServer::bind("127.0.0.1:0", 1).expect("bind ephemeral");
    let addr = server.addr().to_string();
    let live = Collector::enabled_live(ObsConfig::default(), server.publisher("live_test"));
    let som_live = builder(12).train_traced(&data, &live).expect("live run");
    let report_live = live.report().expect("enabled collector reports");

    // The run is over but the plane is still up: scrape it.
    let (status, _) = http_get(&addr, "/healthz").expect("/healthz");
    assert_eq!(status, 200);
    let (status, _) = http_get(&addr, "/readyz").expect("/readyz");
    assert_eq!(status, 200, "snapshot published, so the plane is ready");
    let (status, metrics) = http_get(&addr, "/metrics").expect("/metrics");
    assert_eq!(status, 200);
    // Every counter is rendered, even at zero, so check the value: the
    // run's BMU searches reached the plane under its study label.
    let searches = metrics
        .lines()
        .find_map(|l| l.strip_prefix("hiermeans_bmu_searches{study=\"live_test\"} "))
        .and_then(|v| v.parse::<u64>().ok());
    assert!(
        searches.is_some_and(|v| v > 0),
        "no nonzero live_test BMU-search sample in:\n{metrics}"
    );
    let (status, trace) = http_get(&addr, "/trace").expect("/trace");
    assert_eq!(status, 200);
    assert!(trace.contains("live_test"), "partial trace lacks the study");

    // The SSE stream replays the run's backlog: at least one Epoch event
    // with the run's telemetry must come through.
    let mut sse = SseClient::connect(&addr).expect("SSE connect");
    let first = sse
        .next_event()
        .expect("SSE read")
        .expect("backlog has events");
    let event: ProgressEvent = serde_json::from_str(&first).expect("progress event JSON");
    match event {
        ProgressEvent::Epoch {
            study,
            total_epochs,
            ..
        } => {
            assert_eq!(study, "live_test");
            assert_eq!(total_epochs, 12);
        }
        other => panic!("expected an Epoch event first, got {other:?}"),
    }
    server.shutdown();

    // The invariant the whole plane is built around: hosting it changes
    // no output bytes.
    assert_eq!(
        som_live.weights(),
        som_off.weights(),
        "live plane perturbed the codebook"
    );
    assert_eq!(
        report_live.fingerprint(),
        report_off.fingerprint(),
        "live plane perturbed the trace fingerprint"
    );
}

#[test]
fn store_ingestion_publishes_ingest_events() {
    use hiermeans_store::{ingest_submissions, synthetic_fleet, IngestConfig, ResultStore};

    let dir = std::env::temp_dir().join(format!("hm_live_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("fleet.jsonl");
    let store = ResultStore::new(&path);
    for p in [path.clone(), store.quarantine_path(), store.lock_path()] {
        let _ = std::fs::remove_file(p);
    }

    let mut server = LiveServer::bind("127.0.0.1:0", 1).expect("bind ephemeral");
    let addr = server.addr().to_string();
    let collector = Collector::enabled_live(ObsConfig::default(), server.publisher("fleet.jsonl"));
    let fleet = synthetic_fleet(3, 9).expect("synthetic fleet");
    let report = ingest_submissions(&store, &fleet, &IngestConfig::default(), &collector)
        .expect("ingest succeeds");
    assert_eq!(report.accepted(), 3);

    let mut sse = SseClient::connect(&addr).expect("SSE connect");
    let mut last_accepted = 0;
    while let Some(payload) = sse.next_event().expect("SSE read") {
        if let Ok(ProgressEvent::Ingest {
            store, accepted, ..
        }) = serde_json::from_str(&payload)
        {
            assert_eq!(store, "fleet.jsonl");
            last_accepted = accepted;
            if accepted == 3 {
                break;
            }
        }
    }
    assert_eq!(last_accepted, 3, "ingest counters never reached the total");
    server.shutdown();
}

/// The acceptance-scale run: 10⁵ streamed rows, scraped mid-run, with the
/// live-on output pinned bitwise to the live-off output. Minutes in debug,
/// so ignored by default; CI runs it in release (`--ignored`).
#[test]
#[ignore = "large streaming run; CI executes it in release"]
fn large_streaming_run_is_scrapable_mid_run_and_stays_bitwise_identical() {
    let n = 100_000;
    let data = blobs(n, 8);
    let b = builder(3);

    // Plane off: the reference streamed codebook.
    let mut source = &data;
    let som_off = b.train_stream(&mut source).expect("off stream run");

    // Plane on, with a scraper attached mid-run.
    let mut server = LiveServer::bind("127.0.0.1:0", 1).expect("bind ephemeral");
    let addr = server.addr().to_string();
    let scraper = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let (health, _) = http_get(&addr, "/healthz").expect("/healthz mid-run");
            let (metrics_status, metrics) = http_get(&addr, "/metrics").expect("/metrics mid-run");
            let mut sse = SseClient::connect(&addr).expect("SSE connect mid-run");
            let mut strips = 0usize;
            let mut epochs = 0usize;
            while let Some(payload) = sse.next_event().expect("SSE read") {
                match serde_json::from_str::<ProgressEvent>(&payload) {
                    Ok(ProgressEvent::Strip { total_strips, .. }) => {
                        assert_eq!(total_strips, n.div_ceil(4096));
                        strips += 1;
                    }
                    Ok(ProgressEvent::Epoch { .. }) => epochs += 1,
                    _ => {}
                }
            }
            (health, strips, epochs, metrics_status, metrics)
        })
    };
    let collector = Collector::enabled_live(
        ObsConfig {
            epoch_quality_stride: 0,
            lanes: false,
            memory: false,
            ..ObsConfig::default()
        },
        server.publisher("stream_scale"),
    );
    let mut source = &data;
    let som_live = b
        .train_stream_traced(&mut source, &collector)
        .expect("live stream run");
    // Let the scraper drain the tail of the stream, then close the plane
    // (ending its SSE read) and collect what it saw.
    std::thread::sleep(std::time::Duration::from_millis(300));
    server.shutdown();
    let (health, strips, epochs, metrics_status, _metrics) = scraper.join().expect("scraper");
    assert_eq!(health, 200, "/healthz failed mid-run");
    assert!(strips > 0, "no strip progress events observed");
    assert_eq!(epochs, 3, "expected one event per streamed epoch");
    assert_eq!(metrics_status, 200);

    assert_eq!(
        som_live.weights(),
        som_off.weights(),
        "live plane perturbed the streamed codebook"
    );
}
