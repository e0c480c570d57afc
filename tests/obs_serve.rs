//! End-to-end checks of the live telemetry plane: `ObsServer` scraped
//! over real TCP while a sweep is actually running in this process.
//!
//! The server and the sweep thread both install this test's telemetry
//! handle, so they share its state and no other test's.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qres::sim::{Scenario, SchemeKind};

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to obs server");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    (head.to_string(), body.to_string())
}

/// The acceptance path of the telemetry plane: while a sweep runs,
/// `curl`-style scrapes return lint-clean exposition whose
/// `qres_admission_test_ns` histogram counts live admissions, the JSON
/// snapshot stays well-formed, and the progress counters reach
/// planned == done by the end.
#[test]
fn scrape_during_running_sweep() {
    qres::obs::set_level(qres::obs::Level::Info);
    let server = qres::obs::ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let obs = qres::obs::current();
    let sweep = std::thread::spawn(move || {
        qres::obs::install(obs);
        let base = Scenario::paper_baseline()
            .scheme(SchemeKind::Ac3)
            .duration_secs(400.0)
            .seed(5);
        qres::sim::sweep_offered_load(&base, &[100.0, 250.0])
    });

    // Poll /metrics until the admission histogram counts a test — this
    // is the live mid-run scrape the whole subsystem exists for. The
    // first admission happens within milliseconds of the sweep starting,
    // so the deadline is generous purely for slow CI machines.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut live_body = String::new();
    while Instant::now() < deadline {
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        let admissions = body
            .lines()
            .find_map(|l| l.strip_prefix("qres_admission_test_ns_count "))
            .and_then(|n| n.parse::<u64>().ok());
        if admissions.is_some_and(|n| n > 0) {
            live_body = body;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !live_body.is_empty(),
        "no admission test appeared on the live endpoint"
    );
    qres::obs::validate_prometheus_text(&live_body).expect("live scrape must lint clean");

    // The secondary routes answer concurrently with the running sweep.
    // /healthz may legitimately report 503 mid-sweep (the high-load point
    // can push `P_HD` over target and fire the watchdog); both answers
    // must be well-formed.
    let (head, body) = http_get(addr, "/healthz");
    assert!(
        head.starts_with("HTTP/1.1 200") || head.starts_with("HTTP/1.1 503"),
        "head: {head}"
    );
    assert!(
        body.starts_with("ok\n") || body.starts_with("degraded\n"),
        "body: {body}"
    );
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"));
    let (head, _) = http_get(addr, "/workers");
    assert!(head.starts_with("HTTP/1.1 404"));
    let (head, body) = http_get(addr, "/metrics.json");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert!(head.contains("application/json"));
    let snapshot = qres_json::Value::parse(&body).expect("JSON snapshot parses");
    let qres_json::Value::Object(sections) = &snapshot else {
        panic!("snapshot is not an object")
    };
    let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "counters",
            "gauges",
            "histograms",
            "qos",
            "alerts",
            "flight"
        ]
    );

    let points = sweep.join().expect("sweep thread");
    assert_eq!(points.len(), 2);

    // After the sweep: progress counters closed out, still lint-clean.
    let (_, done_body) = http_get(addr, "/metrics");
    qres::obs::validate_prometheus_text(&done_body).expect("final scrape must lint clean");
    assert!(done_body.contains("qres_sweep_points_planned_total 2"));
    assert!(done_body.contains("qres_sweep_points_done_total 2"));
    server.shutdown();
}
