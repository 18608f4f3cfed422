//! End-to-end: registry → Prometheus render → HTTP scrape, and the
//! span!/event! macros feeding the trace ring.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pl_obs::{prom, trace, MetricsRegistry};

#[test]
fn scrape_reflects_live_registry() {
    let reg = Arc::new(MetricsRegistry::new());
    reg.counter("e2e_requests_total").add(5);
    reg.histogram_with("e2e_latency_ns", &[("path", "adj")])
        .record(100);

    let render_reg = reg.clone();
    let render: pl_obs::http::RenderFn = Arc::new(move || prom::render(&render_reg.samples()));
    let mut h = pl_obs::http::expose("127.0.0.1:0", render).unwrap();

    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.contains("e2e_requests_total 5"), "{body}");
    assert!(body.contains("e2e_latency_ns{path=\"adj\",quantile=\"0.5\"} 128"));
    assert!(body.contains("e2e_latency_ns_count{path=\"adj\"} 1"));

    // The scrape re-renders: a later increment is visible.
    reg.counter("e2e_requests_total").add(2);
    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.contains("e2e_requests_total 7"), "{body}");
    h.shutdown();
}

// The single drain-calling test in this binary (drains consume the
// process-global rings).
#[test]
fn macros_record_spans_and_events() {
    // Disabled by default: no events.
    {
        let _g = pl_obs::span!("e2e.disabled");
    }
    pl_obs::set_tracing(true);
    {
        let _g = pl_obs::span!("e2e.span", 11, 22);
        pl_obs::event!("e2e.event", 33);
    }
    pl_obs::set_tracing(false);

    let jsonl = trace::drain_jsonl();
    assert!(!jsonl.contains("e2e.disabled"), "{jsonl}");
    let span_line = jsonl
        .lines()
        .find(|l| l.contains("\"name\":\"e2e.span\""))
        .expect("span line present");
    assert!(span_line.contains("\"a\":11"));
    assert!(span_line.contains("\"b\":22"));
    assert!(jsonl
        .lines()
        .any(|l| l.contains("\"name\":\"e2e.event\"") && l.contains("\"a\":33")));
    // Events within the span have start inside the span's window.
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
}
