//! Golden-snapshot test for the telemetry JSON exporter.
//!
//! The registry is deterministic (BTreeMap ordering, fixed bucket
//! bounds, no wall-clock anywhere), so a fixed synthetic workload
//! exports a **byte-identical** document every run. The committed
//! fixture pins that byte stream; any change to field names, ordering,
//! or float formatting must be deliberate and must bump
//! [`TELEMETRY_SCHEMA_VERSION`].

use serde::Value;
use telemetry::{Telemetry, TELEMETRY_SCHEMA_VERSION};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/telemetry.golden.json"
);

/// A fixed synthetic registry exercising every section of the export:
/// counters, gauges, histograms (with an overflow-adjacent value),
/// per-phase ns, flight-recorder rings on two devices, and a
/// postmortem.
fn golden_registry() -> Telemetry {
    let tel = Telemetry::with_ring_limit(3);
    tel.counter_add("train.rounds_total", 5);
    tel.counter_inc("train.retries_total");
    tel.gauge_set("train.pool_high_water", 6.0);
    tel.gauge_set("serve.batch_fill_ratio", 0.75);
    tel.hist_observe("train.split_gain", 0.5);
    tel.hist_observe("train.split_gain", 3.25);
    tel.hist_observe("serve.latency_ns", 1500.0);
    tel.record_charge(0, "hist_build", "Histogram", 1200.0, 0.0, 0);
    tel.record_charge(0, "split_eval", "SplitEval", 300.0, 1200.0, 0);
    tel.record_charge(0, "all_gather", "Comm", 90.5, 1500.0, 2);
    tel.record_charge(0, "partition", "Partition", 42.0, 1590.5, 1);
    tel.record_charge(1, "hist_build", "Histogram", 1100.0, 0.0, 0);
    tel.record_fault(1, "transient fault injected at charge 4");
    tel.record_span(0, "round/level", 0.0, 1632.5);
    tel.record_postmortem("DeviceLost at round 2 (golden fixture)");
    tel
}

/// The export is byte-identical to the committed fixture. Regenerate
/// after an intentional change with
/// `UPDATE_GOLDEN=1 cargo test -p telemetry --test golden`.
#[test]
fn telemetry_json_matches_golden_fixture() {
    let json = golden_registry().to_json();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing fixture: run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, want,
        "telemetry JSON drifted from tests/golden/telemetry.golden.json; \
         if intentional, bump TELEMETRY_SCHEMA_VERSION and regenerate \
         with UPDATE_GOLDEN=1"
    );
}

/// Structural contract, independent of the byte fixture: the envelope
/// carries exactly the documented sections, in order, and the schema
/// header matches the crate constant.
#[test]
fn telemetry_json_sections_are_stable() {
    let json = golden_registry().to_json();
    let v: Value = serde_json::from_str(&json).expect("valid JSON");
    let obj = v.as_object().expect("envelope object");
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "telemetry_schema_version",
            "counters",
            "gauges",
            "histograms",
            "recorder",
            "flight_recorder",
            "postmortems",
        ],
        "envelope sections changed — bump TELEMETRY_SCHEMA_VERSION"
    );
    let (_, ver) = &obj[0];
    assert_eq!(ver, &Value::UInt(TELEMETRY_SCHEMA_VERSION as u64));

    // Every flight-recorder event carries the pinned field set.
    let (_, recorder) = obj
        .iter()
        .find(|(k, _)| k == "flight_recorder")
        .expect("flight_recorder");
    for dev in recorder.as_array().expect("device array") {
        let (_, events) = dev
            .as_object()
            .expect("device object")
            .iter()
            .find(|(k, _)| k == "events")
            .expect("events");
        for e in events.as_array().expect("events array") {
            let ekeys: Vec<&str> = e
                .as_object()
                .expect("event object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                ekeys,
                ["seq", "kind", "device", "name", "detail", "start_ns", "end_ns", "stream"],
                "event fields changed — bump TELEMETRY_SCHEMA_VERSION"
            );
        }
    }
}

/// The bounded ring sheds the oldest events: device 0 got 5 events
/// (4 charges + 1 span) with limit 3, so 2 dropped and the postmortem
/// keeps the most recent ones.
#[test]
fn golden_registry_ring_sheds_oldest() {
    let tel = golden_registry();
    let pms = tel.postmortems();
    assert_eq!(pms.len(), 1);
    assert_eq!(pms[0].dropped_events, 2);
    assert!(pms[0].events.len() == 5, "3 (dev 0) + 2 (dev 1) retained");
    let json = tel.last_postmortem_json().expect("postmortem present");
    let v: Value = serde_json::from_str(&json).expect("postmortem JSON parses");
    assert!(v.as_object().is_some());
}
