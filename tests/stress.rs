//! Kitchen-sink stress tests: every substrate feature in one network, on
//! every algorithm. These don't pin precise numbers — they pin that the
//! system composes: no panics, conservation holds, queues stay bounded,
//! and nobody starves outright.

use phantom_repro::atm::network::SessionId;
use phantom_repro::atm::network::{NetworkBuilder, TrunkIdx};
use phantom_repro::atm::source::AbrSource;
use phantom_repro::atm::units::{cps_to_mbps, mbps_to_cps};
use phantom_repro::atm::{AtmParams, Traffic};
use phantom_repro::scenarios::common::AtmAlgorithm;
use phantom_repro::sim::{Engine, SimDuration, SimTime};

/// A network using every feature at once — heterogeneous trunk speeds, a
/// lossy hop, greedy/windowed/periodic/stochastic ABR sessions, an
/// MCR-guaranteed session, CBR background, heterogeneous access delays.
fn kitchen_sink(
    alg: AtmAlgorithm,
    seed: u64,
) -> (
    Engine<phantom_repro::atm::AtmMsg>,
    phantom_repro::atm::Network,
) {
    let mut b = NetworkBuilder::new();
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    let s3 = b.switch("s3");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    b.trunk(s2, s3, 100.0, SimDuration::from_millis(1));
    b.last_trunk_loss(0.002);

    // Greedy long session over both trunks.
    b.session(&[s1, s2, s3], Traffic::greedy());
    // Windowed session joining late.
    b.session(
        &[s1, s2],
        Traffic::window(SimTime::from_millis(200), SimTime::MAX),
    );
    // Periodic burster.
    b.session(
        &[s2, s3],
        Traffic::on_off(
            SimTime::from_millis(50),
            SimDuration::from_millis(25),
            SimDuration::from_millis(25),
        ),
    );
    // Stochastic burster with a long access delay.
    b.session(
        &[s1, s2],
        Traffic::random(SimDuration::from_millis(15), SimDuration::from_millis(30)),
    );
    b.last_session_access_prop(SimDuration::from_millis(5));
    // MCR-guaranteed session (10 Mb/s floor).
    let mut g = AtmParams::paper().with_icr_mbps(10.0);
    g.mcr = mbps_to_cps(10.0);
    b.session_with(&[s1, s2, s3], Traffic::greedy(), g);
    // Unresponsive CBR background on the first trunk.
    b.cbr_session(&[s1, s2], 20.0, Traffic::greedy());

    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || alg.boxed());
    engine.run_until(SimTime::from_millis(900));
    (engine, net)
}

fn check(alg: AtmAlgorithm, seed: u64) {
    let (engine, net) = kitchen_sink(alg, seed);
    let name = alg.name();
    for t in 0..2 {
        let port = net.trunk_port(&engine, TrunkIdx(t));
        assert!(
            port.queue_high_water() <= 16_384,
            "{name}: trunk {t} queue bound violated"
        );
        let util = net.trunk_throughput(&engine, TrunkIdx(t)).mean_after(0.4) / port.capacity();
        assert!(util <= 1.001, "{name}: trunk {t} over unity: {util}");
    }
    // Nobody starves: every ABR session delivers something in steady
    // state, and the guaranteed session holds a real share.
    for s in 0..5 {
        let rate = net.session_rate(&engine, SessionId(s)).mean_after(0.4);
        assert!(
            rate > 100.0,
            "{name}: session {s} starved ({rate:.0} cells/s)"
        );
    }
    let guaranteed = net.session_rate(&engine, SessionId(4)).mean_after(0.4);
    assert!(
        cps_to_mbps(guaranteed) > 5.0,
        "{name}: MCR session squeezed to {:.1} Mb/s",
        cps_to_mbps(guaranteed)
    );
    // The ABR sources are alive (no wedged state machines).
    for s in net.sessions.iter().take(5) {
        let src = engine.node::<AbrSource>(s.source);
        assert!(src.cells_sent > 1000, "{name}: a source wedged");
    }
}

#[test]
fn kitchen_sink_phantom() {
    check(AtmAlgorithm::Phantom, 101);
}

#[test]
fn kitchen_sink_phantom_ni() {
    check(AtmAlgorithm::PhantomNi, 102);
}

#[test]
fn kitchen_sink_eprca() {
    check(AtmAlgorithm::Eprca, 103);
}

#[test]
fn kitchen_sink_aprc() {
    check(AtmAlgorithm::Aprc, 104);
}

#[test]
fn kitchen_sink_capc() {
    check(AtmAlgorithm::Capc, 105);
}

#[test]
fn kitchen_sink_erica() {
    check(AtmAlgorithm::Erica, 106);
}

#[test]
fn kitchen_sink_osu() {
    check(AtmAlgorithm::Osu, 107);
}

#[test]
fn kitchen_sink_is_deterministic() {
    let fingerprint = |seed| {
        let (engine, net) = kitchen_sink(AtmAlgorithm::Phantom, seed);
        let mut v = vec![engine.events_processed() as f64];
        for s in 0..5 {
            v.push(net.session_rate(&engine, SessionId(s)).mean_after(0.4));
        }
        v
    };
    assert_eq!(fingerprint(42), fingerprint(42));
    assert_ne!(fingerprint(42), fingerprint(43));
}

/// A generated metro-shaped scene: 15 leaves × 100 sessions whose ACR
/// pacing timers beat in step, so a burst of ~1,500 same-slice events
/// laps the timer wheel.
const CALENDAR_FAN_IN: &str = r#"{
  "schema": "phantom-scene/1",
  "id": "calendar-fan-in",
  "describe": "fan-in whose lockstep pacing timers lap the timer wheel",
  "algorithm": "phantom",
  "duration_ms": 120,
  "generate": {
    "kind": "fan_in",
    "seed": 7,
    "leaves": 15,
    "sessions_per_leaf": 100,
    "leaf_mbps": 155.0,
    "root_mbps": 622.0,
    "prop_us": 10.0,
    "start_spread_ms": 5.0,
    "rate_sample_ms": 25.0,
    "acr_stride": 64,
    "icr_mbps": 0.005
  },
  "analysis": { "n_sessions": 1500 }
}"#;

/// The calendar's heap follows the events pending, not the peak every
/// wheel slot ever held. Sampled every 250 µs of simulated time, the
/// heap must stay within 16× the pending peak's entry bytes. That
/// leaves room for the warm small buckets a drained slot may keep (up
/// to `BUCKET_RETAIN_CAP` entries each; about 13× the pending peak
/// here, with ~1,200 of them warm at once). A calendar that keeps
/// every bucket's capacity ends this run holding ~320×.
#[test]
fn calendar_memory_follows_pending_events() {
    use phantom_repro::atm::AtmMsg;
    use phantom_repro::scene::{compile, parse_scene};
    use phantom_repro::sim::event::EventQueue;

    let scene = parse_scene(CALENDAR_FAN_IN).expect("scene parses");
    let c = compile(&scene, 1996);
    let mut engine = c.engine;
    let entry = EventQueue::<AtmMsg>::ENTRY_BYTES;
    let mut peak = engine.pending_events();
    let mut t = SimTime::ZERO;
    while t < c.until {
        t += SimDuration::from_micros(250);
        engine.run_until(t);
        peak = peak.max(engine.pending_events());
        let held = engine.calendar_heap_bytes();
        assert!(
            held <= 16 * peak * entry,
            "at {t} the calendar holds {held} B for a pending peak of {peak} \
             events × {entry} B"
        );
    }
    assert!(engine.events_processed() > 100_000, "the scene must run");
}
