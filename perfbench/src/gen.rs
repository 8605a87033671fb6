//! Seeded scene generators. Every input the program receives is a
//! `phantom-scene/1` document built here from the workload seed, so the
//! same seed always yields byte-identical inputs.

use phantom_scene::model::ALGORITHMS;
use phantom_scene::{
    AnalysisDecl, GenerateDecl, GenerateKind, Scene, SessionDecl, TrafficDecl, TrunkDecl,
};
use phantom_sim::rng::derive_seed;
use phantom_sim::SeedStream;

/// Random picks for the generators, drawn from the simulator's own
/// derived-seed stream.
pub struct Rng(SeedStream);

impl Rng {
    /// A stream for `seed`, independent per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(SeedStream::new(derive_seed(seed, stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_seed()
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`, rounded to 0.1 so scene text stays short.
    pub fn tenths(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (10.0 * (lo + (hi - lo) * u)).floor() / 10.0
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[(self.next_u64() % xs.len() as u64) as usize]
    }
}

/// Sessions per leaf of the measured metro scene (30,000 in all).
pub const METRO_SESSIONS_PER_LEAF: usize = 2_000;
/// Simulated length of a metro run, ms.
pub const METRO_DURATION_MS: f64 = 200.0;

/// Access switches of every generated metro scene.
const METRO_LEAVES: usize = 15;

/// A `fan_in` metro scene: `sessions_per_leaf` sessions on each of
/// [`METRO_LEAVES`] leaves, with capacities and initial cell rate as in
/// `scenes/metro/metro-100k.json`. The seed picks the generator seed
/// (per-session start jitter), the start spread and the propagation
/// delay, within ranges narrow enough that every seed does about the
/// same work.
pub fn metro_scene(seed: u64, sessions_per_leaf: usize) -> Scene {
    let mut r = Rng::new(seed, 1);
    let sessions = METRO_LEAVES * sessions_per_leaf;
    Scene {
        id: format!("metro-{sessions}-{seed}"),
        describe: format!("generated fan-in metro: {sessions} sessions over {METRO_LEAVES} leaves"),
        algorithm: "phantom".into(),
        duration_ms: METRO_DURATION_MS,
        u: None,
        cbr_priority: false,
        generate: Some(GenerateDecl {
            kind: GenerateKind::FanIn {
                leaves: METRO_LEAVES,
                sessions_per_leaf,
                leaf_mbps: 155.0,
                root_mbps: 622.0,
                prop_us: r.tenths(8.0, 12.0),
            },
            seed: r.next_u64() >> 32,
            start_spread_ms: r.tenths(45.0, 55.0),
            rate_sample_ms: 25.0,
            acr_stride: 64,
            icr_mbps: Some(0.005),
        }),
        switches: Vec::new(),
        trunks: Vec::new(),
        sessions: Vec::new(),
        bottleneck: 0,
        timeline: Vec::new(),
        analysis: AnalysisDecl {
            n_sessions: Some(sessions),
            ..AnalysisDecl::default()
        },
    }
}

/// Trunk capacities of the serve mix, Mb/s.
const SERVE_MBPS: [f64; 4] = [45.0, 100.0, 150.0, 155.0];

/// Simulated length of the serve warm-up job, ms.
pub const SERVE_WARMUP_MS: f64 = 250.0;

/// Job `index` of the serve mix for `seed`: a chain of 1–3 hops, 2–8
/// greedy, window or on/off sessions over contiguous stretches of the
/// chain, and 20–60 ms simulated, under any scene algorithm.
///
/// Job sizes are stratified rather than drawn: hop count, session
/// count, duration, trunk capacities and each session's traffic kind
/// cycle with the index, so every seed's mix has the same size
/// composition — the same work per burst and the same sequence of
/// large traces — and seeds differ in everything else (algorithm,
/// delays, routes, start and on/off times).
pub fn serve_scene(seed: u64, index: u64) -> Scene {
    let mut r = Rng::new(seed, 2 + index);
    let hops = 1 + (index % 3) as usize;
    let n_sessions = 2 + (index / 3) % 7;
    let duration_ms = (20 + (index * 7) % 41) as f64;
    let switches: Vec<String> = (0..=hops).map(|i| format!("s{i}")).collect();
    let trunks = (0..hops)
        .map(|h| TrunkDecl {
            a: switches[h].clone(),
            b: switches[h + 1].clone(),
            mbps: SERVE_MBPS[((index / 21 + h as u64) % 4) as usize],
            prop_us: *r.pick(&[10.0, 50.0, 100.0, 500.0]),
            u: None,
            alpha_inc: None,
            alpha_dec: None,
        })
        .collect();
    let sessions = (0..n_sessions)
        .map(|i| {
            let from = r.int(0, hops as u64 - 1) as usize;
            let to = r.int(from as u64 + 1, hops as u64) as usize;
            let start_ms = r.tenths(0.0, duration_ms / 2.0);
            let traffic = match (index / 84 + i) % 3 {
                0 => TrafficDecl::Greedy,
                1 => TrafficDecl::Window {
                    start_ms,
                    stop_ms: r.tenths(start_ms + 1.0, duration_ms + 1.0),
                },
                _ => TrafficDecl::OnOff {
                    start_ms,
                    on_ms: r.tenths(2.0, 10.0) + 0.1,
                    off_ms: r.tenths(2.0, 10.0) + 0.1,
                },
            };
            SessionDecl {
                id: format!("x{i}"),
                path: switches[from..=to].to_vec(),
                traffic,
                cbr_mbps: None,
            }
        })
        .collect();
    Scene {
        id: format!("serve-{index}"),
        describe: format!("generated serve job {index} of seed {seed}"),
        algorithm: r.pick(&ALGORITHMS).to_string(),
        duration_ms,
        u: None,
        cbr_priority: false,
        generate: None,
        switches,
        trunks,
        sessions,
        bottleneck: 0,
        timeline: Vec::new(),
        analysis: AnalysisDecl::default(),
    }
}

/// The serve warm-up job, the same for every seed: eight greedy
/// sessions end to end over three 155 Mb/s hops for
/// [`SERVE_WARMUP_MS`]. Its trace is several times larger than any job
/// of the mix, so the memory it takes to run and fetch it sets the
/// daemon's peak, and peak memory compares across seeds.
pub fn serve_warmup_scene() -> Scene {
    let hops = 3;
    let switches: Vec<String> = (0..=hops).map(|i| format!("s{i}")).collect();
    let trunks = (0..hops)
        .map(|h| TrunkDecl {
            a: switches[h].clone(),
            b: switches[h + 1].clone(),
            mbps: 155.0,
            prop_us: 50.0,
            u: None,
            alpha_inc: None,
            alpha_dec: None,
        })
        .collect();
    let sessions = (0..8)
        .map(|i| SessionDecl {
            id: format!("x{i}"),
            path: switches.clone(),
            traffic: TrafficDecl::Greedy,
            cbr_mbps: None,
        })
        .collect();
    Scene {
        id: "serve-warmup".into(),
        describe: "serve warm-up: the largest job, run before the measured phase".into(),
        algorithm: "phantom".into(),
        duration_ms: SERVE_WARMUP_MS,
        u: None,
        cbr_priority: false,
        generate: None,
        switches,
        trunks,
        sessions,
        bottleneck: 0,
        timeline: Vec::new(),
        analysis: AnalysisDecl::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_scene::parse_scene;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for seed in [0, 1, 1996, u64::MAX] {
            let m = |s| metro_scene(s, METRO_SESSIONS_PER_LEAF).to_json();
            assert_eq!(m(seed), m(seed));
            for i in 0..20 {
                assert_eq!(
                    serve_scene(seed, i).to_json(),
                    serve_scene(seed, i).to_json()
                );
            }
        }
        let m = |s| metro_scene(s, METRO_SESSIONS_PER_LEAF).to_json();
        assert_ne!(m(1), m(2));
        assert_ne!(serve_scene(1, 0).to_json(), serve_scene(2, 0).to_json());
        assert_ne!(serve_scene(1, 0).to_json(), serve_scene(1, 1).to_json());
    }

    #[test]
    fn every_generated_scene_passes_scene_validation() {
        for seed in 0..40 {
            for per_leaf in [1, 20, METRO_SESSIONS_PER_LEAF] {
                let m = metro_scene(seed, per_leaf);
                let parsed = parse_scene(&m.to_json()).expect("metro scene validates");
                assert_eq!(parsed, m, "metro text round-trips");
                let g = parsed.generate.expect("generated topology");
                assert_eq!(g.n_sessions(), METRO_LEAVES * per_leaf);
            }
            for i in 0..50 {
                let s = serve_scene(seed, i);
                let parsed = parse_scene(&s.to_json())
                    .unwrap_or_else(|e| panic!("serve scene {seed}/{i} invalid: {e}"));
                assert_eq!(parsed, s, "serve text round-trips");
                assert!((2..=8).contains(&s.sessions.len()));
                assert!((1..=3).contains(&s.trunks.len()));
                assert!((20.0..=60.0).contains(&s.duration_ms));
            }
        }
    }

    #[test]
    fn every_seed_gets_the_same_size_composition() {
        let shape = |s: &Scene| {
            let mbps: Vec<u64> = s.trunks.iter().map(|t| t.mbps as u64).collect();
            let kinds: Vec<u8> = s
                .sessions
                .iter()
                .map(|x| match x.traffic {
                    TrafficDecl::Greedy => 0,
                    TrafficDecl::Window { .. } => 1,
                    _ => 2,
                })
                .collect();
            (s.sessions.len(), s.duration_ms as u64, mbps, kinds)
        };
        for i in 0..300 {
            assert_eq!(shape(&serve_scene(1, i)), shape(&serve_scene(2, i)));
        }
    }

    #[test]
    fn the_warm_up_job_is_fixed_and_outsizes_the_mix() {
        let w = serve_warmup_scene();
        assert_eq!(w.to_json(), serve_warmup_scene().to_json());
        let parsed = parse_scene(&w.to_json()).expect("warm-up scene validates");
        assert_eq!(parsed, w);
        assert!(w.sessions.iter().all(|s| s.path.len() == 4));
        assert!(w.sessions.iter().all(|s| s.traffic == TrafficDecl::Greedy));
        assert!(w.trunks.iter().all(|t| t.mbps == 155.0));
        // Offered cell load bounds trace size: the mix's heaviest job
        // (8 sessions, 60 ms) stays well under the warm-up's.
        let load = |s: &Scene| s.sessions.len() as f64 * s.duration_ms;
        let heaviest = (0..600)
            .map(|i| load(&serve_scene(1996, i)))
            .fold(0.0, f64::max);
        assert!(load(&w) >= 3.0 * heaviest);
    }

    #[test]
    fn the_serve_mix_covers_every_algorithm_and_traffic_kind() {
        let mix: Vec<Scene> = (0..200).map(|i| serve_scene(1996, i)).collect();
        for alg in ALGORITHMS {
            assert!(mix.iter().any(|s| s.algorithm == alg), "{alg} missing");
        }
        let kinds = |f: fn(&TrafficDecl) -> bool| {
            mix.iter().flat_map(|s| &s.sessions).any(|x| f(&x.traffic))
        };
        assert!(kinds(|t| matches!(t, TrafficDecl::Greedy)));
        assert!(kinds(|t| matches!(t, TrafficDecl::Window { .. })));
        assert!(kinds(|t| matches!(t, TrafficDecl::OnOff { .. })));
    }
}
