//! The serve workload's client: expected bodies, store fill, and the
//! open-loop read ladder with the miss stream beside it.
//!
//! Protocol with `run.py`, one line each way: this process prints
//! `{"expected": ..}` once the expected bodies are computed and reads
//! `addr HOST:PORT` for the daemon to fill; it prints `{"filled_s": ..}`
//! and reads the address of the daemon to load; it prints the load result.

use crate::json::J;
use crate::loadgen::{self, Limits, Outcome, Request};
use crate::work::{self, JOBS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::BufRead;
use std::time::{Duration, Instant};
use wavelan_bench::run_report;
use wavelan_core::{Executor, Scale, NAMES};
use wavelan_serve::client::Conn;

/// Load connections: the host's core count. One thread drives them.
const CONNECTIONS: usize = 2;

/// Fresh-seed misses offered per second beside the reads, over the ladder
/// steps up to `READ_RATE` (past it, a miss would only measure the read
/// backlog it queues behind).
const MISS_RATE: f64 = 2.0;

/// The offered read rate `read_p50_ms` and `read_p99_ms` report.
const READ_RATE: f64 = 4_000.0;

/// The artifact the miss stream computes: cheap, so misses stay a slow
/// trickle of writes rather than a compute benchmark.
const MISS_ARTIFACT: &str = "table4";

/// Seeds of the keys the store is filled with: every artifact at smoke
/// scale at each seed. They are fixed, not drawn from `--seed`, so every run
/// reads the same keys and the same body sizes, and the split of reads
/// between the tiers does not depend on where a seed's key strings hash.
/// 1996 is the daemon's paper-default seed: it warms those keys from disk
/// at start-up, so `setup_s` includes warming.
const FILL_SEEDS: [u64; 4] = [1996, 1997, 1998, 1999];

/// The hot key: one body of median size (about 2 KB), which stays in the
/// memory tier. A single key fits whatever shard it hashes to, since every
/// shard of `--cache 16` holds at least two entries.
const HOT: (&str, u64) = ("table4", 1996);

/// Share of reads that go to the hot key. The synthetic mix is chosen to
/// exercise both tiers, not taken from a traffic trace. The other reads
/// cycle through every other filled key in a seed-shuffled order; the
/// cycle is several times the memory tier's 16 entries, so by its turn
/// each key has been evicted and is read from disk.
const HOT_SHARE: f64 = 0.7;

/// `(offered reads/s, share of the load window)` — light load to past
/// saturation. The 4,000/s step is the one `read_p50_ms`/`read_p99_ms`
/// report, so it runs longest.
const LADDER: [(f64, f64); 6] = [
    (1_000.0, 0.08),
    (2_000.0, 0.08),
    (4_000.0, 0.50),
    (8_000.0, 0.10),
    (16_000.0, 0.12),
    (32_000.0, 0.12),
];

/// The ladder and its steps' lengths: `full` spreads the load window over
/// every step; the short probe (the serve leg of a batch workload's traced
/// run) offers 1,000 reads/s for two seconds.
fn ladder(full: bool, seconds: u64) -> Vec<(f64, Duration)> {
    if full {
        let window = seconds as f64 * 0.8;
        LADDER
            .iter()
            .map(|&(rate, share)| (rate, Duration::from_secs_f64(window * share)))
            .collect()
    } else {
        vec![(1_000.0, Duration::from_secs(2))]
    }
}

fn read_addr(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> String {
    let line = lines
        .next()
        .and_then(Result::ok)
        .unwrap_or_else(|| crate::fail("stdin closed before a daemon address"));
    line.strip_prefix("addr ")
        .unwrap_or_else(|| crate::fail("expected `addr HOST:PORT`"))
        .trim()
        .to_string()
}

fn run_path(artifact: &str, seed: u64) -> String {
    format!("/run/{artifact}?seed={seed}&scale=smoke")
}

/// One scheduled request with the body it must return.
struct Planned {
    request: Request,
    expected: usize,
    step: Option<usize>,
}

pub fn main(seed: u64, seconds: u64, mode: &str) {
    let full = match mode {
        "full" => true,
        "probe" => false,
        _ => crate::fail("--mode is full or probe"),
    };
    let exec = Executor::new(JOBS);
    let steps = ladder(full, seconds);
    let miss_window: Duration = steps
        .iter()
        .filter(|&&(rate, _)| rate <= READ_RATE)
        .map(|&(_, d)| d)
        .sum();

    // Expected bodies, computed in-process before any timed window: every
    // artifact at smoke scale at the fill seeds (the filled keys), then the
    // miss stream's fresh seeds.
    let mut bodies: Vec<(String, String)> = Vec::new();
    for s in FILL_SEEDS {
        for name in NAMES {
            let report = run_report(name, Scale::Smoke, s, &exec).expect("registered");
            bodies.push((run_path(name, s), work::run_json(report, Scale::Smoke, s)));
        }
    }
    let filled = bodies.len();
    let misses = (miss_window.as_secs_f64() * MISS_RATE).floor().max(1.0) as u64;
    for k in 0..misses {
        let s = seed.wrapping_mul(10_000).wrapping_add(1_000_000 + k);
        let report = run_report(MISS_ARTIFACT, Scale::Smoke, s, &exec).expect("registered");
        bodies.push((
            run_path(MISS_ARTIFACT, s),
            work::run_json(report, Scale::Smoke, s),
        ));
    }
    crate::emit(&J::obj(vec![
        ("expected", J::Int(filled as u64)),
        ("misses", J::Int(misses)),
    ]));

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();

    // Fill: every key once through the daemon, which computes and persists.
    let addr = read_addr(&mut lines);
    let start = Instant::now();
    let mut fill_failed = 0u64;
    let mut conn = Conn::connect(&addr, Duration::from_secs(30)).ok();
    for (path, body) in &bodies[..filled] {
        let response = conn
            .as_mut()
            .and_then(|c| c.request(path).ok())
            .or_else(|| {
                conn = Conn::connect(&addr, Duration::from_secs(30)).ok();
                conn.as_mut().and_then(|c| c.request(path).ok())
            });
        if !matches!(response, Some(r) if r.status == 200 && r.body == *body) {
            fill_failed += 1;
        }
    }
    drop(conn);
    crate::emit(&J::obj(vec![
        ("filled_s", J::Num(start.elapsed().as_secs_f64())),
        ("fill_attempted", J::Int(filled as u64)),
        ("fill_failed", J::Int(fill_failed)),
    ]));

    // The schedule: reads on the ladder, misses spread evenly over the
    // steps up to READ_RATE.
    let mut rng = StdRng::seed_from_u64(seed);
    let hot = bodies
        .iter()
        .position(|(path, _)| *path == run_path(HOT.0, HOT.1))
        .expect("the hot key is filled");
    let mut cold: Vec<usize> = (0..filled).filter(|&k| k != hot).collect();
    for i in (1..cold.len()).rev() {
        cold.swap(i, rng.gen_range(0..=i));
    }
    let mut cold_cycle = cold.iter().copied().cycle();
    let lead = Duration::from_millis(20);
    let mut plan: Vec<Planned> = Vec::new();
    let mut step_start = lead;
    for (i, &(rate, length)) in steps.iter().enumerate() {
        let n = (rate * length.as_secs_f64()).round() as u64;
        for k in 0..n {
            let key = if rng.gen::<f64>() < HOT_SHARE {
                hot
            } else {
                cold_cycle.next().expect("the cycle is endless")
            };
            plan.push(Planned {
                request: Request {
                    due: step_start + Duration::from_secs_f64(k as f64 / rate),
                    path: bodies[key].0.clone(),
                },
                expected: key,
                step: Some(i),
            });
        }
        step_start += length;
    }
    for k in 0..misses {
        let key = filled + k as usize;
        plan.push(Planned {
            request: Request {
                due: lead + miss_window.mul_f64((k as f64 + 0.5) / misses as f64),
                path: bodies[key].0.clone(),
            },
            expected: key,
            step: None,
        });
    }
    plan.sort_by_key(|p| p.request.due);

    let addr = read_addr(&mut lines);
    let limits = Limits {
        connections: CONNECTIONS,
        max_in_flight: 64,
        max_per_conn: 1_000,
        stall_timeout: Duration::from_secs(10),
    };
    let schedule: Vec<Request> = plan.iter().map(|p| p.request.clone()).collect();
    let mut problems = Vec::new();
    let outcomes = loadgen::drive(&addr, Instant::now(), &schedule, limits, |i, body| {
        body == bodies[plan[i].expected].1.as_bytes()
    })
    .unwrap_or_else(|e| {
        problems.push(format!("load connection failed: {e}"));
        vec![Outcome::default(); plan.len()]
    });
    let metrics = wavelan_serve::client::get(&addr, "/metrics", Duration::from_secs(10))
        .map(|r| r.body)
        .unwrap_or_default();

    // Per step: latency from due and generator lateness of every read, ms.
    let ms = |ns: u64| ns as f64 / 1e6;
    let due_ns = |p: &Planned| u64::try_from(p.request.due.as_nanos()).unwrap_or(u64::MAX);
    let mut step_json = Vec::new();
    for (i, &(rate, length)) in steps.iter().enumerate() {
        let (mut lat, mut late, mut failed, mut attempted, mut last_done) =
            (vec![], vec![], 0u64, 0u64, 0u64);
        for (p, o) in plan
            .iter()
            .zip(&outcomes)
            .filter(|(p, _)| p.step == Some(i))
        {
            attempted += 1;
            if o.ok {
                lat.push(ms(o.done_ns - due_ns(p)));
                late.push(ms(o.sent_ns.saturating_sub(due_ns(p))));
                last_done = last_done.max(o.done_ns);
            } else {
                failed += 1;
            }
        }
        let first_due = plan.iter().find(|p| p.step == Some(i)).map_or(0, due_ns);
        step_json.push(J::obj(vec![
            ("rate", J::Num(rate)),
            ("seconds", J::Num(length.as_secs_f64())),
            ("attempted", J::Int(attempted)),
            ("failed", J::Int(failed)),
            (
                "served_s",
                J::Num(ms(last_done.saturating_sub(first_due)) / 1e3),
            ),
            ("lat_ms", J::nums(&lat)),
            ("late_ms", J::nums(&late)),
        ]));
    }
    let mut miss_lat = Vec::new();
    let mut miss_failed = 0u64;
    for (p, o) in plan.iter().zip(&outcomes).filter(|(p, _)| p.step.is_none()) {
        if o.ok {
            miss_lat.push(ms(o.done_ns - due_ns(p)));
        } else {
            miss_failed += 1;
        }
    }
    let first_due = plan.first().map_or(0, due_ns);
    let last_done = outcomes.iter().map(|o| o.done_ns).max().unwrap_or(0);
    crate::emit(&J::obj(vec![
        ("steps", J::Arr(step_json)),
        (
            "miss",
            J::obj(vec![
                ("attempted", J::Int(misses)),
                ("failed", J::Int(miss_failed)),
                ("lat_ms", J::nums(&miss_lat)),
            ]),
        ),
        (
            "load_s",
            J::Num(ms(last_done.saturating_sub(first_due)) / 1e3),
        ),
        (
            "problems",
            J::Arr(problems.iter().map(|p| J::str(p)).collect()),
        ),
        ("metrics", J::Str(metrics)),
    ]));
}
